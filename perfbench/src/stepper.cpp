#include "stepper.hpp"

#include <algorithm>

namespace pb {

JitteredStepper::JitteredStepper(cod::core::CodCluster& cluster,
                               std::uint64_t seed, double meanTickSec)
    : cluster_(cluster), rng_(seed, 0x7171), meanTick_(meanTickSec) {
  syncComputers();
}

void JitteredStepper::syncComputers() {
  while (due_.size() < cluster_.size()) {
    // First tick lands somewhere inside one mean interval from now.
    due_.push_back(cluster_.now() + meanTick_ * rng_.uniform());
    tickHostSec.push_back(0.0);
    spans().nameThread(static_cast<std::uint32_t>(due_.size()),
                       "computer " + std::to_string(due_.size() - 1));
  }
}

bool JitteredStepper::stepOnce(double tEnd) {
  const auto it = std::min_element(due_.begin(), due_.end());
  if (it == due_.end() || *it > tEnd) return false;
  const std::size_t i = static_cast<std::size_t>(it - due_.begin());
  const double t = *it;
  cod::net::SimNetwork& net = cluster_.network();
  if (timeLayers) {
    const double h0 = hostSec();
    if (t > net.now()) net.advance(t - net.now());
    const double h1 = hostSec();
    cluster_.cb(i).tick(net.now());
    const double h2 = hostSec();
    advanceHostSec += h1 - h0;
    tickHostSec[i] += h2 - h1;
    spans().add("SimNetwork::advance", "net", h0, h1, 0, ticks_);
    spans().add("cb.tick", "core", h1, h2, static_cast<std::uint32_t>(i + 1),
                ticks_);
  } else {
    if (t > net.now()) net.advance(t - net.now());
    cluster_.cb(i).tick(net.now());
  }
  if (afterTick) afterTick(i);
  ++ticks_;
  due_[i] = t + meanTick_ * (0.5 + rng_.uniform());
  return true;
}

void JitteredStepper::runUntil(double tEnd) {
  while (stepOnce(tEnd)) {
  }
  cod::net::SimNetwork& net = cluster_.network();
  if (tEnd > net.now()) net.advance(tEnd - net.now());
}

bool JitteredStepper::runUntil(const std::function<bool()>& pred,
                              double maxTime) {
  while (!pred()) {
    if (!stepOnce(maxTime)) return pred();
  }
  return true;
}

}  // namespace pb
