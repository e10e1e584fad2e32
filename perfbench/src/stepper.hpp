// Drives a CodCluster through its public calls only: SimNetwork::advance
// and CodCluster::cb(i).tick. Unlike CodCluster::step, which ticks every
// CB in lockstep, each computer here ticks on its own schedule whose
// intervals are drawn from the seed (uniform in [0.5, 1.5] x the mean), as
// the computers of a real rack each run at their own pace. Latency in
// virtual time is then a distribution rather than one tick, and it moves
// with the seed while staying reproducible for a given seed.
#pragma once

#include <functional>
#include <vector>

#include "common.hpp"
#include "core/cluster.hpp"

namespace pb {

class JitteredStepper {
 public:
  JitteredStepper(cod::core::CodCluster& cluster, std::uint64_t seed,
                 double meanTickSec);

  /// Register computers added to the cluster since the last call.
  void syncComputers();

  /// Advance virtual time to `tEnd`, ticking each CB whenever it is due.
  void runUntil(double tEnd);
  /// Run until `pred()` holds (checked after every tick) or `maxTime`
  /// virtual seconds pass; returns whether it held.
  bool runUntil(const std::function<bool()>& pred, double maxTime);

  /// When set, the host time of every cb.tick and network advance is
  /// accumulated per computer (traced runs only; costs two clock reads
  /// per call).
  bool timeLayers = false;
  /// Called with the computer's index after each of its ticks.
  std::function<void(std::size_t)> afterTick;
  std::vector<double> tickHostSec;   // per computer
  double advanceHostSec = 0.0;

 private:
  /// Tick the CB that is due next if it is due at or before `tEnd`.
  bool stepOnce(double tEnd);

  cod::core::CodCluster& cluster_;
  Rng rng_;
  double meanTick_;
  std::vector<double> due_;
  std::uint64_t ticks_ = 0;
};

}  // namespace pb
