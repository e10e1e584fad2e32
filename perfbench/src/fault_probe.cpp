// Deterministic reproduction of the reliable-channel fault seen in
// reliable_mass: when a publisher times a reliable channel out while the
// subscriber still holds it as live (the subscriber's uplink was lost for
// longer than channelTimeoutSec, as a clump of lost heartbeats does at 25%
// loss), the publisher stops sending, the subscriber keeps counting the
// channel as a source until its own timeout, and the channel then comes
// back at a later base sequence. The updates published in between were
// owed to a connected subscriber and are never delivered, with no gap
// reported to the subscribing LP.
//
// The probe uses fixed inputs (two computers, lossless LAN, a scripted
// 3.5 s uplink outage) that do not depend on --seed, so it loses the same
// updates every time.

#include <algorithm>
#include <memory>

#include "checks.hpp"
#include "core/cb.hpp"
#include "fault_probe.hpp"
#include "net/simnet.hpp"

namespace pb {

namespace cc = cod::core;

namespace {

/// Drops every outbound datagram while `dark` is set.
class GatedTransport final : public cod::net::Transport {
 public:
  explicit GatedTransport(std::unique_ptr<cod::net::Transport> inner)
      : inner_(std::move(inner)) {}
  cod::net::NodeAddr localAddress() const override {
    return inner_->localAddress();
  }
  void send(const cod::net::NodeAddr& dst,
            std::span<const std::uint8_t> bytes) override {
    if (!dark) inner_->send(dst, bytes);
  }
  void broadcast(std::uint16_t port,
                 std::span<const std::uint8_t> bytes) override {
    if (!dark) inner_->broadcast(port, bytes);
  }
  std::optional<cod::net::Datagram> receive() override {
    return inner_->receive();
  }
  const cod::net::TransportStats* stats() const override {
    return inner_->stats();
  }
  bool dark = false;

 private:
  std::unique_ptr<cod::net::Transport> inner_;
};

const std::string kProbeClass = "probe.reliable";

class ProbePublisher : public cc::LogicalProcess {
 public:
  ProbePublisher() : cc::LogicalProcess("probe-pub") {}
  void step(double now) override {
    if (!publishing || now < nextDue) return;
    nextDue += 0.1;
    ++seq;
    cc::AttributeSet a;
    a.set("seq", static_cast<std::int64_t>(seq));
    a.set("value", 0.5 * seq);
    backbone()->updateAttributeValues(pub, a, now);
    // Owed iff the subscriber holds a live source right now.
    if (subscriberCb->connected(sub)) owed.push_back(seq);
  }
  cc::PublicationHandle pub = cc::kInvalidHandle;
  cc::SubscriptionHandle sub = cc::kInvalidHandle;
  const cc::CommunicationBackbone* subscriberCb = nullptr;
  bool publishing = false;
  double nextDue = 0.0;
  std::uint32_t seq = 0;
  std::vector<std::uint32_t> owed;
};

class ProbeSubscriber : public cc::LogicalProcess {
 public:
  ProbeSubscriber() : cc::LogicalProcess("probe-sub") {}
  void reflectAttributeValues(const std::string&, const cc::AttributeSet& a,
                              double) override {
    got.push_back(static_cast<std::uint32_t>(a.getInt("seq")));
    values.push_back(a.getDouble("value"));
  }
  std::vector<std::uint32_t> got;
  std::vector<double> values;
};

}  // namespace

ProbeOutcome runOrphanProbe() {
  cod::net::SimNetwork net(1);
  const auto hp = net.addHost("probe-publisher");
  const auto hs = net.addHost("probe-subscriber");
  auto gated = std::make_unique<GatedTransport>(net.bind(hs, 1));
  GatedTransport& gate = *gated;
  cc::CommunicationBackbone pcb("probe-publisher", net.bind(hp, 1));
  cc::CommunicationBackbone scb("probe-subscriber", std::move(gated));
  ProbePublisher p;
  ProbeSubscriber s;
  pcb.attach(p);
  scb.attach(s);
  p.pub = pcb.publishObjectClass(p, kProbeClass,
                                 cod::net::QosClass::kReliableOrdered);
  p.sub = scb.subscribeObjectClass(s, kProbeClass,
                                   cod::net::QosClass::kReliableOrdered);
  p.subscriberCb = &scb;

  const double dt = 0.005;
  auto stepTo = [&](double t) {
    while (net.now() + 1e-12 < t) {
      net.advance(dt);
      pcb.tick(net.now());
      scb.tick(net.now());
    }
  };
  ProbeOutcome out;
  while (!scb.connected(p.sub) && net.now() < 5.0) stepTo(net.now() + dt);
  p.publishing = true;
  p.nextDue = net.now();
  const double t0 = net.now();
  stepTo(t0 + 1.0);
  gate.dark = true;  // subscriber uplink lost for 3.5 s
  stepTo(t0 + 4.5);
  gate.dark = false;
  stepTo(t0 + 12.0);
  p.publishing = false;
  stepTo(t0 + 15.0);

  // Check: in order, no duplicates, right values; missing = owed - got.
  bool ordered = true;
  for (std::size_t i = 1; i < s.got.size(); ++i)
    ordered = ordered && s.got[i] > s.got[i - 1];
  bool values = true;
  for (std::size_t i = 0; i < s.got.size(); ++i)
    values = values && s.values[i] == 0.5 * s.got[i];
  out.owed = p.owed.size();
  std::vector<std::uint32_t> missing;
  for (const std::uint32_t q : p.owed)
    if (!std::binary_search(s.got.begin(), s.got.end(), q))
      missing.push_back(q);
  out.delivered = s.got.size();
  out.missing = missing.size();
  out.clean = ordered && values;
  out.describe = "orphan probe: owed=" + std::to_string(out.owed) +
                 " delivered=" + std::to_string(out.delivered) +
                 " missing=" + std::to_string(out.missing);
  if (!missing.empty())
    out.describe += " (seq " + std::to_string(missing.front()) + ".." +
                    std::to_string(missing.back()) + ")";
  out.describe += std::string(" ordered=") + (ordered ? "yes" : "no") +
                  " values=" + (values ? "ok" : "WRONG");
  return out;
}

}  // namespace pb
