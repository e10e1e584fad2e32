// udp_mesh: 4 CBs on real loopback UdpTransport sockets, driven from one
// thread in a closed loop. In each round every CB ticks once, at a CB-clock
// time drawn from the seed inside a 1/60 s frame, in time order; each CB's
// LP publishes crane.state to the 3 others from step(). The only workload
// whose datagrams cross the kernel.
//
// Loopback delivers a datagram into the receiver's socket queue within
// the sending syscall, so a CB that ticks later in the round sees it; the
// CB-clock latency is then a function of the seed. A datagram that is not
// yet queued shows up a round later and moves the latency figures.

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstdio>
#include <functional>
#include <memory>
#include <numeric>

#include "checks.hpp"
#include "common.hpp"
#include "core/cb.hpp"
#include "layers.hpp"
#include "net/udp.hpp"
#include "payloads.hpp"
#include "sim/object_classes.hpp"

namespace pb {

namespace cc = cod::core;

namespace {

constexpr int kNodes = 4;
constexpr double kFrameSec = 1.0 / 60.0;
constexpr int kRoundTicks = 60;  // ticks per CB per round (one CB second)
constexpr int kSetups = 9;  // before measuring; more follow while measuring
constexpr std::size_t kExpected = kNodes * (kNodes - 1);  // subscriptions
constexpr int kFixedRounds = 10;  // rounds behind the CB-clock metrics
/// While measuring, build and wire one more mesh every this many rounds,
/// so setup_s samples the whole run's host conditions, not its start.
constexpr int kSetupEveryRounds = 25;

std::string udpClass(int i) {
  return cod::sim::kClassCraneState + "." + std::to_string(i);
}

class UdpMesh;

class UdpNode : public cc::LogicalProcess {
 public:
  UdpNode(UdpMesh& m, std::uint16_t id)
      : cc::LogicalProcess("udp-" + std::to_string(id)), m_(m), id_(id) {}
  void reflectAttributeValues(const std::string& className,
                              const cc::AttributeSet& attrs,
                              double timestamp) override;
  void step(double now) override;

  cc::PublicationHandle pub = cc::kInvalidHandle;
  std::vector<cc::SubscriptionHandle> subs;
  std::uint32_t seq = 0;

 private:
  UdpMesh& m_;
  std::uint16_t id_;
};

class UdpMesh {
 public:
  UdpMesh(std::uint64_t seed, bool traced) : seed(seed), rng(seed, 0x0D9) {
    cod::net::UdpConfig cfg;
    cfg.maxHosts = kNodes;
    cfg.portsPerHost = 2;
    cfg.basePort = cod::net::pickEphemeralBasePort(
        static_cast<std::uint16_t>(cfg.maxHosts * cfg.portsPerHost));
    cc::CommunicationBackbone::Config cbc;
    cbc.phaseProfile = traced;
    for (int i = 0; i < kNodes; ++i) {
      auto t = std::make_unique<cod::net::UdpTransport>(
          cfg, static_cast<cod::net::HostId>(i), 1);
      cbs.push_back(std::make_unique<cc::CommunicationBackbone>(
          "udp-" + std::to_string(i), std::move(t), cbc));
      nodes.push_back(
          std::make_unique<UdpNode>(*this, static_cast<std::uint16_t>(i)));
      cbs.back()->attach(*nodes.back());
    }
    for (int i = 0; i < kNodes; ++i) {
      UdpNode& n = *nodes[static_cast<std::size_t>(i)];
      n.pub = cbs[static_cast<std::size_t>(i)]->publishObjectClass(n, udpClass(i));
      for (int j = 0; j < kNodes; ++j)
        if (j != i)
          n.subs.push_back(
              cbs[static_cast<std::size_t>(i)]->subscribeObjectClass(n, udpClass(j)));
    }
    tickHostSec.assign(kNodes, 0.0);
  }

  std::size_t liveSources() const {
    std::size_t n = 0;
    for (int i = 0; i < kNodes; ++i)
      for (const auto h : nodes[static_cast<std::size_t>(i)]->subs)
        n += cbs[static_cast<std::size_t>(i)]->sourceCount(h);
    return n;
  }

  /// One frame: every CB ticks once, in the order of its drawn time.
  /// `afterTick` (optional) runs after each CB's tick.
  void frame(const std::function<void()>& afterTick = {}) {
    std::array<std::pair<double, int>, kNodes> order;
    for (int i = 0; i < kNodes; ++i)
      order[static_cast<std::size_t>(i)] = {frameStart + kFrameSec * rng.uniform(), i};
    std::sort(order.begin(), order.end());
    for (const auto& [t, i] : order) {
      clock = t;
      if (timeLayers) {
        const double h0 = hostSec();
        cbs[static_cast<std::size_t>(i)]->tick(t);
        const double h1 = hostSec();
        tickHostSec[static_cast<std::size_t>(i)] += h1 - h0;
        spans().add("cb.tick", "core", h0, h1, static_cast<std::uint32_t>(i + 1));
      } else {
        cbs[static_cast<std::size_t>(i)]->tick(t);
      }
      if (afterTick) afterTick();
    }
    frameStart += kFrameSec;
  }

  std::uint64_t sum(std::uint64_t cod::net::TransportStats::*f) const {
    std::uint64_t s = 0;
    for (const auto& cb : cbs)
      if (const auto* t = cb->transportStats()) s += t->*f;
    return s;
  }

  std::uint64_t seed;
  Rng rng;
  std::vector<std::unique_ptr<cc::CommunicationBackbone>> cbs;
  std::vector<std::unique_ptr<UdpNode>> nodes;
  double frameStart = 0.0;
  double clock = 0.0;  // CB clock of the tick in progress
  bool publishing = false;
  std::uint32_t quota = 0;  // updates per publisher so far allowed
  std::vector<Delivery> deliveries;
  std::vector<double> latencies;
  std::uint64_t reflected = 0;
  bool unidentified = false;
  bool timeLayers = false;
  std::vector<double> tickHostSec;
  double publishHostSec = 0.0, generateHostSec = 0.0;
  std::uint64_t publishCalls = 0;
  std::vector<cc::AttributeSet> payloadSample;
};

void UdpNode::reflectAttributeValues(const std::string&,
                                     const cc::AttributeSet& attrs,
                                     double timestamp) {
  Delivery d;
  d.sub = id_;
  if (!identifyCraneState(attrs, d.pub, d.seq)) {
    m_.unidentified = true;
    return;
  }
  d.cls = d.pub;
  d.digest = digestOf(attrs);
  m_.deliveries.push_back(d);
  m_.latencies.push_back(m_.clock - timestamp);
  ++m_.reflected;
}

void UdpNode::step(double now) {
  if (!m_.publishing || seq >= m_.quota) return;
  ++seq;
  if (m_.timeLayers) {
    const double t0 = hostSec();
    const cc::AttributeSet a = craneStatePayload(m_.seed, id_, id_, seq);
    const double t1 = hostSec();
    backbone()->updateAttributeValues(pub, a, now);
    const double t2 = hostSec();
    m_.generateHostSec += t1 - t0;
    m_.publishHostSec += t2 - t1;
    ++m_.publishCalls;
    if (m_.payloadSample.size() < 256) m_.payloadSample.push_back(a);
  } else {
    backbone()->updateAttributeValues(
        pub, craneStatePayload(m_.seed, id_, id_, seq), now);
  }
}

/// One round: every publisher publishes kRoundTicks more updates.
void round(UdpMesh& m) {
  m.publishing = true;
  m.quota += kRoundTicks;
  for (int t = 0; t < kRoundTicks; ++t) m.frame();
}

struct SetupOutcome {
  std::unique_ptr<UdpMesh> mesh;
  double hostSec = 0.0;
  std::vector<double> subAt;  // CB-clock time each subscription was wired
  bool wired = false;
};

/// Bind, construct, wire and warm up (one round) one mesh.
SetupOutcome setUp(std::uint64_t seed, bool traced) {
  SetupOutcome out;
  const double s0 = hostSec();
  out.mesh = std::make_unique<UdpMesh>(seed, traced);
  UdpMesh& m = *out.mesh;
  // A subscription is wired at the CB-clock time of the tick that brought
  // its publisher. The check is the benchmark's bookkeeping; its host time
  // is taken out of the set-up time.
  out.subAt.assign(kExpected, -1.0);
  std::size_t done = 0;
  double bookkeeping = 0.0;
  const auto probeWiring = [&] {
    const double b0 = hostSec();
    std::size_t k = 0;
    for (int n = 0; n < kNodes; ++n)
      for (const auto h : m.nodes[static_cast<std::size_t>(n)]->subs) {
        if (out.subAt[k] < 0.0 &&
            m.cbs[static_cast<std::size_t>(n)]->sourceCount(h) > 0) {
          out.subAt[k] = m.clock;
          ++done;
        }
        ++k;
      }
    bookkeeping += hostSec() - b0;
  };
  while (done < kExpected && m.frameStart < 5.0) m.frame(probeWiring);
  out.wired = done == kExpected;
  round(m);  // warm-up: one round of traffic
  out.hostSec = hostSec() - s0 - bookkeeping;
  spans().add("setup", "setup", s0, hostSec());
  return out;
}

}  // namespace

Result runUdpMesh(const Options& o) {
  Result res;
  Spans& sp = spans();
  const double h0 = hostSec();
  std::vector<double> setupHost;
  std::vector<double> wireUp;    // every subscription, per set-up
  std::vector<double> subWired;  // per subscription, all set-ups
  std::unique_ptr<UdpMesh> kept;
  // Each set-up wires an independent mesh (its own sub-seed); the last
  // one, on --seed itself, is measured.
  for (int i = kSetups - 1; i >= 0; --i) {
    kept.reset();  // close the previous sockets first
    SetupOutcome su = setUp(subSeed(o.seed, i), o.trace);
    setupHost.push_back(su.hostSec);
    wireUp.push_back(*std::max_element(su.subAt.begin(), su.subAt.end()));
    subWired.insert(subWired.end(), su.subAt.begin(), su.subAt.end());
    res.require(su.wired && su.mesh->liveSources() == kExpected,
                "udp_mesh: " + std::to_string(su.mesh->liveSources()) + "/" +
                    std::to_string(kExpected) + " sources live");
    kept = std::move(su.mesh);
  }
  UdpMesh& m = *kept;

  StreamChecker checker([&](std::uint16_t pub, std::uint32_t cls,
                            std::uint32_t seq) {
    return digestOf(craneStatePayload(o.seed, pub, cls, seq));
  });
  for (int s = 0; s < kNodes; ++s)
    for (int p = 0; p < kNodes; ++p)
      if (s != p)
        checker.owe(static_cast<std::uint16_t>(s), static_cast<std::uint16_t>(p),
                    static_cast<std::uint32_t>(p), 1, UINT32_MAX);
  auto harvest = [&] {
    for (const Delivery& d : m.deliveries) checker.observe(d);
    m.deliveries.clear();
    m.latencies.clear();
    checker.forgetExpected();
  };
  harvest();

  std::vector<double> fixedLatency;
  std::uint64_t fixedReflected = 0, fixedBytes = 0;
  std::uint64_t fp = 0x0D9ull;
  const std::uint64_t bytes0 = m.sum(&cod::net::TransportStats::bytesSent);
  std::vector<Slice> samples;  // per round
  LayerTotals fixedCounts;  // CB counters at the end of the fixed rounds
  double measuredHost = 0.0;  // host time inside measured rounds
  double timedHost = 0.0, untimedHost = 0.0;
  std::uint64_t timedRefl = 0, untimedRefl = 0, timedDgrams = 0;
  int r = 0;
  while (r < kFixedRounds || measuredHost < o.seconds) {
    const bool timed = o.trace && r % 2 == 0;
    m.timeLayers = timed;
    const std::uint64_t a = m.reflected;
    const std::uint64_t din = m.sum(&cod::net::TransportStats::packetsReceived);
    const double t0 = hostSec();
    round(m);
    const double t1 = hostSec();
    sp.add("round", "round", t0, t1, 0, static_cast<std::uint64_t>(r));
    measuredHost += t1 - t0;
    samples.push_back({m.reflected - a, t1 - t0, kRoundTicks * kFrameSec});
    if (o.trace) {
      (timed ? timedHost : untimedHost) += t1 - t0;
      (timed ? timedRefl : untimedRefl) += m.reflected - a;
      if (timed)
        timedDgrams += m.sum(&cod::net::TransportStats::packetsReceived) - din;
    }
    if (r < kFixedRounds) {
      fixedLatency.insert(fixedLatency.end(), m.latencies.begin(),
                          m.latencies.end());
      fixedReflected += m.deliveries.size();
      for (const Delivery& d : m.deliveries)
        fp = fold(fold(fp, (static_cast<std::uint64_t>(d.sub) << 48) |
                               (static_cast<std::uint64_t>(d.pub) << 32) |
                               d.seq),
                  d.digest);
      if (r == kFixedRounds - 1) {
        fixedBytes = m.sum(&cod::net::TransportStats::bytesSent) - bytes0;
        for (const auto& cb : m.cbs) fixedCounts.add(*cb);
      }
    }
    harvest();
    ++r;
    if (r % kSetupEveryRounds == 0) {
      const SetupOutcome extra = setUp(subSeed(o.seed, kSetups + r), o.trace);
      res.require(extra.wired, "udp_mesh: a set-up did not wire");
      setupHost.push_back(extra.hostSec);
    }
  }
  m.timeLayers = false;

  // Drain: stop publishing, tick until everything owed is in.
  m.publishing = false;
  const std::uint64_t owed =
      static_cast<std::uint64_t>(kNodes) * (kNodes - 1) * m.quota;
  std::uint64_t seen = 0;
  for (int f = 0; f < 120; ++f) {
    m.frame();
    seen = m.reflected;
    if (seen >= owed) break;
  }
  for (int f = 0; f < 3; ++f) m.frame();
  harvest();
  for (int s = 0; s < kNodes; ++s)
    for (int p = 0; p < kNodes; ++p)
      if (s != p)
        checker.owe(static_cast<std::uint16_t>(s), static_cast<std::uint16_t>(p),
                    static_cast<std::uint32_t>(p), 1, m.quota);
  const StreamChecker::Verdict v = checker.finish();
  res.require(!m.unidentified, "a reflection could not be identified");
  res.require(v.clean(), "udp_mesh streams: " + v.describe());
  res.notes.push_back("streams: " + v.describe());
  res.attempted = v.owed;
  res.failed = v.missing;

  for (const double l : fixedLatency) fp = foldDouble(fp, l);
  fp = foldDouble(fp, wireUp.back());
  char buf[64];
  std::snprintf(buf, sizeof buf, "fingerprint: %016" PRIx64, fp);
  res.notes.push_back(buf);

  std::vector<double> latMs;
  for (const double l : fixedLatency) latMs.push_back(l * 1e3);
  res.e2e("setup_s", median(setupHost), "s");
  const HostRates hr = hostRates(samples);
  res.e2e("sim_speed_x", hr.simSpeedX, "x");
  res.e2e("updates_per_s", hr.updatesPerSec, "1/s");
  res.e2e("latency_ms.p50", quantile(latMs, 0.50), "ms");
  res.e2e("latency_ms.p99", quantile(latMs, 0.99), "ms");
  res.e2e("wire_bytes_per_update",
          static_cast<double>(fixedBytes) / static_cast<double>(fixedReflected),
          "B");
  res.e2e("wire_up_s", interquartileMean(subWired), "s");
  res.notes.push_back("latency: CB-clock p50 and p99 over " +
                      std::to_string(latMs.size()) + " samples");
  res.notes.push_back("rounds: " + std::to_string(r) + " in " +
                      std::to_string(measuredHost) + " host s; " +
                      "pace per round: median " +
                      std::to_string(hr.medianSpeedX) + "x" +
                      "; run " + std::to_string(hostSec() - h0) + " s");

  if (o.trace) {
    LayerTotals lt;
    lt.reflected = m.reflected;
    lt.packets = m.sum(&cod::net::TransportStats::packetsSent);
    lt.frames = m.sum(&cod::net::TransportStats::framesSent);
    lt.tickHostSec = std::accumulate(m.tickHostSec.begin(),
                                     m.tickHostSec.end(), 0.0);
    lt.timedReflected = timedRefl;
    lt.publishHostSec = m.publishHostSec;
    lt.generateHostSec = m.generateHostSec;
    lt.publishCalls = m.publishCalls;
    lt.tracedHostPerUpdate = timedRefl ? timedHost / static_cast<double>(timedRefl) : 0.0;
    lt.untracedHostPerUpdate =
        untimedRefl ? untimedHost / static_cast<double>(untimedRefl) : 0.0;
    lt.udpTickUsPerDatagram =
        timedDgrams ? (lt.tickHostSec - lt.publishHostSec - lt.generateHostSec) *
                          1e6 / static_cast<double>(timedDgrams)
                    : 0.0;
    for (const auto& cb : m.cbs) lt.add(*cb);
    lt.takeCounters(fixedCounts);
    lt.fullWireUpSec = mean(wireUp);
    reportCoreAndNet(res, lt, m.payloadSample);
    reportNoRackLayers(res);
  }
  return res;
}

}  // namespace pb
