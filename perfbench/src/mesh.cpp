// state_mesh and reliable_mass: computers on a SimNetwork that only
// publish and subscribe, so host time is the CB's own (encode, fan-out,
// coalesce, decode, route, reliable admit, mailbox, reflect) plus the
// simulated LAN.
//
// A run is: set up the world several times (construct, wire, warm up with
// a fixed amount of traffic) and keep the last one; measure whole rounds
// of one virtual second until the host budget is spent; stop publishing,
// drain, and check every (subscriber, publisher, class) stream. Virtual
// time metrics, byte counts and the output fingerprint come from the
// first kFixedRounds rounds, which every run completes, so they are exact
// functions of the seed.

#include <algorithm>
#include <cmath>
#include <limits>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <numeric>

#include "checks.hpp"
#include "common.hpp"
#include "stepper.hpp"
#include "fault_probe.hpp"
#include "layers.hpp"
#include "payloads.hpp"
#include "sim/object_classes.hpp"

namespace pb {

namespace cc = cod::core;

cc::AttributeSet craneStatePayload(std::uint64_t seed, std::uint16_t pub,
                                   std::uint32_t, std::uint32_t seq) {
  Rng r(seed ^ (static_cast<std::uint64_t>(pub) << 40), seq);
  cod::sim::CraneStateMsg m;
  auto& s = m.state;
  s.carrierPosition = {100.0 * r.uniform(), 100.0 * r.uniform(), r.uniform()};
  s.carrierHeadingRad = 6.28 * r.uniform();
  s.carrierPitchRad = 0.1 * r.uniform();
  s.carrierRollRad = 0.1 * r.uniform();
  s.carrierSpeedMps = 5.0 * r.uniform();
  s.slewAngleRad = 6.28 * r.uniform();
  s.boomPitchRad = 1.2 * r.uniform();
  s.boomLengthM = 9.0 + 17.0 * r.uniform();
  s.cableLengthM = 0.5 + 20.0 * r.uniform();
  s.hookLoadKg = static_cast<double>(pub);  // identifies the publisher
  s.cargoAttached = (seq & 1u) != 0;
  s.engineOn = true;
  s.engineRpm = 800.0 + 1500.0 * r.uniform();
  m.boomTip = {r.uniform(), r.uniform(), 20.0 * r.uniform()};
  m.hookPosition = {r.uniform(), r.uniform(), 10.0 * r.uniform()};
  m.cargoPosition = {r.uniform(), r.uniform(), 5.0 * r.uniform()};
  m.workingRadiusM = 20.0 * r.uniform();
  m.momentUtilisation = r.uniform();
  m.rolloverIndex = r.uniform();
  m.alarmBits = seq;  // identifies the update
  m.simTimeSec = seq / 60.0;
  m.windSpeedMps = 8.0 * r.uniform();
  m.outriggerProgress = r.uniform();
  return cod::sim::encodeCraneState(m);
}

bool identifyCraneState(const cc::AttributeSet& a, std::uint16_t& pub,
                        std::uint32_t& seq) {
  pub = static_cast<std::uint16_t>(a.getDouble("hookLoad"));
  seq = static_cast<std::uint32_t>(a.getInt("alarms"));
  return true;
}

namespace {

constexpr int kFixedRounds = 6;    // rounds behind the virtual-time metrics
constexpr double kRoundSec = 1.0;  // virtual seconds of publishing per round
constexpr double kStepSec = 0.01;   // virtual step while a round runs
/// Virtual seconds per host-rate sample (~10 ms of host time on
/// state_mesh): the finer the samples, the surer a run holds some that
/// other tenants left alone (README: host drift).
constexpr double kSampleSec = 0.1;
/// Extra wirings (to three quarters of the subscriptions) behind wire_up_s.
constexpr int kWiringSamples = 8;
/// While measuring, build and wire one more world every this many rounds,
/// so setup_s samples the whole run's host conditions, not its start.
constexpr int kSetupEveryRounds = 10;
constexpr double kMeanTickSec = 0.005;
constexpr double kDrainCheckSec = 0.01;  // drain predicate cadence

/// One mesh workload's make-up.
struct MeshSpec {
  const char* name = "";
  int computers = 0;
  int classes = 0;
  double rateHz = 0.0;
  cod::net::QosClass qos = cod::net::QosClass::kBestEffort;
  cod::net::LinkModel link;
  std::uint32_t shards = 1;
  double wireLimitSec = 0.0;
  double drainSec = 0.0;    // virtual seconds allowed for the final drain
  /// Publish through set-up until every source has been live, with no
  /// channel timing out anywhere, for channelTimeoutSec + 0.5 s; only
  /// updates published after that are owed. At 25% loss channels time
  /// out in clumps while wiring, and an update published into a channel
  /// the publisher has already dropped is lost (the fault the probe
  /// reproduces); that loss depends on the seed, so set-up traffic is
  /// checked and reported but not counted.
  bool settle = false;
  /// Run the deterministic orphaned-channel probe once per round.
  bool faultProbe = false;
  int setups = 3;  // set-ups before measuring; setup_s is the median
  /// Also set up while measuring (kSetupEveryRounds); off where a set-up
  /// costs seconds.
  bool interleaveSetups = false;
  /// Publishing computers of class `cls`.
  std::vector<int> (*publishersOf)(int cls, int computers) = nullptr;
  /// Does computer `comp` subscribe to class `cls`?
  bool (*subscribes)(int comp, int cls, int computers) = nullptr;
  std::string (*className)(int cls) = nullptr;
  /// Payload of update `seq` of class `cls` from computer `pub`.
  cc::AttributeSet (*generate)(std::uint64_t seed, std::uint16_t pub,
                               std::uint32_t cls, std::uint32_t seq) = nullptr;
  /// Recover (pub, seq) from a reflected payload.
  bool (*identify)(const cc::AttributeSet& a, std::uint16_t& pub,
                   std::uint32_t& seq) = nullptr;
};

// ---- state_mesh -----------------------------------------------------------

std::vector<int> stateMeshPublishers(int cls, int) { return {cls}; }
bool stateMeshSubscribes(int comp, int cls, int) { return comp != cls; }
std::string stateMeshClass(int cls) {
  return cod::sim::kClassCraneState + "." + std::to_string(cls);
}

// ---- reliable_mass --------------------------------------------------------

std::vector<int> massPublishers(int cls, int n) {
  return {cls % n, (cls + 1) % n};
}
bool massSubscribes(int, int, int) { return true; }
std::string massClass(int cls) { return "mass." + std::to_string(cls); }

cc::AttributeSet massGenerate(std::uint64_t seed, std::uint16_t pub,
                              std::uint32_t cls, std::uint32_t seq) {
  Rng r(seed ^ (static_cast<std::uint64_t>(pub) << 40) ^ cls, seq);
  cc::AttributeSet a;
  a.set("pub", static_cast<std::int64_t>(pub));
  a.set("seq", static_cast<std::int64_t>(seq));
  a.set("value", r.uniform());
  a.set("flag", (r.next() & 1u) != 0);
  return a;
}

bool massIdentify(const cc::AttributeSet& a, std::uint16_t& pub,
                  std::uint32_t& seq) {
  pub = static_cast<std::uint16_t>(a.getInt("pub"));
  seq = static_cast<std::uint32_t>(a.getInt("seq"));
  return true;
}

MeshSpec stateMeshSpec() {
  MeshSpec s;
  s.name = "state_mesh";
  s.computers = 16;
  s.classes = 16;
  s.rateHz = 60.0;
  s.qos = cod::net::QosClass::kBestEffort;
  s.setups = 9;
  s.interleaveSetups = true;
  s.wireLimitSec = 10.0;
  s.drainSec = 0.5;
  s.publishersOf = stateMeshPublishers;
  s.subscribes = stateMeshSubscribes;
  s.className = stateMeshClass;
  s.generate = craneStatePayload;
  s.identify = identifyCraneState;
  return s;
}

MeshSpec reliableMassSpec() {
  MeshSpec s;
  s.name = "reliable_mass";
  s.computers = 10;
  s.classes = 100;
  s.rateHz = 10.0;
  s.qos = cod::net::QosClass::kReliableOrdered;
  s.link.lossRate = 0.25;
  s.link.jitterSec = 0.3e-3;
  s.shards = 2;
  s.settle = true;
  s.faultProbe = true;
  s.setups = 5;
  s.wireLimitSec = 60.0;
  s.drainSec = 10.0;
  s.publishersOf = massPublishers;
  s.subscribes = massSubscribes;
  s.className = massClass;
  s.generate = massGenerate;
  s.identify = massIdentify;
  return s;
}

class MeshWorld;

/// One computer's LP: publishes its classes from step(), records every
/// reflection it is pushed.
class MeshNode : public cc::LogicalProcess {
 public:
  MeshNode(MeshWorld& w, std::uint16_t id)
      : cc::LogicalProcess("mesh-" + std::to_string(id)), w_(w), id_(id) {}

  void reflectAttributeValues(const std::string& className,
                              const cc::AttributeSet& attrs,
                              double timestamp) override;
  void step(double now) override;
  std::uint16_t id() const { return id_; }

  struct Pub {
    cc::PublicationHandle h;
    std::uint32_t cls;
    std::uint32_t seq = 0;
    std::uint32_t base = 0;  // last sequence published during set-up
  };
  std::vector<Pub> pubs;
  std::vector<cc::SubscriptionHandle> subs;
  double nextDue = 0.0;

 private:
  MeshWorld& w_;
  std::uint16_t id_;
};

class MeshWorld {
 public:
  MeshWorld(const MeshSpec& spec, std::uint64_t seed, bool traced)
      : spec(spec), seed(seed), cluster(clusterConfig(spec, seed, traced)),
        stepper(cluster, seed, kMeanTickSec) {
    for (int c = 0; c < spec.classes; ++c) {
      classIndex[spec.className(c)] = static_cast<std::uint32_t>(c);
    }
    for (int i = 0; i < spec.computers; ++i) {
      auto& cb = cluster.addComputer("node-" + std::to_string(i));
      nodes.push_back(std::make_unique<MeshNode>(*this,
                                                 static_cast<std::uint16_t>(i)));
      cb.attach(*nodes.back());
    }
    stepper.syncComputers();
    for (int c = 0; c < spec.classes; ++c) {
      const std::string name = spec.className(c);
      for (const int p : spec.publishersOf(c, spec.computers)) {
        MeshNode& n = *nodes[static_cast<std::size_t>(p)];
        n.pubs.push_back({cluster.cb(static_cast<std::size_t>(p))
                              .publishObjectClass(n, name, spec.qos),
                          static_cast<std::uint32_t>(c)});
        ++pubCount;
      }
      for (int s = 0; s < spec.computers; ++s) {
        if (!spec.subscribes(s, c, spec.computers)) continue;
        MeshNode& n = *nodes[static_cast<std::size_t>(s)];
        n.subs.push_back(cluster.cb(static_cast<std::size_t>(s))
                             .subscribeObjectClass(n, name, spec.qos));
        const std::size_t want = spec.publishersOf(c, spec.computers).size();
        wiring.push_back({static_cast<std::size_t>(s), n.subs.back(), want});
        expectedSources += want;
      }
    }
  }

  static cc::CodCluster::Config clusterConfig(const MeshSpec& spec,
                                              std::uint64_t seed,
                                              bool traced) {
    cc::CodCluster::Config c;
    c.link = spec.link;
    c.seed = seed;
    c.cb.shards = spec.shards;
    c.cb.phaseProfile = traced;
    return c;
  }

  /// After computer `i` ticked: record the virtual time at which each of
  /// its subscriptions first has all of its publishers. Sources change
  /// only in the subscriber's own tick, so this is exact to the tick.
  void updateWiring(std::size_t i) {
    for (SubWiring& sw : wiring) {
      if (sw.computer != i || sw.wiredAt >= 0.0) continue;
      if (cluster.cb(i).sourceCount(sw.handle) >= sw.want) {
        sw.wiredAt = cluster.now();
        ++subsWired;
      }
    }
  }

  /// Live sources across every subscription of every computer.
  std::size_t liveSources() const {
    std::size_t n = 0;
    for (std::size_t i = 0; i < nodes.size(); ++i)
      for (const auto h : nodes[i]->subs) n += cluster.cb(i).sourceCount(h);
    return n;
  }

  std::uint64_t timedOut() const {
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < cluster.size(); ++i)
      n += cluster.cb(i).stats().channelsTimedOut;
    return n;
  }

  std::uint64_t bytesSent() const { return sumTransport(&cod::net::TransportStats::bytesSent); }
  std::uint64_t packetsSent() const { return sumTransport(&cod::net::TransportStats::packetsSent); }
  std::uint64_t framesSent() const { return sumTransport(&cod::net::TransportStats::framesSent); }
  std::uint64_t sumTransport(std::uint64_t cod::net::TransportStats::*f) const {
    std::uint64_t s = 0;
    for (std::size_t i = 0; i < cluster.size(); ++i)
      if (const auto* t = cluster.cb(i).transportStats()) s += t->*f;
    return s;
  }

  MeshSpec spec;
  std::uint64_t seed;
  cc::CodCluster cluster;
  JitteredStepper stepper;
  std::vector<std::unique_ptr<MeshNode>> nodes;
  std::unordered_map<std::string, std::uint32_t> classIndex;
  std::size_t expectedSources = 0;
  struct SubWiring {
    std::size_t computer;
    cc::SubscriptionHandle handle;
    std::size_t want;      // publishers the assignment rule predicts
    double wiredAt = -1.0;  // virtual time it first had them all
  };
  std::vector<SubWiring> wiring;
  std::size_t subsWired = 0;
  bool publishing = false;
  /// Every publication publishes exactly `quota` updates past its base
  /// and then waits for the round to end, so every round attempts the
  /// same operations. UINT32_MAX while settling.
  std::uint32_t quota = 0;
  std::size_t pubsAtQuota = 0;
  /// Base sequence of each (class, publisher); absent means 0.
  std::unordered_map<std::uint64_t, std::uint32_t> bases;
  static std::uint64_t pubKey(std::uint32_t cls, std::uint16_t pub) {
    return (static_cast<std::uint64_t>(cls) << 16) | pub;
  }
  std::uint32_t baseOf(std::uint32_t cls, std::uint16_t pub) const {
    const auto it = bases.find(pubKey(cls, pub));
    return it == bases.end() ? 0 : it->second;
  }
  std::size_t pubCount = 0;

  // Reflection records since the last harvest.
  std::vector<Delivery> deliveries;
  std::vector<double> latencies;  // virtual seconds, same order
  std::uint64_t reflected = 0;
  bool unidentified = false;

  // Traced run only: host time spent publishing from step().
  bool timePublish = false;
  double publishHostSec = 0.0;   // inside updateAttributeValues
  double generateHostSec = 0.0;  // building payloads
  std::uint64_t publishCalls = 0;
  std::vector<cc::AttributeSet> payloadSample;  // for encode/decode timing
};

void MeshNode::reflectAttributeValues(const std::string& className,
                                      const cc::AttributeSet& attrs,
                                      double timestamp) {
  Delivery d;
  d.sub = id_;
  const auto it = w_.classIndex.find(className);
  if (it == w_.classIndex.end() || !w_.spec.identify(attrs, d.pub, d.seq)) {
    w_.unidentified = true;
    return;
  }
  d.cls = it->second;
  d.digest = digestOf(attrs);
  w_.deliveries.push_back(d);
  w_.latencies.push_back(w_.cluster.now() - timestamp);
  ++w_.reflected;
}

void MeshNode::step(double now) {
  if (!w_.publishing || now < nextDue) return;
  nextDue += 1.0 / w_.spec.rateHz;
  if (nextDue <= now) nextDue = now + 1.0 / w_.spec.rateHz;
  cc::CommunicationBackbone& cb = *backbone();
  for (Pub& p : pubs) {
    if (p.seq - p.base >= w_.quota) continue;  // this round's share is out
    if (++p.seq - p.base == w_.quota) ++w_.pubsAtQuota;
    if (w_.timePublish) {
      const double t0 = hostSec();
      const cc::AttributeSet a = w_.spec.generate(w_.seed, id_, p.cls, p.seq);
      const double t1 = hostSec();
      cb.updateAttributeValues(p.h, a, now);
      const double t2 = hostSec();
      w_.generateHostSec += t1 - t0;
      w_.publishHostSec += t2 - t1;
      ++w_.publishCalls;
      if (w_.payloadSample.size() < 256) w_.payloadSample.push_back(a);
    } else {
      cb.updateAttributeValues(p.h, w_.spec.generate(w_.seed, id_, p.cls, p.seq),
                               now);
    }
  }
}

/// Run until every publication has published `quota` more updates (the
/// round's share; ~kRoundSec of virtual time). Appends the round's
/// kSampleSec samples to `samples` (a partial one at the end is dropped)
/// and returns the whole round.
Slice runRound(MeshWorld& w, std::vector<Slice>* samples = nullptr) {
  w.quota += static_cast<std::uint32_t>(w.spec.rateHz * kRoundSec + 0.5);
  w.pubsAtQuota = 0;
  if (!w.publishing) {
    w.publishing = true;
    for (auto& n : w.nodes) n->nextDue = w.cluster.now();
  }
  const std::uint64_t r0 = w.reflected;
  const double v0 = w.cluster.now();
  const double t0 = hostSec();
  std::uint64_t sr = r0;
  double st = t0, sv = v0;
  while (w.pubsAtQuota < w.pubCount) {
    w.stepper.runUntil(w.cluster.now() + kStepSec);
    if (samples && w.cluster.now() - sv >= kSampleSec - 1e-9) {
      const double now = hostSec();
      samples->push_back({w.reflected - sr, now - st, w.cluster.now() - sv});
      sr = w.reflected;
      st = now;
      sv = w.cluster.now();
    }
  }
  return {w.reflected - r0, hostSec() - t0, w.cluster.now() - v0};
}

/// Build, wire, settle and warm up (one round) one world.
struct SetupOutcome {
  std::unique_ptr<MeshWorld> world;
  double hostSec = 0.0;
  double wireUpSec = 0.0;  // virtual, until every subscription is wired
  std::vector<double> subWiredSec;  // virtual, per subscription
  bool wired = false;
  bool settled = true;
};

/// Run a fresh world until `target` subscriptions have all of their
/// publishers (or the wiring limit passes). Returns the host time of the
/// benchmark's own wiring bookkeeping, which set-up time leaves out.
double wire(MeshWorld& w, std::size_t target) {
  double bookkeeping = 0.0;
  w.stepper.afterTick = [&](std::size_t i) {
    const double b0 = hostSec();
    w.updateWiring(i);
    bookkeeping += hostSec() - b0;
  };
  w.stepper.runUntil([&] { return w.subsWired >= target; },
                    w.cluster.now() + w.spec.wireLimitSec);
  w.stepper.afterTick = nullptr;
  return bookkeeping;
}

/// Per-subscription wiring times of a world wired from scratch; a
/// subscription not yet wired reads +inf.
std::vector<double> subWiringTimes(const MeshWorld& w) {
  std::vector<double> t;
  for (const auto& sw : w.wiring)
    t.push_back(sw.wiredAt < 0.0 ? std::numeric_limits<double>::infinity()
                                 : sw.wiredAt);
  return t;
}

SetupOutcome setUp(const MeshSpec& spec, std::uint64_t seed, bool traced) {
  SetupOutcome out;
  const double h0 = hostSec();
  out.world = std::make_unique<MeshWorld>(spec, seed, traced);
  MeshWorld& w = *out.world;
  const double t0 = w.cluster.now();
  double bookkeeping = wire(w, w.wiring.size());
  out.wired = w.subsWired == w.wiring.size();
  out.wireUpSec = w.cluster.now() - t0;
  out.subWiredSec = subWiringTimes(w);
  if (spec.settle) {
    w.quota = UINT32_MAX;
    w.publishing = true;
    for (auto& n : w.nodes) n->nextDue = w.cluster.now();
    const double quiet = w.cluster.cb(0).config().channelTimeoutSec + 0.5;
    double stableSince = w.cluster.now();
    std::uint64_t timedOut = w.timedOut();
    while (w.cluster.now() - stableSince < quiet) {
      if (w.cluster.now() - t0 > spec.wireLimitSec) {
        out.settled = false;
        break;
      }
      w.stepper.runUntil(w.cluster.now() + 0.05);
      const double b0 = hostSec();
      if (w.timedOut() != timedOut ||
          w.liveSources() < w.expectedSources) {
        timedOut = w.timedOut();
        stableSince = w.cluster.now();
      }
      bookkeeping += hostSec() - b0;
    }
    // Publishing goes on; updates from here on are owed.
    w.quota = 0;
    for (auto& n : w.nodes)
      for (auto& p : n->pubs) {
        p.base = p.seq;
        w.bases[MeshWorld::pubKey(p.cls, n->id())] = p.seq;
      }
  }
  runRound(w);  // warm-up: one round of traffic
  out.hostSec = hostSec() - h0 - bookkeeping;
  return out;
}

/// Owe every subscriber, on each of its streams, the set-up sequences
/// 1..base (`setup`) or the measured ones base+1..base+upTo.
void oweAll(MeshWorld& w, StreamChecker& checker, bool setup,
            std::uint32_t upTo) {
  for (int c = 0; c < w.spec.classes; ++c)
    for (const int p : w.spec.publishersOf(c, w.spec.computers)) {
      const std::uint32_t cls = static_cast<std::uint32_t>(c);
      const std::uint16_t pub = static_cast<std::uint16_t>(p);
      const std::uint32_t base = w.baseOf(cls, pub);
      if (setup && base == 0) continue;
      for (int s = 0; s < w.spec.computers; ++s)
        if (w.spec.subscribes(s, c, w.spec.computers))
          checker.owe(static_cast<std::uint16_t>(s), pub, cls,
                      setup ? 1 : base + 1,
                      setup ? base : (upTo == UINT32_MAX ? upTo : base + upTo));
    }
}

Result runMesh(const MeshSpec& spec, const Options& o) {
  Result res;
  Spans& sp = spans();
  const double h0 = hostSec();

  // ---- set-up, several times; keep the last world ----------------------
  // Each set-up wires an independent world (its own sub-seed); wire_up_s
  // is their mean and setup_s their median.
  std::vector<double> setupHost;
  std::vector<double> wireUps;  // full wiring, per set-up
  std::vector<double> subWireIqm;  // per wiring: interquartile mean
  SetupOutcome kept;
  for (int i = spec.setups - 1; i >= 0; --i) {
    const double s0 = hostSec();
    SetupOutcome s = setUp(spec, subSeed(o.seed, i), o.trace);
    sp.add("setup", "setup", s0, hostSec());
    res.require(s.wired, std::string(spec.name) + ": not wired after " +
                             std::to_string(spec.wireLimitSec) +
                             " virtual s (" +
                             std::to_string(s.world->liveSources()) + "/" +
                             std::to_string(s.world->expectedSources) +
                             " sources)");
    res.require(s.settled, std::string(spec.name) + ": wiring never settled");
    setupHost.push_back(s.hostSec);
    wireUps.push_back(s.wireUpSec);
    subWireIqm.push_back(interquartileMean(s.subWiredSec));
    kept = std::move(s);
  }
  // More wirings from scratch, each only until three quarters of the
  // subscriptions are wired, which is all the interquartile mean needs.
  for (int i = 0; i < kWiringSamples; ++i) {
    MeshWorld extra(spec, subSeed(o.seed, 1000 + i), o.trace);
    const std::size_t n = extra.wiring.size();
    wire(extra, n - n / 4);
    const double iqm = interquartileMean(subWiringTimes(extra));
    res.require(std::isfinite(iqm), std::string(spec.name) +
                                        ": a wiring sample did not wire");
    subWireIqm.push_back(iqm);
  }
  MeshWorld& w = *kept.world;
  // The channel count the assignment rule predicts, once fully wired.
  res.require(w.liveSources() == w.expectedSources,
              "live sources " + std::to_string(w.liveSources()) +
                  " != predicted " + std::to_string(w.expectedSources));
  res.notes.push_back("sources: " + std::to_string(w.liveSources()) +
                      " live, " + std::to_string(w.expectedSources) +
                      " predicted by the assignment rule");

  const auto expectDigest = [&](std::uint16_t pub, std::uint32_t cls,
                                std::uint32_t seq) {
    return digestOf(spec.generate(w.seed, pub, cls, seq));
  };
  // Measured streams are owed from their base (the warm-up round
  // included); their end is set once publishing stops. Set-up traffic
  // below the base is checked separately and not counted.
  StreamChecker checker(expectDigest);
  StreamChecker setupChecker(expectDigest);
  oweAll(w, checker, false, UINT32_MAX);
  oweAll(w, setupChecker, true, 0);
  std::uint64_t measuredDelivered = 0;
  auto harvest = [&] {
    for (const Delivery& d : w.deliveries) {
      if (d.seq <= w.baseOf(d.cls, d.pub)) {
        setupChecker.observe(d);
      } else {
        checker.observe(d);
        ++measuredDelivered;
      }
    }
    w.deliveries.clear();
    w.latencies.clear();
    checker.forgetExpected();
    setupChecker.forgetExpected();
  };
  harvest();

  ProbeOutcome probe;
  std::uint64_t probeRounds = 0;
  auto probeRound = [&] {
    if (!spec.faultProbe) return;
    const ProbeOutcome p = runOrphanProbe();
    if (probeRounds > 0)
      res.require(p.missing == probe.missing && p.owed == probe.owed,
                  "fault probe lost a different number of updates");
    probe = p;
    ++probeRounds;
  };
  probeRound();  // for the warm-up round

  // ---- measured rounds ---------------------------------------------------
  std::vector<Delivery> fixedRecords;
  std::vector<double> fixedLatency;
  std::uint64_t fixedReflected = 0, fixedBytes = 0, fixedPackets = 0;
  const std::uint64_t bytes0 = w.bytesSent();
  const std::uint64_t timedOut0 = w.timedOut();
  const std::uint64_t packets0 = w.packetsSent();
  std::vector<Slice> samples, timedSlices, untimedSlices;
  double measuredHost = 0.0;  // host time inside measured rounds
  LayerTotals fixedCounts;  // CB counters at the end of the fixed rounds
  std::uint64_t timedLan = 0;
  int round = 0;
  while (round < kFixedRounds || measuredHost < o.seconds) {
    // Traced runs alternate timed and untimed rounds to price the tracing.
    const bool timed = o.trace && (round % 2 == 0);
    w.stepper.timeLayers = timed;
    w.timePublish = timed;
    const std::uint64_t lan0 = w.cluster.network().stats().packetsSent;
    const double t0 = hostSec();
    const Slice sl = runRound(w, &samples);
    sp.add("round", "round", t0, hostSec(), 0,
           static_cast<std::uint64_t>(round));
    measuredHost += sl.hostSec;
    if (o.trace) {
      (timed ? timedSlices : untimedSlices).push_back(sl);
      if (timed) timedLan += w.cluster.network().stats().packetsSent - lan0;
    }
    if (round < kFixedRounds) {
      fixedRecords.insert(fixedRecords.end(), w.deliveries.begin(),
                          w.deliveries.end());
      fixedLatency.insert(fixedLatency.end(), w.latencies.begin(),
                          w.latencies.end());
      fixedReflected += w.deliveries.size();
      if (round == kFixedRounds - 1) {
        fixedBytes = w.bytesSent() - bytes0;
        fixedPackets = w.packetsSent() - packets0;
        for (std::size_t i = 0; i < w.cluster.size(); ++i)
          fixedCounts.add(w.cluster.cb(i));
      }
    }
    harvest();
    probeRound();
    ++round;
    if (spec.interleaveSetups && round % kSetupEveryRounds == 0) {
      const double s0 = hostSec();
      const SetupOutcome extra =
          setUp(spec, subSeed(o.seed, spec.setups + round), o.trace);
      sp.add("setup", "setup", s0, hostSec());
      res.require(extra.wired, std::string(spec.name) + ": a set-up did not wire");
      setupHost.push_back(extra.hostSec);
    }
  }

  // ---- drain and check ----------------------------------------------------
  w.timePublish = false;
  w.stepper.timeLayers = false;
  w.publishing = false;
  std::uint64_t owedTotal = 0;
  for (int c = 0; c < spec.classes; ++c)
    for (int s = 0; s < spec.computers; ++s)
      if (spec.subscribes(s, c, spec.computers))
        owedTotal += spec.publishersOf(c, spec.computers).size() * w.quota;
  const double drainLimit = w.cluster.now() + spec.drainSec;
  while (measuredDelivered < owedTotal && w.cluster.now() < drainLimit) {
    w.stepper.runUntil(w.cluster.now() + kDrainCheckSec);
    harvest();
  }
  w.stepper.runUntil(w.cluster.now() + 0.05);  // let stragglers surface
  harvest();
  oweAll(w, checker, false, w.quota);
  const StreamChecker::Verdict sv = setupChecker.finish();
  res.require(sv.clean(), std::string(spec.name) + " set-up streams: " +
                              sv.describe());
  if (sv.owed > 0)
    res.notes.push_back("set-up traffic (checked, not counted): " +
                        sv.describe());
  const StreamChecker::Verdict v = checker.finish();
  res.require(!w.unidentified, "a reflection could not be identified");
  // Every measured stream is gapless: the lossless mesh loses nothing,
  // and on reliable channels the settled window leaves the named fault no
  // room, so a lost update here is a fault of its own. The named fault is
  // counted through the probe below.
  res.require(v.clean() && v.complete(),
              std::string(spec.name) + " streams: " + v.describe());
  res.notes.push_back(std::string("streams: ") + v.describe() +
                      "; channel timeouts after set-up: " +
                      std::to_string(w.timedOut() - timedOut0));
  res.attempted = v.owed;
  res.failed = v.missing;
  if (spec.faultProbe) {
    // Whatever the probe loses is failed, so a fix of the fault shows as
    // `failed` going to 0 with the run still correct.
    res.require(probe.clean, "fault probe: " + probe.describe);
    res.attempted += probeRounds * probe.owed;
    res.failed += probeRounds * probe.missing;
    res.notes.push_back(probe.describe + " x " + std::to_string(probeRounds) +
                        " rounds");
  }

  // ---- metrics ------------------------------------------------------------
  std::vector<double> latMs;
  latMs.reserve(fixedLatency.size());
  for (const double l : fixedLatency) latMs.push_back(l * 1e3);
  res.notes.push_back("latency: p50 and p99 over " +
                      std::to_string(latMs.size()) + " samples (" +
                      std::to_string(kFixedRounds) + " rounds)");

  std::uint64_t fp = 0x51ED27ull;
  for (const double x : subWireIqm) fp = foldDouble(fp, x);
  fp = fold(fold(fp, fixedBytes), fixedPackets);
  for (const Delivery& d : fixedRecords)
    fp = fold(fold(fp, (static_cast<std::uint64_t>(d.sub) << 48) |
                           (static_cast<std::uint64_t>(d.pub) << 32) | d.seq),
              d.digest ^ d.cls);
  for (const double l : fixedLatency) fp = foldDouble(fp, l);
  char fpBuf[64];
  std::snprintf(fpBuf, sizeof fpBuf, "fingerprint: %016" PRIx64, fp);
  res.notes.push_back(fpBuf);

  const HostRates hr = hostRates(samples);
  res.e2e("setup_s", median(setupHost), "s");
  res.e2e("sim_speed_x", hr.simSpeedX, "x");
  res.e2e("updates_per_s", hr.updatesPerSec, "1/s");
  res.e2e("latency_ms.p50", quantile(latMs, 0.50), "ms");
  res.e2e("latency_ms.p99", quantile(latMs, 0.99), "ms");
  res.e2e("wire_bytes_per_update",
          static_cast<double>(fixedBytes) / static_cast<double>(fixedReflected),
          "B");
  res.e2e("wire_up_s", mean(subWireIqm), "s");
  res.notes.push_back("wiring: subscription interquartile mean " +
                      std::to_string(mean(subWireIqm)) + " virtual s over " +
                      std::to_string(subWireIqm.size()) + " wirings" +
                      "; every subscription (mean of " +
                      std::to_string(wireUps.size()) + " set-ups) " +
                      std::to_string(mean(wireUps)) + " virtual s");
  res.notes.push_back("rounds: " + std::to_string(round) + " in " +
                      std::to_string(measuredHost) + " host s; " +
                      std::to_string(samples.size()) +
                      " samples of 0.1 virtual s, pace median " +
                      std::to_string(hr.medianSpeedX) + "x" +
                      "; run " + std::to_string(hostSec() - h0) + " s");

  if (o.trace) {
    auto perUpdate = [](const std::vector<Slice>& v) {
      double h = 0.0;
      std::uint64_t n = 0;
      for (const Slice& s : v) {
        h += s.hostSec;
        n += s.reflected;
      }
      return n == 0 ? 0.0 : h / static_cast<double>(n);
    };
    LayerTotals lt;
    lt.reflected = w.reflected;
    lt.packets = w.packetsSent();
    lt.frames = w.framesSent();
    lt.timedSimnetPackets = timedLan;
    lt.advanceHostSec = w.stepper.advanceHostSec;
    lt.tickHostSec = std::accumulate(w.stepper.tickHostSec.begin(),
                                     w.stepper.tickHostSec.end(), 0.0);
    for (const Slice& s : timedSlices) lt.timedReflected += s.reflected;
    lt.publishHostSec = w.publishHostSec;
    lt.generateHostSec = w.generateHostSec;
    lt.publishCalls = w.publishCalls;
    lt.tracedHostPerUpdate = perUpdate(timedSlices);
    lt.untracedHostPerUpdate = perUpdate(untimedSlices);
    for (std::size_t i = 0; i < w.cluster.size(); ++i) lt.add(w.cluster.cb(i));
    lt.takeCounters(fixedCounts);
    lt.fullWireUpSec = mean(wireUps);
    reportCoreAndNet(res, lt, w.payloadSample);
    reportNoRackLayers(res);
  }
  return res;
}

}  // namespace

Result runStateMesh(const Options& o) { return runMesh(stateMeshSpec(), o); }
Result runReliableMass(const Options& o) {
  return runMesh(reliableMassSpec(), o);
}

}  // namespace pb
