// rack_exam: the paper's product. The full 8-computer rack
// (CraneSimulatorApp, telemetry on) runs the compact licensure course with
// the careful trainee at the E10 display size (48x36), in virtual time, as
// fast as the host allows. Each round is one whole exam on a fresh rack
// built from the seed; set-up is construction plus wiring.
//
// The rack is driven through CodCluster::cb(i).tick and
// SimNetwork::advance (JitteredStepper), so the host time of each computer
// role can be taken from outside. One extra LP, a latency probe on the
// instructor computer, subscribes to crane.state; it is the only addition
// to the product's wiring.

#include <cinttypes>
#include <map>
#include <cstdio>
#include <numeric>

#include "checks.hpp"
#include "common.hpp"
#include "stepper.hpp"
#include "layers.hpp"
#include "sim/simulator_app.hpp"

namespace pb {

namespace cc = cod::core;

namespace {

constexpr double kMeanTickSec = 0.005;  // CodCluster's default cadence
constexpr double kSliceSec = 4.0;       // virtual seconds per rate sample
constexpr double kExamLimitSec = 600.0;
constexpr int kExtraSetups = 16;  // set-up-only racks before the exams
/// While an exam runs, build and wire one more rack after slices whose
/// index modulo kSetupCycle is below kSetupsPerCycle (one every 2 slices),
/// so setup_s samples the whole run's host conditions. In traced runs
/// timed and untimed slices alternate, so as many of each follow a set-up.
constexpr std::uint64_t kSetupCycle = 4;
constexpr std::uint64_t kSetupsPerCycle = 2;

/// Subscribes to crane.state on the instructor computer and records the
/// state's age (virtual) when it is reflected there.
class LatencyProbe : public cc::LogicalProcess {
 public:
  explicit LatencyProbe(const cc::CodCluster& cluster)
      : cc::LogicalProcess("latency-probe"), cluster_(cluster) {}
  void reflectAttributeValues(const std::string&, const cc::AttributeSet& a,
                              double timestamp) override {
    ageSec.push_back(cluster_.now() - timestamp);
    if (sample.size() < 256) sample.push_back(a);
  }
  std::vector<double> ageSec;
  std::vector<cc::AttributeSet> sample;

 private:
  const cc::CodCluster& cluster_;
};

cod::sim::CraneSimulatorApp::Config rackConfig(std::uint64_t seed,
                                               bool traced) {
  cod::sim::CraneSimulatorApp::Config c;
  c.course = cod::scenario::compactCourse();
  c.operatorProfile = cod::scenario::OperatorProfile::careful();
  c.fbWidth = 48;  // the E10 bench's display size
  c.fbHeight = 36;
  c.cluster.seed = seed;
  c.cluster.cb.phaseProfile = traced;
  return c;
}

struct Rack {
  Rack(std::uint64_t seed, bool traced)
      : app(rackConfig(seed, traced)), probe(app.cluster()),
        stepper(app.cluster(), seed, kMeanTickSec) {
    cc::CommunicationBackbone& instructorCb = app.cluster().cb(7);
    instructorCb.attach(probe);
    instructorCb.subscribeObjectClass(probe, cod::sim::kClassCraneState);
  }
  /// The latency probe has seen crane.state, and the predicate of
  /// CraneSimulatorApp::waitUntilWired holds. The app runs that predicate
  /// only inside its own loop, so it is mirrored here; keep the two alike.
  bool wired() {
    if (probe.ageSec.empty()) return false;
    if (app.dynamics().craneState().engineOn) return true;
    for (int d = 0; d < app.displayCount(); ++d)
      if (app.display(d).framesRendered() == 0) return false;
    return app.instructor().stateUpdatesSeen() > 0 &&
           app.dashboard().controlFramesSent() > 0;
  }
  std::uint64_t reflected() {
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < app.cluster().size(); ++i)
      n += app.cluster().cb(i).stats().updatesDelivered;
    return n;
  }
  std::uint64_t framesSent() {
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < app.cluster().size(); ++i)
      if (const auto* t = app.cluster().cb(i).transportStats())
        n += t->framesSent;
    return n;
  }
  /// No swap in flight: every display has rendered and received exactly
  /// the swaps the sync server issued, and the instructor shows the
  /// exam's final phase.
  bool quiescent() {
    const std::uint64_t swaps = app.syncServer().swapsIssued();
    for (int d = 0; d < app.displayCount(); ++d)
      if (app.display(d).framesRendered() != swaps ||
          app.display(d).swapsReceived() != swaps)
        return false;
    return app.instructor().statusWindow().phase ==
           cod::scenario::phaseName(app.scenario().exam().score().phase);
  }

  cod::sim::CraneSimulatorApp app;
  LatencyProbe probe;
  JitteredStepper stepper;
};

/// Host seconds the CB itself spent in `cb`'s ticks so far: the poll,
/// route, timer and flush phases. The stage phase is left out because the
/// LPs' own work (rendering, physics) runs inside it.
double cbPhaseSec(const cc::CommunicationBackbone& cb) {
  double s = 0.0;
  for (const std::size_t ph : {0u, 1u, 2u, 4u})
    s += cb.phaseHistograms().at(ph).snapshot().sum;
  return s;
}

struct ExamRecord {
  double setupHost = 0.0;
  double wireUpSec = 0.0;
  double examVirtual = 0.0;
  std::uint64_t reflected = 0;
  std::uint64_t lanBytes = 0;
  std::vector<double> ageMs;
  std::uint64_t fingerprint = 0;
};

/// Traced runs only: layer figures from the timed slices (every other
/// slice; the untimed ones price the tracing).
struct RackTrace {
  double timedHost = 0.0, timedVirtual = 0.0;
  double untimedHost = 0.0, untimedVirtual = 0.0;
  std::map<std::string, double> roleSec;  // host s per computer role
  double displayLpSec = 0.0;   // display computers' ticks minus CB phases
  std::uint64_t timedFrames = 0;  // frames rendered in timed slices
  std::uint64_t triangles = 0, pixels = 0, frames = 0;  // whole exams
};

}  // namespace

Result runRackExam(const Options& o) {
  Result res;
  Spans& sp = spans();
  const double h0 = hostSec();
  std::vector<ExamRecord> exams;
  std::vector<Slice> samples;  // per whole slice
  std::vector<cc::AttributeSet> payloads;
  LayerTotals lt;
  RackTrace tr;
  static const char* kRole[8] = {"display", "display", "display", "sync",
                                 "dashboard", "platform", "dynamics",
                                 "instructor"};

  // Set-up is ~10 ms of host time, so a run times many of them: these
  // racks are built and wired, then discarded; each exam adds its own.
  // They use independent sub-seeds; wire_up_s is the mean over the ones
  // built before the exams.
  std::vector<double> setup, wireUps;
  int extraSetups = 0;
  const auto setUpOnly = [&] {
    ++extraSetups;
    const double s0 = hostSec();
    Rack r(subSeed(o.seed, extraSetups), o.trace);
    const bool wired = r.stepper.runUntil([&] { return r.wired(); }, 10.0);
    setup.push_back(hostSec() - s0);
    sp.add("setup", "setup", s0, hostSec());
    res.require(wired, "rack not wired after 10 virtual s");
    return r.app.now();
  };
  for (int i = 0; i < kExtraSetups; ++i) wireUps.push_back(setUpOnly());

  int round = 0;
  std::uint64_t slice = 0;
  double measuredHost = 0.0;
  while (round < 2 || measuredHost < o.seconds) {
    ExamRecord ex;
    const double s0 = hostSec();
    auto rack = std::make_unique<Rack>(o.seed, o.trace);
    Rack& r = *rack;
    cc::CodCluster& cl = r.app.cluster();
    const bool wired = r.stepper.runUntil([&] { return r.wired(); }, 10.0);
    ex.setupHost = hostSec() - s0;
    ex.wireUpSec = r.app.now();
    setup.push_back(ex.setupHost);
    sp.add("setup", "setup", s0, hostSec());
    res.require(wired, "rack not wired after 10 virtual s");

    // ---- the exam, in slices of virtual time ----
    const double v0 = r.app.now();
    const std::uint64_t refl0 = r.reflected();
    const std::uint64_t bytes0 = cl.network().stats().bytesSent;
    const std::uint64_t lan0 = cl.network().stats().packetsSent;
    const std::uint64_t frames0 = r.framesSent();
    const double e0 = hostSec();
    double examHost = 0.0;  // inside exam slices
    while (!r.app.scenario().finished() && r.app.now() - v0 < kExamLimitSec) {
      const std::uint64_t idx = slice++;
      const bool timed = o.trace && idx % 2 == 0;
      r.stepper.timeLayers = timed;
      const std::uint64_t a = r.reflected();
      const std::uint64_t lanA = cl.network().stats().packetsSent;
      std::vector<double> phase0, tick0 = r.stepper.tickHostSec;
      std::uint64_t rendered0 = 0;
      if (timed) {
        for (std::size_t i = 0; i < cl.size(); ++i) phase0.push_back(cbPhaseSec(cl.cb(i)));
        for (int d = 0; d < r.app.displayCount(); ++d)
          rendered0 += r.app.display(d).framesRendered();
      }
      const double t0 = hostSec();
      r.stepper.runUntil(r.app.now() + kSliceSec);
      const double t1 = hostSec();
      sp.add("exam_slice", "round", t0, t1, 0, idx);
      examHost += t1 - t0;
      const bool whole = !r.app.scenario().finished();
      if (whole) samples.push_back({r.reflected() - a, t1 - t0, kSliceSec});
      if (idx % kSetupCycle < kSetupsPerCycle) setUpOnly();
      if (!o.trace || !whole) continue;
      if (!timed) {
        tr.untimedHost += t1 - t0;
        tr.untimedVirtual += kSliceSec;
        continue;
      }
      tr.timedHost += t1 - t0;
      tr.timedVirtual += kSliceSec;
      lt.timedReflected += r.reflected() - a;
      lt.timedSimnetPackets += cl.network().stats().packetsSent - lanA;
      for (std::size_t i = 0; i < cl.size(); ++i) {
        const double tick = r.stepper.tickHostSec[i] - tick0[i];
        const double cbSec = cbPhaseSec(cl.cb(i)) - phase0[i];
        tr.roleSec[kRole[i < 8 ? i : 7]] += tick;
        lt.tickHostSec += cbSec;
        if (i < static_cast<std::size_t>(r.app.displayCount()))
          tr.displayLpSec += tick - cbSec;
      }
      for (int d = 0; d < r.app.displayCount(); ++d)
        tr.timedFrames += r.app.display(d).framesRendered();
      tr.timedFrames -= rendered0;
    }
    r.stepper.timeLayers = false;
    measuredHost += examHost;
    ex.examVirtual = r.app.now() - v0;
    ex.reflected = r.reflected() - refl0;
    ex.lanBytes = cl.network().stats().bytesSent - bytes0;
    sp.add("exam", "round", e0, hostSec(), 0, static_cast<std::uint64_t>(round));
    if (o.trace) {
      lt.advanceHostSec += r.stepper.advanceHostSec;
      lt.reflected += ex.reflected;
      lt.packets += cl.network().stats().packetsSent - lan0;
      lt.frames += r.framesSent() - frames0;
      if (round == 0)  // counters of one exam, so they repeat per seed
        for (std::size_t i = 0; i < cl.size(); ++i) lt.add(cl.cb(i));
      for (int d = 0; d < r.app.displayCount(); ++d) {
        const auto& rs = r.app.display(d).renderStats();
        tr.triangles += rs.trianglesDrawn;
        tr.pixels += rs.pixelsShaded;
        tr.frames += r.app.display(d).framesRendered();
      }
    }

    // ---- settle to a frame boundary, then check ----
    const bool quiet =
        r.stepper.runUntil([&] { return r.quiescent(); }, r.app.now() + 2.0);
    const auto& sheet = r.app.scenario().exam().score();
    RackOutcome out;
    out.finished = sheet.finished();
    out.passed = sheet.phase == cod::scenario::ExamPhase::kPassed;
    out.score = sheet.total;
    for (const auto& d : sheet.deductions) out.deductionPoints.push_back(d.points);
    out.phaseName = cod::scenario::phaseName(sheet.phase);
    out.statusScore = r.app.instructor().statusWindow().score;
    out.statusPhase = r.app.instructor().statusWindow().phase;
    for (int d = 0; d < r.app.displayCount(); ++d)
      out.framesPerDisplay.push_back(r.app.display(d).framesRendered());
    out.swapsIssued = r.app.syncServer().swapsIssued();
    out.frameIntervalSec = r.app.config().frameIntervalSec;
    out.frameRateHz = static_cast<double>(out.swapsIssued) / r.app.now();
    for (const std::string& bad : checkRack(out))
      res.checkFailed("exam " + std::to_string(round) + ": " + bad);
    res.require(quiet, "rack never reached a frame boundary after the exam");
    // Operations: every display frame, plus the exam itself.
    res.attempted += out.swapsIssued * out.framesPerDisplay.size() + 1;

    for (const double a : r.probe.ageSec) ex.ageMs.push_back(a * 1e3);
    std::uint64_t fp = 0xE10ull;
    fp = foldDouble(fp, ex.wireUpSec);
    fp = foldDouble(fp, ex.examVirtual);
    // LAN bytes stay out: telemetry records carry host-measured timings,
    // so the rack's byte count is not an exact function of the seed.
    fp = fold(fp, ex.reflected);
    fp = fold(fp, out.swapsIssued);
    fp = foldDouble(fp, sheet.total);
    for (const double a : r.probe.ageSec) fp = foldDouble(fp, a);
    ex.fingerprint = fp;
    if (!exams.empty())
      res.require(fp == exams.front().fingerprint,
                  "two exams with one seed gave different outputs");
    if (round == 0) {
      char buf[200];
      std::snprintf(buf, sizeof buf,
                    "exam: %s score %.1f, %zu deductions, %.1f virtual s, "
                    "%" PRIu64 " frames/display (%.3f Hz), %" PRIu64
                    " reflected updates",
                    out.phaseName.c_str(), out.score,
                    out.deductionPoints.size(), ex.examVirtual,
                    out.swapsIssued, out.frameRateHz, ex.reflected);
      res.notes.push_back(buf);
      std::snprintf(buf, sizeof buf, "fingerprint: %016" PRIx64, fp);
      res.notes.push_back(buf);
      payloads = r.probe.sample;
      res.layer("sim.frame_rate_hz", out.frameRateHz, "Hz");
    }
    exams.push_back(std::move(ex));
    ++round;
  }

  const ExamRecord& first = exams.front();
  res.e2e("setup_s", median(setup), "s");
  const HostRates hr = hostRates(samples);
  res.e2e("sim_speed_x", hr.simSpeedX, "x");
  res.e2e("updates_per_s", hr.updatesPerSec, "1/s");
  res.e2e("latency_ms.p50", quantile(first.ageMs, 0.50), "ms");
  res.e2e("latency_ms.p99", quantile(first.ageMs, 0.99), "ms");
  res.e2e("wire_bytes_per_update",
          static_cast<double>(first.lanBytes) /
              static_cast<double>(first.reflected),
          "B");
  wireUps.push_back(first.wireUpSec);
  res.e2e("wire_up_s", mean(wireUps), "s");
  res.notes.push_back("latency: crane.state age at the instructor, p50 and p99 "
                      "over " + std::to_string(first.ageMs.size()) +
                      " samples");
  res.notes.push_back("exams: " + std::to_string(exams.size()) + " in " +
                      std::to_string(measuredHost) + " host s; " +
                      std::to_string(samples.size()) +
                      " slices of 4 virtual s, pace median " +
                      std::to_string(hr.medianSpeedX) + "x" +
                      "; run " + std::to_string(hostSec() - h0) + " s");

  if (o.trace) {
    const auto perVs = [](double host, double virt) {
      return virt > 0.0 ? host / virt : 0.0;
    };
    lt.tracedHostPerUpdate = perVs(tr.timedHost, tr.timedVirtual);
    lt.untracedHostPerUpdate = perVs(tr.untimedHost, tr.untimedVirtual);
    lt.fullWireUpSec = mean(wireUps);
    // sim.frame_rate_hz was reported with the first exam; keep the
    // declared order by moving it to the end.
    const Metric fr = res.perLayer.front();
    res.perLayer.clear();
    reportCoreAndNet(res, lt, payloads);
    const auto per = [](double a, std::uint64_t b) {
      return b ? a / static_cast<double>(b) : 0.0;
    };
    res.layer("render.us_per_frame", per(tr.displayLpSec * 1e6, tr.timedFrames), "us");
    res.layer("render.triangles_per_frame",
              per(static_cast<double>(tr.triangles), tr.frames), "count");
    res.layer("render.pixels_per_frame",
              per(static_cast<double>(tr.pixels), tr.frames), "count");
    for (const char* role :
         {"display", "sync", "dashboard", "platform", "dynamics", "instructor"})
      res.layer(std::string("sim.host_ms_per_vs.") + role,
                perVs(tr.roleSec[role] * 1e3, tr.timedVirtual), "ms");
    res.perLayer.push_back(fr);
  }
  return res;
}

}  // namespace pb
