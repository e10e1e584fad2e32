// perfbench: one workload per process.
//
//   perfbench --workload <rack_exam|state_mesh|reliable_mass|udp_mesh>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file.json>] [--commit <id>]
//
// Prints informational lines, one `host` line, and as its last line one
// JSON object: {"correct", "attempted", "failed", "metrics"}. --trace 0
// reports the end-to-end metrics, --trace 1 the per-layer metrics of a
// separately traced run (and writes its spans as Chrome trace_event JSON).

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "common.hpp"

#ifndef PB_BUILD_TYPE
#define PB_BUILD_TYPE "unknown"
#endif

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <path>] [--commit <id>]\n");
  return 2;
}

/// The "metrics" member; a non-finite value clears `correct`.
std::string metricsJson(const std::vector<pb::Metric>& ms, pb::Result& r) {
  std::string out = "\"metrics\": {";
  char buf[256];
  for (std::size_t i = 0; i < ms.size(); ++i) {
    double v = ms[i].value;
    if (!std::isfinite(v)) {
      r.checkFailed("metric " + ms[i].name + " is not finite");
      v = 0.0;
    }
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", ms[i].name.c_str(), v, ms[i].unit.c_str());
    out += buf;
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  pb::Options o;
  std::string commit = "unknown";
  bool haveWorkload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      o.workload = v;
      haveWorkload = true;
    } else if (k == "--seed") {
      o.seed = std::stoull(v);
    } else if (k == "--seconds") {
      o.seconds = std::stod(v);
    } else if (k == "--trace") {
      o.trace = v == "1";
    } else if (k == "--trace-out") {
      o.traceOut = v;
    } else if (k == "--commit") {
      commit = v;
    } else {
      return usage();
    }
  }
  if (!haveWorkload || argc % 2 == 0) return usage();

  pb::Result r;
  pb::spans().on = o.trace;
  const double origin = pb::hostSec();
  for (const std::string& m : pb::selfTestCheckers())
    r.checkFailed("checker self-test: planted fault not reported: " + m);
  pb::Result w;
  if (o.workload == "rack_exam") {
    w = pb::runRackExam(o);
  } else if (o.workload == "state_mesh") {
    w = pb::runStateMesh(o);
  } else if (o.workload == "reliable_mass") {
    w = pb::runReliableMass(o);
  } else if (o.workload == "udp_mesh") {
    w = pb::runUdpMesh(o);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", o.workload.c_str());
    return 2;
  }
  for (const auto& f : r.checkFailures) w.checkFailed(f);
  if (o.trace && !o.traceOut.empty()) {
    if (!pb::spans().write(o.traceOut, origin))
      w.checkFailed("could not write trace to " + o.traceOut);
    else
      w.notes.push_back("trace: " + std::to_string(pb::spans().size()) +
                        " spans -> " + o.traceOut);
  }

  const std::string metrics =
      metricsJson(o.trace ? w.perLayer : w.endToEnd, w);
  for (const auto& n : w.notes) std::printf("%s\n", n.c_str());
  for (const auto& f : w.checkFailures) std::printf("CHECK FAILED: %s\n", f.c_str());
  std::printf(
      "host {\"nproc\": %u, \"compiler\": \"g++ %s\", \"build_type\": \"%s\", "
      "\"commit\": \"%s\", \"workload\": \"%s\", \"seed\": %llu, "
      "\"trace\": %d}\n",
      std::thread::hardware_concurrency(), __VERSION__, PB_BUILD_TYPE,
      commit.c_str(), o.workload.c_str(),
      static_cast<unsigned long long>(o.seed), o.trace ? 1 : 0);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, %s}\n",
              w.correct ? "true" : "false",
              static_cast<unsigned long long>(w.attempted),
              static_cast<unsigned long long>(w.failed), metrics.c_str());
  return 0;
}
