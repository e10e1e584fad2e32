// Shared plumbing of the perfbench program: host clock, seeded random
// streams, sample statistics, the result record every workload fills in,
// and the in-memory span recorder of the traced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

/// Host (wall) time of this process, seconds on the steady clock.
inline double hostSec() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

/// splitmix64: the benchmark's only source of randomness. Every input a
/// workload generates comes from a stream seeded by (--seed, stream id).
/// The program's own math::Rng is not used, so a change to it cannot
/// change the benchmark's inputs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed, std::uint64_t stream = 0)
      : s_(seed * 0x9E3779B97F4A7C15ull ^ (stream + 0x632BE59BD9B4E019ull)) {
    next();
  }
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t s_;
};

/// Order-sensitive hash steps for output fingerprints.
inline std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  return h * 0xFF51AFD7ED558CCDull;
}
inline std::uint64_t foldDouble(std::uint64_t h, double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof u);
  return fold(h, u);
}

/// Seed of the i-th independent repetition (set-up) within one run.
inline std::uint64_t subSeed(std::uint64_t seed, int i) {
  return i == 0 ? seed : Rng(seed, 0x5E7u + static_cast<std::uint64_t>(i)).next();
}

inline double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

/// Nearest-rank quantile (q in [0, 1]) of an unsorted sample; 0 if empty.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }
/// Mean of the middle half of a sample: smooth where the sample clusters
/// on a few values (as wiring times do, on the broadcast cadence), and
/// deaf to the slowest quarter's heavy tail.
double interquartileMean(std::vector<double> v);

/// Host time over a stretch of virtual time, and the updates reflected in
/// it.
struct Slice {
  std::uint64_t reflected = 0;
  double hostSec = 0.0;
  double virtualSec = 0.0;
};

/// sim_speed_x and updates_per_s: each sample's own pace (virtual s per
/// host s) and its own reflections per host second, each taken at the
/// kHostRateQuantile of the run's samples. A high quantile, not the
/// median, because the shared reference host switches between a fast and
/// a slow mode and other tenants only ever add time, so only the fastest
/// samples follow the program's own cost (README: host drift); a
/// quantile, not the maximum, so the figure does not climb with the
/// number of samples a faster host fits in a run.
constexpr double kHostRateQuantile = 0.99;
struct HostRates {
  double simSpeedX = 0.0;
  double updatesPerSec = 0.0;
  double medianSpeedX = 0.0;  // informational
};
HostRates hostRates(const std::vector<Slice>& samples);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run of one workload reports.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> endToEnd;  // printed with --trace 0
  std::vector<Metric> perLayer;  // printed with --trace 1
  std::vector<std::string> notes;  // informational lines before the JSON
  std::vector<std::string> checkFailures;

  void e2e(const std::string& name, double value, const std::string& unit) {
    endToEnd.push_back({name, value, unit});
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    perLayer.push_back({name, value, unit});
  }
  /// Record a failed correctness check (the run then reports correct=false).
  void checkFailed(const std::string& why);
  /// Record a failed check unless `ok`.
  void require(bool ok, const std::string& why) {
    if (!ok) checkFailed(why);
  }
};

struct Options {
  std::string workload;
  std::uint64_t seed = 7;
  double seconds = 10.0;
  bool trace = false;
  std::string traceOut;  // Chrome trace_event JSON path (traced run only)
};

/// Spans recorded around the calls the benchmark makes into each layer.
/// Kept in memory (bounded) and written out as Chrome trace_event JSON
/// when the run ends. Inactive unless the run is traced.
class Spans {
 public:
  struct Span {
    const char* name;
    const char* cat;
    double tsSec;
    double durSec;
    std::uint32_t tid;
    std::uint64_t id;  // groups the spans of one round / operation
  };

  static constexpr std::size_t kLimit = 200000;
  bool on = false;

  void add(const char* name, const char* cat, double t0, double t1,
           std::uint32_t tid = 0, std::uint64_t id = 0) {
    if (on && spans_.size() < kLimit)
      spans_.push_back({name, cat, t0, t1 - t0, tid, id});
  }
  void nameThread(std::uint32_t tid, const std::string& name) {
    for (const auto& [t, n] : threadNames_)
      if (t == tid) return;
    threadNames_.emplace_back(tid, name);
  }
  bool write(const std::string& path, double originSec) const;
  std::size_t size() const { return spans_.size(); }

 private:
  std::vector<Span> spans_;
  std::vector<std::pair<std::uint32_t, std::string>> threadNames_;
};

/// The recorder shared by every workload of this process.
Spans& spans();

Result runRackExam(const Options& o);
Result runStateMesh(const Options& o);
Result runReliableMass(const Options& o);
Result runUdpMesh(const Options& o);

/// Feed every checker records with one planted fault each (dropped,
/// duplicated and reordered reflection, wrong payload value, displays
/// that disagree); returns the faults a checker failed to report.
std::vector<std::string> selfTestCheckers();

}  // namespace pb
