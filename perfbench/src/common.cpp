#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace pb {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[idx];
}

double interquartileMean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t lo = v.size() / 4, hi = v.size() - v.size() / 4;
  double s = 0.0;
  for (std::size_t i = lo; i < hi; ++i) s += v[i];
  return s / static_cast<double>(hi - lo);
}

HostRates hostRates(const std::vector<Slice>& samples) {
  std::vector<double> speed, rate;
  for (const Slice& s : samples) {
    if (s.hostSec <= 0.0) continue;
    speed.push_back(s.virtualSec / s.hostSec);
    rate.push_back(static_cast<double>(s.reflected) / s.hostSec);
  }
  return {quantile(speed, kHostRateQuantile), quantile(rate, kHostRateQuantile),
          median(speed)};
}

void Result::checkFailed(const std::string& why) {
  correct = false;
  if (checkFailures.size() < 32) checkFailures.push_back(why);
}

Spans& spans() {
  static Spans s;
  return s;
}

bool Spans::write(const std::string& path, double originSec) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"traceEvents\":[\n";
  bool first = true;
  for (const auto& [tid, name] : threadNames_) {
    f << (first ? "" : ",\n") << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
      << ",\"name\":\"thread_name\",\"args\":{\"name\":\"" << name << "\"}}";
    first = false;
  }
  char buf[256];
  for (const Span& s : spans_) {
    std::snprintf(buf, sizeof buf,
                  "{\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"name\":\"%s\","
                  "\"cat\":\"%s\",\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"id\":%llu}}",
                  s.tid, s.name, s.cat, (s.tsSec - originSec) * 1e6,
                  s.durSec * 1e6, static_cast<unsigned long long>(s.id));
    f << (first ? "" : ",\n") << buf;
    first = false;
  }
  f << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return static_cast<bool>(f);
}

}  // namespace pb
