#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "common.hpp"

namespace pb {

namespace {

std::uint64_t bitsOf(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof u);
  return u;
}

}  // namespace

std::uint64_t digestOf(const cod::core::AttributeSet& attrs) {
  std::uint64_t h = 0x243F6A8885A308D3ull;
  for (const auto& [name, v] : attrs) {
    for (const char c : name) h = fold(h, static_cast<unsigned char>(c));
    if (v.isDouble()) {
      h = fold(h, bitsOf(v.asDouble()));
    } else if (v.isInt()) {
      h = fold(h, static_cast<std::uint64_t>(v.asInt()) ^ 0x1);
    } else if (v.isBool()) {
      h = fold(h, v.asBool() ? 0x11 : 0x10);
    } else if (v.isVec3()) {
      const auto p = v.asVec3();
      h = fold(fold(fold(h, bitsOf(p.x)), bitsOf(p.y)), bitsOf(p.z));
    } else if (v.isString()) {
      for (const char c : v.asString()) h = fold(h, static_cast<unsigned char>(c));
    } else {
      for (const std::uint8_t b : v.asBlob()) h = fold(h, b);
    }
  }
  return h;
}

void StreamChecker::owe(std::uint16_t sub, std::uint16_t pub,
                        std::uint32_t cls, std::uint32_t first,
                        std::uint32_t last) {
  Stream& s = streams_[key(sub, pub, cls)];
  if (s.next == 0) {
    s.first = first;
    s.next = first;
  }
  s.last = last;  // a repeated call closes a stream opened open-ended
}

void StreamChecker::observe(const Delivery& d) {
  const auto it = streams_.find(key(d.sub, d.pub, d.cls));
  if (it == streams_.end()) {
    ++v_.unexpected;
    return;
  }
  Stream& s = it->second;
  if (d.seq < s.first || d.seq > s.last) {
    ++v_.unexpected;
    return;
  }
  if (d.digest != expected(d.pub, d.cls, d.seq)) ++v_.wrongValue;
  if (d.seq == s.next) {
    ++s.next;
    ++s.delivered;
  } else if (d.seq > s.next) {
    for (std::uint32_t q = s.next; q < d.seq; ++q) s.holes.push_back(q);
    s.next = d.seq + 1;
    ++s.delivered;
  } else {
    const auto h = std::find(s.holes.begin(), s.holes.end(), d.seq);
    if (h == s.holes.end()) {
      ++v_.duplicates;
    } else {
      s.holes.erase(h);
      ++v_.reordered;
      ++s.delivered;
    }
  }
}

std::uint64_t StreamChecker::expected(std::uint16_t pub, std::uint32_t cls,
                                      std::uint32_t seq) {
  const std::uint64_t k = (static_cast<std::uint64_t>(pub) << 48) ^
                          (static_cast<std::uint64_t>(cls) << 32) ^ seq;
  const auto [it, fresh] = expectedMemo_.try_emplace(k, 0);
  if (fresh) it->second = expected_(pub, cls, seq);
  return it->second;
}

StreamChecker::Verdict StreamChecker::finish() {
  std::vector<std::uint64_t> keys;
  keys.reserve(streams_.size());
  for (const auto& [k, s] : streams_) keys.push_back(k);
  std::sort(keys.begin(), keys.end());
  for (const std::uint64_t k : keys) {
    Stream& s = streams_[k];
    const std::uint16_t sub = static_cast<std::uint16_t>(k >> 48);
    const std::uint16_t pub = static_cast<std::uint16_t>(k >> 32);
    const std::uint32_t cls = static_cast<std::uint32_t>(k);
    if (s.next > s.last + 1) {  // delivered beyond what was owed
      v_.unexpected += s.next - s.last - 1;
      s.next = s.last + 1;
    }
    v_.owed += s.last - s.first + 1;
    v_.delivered += s.delivered;
    for (std::uint32_t q = s.next; q <= s.last; ++q) s.holes.push_back(q);
    std::sort(s.holes.begin(), s.holes.end());
    v_.missing += s.holes.size();
    for (std::size_t i = 0; i < s.holes.size();) {
      std::size_t j = i;
      while (j + 1 < s.holes.size() && s.holes[j + 1] == s.holes[j] + 1) ++j;
      const Gap g{sub, pub, cls, s.holes[i], s.holes[j]};
      if (g.first == s.first && g.last < s.last)
        v_.missingAtStreamHead += g.last - g.first + 1;
      v_.gaps.push_back(g);
      i = j + 1;
    }
  }
  return v_;
}

std::string StreamChecker::Verdict::describe() const {
  std::ostringstream o;
  o << "owed=" << owed << " delivered=" << delivered << " missing=" << missing
    << " (at stream head " << missingAtStreamHead << ")"
    << " duplicates=" << duplicates << " reordered=" << reordered
    << " wrongValue=" << wrongValue << " unexpected=" << unexpected;
  for (std::size_t i = 0; i < gaps.size() && i < 8; ++i)
    o << "\n  gap sub=" << gaps[i].sub << " pub=" << gaps[i].pub
      << " cls=" << gaps[i].cls << " seq " << gaps[i].first << ".."
      << gaps[i].last;
  return o.str();
}

std::vector<std::string> checkRack(const RackOutcome& r) {
  std::vector<std::string> bad;
  if (!r.finished) bad.push_back("exam did not finish");
  if (!r.passed || r.score < 70.0)
    bad.push_back("careful trainee did not pass with >= 70 (score " +
                  std::to_string(r.score) + ", " + r.phaseName + ")");
  double expected = 100.0;
  for (const double p : r.deductionPoints) expected -= p;
  if (std::abs(expected - r.score) > 1e-9)
    bad.push_back("total " + std::to_string(r.score) +
                  " != 100 - deductions " + std::to_string(expected));
  if (std::abs(r.statusScore - r.score) > 1e-9 || r.statusPhase != r.phaseName)
    bad.push_back("instructor status window (" +
                  std::to_string(r.statusScore) + ", " + r.statusPhase +
                  ") disagrees with the exam (" + std::to_string(r.score) +
                  ", " + r.phaseName + ")");
  if (r.framesPerDisplay.empty()) bad.push_back("no displays");
  for (std::size_t d = 0; d < r.framesPerDisplay.size(); ++d) {
    if (r.framesPerDisplay[d] != r.swapsIssued)
      bad.push_back("display " + std::to_string(d) + " rendered " +
                    std::to_string(r.framesPerDisplay[d]) + " frames, sync "
                    "server issued " + std::to_string(r.swapsIssued) +
                    " swaps");
  }
  if (r.swapsIssued == 0) bad.push_back("no frames rendered");
  if (r.frameIntervalSec <= 0.0 ||
      r.frameRateHz > 1.0 / r.frameIntervalSec + 1e-9)
    bad.push_back("frame rate " + std::to_string(r.frameRateHz) +
                  " Hz exceeds 1/frameIntervalSec");
  return bad;
}

std::vector<std::string> selfTestCheckers() {
  std::vector<std::string> missed;
  // A toy generator: digest derives from (pub, cls, seq) only.
  const auto gen = [](std::uint16_t pub, std::uint32_t cls,
                      std::uint32_t seq) {
    cod::core::AttributeSet a;
    a.set("pub", static_cast<std::int64_t>(pub));
    a.set("cls", static_cast<std::int64_t>(cls));
    a.set("seq", static_cast<std::int64_t>(seq));
    a.set("v", 0.25 * seq + pub);
    return a;
  };
  const auto expected = [&](std::uint16_t p, std::uint32_t c,
                            std::uint32_t s) { return digestOf(gen(p, c, s)); };
  // Two subscribers, two publishers, one class, sequences 1..20.
  const auto clean = [&] {
    std::vector<Delivery> v;
    for (std::uint16_t sub = 0; sub < 2; ++sub)
      for (std::uint16_t pub = 2; pub < 4; ++pub)
        for (std::uint32_t seq = 1; seq <= 20; ++seq)
          v.push_back({seq, sub, pub, 5, digestOf(gen(pub, 5, seq))});
    return v;
  };
  const auto run = [&](const std::vector<Delivery>& recs) {
    StreamChecker c(expected);
    for (std::uint16_t sub = 0; sub < 2; ++sub)
      for (std::uint16_t pub = 2; pub < 4; ++pub) c.owe(sub, pub, 5, 1, 20);
    for (const Delivery& d : recs) c.observe(d);
    return c.finish();
  };
  {
    const auto v = run(clean());
    if (!v.clean() || !v.complete()) missed.push_back("clean stream flagged");
  }
  {
    // One reflection dropped mid-stream; the stream resumes after it.
    auto r = clean();
    r.erase(r.begin() + 7);
    const auto v = run(r);
    if (v.missing != 1 || v.complete()) missed.push_back("dropped reflection");
  }
  {
    // A run lost at the head of a stream that then resumed: the named
    // fault's shape.
    auto r = clean();
    r.erase(r.begin(), r.begin() + 5);
    const auto v = run(r);
    if (v.missing != 5 || v.missingAtStreamHead != 5 || v.complete())
      missed.push_back("stream resumed at a later sequence");
  }
  {
    auto r = clean();
    r.insert(r.begin() + 7, r[7]);
    if (run(r).duplicates != 1) missed.push_back("duplicated reflection");
  }
  {
    auto r = clean();
    std::swap(r[7], r[8]);
    const auto v = run(r);
    if (v.reordered != 1 || v.clean()) missed.push_back("reordered reflection");
  }
  {
    auto r = clean();
    auto a = gen(r[9].pub, 5, r[9].seq);
    a.set("v", a.getDouble("v") + 1e-9);
    r[9].digest = digestOf(a);
    if (run(r).wrongValue != 1) missed.push_back("wrong payload value");
  }
  {
    RackOutcome ok;
    ok.finished = ok.passed = true;
    ok.score = 88.0;
    ok.deductionPoints = {10.0, 2.0};
    ok.phaseName = ok.statusPhase = "PASSED";
    ok.statusScore = 88.0;
    ok.framesPerDisplay = {100, 100, 100};
    ok.swapsIssued = 100;
    ok.frameIntervalSec = 1.0 / 16.0;
    ok.frameRateHz = 15.5;
    if (!checkRack(ok).empty()) missed.push_back("clean rack flagged");
    RackOutcome disagree = ok;
    disagree.framesPerDisplay[1] = 99;
    if (checkRack(disagree).empty()) missed.push_back("displays disagree");
    RackOutcome total = ok;
    total.deductionPoints.push_back(2.0);
    if (checkRack(total).empty()) missed.push_back("score != 100 - deductions");
    RackOutcome status = ok;
    status.statusScore = 90.0;
    if (checkRack(status).empty()) missed.push_back("status window disagrees");
    RackOutcome fast = ok;
    fast.frameRateHz = 16.5;
    if (checkRack(fast).empty()) missed.push_back("frame rate above cap");
  }
  return missed;
}

}  // namespace pb
