// Output checkers. They see only what subscribers reflected and what the
// generators derive from (publisher, class, sequence), so a fault anywhere
// between publish and reflect shows up here.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/value.hpp"

namespace pb {

/// Order-sensitive hash of every attribute name and value of a set.
std::uint64_t digestOf(const cod::core::AttributeSet& attrs);

/// One reflected update as a subscriber saw it.
struct Delivery {
  std::uint32_t seq = 0;
  std::uint16_t sub = 0;  // subscribing computer
  std::uint16_t pub = 0;  // publishing computer
  std::uint32_t cls = 0;  // workload-defined class index
  std::uint64_t digest = 0;
};

/// Checks (subscriber, publisher, class) streams: each must deliver every
/// owed sequence number exactly once, in order, with the payload the
/// generator derives for it.
class StreamChecker {
 public:
  using ExpectedDigest =
      std::function<std::uint64_t(std::uint16_t pub, std::uint32_t cls,
                                  std::uint32_t seq)>;
  explicit StreamChecker(ExpectedDigest expected)
      : expected_(std::move(expected)) {}

  /// Declare that `sub` is owed sequences [first, last] of (pub, cls).
  void owe(std::uint16_t sub, std::uint16_t pub, std::uint32_t cls,
           std::uint32_t first, std::uint32_t last);
  void observe(const Delivery& d);

  struct Gap {
    std::uint16_t sub, pub;
    std::uint32_t cls, first, last;
  };
  struct Verdict {
    std::uint64_t owed = 0;
    std::uint64_t delivered = 0;
    std::uint64_t missing = 0;     // owed, never delivered
    std::uint64_t duplicates = 0;
    std::uint64_t reordered = 0;   // delivered after a later sequence
    std::uint64_t wrongValue = 0;
    std::uint64_t unexpected = 0;  // stream or sequence nobody owed
    std::vector<Gap> gaps;         // missing ranges, per stream
    /// Missing ranges that start at the stream's first owed sequence and
    /// are followed by deliveries (a stream that came back at a later
    /// base), versus holes in the middle or tail of a stream.
    std::uint64_t missingAtStreamHead = 0;
    bool clean() const {
      return duplicates == 0 && reordered == 0 && wrongValue == 0 &&
             unexpected == 0;
    }
    /// Every owed update was delivered.
    bool complete() const { return missing == 0; }
    std::string describe() const;
  };
  /// Close every stream and report. Call once.
  Verdict finish();
  /// Drop the memo of expected digests (every subscriber of an update
  /// checks the same one); call between rounds to bound its size.
  void forgetExpected() { expectedMemo_.clear(); }

 private:
  struct Stream {
    std::uint32_t first = 0, last = 0;  // owed range
    std::uint32_t next = 0;             // next sequence expected in order
    std::vector<std::uint32_t> holes;   // skipped, not yet filled
    std::uint64_t delivered = 0;
  };
  static std::uint64_t key(std::uint16_t sub, std::uint16_t pub,
                           std::uint32_t cls) {
    return (static_cast<std::uint64_t>(sub) << 48) |
           (static_cast<std::uint64_t>(pub) << 32) | cls;
  }

  std::uint64_t expected(std::uint16_t pub, std::uint32_t cls,
                         std::uint32_t seq);

  ExpectedDigest expected_;
  std::unordered_map<std::uint64_t, std::uint64_t> expectedMemo_;
  std::unordered_map<std::uint64_t, Stream> streams_;
  Verdict v_;
};

/// What the rack exam reported at its end.
struct RackOutcome {
  bool finished = false;
  bool passed = false;
  double score = 0.0;
  std::vector<double> deductionPoints;
  std::string phaseName;
  double statusScore = 0.0;      // instructor's Status window
  std::string statusPhase;
  std::vector<std::uint64_t> framesPerDisplay;
  std::uint64_t swapsIssued = 0;
  double frameRateHz = 0.0;      // frames per display per virtual second
  double frameIntervalSec = 0.0;
};

/// Check one exam: the careful trainee passes with >= 70, the total is
/// 100 minus the deductions, the instructor agrees, the displays agree
/// with each other and with the sync server's swaps, and the frame rate
/// respects the frame interval. Returns the failed checks.
std::vector<std::string> checkRack(const RackOutcome& r);

}  // namespace pb
