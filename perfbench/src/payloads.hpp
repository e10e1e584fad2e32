// Payload generators shared by the workloads: every value derives from
// (seed, publisher, class, sequence), so a checker can recompute what a
// reflection must contain.
#pragma once

#include <cstdint>

#include "core/value.hpp"

namespace pb {

/// The real 23-attribute crane.state payload (sim::encodeCraneState) with
/// values drawn from (seed, pub, seq); `hookLoad` carries the publisher and
/// `alarms` the sequence number.
cod::core::AttributeSet craneStatePayload(std::uint64_t seed,
                                          std::uint16_t pub,
                                          std::uint32_t cls,
                                          std::uint32_t seq);
/// Recover (pub, seq) from a craneStatePayload.
bool identifyCraneState(const cod::core::AttributeSet& a, std::uint16_t& pub,
                        std::uint32_t& seq);

}  // namespace pb
