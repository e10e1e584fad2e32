// The reliable_mass fault probe (see fault_probe.cpp).
#pragma once

#include <cstdint>
#include <string>

namespace pb {

struct ProbeOutcome {
  std::uint64_t owed = 0;       // published while the subscriber was connected
  std::uint64_t delivered = 0;
  std::uint64_t missing = 0;    // owed, never delivered
  bool clean = false;           // in order, no duplicates, right values
  std::string describe;
};

ProbeOutcome runOrphanProbe();

}  // namespace pb
