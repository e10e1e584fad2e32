// Per-layer metrics of the traced run. Every traced run prints the whole
// list; a layer a workload does not exercise reports 0.
#pragma once

#include <cstdint>
#include <vector>

#include "common.hpp"
#include "core/cb.hpp"

namespace pb {

/// Counters and host times gathered from outside the layers.
struct LayerTotals {
  std::uint64_t reflected = 0;       // reflections over the world's life
  std::uint64_t packets = 0;         // datagrams the CBs' transports sent
  std::uint64_t frames = 0;          // CB frames inside them
  double advanceHostSec = 0.0;       // SimNetwork::advance, timed rounds
  double tickHostSec = 0.0;          // cb.tick, timed rounds
  std::uint64_t timedReflected = 0;  // reflections during timed rounds
  std::uint64_t timedSimnetPackets = 0;  // LAN packets during timed rounds
  double publishHostSec = 0.0;       // updateAttributeValues, timed rounds
  double generateHostSec = 0.0;      // payload generation, timed rounds
  std::uint64_t publishCalls = 0;
  double tracedHostPerUpdate = 0.0;    // host s per reflection, timed rounds
  double untracedHostPerUpdate = 0.0;  // ... and untimed rounds
  double udpTickUsPerDatagram = 0.0;
  double fullWireUpSec = 0.0;  // virtual, until every subscription is wired

  // Summed CB counters.
  std::uint64_t broadcasts = 0, timedOut = 0, unknownDrops = 0;
  std::uint64_t retransmits = 0, nacksSent = 0, outOfOrder = 0;
  double phaseSum[5] = {0, 0, 0, 0, 0};
  std::uint64_t phaseCount[5] = {0, 0, 0, 0, 0};

  void add(const cod::core::CommunicationBackbone& cb);
  /// Take the counters (not the phase times) from `o`: counts over a
  /// fixed window repeat exactly for a seed, counts over a run do not.
  void takeCounters(const LayerTotals& o) {
    broadcasts = o.broadcasts;
    timedOut = o.timedOut;
    unknownDrops = o.unknownDrops;
    retransmits = o.retransmits;
    nacksSent = o.nacksSent;
    outOfOrder = o.outOfOrder;
  }
};

/// core.* and net.* metrics; encode/decode are timed on `payloads`.
void reportCoreAndNet(Result& r, const LayerTotals& t,
                      const std::vector<cod::core::AttributeSet>& payloads);
/// Zeros for the rack-only layers (render.*, sim.*) on the mesh workloads.
void reportNoRackLayers(Result& r);

}  // namespace pb
