#include "layers.hpp"

#include <optional>

namespace pb {

void LayerTotals::add(const cod::core::CommunicationBackbone& cb) {
  const cod::core::CbStats& s = cb.stats();
  broadcasts += s.broadcastsSent;
  timedOut += s.channelsTimedOut;
  unknownDrops += s.unknownChannelDrops;
  retransmits += s.reliable.retransmitsSent;
  nacksSent += s.reliable.nacksSent;
  outOfOrder += s.reliable.outOfOrderBuffered;
  for (std::size_t i = 0; i < 5; ++i) {
    const auto& h = cb.phaseHistograms().at(i).snapshot();
    phaseSum[i] += h.sum;
    phaseCount[i] += h.count;
  }
}

namespace {

double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }
double ratio(std::uint64_t a, std::uint64_t b) {
  return ratio(static_cast<double>(a), static_cast<double>(b));
}

/// Mean host ns of `fn` over `reps` passes of `n` items.
template <typename F>
double nsPerItem(std::size_t n, int reps, F&& fn) {
  const double t0 = hostSec();
  for (int r = 0; r < reps; ++r)
    for (std::size_t i = 0; i < n; ++i) fn(i);
  return ratio((hostSec() - t0) * 1e9, static_cast<double>(n) * reps);
}

}  // namespace

void reportCoreAndNet(Result& r, const LayerTotals& t,
                      const std::vector<cod::core::AttributeSet>& payloads) {
  // Encode / decode on the workload's own payloads.
  double encodeNs = 0.0, decodeNs = 0.0, bytes = 0.0;
  if (!payloads.empty()) {
    std::vector<std::vector<std::uint8_t>> wire;
    for (const auto& p : payloads) wire.push_back(p.encode());
    for (const auto& w : wire) bytes += static_cast<double>(w.size());
    bytes /= static_cast<double>(wire.size());
    std::size_t sink = 0;
    const int reps = static_cast<int>(200000 / payloads.size()) + 1;
    encodeNs = nsPerItem(payloads.size(), reps, [&](std::size_t i) {
      sink += payloads[i].encode().size();
    });
    decodeNs = nsPerItem(wire.size(), reps, [&](std::size_t i) {
      const auto d = cod::core::AttributeSet::decode(wire[i]);
      sink += d ? d->size() : 0;
    });
    if (sink == 0) r.checkFailed("encode/decode produced nothing");
  }
  const double updatesTimed = static_cast<double>(t.timedReflected);
  r.layer("core.publish_us", ratio(t.publishHostSec * 1e6,
                                   static_cast<double>(t.publishCalls)), "us");
  r.layer("core.tick_us_per_update",
          ratio((t.tickHostSec - t.publishHostSec - t.generateHostSec) * 1e6,
                updatesTimed),
          "us");
  r.layer("core.encode_ns", encodeNs, "ns");
  r.layer("core.decode_ns", decodeNs, "ns");
  r.layer("core.payload_bytes", bytes, "B");
  r.layer("core.frames_per_datagram", ratio(t.frames, t.packets), "count");
  static const char* kPhase[5] = {"poll", "route", "timer", "stage", "flush"};
  for (std::size_t i = 0; i < 5; ++i)
    r.layer(std::string("core.phase_us.") + kPhase[i],
            ratio(t.phaseSum[i] * 1e6, static_cast<double>(t.phaseCount[i])),
            "us");
  r.layer("core.broadcasts_sent", static_cast<double>(t.broadcasts), "count");
  r.layer("core.channels_timed_out", static_cast<double>(t.timedOut), "count");
  r.layer("core.full_wire_up_s", t.fullWireUpSec, "s");
  r.layer("core.unknown_channel_drops", static_cast<double>(t.unknownDrops),
          "count");
  r.layer("net.simnet_ns_per_packet",
          ratio(t.advanceHostSec * 1e9,
                static_cast<double>(t.timedSimnetPackets)),
          "ns");
  r.layer("net.datagrams_per_update", ratio(t.packets, t.reflected), "count");
  r.layer("net.reliable.retransmits_per_update",
          ratio(t.retransmits, t.reflected), "count");
  r.layer("net.reliable.nacks_sent", static_cast<double>(t.nacksSent), "count");
  r.layer("net.reliable.out_of_order_buffered",
          static_cast<double>(t.outOfOrder), "count");
  r.layer("net.udp.tick_us_per_datagram", t.udpTickUsPerDatagram, "us");
  r.layer("trace.overhead_pct",
          t.untracedHostPerUpdate > 0.0
              ? 100.0 * (t.tracedHostPerUpdate / t.untracedHostPerUpdate - 1.0)
              : 0.0,
          "%");
}

void reportNoRackLayers(Result& r) {
  r.layer("render.us_per_frame", 0.0, "us");
  r.layer("render.triangles_per_frame", 0.0, "count");
  r.layer("render.pixels_per_frame", 0.0, "count");
  for (const char* role :
       {"display", "sync", "dashboard", "platform", "dynamics", "instructor"})
    r.layer(std::string("sim.host_ms_per_vs.") + role, 0.0, "ms");
  r.layer("sim.frame_rate_hz", 0.0, "Hz");
}

}  // namespace pb
