// Real-socket smoke tests over 127.0.0.1 (the deployment path; everything
// protocol-level is tested on SimNetwork).
#include "net/udp.hpp"

#include <gtest/gtest.h>

#include <thread>

namespace cod::net {
namespace {

UdpConfig testConfig() {
  UdpConfig cfg;
  cfg.portsPerHost = 4;
  cfg.maxHosts = 4;
  // Kernel-assigned, not constant: parallel test lanes (or a concurrent
  // soak run) must not race each other for a fixed port range.
  cfg.basePort = pickEphemeralBasePort(
      static_cast<std::uint16_t>(cfg.portsPerHost * cfg.maxHosts));
  return cfg;
}

std::optional<Datagram> receiveWithRetry(Transport& t, int attempts = 200) {
  for (int i = 0; i < attempts; ++i) {
    if (auto d = t.receive()) return d;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return std::nullopt;
}

TEST(UdpTransport, SendReceiveLoopback) {
  const UdpConfig cfg = testConfig();
  UdpTransport a(cfg, 0, 0);
  UdpTransport b(cfg, 1, 0);
  const std::vector<std::uint8_t> payload{1, 2, 3, 4, 5};
  a.send({1, 0}, payload);
  const auto d = receiveWithRetry(b);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->payload, payload);
  EXPECT_EQ(d->src, (NodeAddr{0, 0}));
  EXPECT_EQ(d->dst, (NodeAddr{1, 0}));
}

TEST(UdpTransport, EmulatedBroadcastReachesAllHosts) {
  const UdpConfig cfg = testConfig();
  UdpTransport a(cfg, 0, 1);
  UdpTransport b(cfg, 1, 1);
  UdpTransport c(cfg, 2, 1);
  a.broadcast(1, std::vector<std::uint8_t>{42});
  EXPECT_TRUE(receiveWithRetry(b).has_value());
  EXPECT_TRUE(receiveWithRetry(c).has_value());
  // The sender does not hear its own broadcast.
  EXPECT_FALSE(a.receive().has_value());
}

TEST(UdpTransport, NonBlockingReceiveOnEmpty) {
  UdpTransport a(testConfig(), 3, 0);
  EXPECT_FALSE(a.receive().has_value());
}

TEST(UdpTransport, RejectsOutOfPlanAddresses) {
  const UdpConfig cfg = testConfig();
  EXPECT_THROW(UdpTransport(cfg, 99, 0), std::out_of_range);
  EXPECT_THROW(UdpTransport(cfg, 0, 99), std::out_of_range);
}

TEST(UdpTransport, EphemeralBasePortPlanBindsAndReadsBack) {
  const UdpConfig cfg = testConfig();
  EXPECT_NE(cfg.basePort, 0);
  // The address plan maps onto real ports exactly as computed, confirmed
  // by reading the bound port back from the kernel rather than trusting
  // the arithmetic.
  UdpTransport a(cfg, 2, 3);
  EXPECT_EQ(a.boundUdpPort(),
            cfg.basePort + 2 * cfg.portsPerHost + 3);
  // Every slot of the reserved plan is genuinely bindable.
  UdpTransport b(cfg, 0, 0);
  UdpTransport c(cfg, 3, 3);
  EXPECT_EQ(b.boundUdpPort(), cfg.basePort);
  EXPECT_EQ(c.boundUdpPort(),
            cfg.basePort + 3 * cfg.portsPerHost + 3);
}

TEST(UdpTransport, StatsCount) {
  const UdpConfig cfg = testConfig();
  UdpTransport a(cfg, 0, 2);
  UdpTransport b(cfg, 1, 2);
  a.send({1, 2}, std::vector<std::uint8_t>{1, 2, 3});
  ASSERT_TRUE(receiveWithRetry(b).has_value());
  EXPECT_EQ(a.stats()->packetsSent, 1u);
  EXPECT_EQ(a.stats()->bytesSent, 3u);
  EXPECT_EQ(a.stats()->framesSent, 1u);  // a bare frame counts as one
  EXPECT_EQ(b.stats()->packetsReceived, 1u);
  EXPECT_EQ(b.stats()->framesReceived, 1u);
}

TEST(UdpTransport, SendvGathersToOneDatagram) {
  // A scatter-gather send must land as ONE datagram whose payload is the
  // concatenation of the parts, on both sides of UdpTransport's 64-iovec
  // sendmsg path: past it, sendv falls back to the gather-copy path (a
  // kBatch container of many small heartbeats gets there). Each part
  // list opens with a container header, as the batch flush's does, so
  // the frame count must match too.
  const UdpConfig cfg = testConfig();
  UdpTransport a(cfg, 0, 2);
  UdpTransport b(cfg, 1, 2);
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  std::uint64_t frames = 0;
  for (const std::size_t frameParts : {2u, 63u, 64u, 65u, 300u}) {
    const std::uint8_t header[3] = {
        10, static_cast<std::uint8_t>(frameParts & 0xFF),
        static_cast<std::uint8_t>(frameParts >> 8)};
    std::vector<std::vector<std::uint8_t>> chunks;
    for (std::size_t i = 0; i < frameParts; ++i) {
      std::vector<std::uint8_t> c;
      for (std::size_t j = 0; j <= i % 7; ++j)
        c.push_back(static_cast<std::uint8_t>(i * 31 + j));
      chunks.push_back(std::move(c));
    }
    std::vector<ByteSpan> parts{ByteSpan{header}};
    std::vector<std::uint8_t> linear(header, header + 3);
    for (const auto& c : chunks) {
      parts.emplace_back(c);
      linear.insert(linear.end(), c.begin(), c.end());
    }
    a.sendv({1, 2}, parts);
    const auto d = receiveWithRetry(b);
    ASSERT_TRUE(d.has_value()) << parts.size() << " parts";
    EXPECT_EQ(d->payload, linear) << parts.size() << " parts";
    EXPECT_FALSE(b.receive().has_value())
        << "sendv of " << parts.size() << " parts split into >1 datagram";
    ++packets;
    bytes += linear.size();
    frames += frameParts;
    EXPECT_EQ(a.stats()->packetsSent, packets) << parts.size() << " parts";
    EXPECT_EQ(a.stats()->bytesSent, bytes) << parts.size() << " parts";
    EXPECT_EQ(a.stats()->framesSent, frames) << parts.size() << " parts";
  }
}

}  // namespace
}  // namespace cod::net
