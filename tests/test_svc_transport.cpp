// Stream-level edge cases of the socket transport (ISSUE 8).
//
// The in-process codec tests (test_svc_frame.cpp) prove the framing layer
// against adversarial *bytes*; these prove the transport against
// adversarial *streams*: frames split at every read boundary (1-byte
// reads), short writes under a tiny kernel send buffer, mid-frame
// disconnect, decoder resync on a live connection, slow-client
// backpressure, and lease expiry when a connection dies.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <span>
#include <thread>
#include <vector>

#include "obs/registry.h"
#include "svc/frame.h"
#include "svc/listener.h"
#include "svc/service.h"
#include "svc/transport.h"
#include "svc_workload.h"

namespace svc = helcfl::svc;
using namespace helcfl;

namespace {

std::vector<std::uint8_t> report_frame(std::uint64_t device,
                                       std::uint64_t seq) {
  svc::DeviceReport report;
  report.device_id = device;
  report.report_seq = seq;
  report.t_cal_max_s = 1.5;
  report.t_com_s = 0.5;
  return svc::encode_frame(svc::encode(report));
}

/// Writes `bytes` to a raw fd in slices of `chunk`, retrying EAGAIN.
void write_all(int fd, std::span<const std::uint8_t> bytes,
               std::size_t chunk) {
  std::size_t at = 0;
  while (at < bytes.size()) {
    const std::size_t n = std::min(chunk, bytes.size() - at);
    const ssize_t sent = ::send(fd, bytes.data() + at, n, MSG_NOSIGNAL);
    if (sent < 0) {
      ASSERT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK) << strerror(errno);
      continue;
    }
    at += static_cast<std::size_t>(sent);
  }
}

/// Spins until `predicate` is true or ~5 s pass.
template <typename Fn>
bool eventually(Fn predicate) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return predicate();
}

}  // namespace

TEST(Endpoint, ParseRoundTrips) {
  const svc::Endpoint tcp = svc::Endpoint::parse("tcp:127.0.0.1:8443");
  EXPECT_EQ(tcp.kind, svc::Endpoint::Kind::kTcp);
  EXPECT_EQ(tcp.host, "127.0.0.1");
  EXPECT_EQ(tcp.port, 8443);
  EXPECT_EQ(tcp.to_string(), "tcp:127.0.0.1:8443");

  const svc::Endpoint unix_ep = svc::Endpoint::parse("unix:/tmp/x.sock");
  EXPECT_EQ(unix_ep.kind, svc::Endpoint::Kind::kUnix);
  EXPECT_EQ(unix_ep.path, "/tmp/x.sock");
  EXPECT_EQ(unix_ep.to_string(), "unix:/tmp/x.sock");

  EXPECT_THROW(svc::Endpoint::parse("udp:127.0.0.1:1"), svc::TransportError);
  EXPECT_THROW(svc::Endpoint::parse("tcp:127.0.0.1"), svc::TransportError);
  EXPECT_THROW(svc::Endpoint::parse("tcp:127.0.0.1:99999"),
               svc::TransportError);
  EXPECT_THROW(svc::Endpoint::parse("unix:"), svc::TransportError);
}

TEST(FramedConn, ReassemblesOneByteReads) {
  auto [a, b] = svc::Socket::stream_pair();
  const int writer_fd = a.fd();
  svc::FramedConn reader(std::move(b));

  // Three frames, delivered one byte at a time with a read after each.
  std::vector<std::uint8_t> wire;
  for (std::uint64_t seq = 1; seq <= 3; ++seq) {
    const auto frame = report_frame(7, seq);
    wire.insert(wire.end(), frame.begin(), frame.end());
  }
  std::vector<svc::Frame> frames;
  for (const std::uint8_t byte : wire) {
    write_all(writer_fd, {&byte, 1}, 1);
    ASSERT_EQ(reader.read_frames(frames), svc::FramedConn::IoStatus::kOk);
  }
  ASSERT_EQ(frames.size(), 3u);
  for (std::uint64_t seq = 1; seq <= 3; ++seq) {
    EXPECT_EQ(frames[seq - 1].type, svc::MsgType::kDeviceReport);
    const auto report = svc::decode_device_report(frames[seq - 1].payload);
    EXPECT_EQ(report.device_id, 7u);
    EXPECT_EQ(report.report_seq, seq);
  }
  EXPECT_EQ(reader.decode_stats().rejected, 0u);
  EXPECT_EQ(reader.bytes_read(), wire.size());
}

TEST(FramedConn, ShortWritesKeepFramesIntact) {
  auto [a, b] = svc::Socket::stream_pair();
  a.set_send_buffer(1);  // kernel clamps to its floor — still tiny
  svc::FramedConn writer(std::move(a));
  svc::FramedConn reader(std::move(b));

  // A frame far larger than the send buffer: flush() must take multiple
  // partial writes, and the receiver must still see one intact frame.
  svc::DeviceReport report;
  report.device_id = 3;
  report.report_seq = 1;
  report.t_cal_max_s = 2.0;
  report.t_com_s = 1.0;
  const auto small = svc::encode_frame(svc::encode(report));
  svc::DecisionResponse fat;
  fat.controller_seq = 1;
  fat.round = 9;
  fat.selected.assign(20'000, 5);
  fat.frequencies_hz.assign(20'000, 1e9);
  const auto large = svc::encode_frame(svc::encode(fat));

  ASSERT_TRUE(writer.queue_frame(large));
  ASSERT_TRUE(writer.queue_frame(small));
  std::vector<svc::Frame> frames;
  while (writer.want_write()) {
    ASSERT_EQ(writer.flush(), svc::FramedConn::IoStatus::kOk);
    ASSERT_EQ(reader.read_frames(frames), svc::FramedConn::IoStatus::kOk);
  }
  ASSERT_TRUE(eventually([&] {
    reader.read_frames(frames);
    return frames.size() == 2;
  }));
  EXPECT_GT(writer.short_writes(), 0u) << "send buffer did not force"
                                          " partial writes";
  EXPECT_EQ(frames[0].type, svc::MsgType::kDecisionResponse);
  const auto decoded = svc::decode_decision_response(frames[0].payload);
  EXPECT_EQ(decoded.selected.size(), 20'000u);
  EXPECT_EQ(frames[1].type, svc::MsgType::kDeviceReport);
  EXPECT_EQ(reader.decode_stats().rejected, 0u);
}

TEST(FramedConn, MidFrameDisconnectDeliversCompletePrefix) {
  auto [a, b] = svc::Socket::stream_pair();
  const int writer_fd = a.fd();
  svc::FramedConn reader(std::move(b));

  const auto whole = report_frame(1, 1);
  const auto torn = report_frame(2, 2);
  write_all(writer_fd, whole, whole.size());
  write_all(writer_fd, std::span(torn).subspan(0, torn.size() / 2),
            torn.size());
  a.close();  // peer dies mid-frame

  std::vector<svc::Frame> frames;
  ASSERT_TRUE(eventually([&] {
    return reader.read_frames(frames) == svc::FramedConn::IoStatus::kClosed;
  }));
  // The complete frame before the tear is delivered; the torn tail is not.
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(svc::decode_device_report(frames[0].payload).device_id, 1u);
}

TEST(FramedConn, ResyncsAfterCorruptBytesOnLiveConnection) {
  auto [a, b] = svc::Socket::stream_pair();
  const int writer_fd = a.fd();
  svc::FramedConn reader(std::move(b));

  // Garbage, then a frame whose payload is bit-flipped, then a clean
  // frame — all on the same connection.  The decoder must reject the
  // damage and still deliver the clean frame.
  const std::vector<std::uint8_t> garbage = {0xde, 0xad, 0xbe, 0xef, 0x00};
  auto corrupt = report_frame(4, 1);
  corrupt[svc::kFrameHeaderBytes + 3] ^= 0x40;  // payload bit flip
  const auto clean = report_frame(4, 2);
  write_all(writer_fd, garbage, garbage.size());
  write_all(writer_fd, corrupt, corrupt.size());
  write_all(writer_fd, clean, clean.size());

  std::vector<svc::Frame> frames;
  ASSERT_TRUE(eventually([&] {
    reader.read_frames(frames);
    return !frames.empty();
  }));
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(svc::decode_device_report(frames[0].payload).report_seq, 2u);
  EXPECT_GT(reader.decode_stats().rejected, 0u);
  EXPECT_GT(reader.decode_stats().resync_bytes, 0u);
}

TEST(FramedConn, BackpressureBoundsOutputBuffer) {
  auto [a, b] = svc::Socket::stream_pair();
  a.set_send_buffer(1);
  svc::FramedConn writer(std::move(a),
                         svc::FramedConn::Options{.max_output_bytes = 256});
  // `b` never reads: the kernel buffer fills, then the bounded output
  // buffer, and queue_frame refuses rather than buffering without bound.
  const auto frame = report_frame(0, 1);
  bool refused = false;
  for (int i = 0; i < 1'000; ++i) {
    if (!writer.queue_frame(frame)) {
      refused = true;
      break;
    }
    writer.flush();
  }
  EXPECT_TRUE(refused);
  EXPECT_LE(writer.output_backlog(), 256u);
}

// --- SocketServer end-to-end ------------------------------------------------

namespace {

svc::ServiceOptions tiny_fleet_options() {
  svc::ServiceOptions options;
  options.fraction = 0.25;
  options.eta = 0.9;
  options.lease_ticks = 50;
  options.queue_capacity = 64;
  return options;
}

}  // namespace

TEST(SocketServer, RoundTripOverUnixSocket) {
  const auto users = svc_test::make_users();
  svc::SchedulerService service(users, tiny_fleet_options());
  svc::ServerOptions server_options;
  const std::string path = ::testing::TempDir() + "helcfl_svc_rt.sock";
  svc::SocketServer server(service, svc::Endpoint::parse("unix:" + path),
                           server_options);
  server.start();

  svc::ClientChannel channel(server.endpoint());
  // Report for every device, then a decision request.
  for (std::size_t d = 0; d < users.size(); ++d) {
    ASSERT_TRUE(channel.send_frame(report_frame(d, 1)));
  }
  std::vector<svc::Frame> inbox;
  ASSERT_TRUE(eventually([&] {
    channel.poll_frames(inbox, 10);
    std::size_t acks = 0;
    for (const auto& f : inbox) {
      if (f.type == svc::MsgType::kReportAck) ++acks;
    }
    return acks == users.size();
  }));

  svc::DecisionRequest request;
  request.controller_seq = 1;
  request.round = 0;
  ASSERT_TRUE(channel.send_frame(svc::encode_frame(svc::encode(request))));
  inbox.clear();
  ASSERT_TRUE(eventually([&] {
    channel.poll_frames(inbox, 10);
    return !inbox.empty() &&
           inbox.back().type == svc::MsgType::kDecisionResponse;
  }));
  const auto decision = svc::decode_decision_response(inbox.back().payload);
  EXPECT_EQ(decision.controller_seq, 1u);
  EXPECT_FALSE(decision.selected.empty());

  server.stop();
  const svc::ServerStats stats = server.stats();
  EXPECT_EQ(stats.conns_accepted, 1u);
  EXPECT_GE(stats.ingress_frames, users.size() + 1);
  EXPECT_GE(stats.egress_frames, users.size() + 1);
}

TEST(SocketServer, CountsStreamRejectionsAndStillAcksTheReport) {
  const auto users = svc_test::make_users();
  svc::SchedulerService service(users, tiny_fleet_options());
  obs::Registry registry;
  obs::Instruments instruments;
  instruments.registry = &registry;
  svc::SocketServer server(service, svc::Endpoint::parse("tcp:127.0.0.1:0"),
                           svc::ServerOptions{}, instruments);
  server.start();

  // Raw socket: garbage the decoder must resync past, then one valid report.
  svc::Socket raw = svc::Socket::connect_to(server.endpoint());
  const std::vector<std::uint8_t> garbage = {0xde, 0xad, 0xbe, 0xef, 0x00,
                                             0x11, 0x22, 0x33};
  const auto report = report_frame(3, 1);
  write_all(raw.fd(), garbage, garbage.size());
  write_all(raw.fd(), report, report.size());

  svc::FramedConn reader(std::move(raw));
  std::vector<svc::Frame> inbox;
  ASSERT_TRUE(eventually([&] {
    reader.read_frames(inbox);
    return !inbox.empty();
  }));
  ASSERT_EQ(inbox.front().type, svc::MsgType::kReportAck);
  const svc::ReportAck ack = svc::decode_report_ack(inbox.front().payload);
  EXPECT_EQ(ack.device_id, 3u);
  EXPECT_EQ(ack.report_seq, 1u);

  server.stop();
  EXPECT_GE(server.stats().frames_rejected, 1u);
  EXPECT_EQ(registry.counter("svc.conn_frames_rejected"),
            server.stats().frames_rejected);
}

TEST(SocketServer, DisconnectExpiresLeaseAndReconnectRevives) {
  const auto users = svc_test::make_users();
  svc::SchedulerService service(users, tiny_fleet_options());
  // Test-controlled logical clock: lease expiry is deterministic.
  std::atomic<std::uint64_t> tick{0};
  svc::ServerOptions server_options;
  server_options.tick_source = [&tick] {
    return tick.load(std::memory_order_relaxed);
  };
  svc::SocketServer server(service, svc::Endpoint::parse("tcp:127.0.0.1:0"),
                           server_options);
  server.start();

  {
    svc::ClientChannel channel(server.endpoint());
    ASSERT_TRUE(channel.send_frame(report_frame(0, 1)));
    std::vector<svc::Frame> inbox;
    ASSERT_TRUE(eventually([&] {
      channel.poll_frames(inbox, 10);
      return !inbox.empty();
    }));
  }  // connection drops here

  ASSERT_TRUE(eventually([&] { return server.open_connections() == 0; }));
  // The device goes silent past its lease; the service loop's poll() at
  // the advanced tick parks it.  (Stop the server before reading the
  // service — the service thread is its only permitted caller while
  // running.)
  tick.store(10'000, std::memory_order_relaxed);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.stop();
  EXPECT_FALSE(service.device_alive(0));
  EXPECT_GE(server.stats().conns_accepted, 1u);
  EXPECT_GE(server.stats().conns_closed, 1u);
  EXPECT_GT(service.stats().leases_expired, 0u);
}

TEST(SocketServer, SlowClientIsStalledNotBufferedForever) {
  const auto users = svc_test::make_users();
  svc::SchedulerService service(users, tiny_fleet_options());
  svc::ServerOptions server_options;
  // Tiny output bound + tiny kernel buffer: a client that never reads its
  // acks must be disconnected, not buffered without bound.
  server_options.max_conn_output_bytes = 512;
  server_options.conn_send_buffer_bytes = 1;
  svc::SocketServer server(service, svc::Endpoint::parse("tcp:127.0.0.1:0"),
                           server_options);
  server.start();

  svc::ClientChannel channel(server.endpoint());
  std::uint64_t seq = 1;
  ASSERT_TRUE(eventually([&] {
    // Keep sending reports without ever reading acks.
    for (int i = 0; i < 32 && channel.connected(); ++i) {
      if (!channel.send_frame(report_frame(0, seq++))) break;
    }
    return server.stats().conns_stalled >= 1;
  }));
  server.stop();
  EXPECT_GE(server.stats().conns_stalled, 1u);
}
