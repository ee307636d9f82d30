// Loopback-TCP differential proof (ISSUE 8).
//
// The PR 7 differential proved that wire faults are invisible in the
// decision stream when the wire is an in-process datagram link.  This test
// carries that obligation onto the real transport: the same workload
// (tests/svc_workload.h) is driven through a SocketServer over loopback
// TCP with
//
//   * 10% client-side wire faults (drop / corrupt / duplicate / delay,
//     injected before the bytes reach the socket),
//   * 10% server-side egress chaos (drop / corrupt / duplicate), and
//   * reconnect churn — the client tears its connection down every few
//     pump iterations and whenever the stream stalls (a corrupted length
//     field can wedge a streaming decoder; reconnecting resets both ends'
//     decoders, which is the documented recovery path),
//
// and the resulting decision stream must be pick-for-pick identical to
// the clean in-process reference.  Retries, dedup, exactly-once request
// processing, and the report barrier absorb everything the wire does.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "svc/listener.h"
#include "svc/transport.h"
#include "svc_workload.h"

namespace svc = helcfl::svc;
using namespace helcfl;
using namespace helcfl::svc_test;

namespace {

/// Client half of the TCP exchange: ServiceClient owns the protocol
/// (retries, dedup, barrier), this owns the socket, the client-side fault
/// injection, and the reconnect churn.
class TcpExchange {
 public:
  TcpExchange(const svc::Endpoint& endpoint, svc::ServiceClient& client,
              svc::WireFaultInjector injector)
      : endpoint_(endpoint),
        client_(client),
        injector_(std::move(injector)) {}

  std::uint64_t tick = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t frames_dropped = 0;
  std::uint64_t frames_corrupted = 0;
  std::uint64_t frames_duplicated = 0;

  /// One pump: transmit due frames (faulted), release delayed copies,
  /// collect inbound frames, churn the connection on schedule.
  void pump() {
    // Unconditional churn: every kChurnEvery pumps the connection is torn
    // down, so reconnect handling is exercised even on a lucky fault draw
    // — and a decoder wedged by a corrupted length field is freed.
    if (channel_.has_value() && tick % kChurnEvery == kChurnEvery - 1) {
      channel_->close();
      channel_.reset();
    }
    if (!channel_.has_value()) {
      channel_.emplace(endpoint_);
      ++reconnects;
    }

    for (const auto& frame : client_.poll(tick)) {
      plan_and_send(frame);
    }
    while (!delayed_.empty() && delayed_.front().due_tick <= tick) {
      send_now(delayed_.front().bytes);
      delayed_.pop_front();
    }

    std::vector<svc::Frame> inbox;
    channel_->poll_frames(inbox, /*timeout_ms=*/1);
    for (const svc::Frame& frame : inbox) {
      client_.deliver(svc::encode_frame(frame));
    }
    if (!channel_->connected()) channel_.reset();  // server closed us
    ++tick;
  }

  Pick run_round(const std::vector<sched::UserInfo>& users,
                 std::uint64_t round) {
    for (std::size_t d = 0; d < users.size(); ++d) {
      client_.send_report(report_at(users, d, round), tick);
    }
    const std::uint64_t report_deadline = tick + 10'000;
    while (client_.pending_reports() > 0) {
      pump();
      EXPECT_LT(tick, report_deadline) << "report barrier stalled";
      if (tick >= report_deadline) return {};
    }
    client_.request_decision(round, tick);
    const std::uint64_t decide_deadline = tick + 10'000;
    std::optional<svc::DecisionResponse> response;
    while (!(response = client_.take_decision()).has_value()) {
      pump();
      EXPECT_LT(tick, decide_deadline) << "decision stalled";
      if (tick >= decide_deadline) return {};
    }
    Pick pick;
    pick.round = response->round;
    pick.selected = response->selected;
    pick.frequencies_hz = response->frequencies_hz;
    pick.degraded = response->degraded;
    return pick;
  }

 private:
  static constexpr std::uint64_t kChurnEvery = 23;

  struct Delayed {
    std::uint64_t due_tick = 0;
    std::vector<std::uint8_t> bytes;
  };

  void plan_and_send(const std::vector<std::uint8_t>& frame) {
    const svc::WireFaultInjector::Plan plan = injector_.plan_frame();
    if (plan.dropped) {
      ++frames_dropped;
      return;
    }
    if (plan.copies > 1) ++frames_duplicated;
    for (std::size_t c = 0; c < plan.copies; ++c) {
      const auto& delivery = plan.delivery[c];
      std::vector<std::uint8_t> bytes = frame;
      if (delivery.corrupted && !bytes.empty()) {
        bytes[delivery.corrupt_index % bytes.size()] ^= delivery.corrupt_mask;
        ++frames_corrupted;
      }
      if (delivery.delay_ticks > 0) {
        delayed_.push_back(Delayed{tick + delivery.delay_ticks, std::move(bytes)});
      } else {
        send_now(bytes);
      }
    }
  }

  void send_now(const std::vector<std::uint8_t>& bytes) {
    if (!channel_.has_value()) return;  // lost with the connection; retry wins
    if (!channel_->send_frame(bytes)) channel_.reset();
  }

  svc::Endpoint endpoint_;
  svc::ServiceClient& client_;
  svc::WireFaultInjector injector_;
  std::optional<svc::ClientChannel> channel_;
  std::deque<Delayed> delayed_;
};

svc::WireFaultInjector make_injector(double rate, std::uint64_t stream) {
  svc::WireFaultOptions faults;
  faults.drop_rate = rate;
  faults.corrupt_rate = rate;
  faults.duplicate_rate = rate;
  faults.delay_rate = rate > 0.0 ? 0.25 : 0.0;
  faults.max_delay_ticks = 6;
  return svc::WireFaultInjector(faults, util::Rng(kSeed).fork(stream));
}

struct TcpRun {
  std::vector<Pick> picks;
  svc::ServerStats server_stats;
  std::uint64_t reconnects = 0;
  std::uint64_t client_faults = 0;
  std::uint64_t client_retries = 0;
};

TcpRun run_tcp_workload(double fault_rate, std::uint64_t rounds) {
  const auto users = make_users();
  svc::SchedulerService service(users, service_options());
  svc::ServerOptions server_options;
  if (fault_rate > 0.0) {
    // Server-side egress chaos: responses are dropped/corrupted/duplicated
    // before they reach the wire (delay is meaningless on a stream).
    server_options.egress_chaos.drop_rate = fault_rate;
    server_options.egress_chaos.corrupt_rate = fault_rate;
    server_options.egress_chaos.duplicate_rate = fault_rate;
    server_options.egress_chaos_seed = kSeed + 9;
  }
  svc::SocketServer server(service, svc::Endpoint::parse("tcp:127.0.0.1:0"),
                           server_options);
  server.start();

  svc::ServiceClient client(retry_options(), util::Rng(kSeed).fork(100));
  TcpExchange exchange(server.endpoint(), client,
                       make_injector(fault_rate, 31));

  TcpRun run;
  for (std::uint64_t round = 0; round < rounds; ++round) {
    run.picks.push_back(exchange.run_round(users, round));
  }
  EXPECT_EQ(client.exhausted(), 0u);
  server.stop();
  EXPECT_EQ(service.stats().decisions, rounds);
  run.server_stats = server.stats();
  run.reconnects = exchange.reconnects;
  run.client_faults = exchange.frames_dropped + exchange.frames_corrupted +
                      exchange.frames_duplicated;
  run.client_retries = client.retries();
  return run;
}

}  // namespace

TEST(SvcTcpDifferential, FaultyTcpYieldsIdenticalDecisions) {
  constexpr std::uint64_t kRounds = 8;
  // Reference: the clean in-process datagram path from PR 7.
  const std::vector<Pick> reference = run_workload(0.0, kRounds);

  const TcpRun tcp = run_tcp_workload(0.10, kRounds);
  ASSERT_EQ(tcp.picks.size(), reference.size());
  for (std::size_t r = 0; r < reference.size(); ++r) {
    EXPECT_EQ(tcp.picks[r].round, reference[r].round);
    EXPECT_EQ(tcp.picks[r].selected, reference[r].selected)
        << "picks diverged at round " << r << " over faulty TCP";
    EXPECT_EQ(tcp.picks[r].frequencies_hz, reference[r].frequencies_hz)
        << "frequencies diverged at round " << r;
  }

  // Guard against a vacuous proof: faults and churn must actually have
  // happened on both sides of the wire.
  EXPECT_GT(tcp.client_faults, 0u);
  EXPECT_GT(tcp.client_retries, 0u);
  EXPECT_GT(tcp.reconnects, 1u) << "churn never reconnected";
  EXPECT_GT(tcp.server_stats.chaos_dropped + tcp.server_stats.chaos_corrupted +
                tcp.server_stats.chaos_duplicated,
            0u)
      << "egress chaos never fired";
  EXPECT_GE(tcp.server_stats.conns_accepted, tcp.reconnects);
}

TEST(SvcTcpDifferential, CleanTcpMatchesCleanDatagrams) {
  // The transport alone (no faults, single reader) must also be invisible.
  constexpr std::uint64_t kRounds = 4;
  const std::vector<Pick> reference = run_workload(0.0, kRounds);
  const TcpRun tcp = run_tcp_workload(0.0, kRounds);
  ASSERT_EQ(tcp.picks.size(), reference.size());
  for (std::size_t r = 0; r < reference.size(); ++r) {
    EXPECT_EQ(tcp.picks[r].selected, reference[r].selected);
    EXPECT_EQ(tcp.picks[r].frequencies_hz, reference[r].frequencies_hz);
  }
}
