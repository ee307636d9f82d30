// Scheduler-service load generator (ISSUE 7 + 8): decisions/sec and p99
// decision latency of the full framed protocol — reports in, acks out,
// decision request/response — at wire fault rates 0, 1%, and 10%, and over
// real loopback TCP.  Faults exercise the rejection, retry, and dedup
// paths, so the delta between the arms is the price of robustness, not of
// scheduling; the TCP arm prices the socket transport (syscalls, stream
// reassembly) against the in-process wire.
//
//   --benchmark_filter=Tcp   run only the loopback-TCP arm
//   --benchmark_filter=-Tcp  run only the in-process arms
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <vector>

#include "bench_json.h"
#include "sched/scheduler.h"
#include "sim/config.h"
#include "sim/fleet.h"
#include "svc/client.h"
#include "svc/frame.h"
#include "svc/listener.h"
#include "svc/service.h"
#include "svc/transport.h"
#include "svc/wire_faults.h"
#include "util/rng.h"
#include "util/stats.h"

namespace {

using namespace helcfl;

constexpr std::size_t kQ = 256;
constexpr std::uint64_t kSeed = 20260808;

const std::vector<sched::UserInfo>& cached_users() {
  static const std::vector<sched::UserInfo> users = [] {
    sim::ExperimentConfig config = sim::paper_config();
    config.n_users = kQ;
    util::Rng rng(1);
    const std::vector<std::size_t> samples(kQ, 40);
    const auto devices = sim::make_fleet(config, samples, rng);
    return sched::build_user_info(devices, sim::make_channel(config), 4e6);
  }();
  return users;
}

svc::FaultyLink make_link(double fault_rate, std::uint64_t stream) {
  svc::WireFaultOptions faults;
  faults.drop_rate = fault_rate;
  faults.corrupt_rate = fault_rate;
  faults.duplicate_rate = fault_rate;
  faults.delay_rate = fault_rate > 0.0 ? 0.25 : 0.0;
  faults.max_delay_ticks = 6;
  return svc::FaultyLink(
      svc::WireFaultInjector(faults, util::Rng(kSeed).fork(stream)));
}

// One report-then-decide round through the faulty wire; the protocol is
// the same barrier exchange the differential test proves correct.
struct Harness {
  svc::SchedulerService service;
  svc::ServiceClient client;
  svc::FaultyLink to_service;
  svc::FaultyLink to_client;
  std::uint64_t tick = 0;
  std::uint64_t round = 0;

  explicit Harness(double fault_rate)
      : service(cached_users(),
                [] {
                  svc::ServiceOptions options;
                  options.fraction = 0.1;
                  options.lease_ticks = 1'000'000'000;
                  options.queue_capacity = 4 * kQ;
                  return options;
                }()),
        client(
            [] {
              svc::RetryOptions retry;
              retry.base_delay_ticks = 1;
              retry.max_delay_ticks = 8;
              retry.max_attempts = 32;
              return retry;
            }(),
            util::Rng(kSeed).fork(100)),
        to_service(make_link(fault_rate, 1)),
        to_client(make_link(fault_rate, 2)) {}

  void pump() {
    for (const auto& frame : client.poll(tick)) to_service.send(frame, tick);
    for (const auto& datagram : to_service.advance(tick)) {
      service.ingest(datagram, tick);
    }
    service.poll(tick);
    for (const auto& datagram : service.take_outbox()) {
      to_client.send(datagram, tick);
    }
    for (const auto& datagram : to_client.advance(tick)) {
      client.deliver(datagram);
    }
    ++tick;
  }

  void run_round() {
    for (std::size_t d = 0; d < kQ; ++d) {
      svc::DeviceReport report;
      report.device_id = d;
      report.report_seq = round + 1;
      report.t_cal_max_s = cached_users()[d].t_cal_max_s;
      report.t_com_s = cached_users()[d].t_com_s;
      client.send_report(report, tick);
    }
    while (client.pending_reports() > 0) pump();
    client.request_decision(round, tick);
    while (!client.take_decision().has_value()) pump();
    ++round;
  }
};

// Full-protocol rounds; items == decisions, p99 over per-round wall time.
void BM_SvcDecisions(benchmark::State& state) {
  const double fault_rate = static_cast<double>(state.range(0)) / 1000.0;
  Harness harness(fault_rate);
  std::vector<double> round_us;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    harness.run_round();
    const auto end = std::chrono::steady_clock::now();
    round_us.push_back(
        std::chrono::duration<double, std::micro>(end - start).count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  if (!round_us.empty()) {
    state.counters["p99_decision_us"] = util::percentile(round_us, 99.0);
  }
  state.counters["frames_rejected"] =
      static_cast<double>(harness.service.stats().frames_rejected);
  state.counters["client_retries"] =
      static_cast<double>(harness.client.retries());
}
BENCHMARK(BM_SvcDecisions)->Arg(0)->Arg(10)->Arg(100)->ArgName("faults_permille");

// Raw framed-ingress throughput: how fast the service chews validated
// report frames (decode + checksum + queue + apply), no wire in the way.
void BM_SvcIngest(benchmark::State& state) {
  svc::ServiceOptions options;
  options.fraction = 0.1;
  options.lease_ticks = 1'000'000'000;
  options.queue_capacity = kQ;
  svc::SchedulerService service(cached_users(), options);
  // Pre-encode one frame per device; bump the seq each lap so every
  // ingest exercises the apply path, not the dedup path.
  std::uint64_t seq = 0;
  std::uint64_t tick = 0;
  std::uint64_t frames = 0;
  for (auto _ : state) {
    ++seq;
    for (std::size_t d = 0; d < kQ; ++d) {
      svc::DeviceReport report;
      report.device_id = d;
      report.report_seq = seq;
      report.t_cal_max_s = cached_users()[d].t_cal_max_s;
      report.t_com_s = cached_users()[d].t_com_s;
      service.ingest(svc::encode_frame(svc::encode(report)), tick);
      ++frames;
    }
    service.poll(tick);
    service.take_outbox();
    ++tick;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(frames));
}
BENCHMARK(BM_SvcIngest);

// The same barrier protocol as BM_SvcDecisions, but over a real loopback
// TCP connection into a SocketServer — syscalls, per-connection stream
// reassembly and the server's event loop are all on the measured path.
// Clean wire: the TCP arm prices the transport, the fault arms above price
// robustness.
struct TcpHarness {
  svc::SchedulerService service;
  svc::SocketServer server;
  svc::ServiceClient client;
  svc::ClientChannel channel;
  std::uint64_t tick = 0;
  std::uint64_t round = 0;

  TcpHarness()
      : service(cached_users(),
                [] {
                  svc::ServiceOptions options;
                  options.fraction = 0.1;
                  options.lease_ticks = 1'000'000'000;
                  options.queue_capacity = 4 * kQ;
                  return options;
                }()),
        server(service, svc::Endpoint::parse("tcp:127.0.0.1:0"),
               svc::ServerOptions{}),
        client(
            [] {
              // Ticks advance per pump (microseconds), not per wire
              // round-trip — back off far enough that retransmits mean
              // lost frames, not an impatient clock.
              svc::RetryOptions retry;
              retry.base_delay_ticks = 64;
              retry.max_delay_ticks = 1024;
              retry.max_attempts = 64;
              return retry;
            }(),
            util::Rng(kSeed).fork(100)),
        channel((server.start(), server.endpoint())) {}

  ~TcpHarness() { server.stop(); }

  void pump() {
    for (const auto& frame : client.poll(tick)) channel.send_frame(frame);
    std::vector<svc::Frame> inbox;
    channel.poll_frames(inbox, /*timeout_ms=*/1);
    for (const svc::Frame& frame : inbox) {
      client.deliver(svc::encode_frame(frame));
    }
    ++tick;
  }

  void run_round() {
    for (std::size_t d = 0; d < kQ; ++d) {
      svc::DeviceReport report;
      report.device_id = d;
      report.report_seq = round + 1;
      report.t_cal_max_s = cached_users()[d].t_cal_max_s;
      report.t_com_s = cached_users()[d].t_com_s;
      client.send_report(report, tick);
    }
    while (client.pending_reports() > 0) pump();
    client.request_decision(round, tick);
    while (!client.take_decision().has_value()) pump();
    ++round;
  }
};

void BM_SvcTcpDecisions(benchmark::State& state) {
  TcpHarness harness;
  std::vector<double> round_us;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    harness.run_round();
    const auto end = std::chrono::steady_clock::now();
    round_us.push_back(
        std::chrono::duration<double, std::micro>(end - start).count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  if (!round_us.empty()) {
    state.counters["p99_decision_us"] = util::percentile(round_us, 99.0);
  }
  state.counters["ingress_frames"] =
      static_cast<double>(harness.server.stats().ingress_frames);
  state.counters["client_retries"] =
      static_cast<double>(harness.client.retries());
}
BENCHMARK(BM_SvcTcpDecisions)->Unit(benchmark::kMicrosecond)->MinTime(0.2);

}  // namespace

HELCFL_BENCH_JSON_MAIN()
