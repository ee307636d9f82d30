// The svc-tcp workload: the FLCC scheduler service behind a loopback TCP
// SocketServer, driven by one ServiceClient over one ClientChannel in a
// closed loop.  Each round a rotating 1/16 slice of the Q = 16384 fleet
// reports (the client waits for every ack), then the controller requests a
// decision (C = 0.1: 1638 picks plus Algorithm-3 DVFS) and waits for it.
//
// Every decision is checked against an in-process replay of the same
// report stream into a fresh SchedulerService, pick for pick.  The traced
// run times the client and transport calls of the TCP loop and, in the
// replay, the service's ingest, apply-phase poll, outbox and answering
// poll.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "report.h"
#include "sched/scheduler.h"
#include "sim/config.h"
#include "sim/fleet.h"
#include "spans.h"
#include "stats.h"
#include "svc/client.h"
#include "svc/frame.h"
#include "svc/listener.h"
#include "svc/service.h"
#include "svc/transport.h"
#include "util/rng.h"
#include "util/serial.h"

namespace perfbench {

namespace {

using namespace helcfl;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kDevices = 16384;
constexpr std::size_t kSlices = 16;
constexpr std::size_t kSliceSize = kDevices / kSlices;
constexpr std::uint64_t kFleetStream = 3;
/// A round slower than this counts as stalled (a clean round takes ~10 ms).
constexpr double kStallSeconds = 1.0;
/// A round that has not completed by now aborts the run.
constexpr double kAbortSeconds = 20.0;
/// Rounds of each pass of the traced run.
constexpr std::size_t kTracedRounds = 600;

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// The fleet and the report stream, both derived from the seed.
class SvcInputs {
 public:
  explicit SvcInputs(std::uint64_t seed) : seed_(seed) {
    sim::ExperimentConfig config = sim::paper_config();
    config.n_users = kDevices;
    const std::vector<std::size_t> samples(kDevices, 40);
    util::Rng rng = util::Rng(seed).fork(kFleetStream);
    const std::vector<mec::Device> devices = sim::make_fleet(config, samples, rng);
    users_ = sched::build_user_info(devices, sim::make_channel(config),
                                    config.trainer.model_size_bits);
  }

  const std::vector<sched::UserInfo>& users() const { return users_; }

  /// Report `i` of round `round`: device (round mod 16) * 1024 + i, its
  /// per-device sequence number, and its delays scaled by U[0.9, 1.1).
  svc::DeviceReport report(std::uint64_t round, std::size_t i) const {
    const std::size_t device = static_cast<std::size_t>(round % kSlices) * kSliceSize + i;
    const std::uint64_t h = mix64(seed_ ^ mix64(round * kDevices + device));
    const double cal = 0.9 + 0.2 * static_cast<double>(h >> 40) / 16777216.0;
    const double com = 0.9 + 0.2 * static_cast<double>(h & 0xffffff) / 16777216.0;
    svc::DeviceReport report;
    report.device_id = device;
    report.report_seq = round / kSlices + 1;
    report.t_cal_max_s = users_[device].t_cal_max_s * cal;
    report.t_com_s = users_[device].t_com_s * com;
    return report;
  }

 private:
  std::uint64_t seed_;
  std::vector<sched::UserInfo> users_;
};

svc::ServiceOptions service_options() {
  svc::ServiceOptions options;
  options.fraction = 0.1;
  options.eta = 0.9;
  options.enable_dvfs = true;
  options.lease_ticks = 1'000'000'000;  // ~11 days of server ticks (ms)
  options.queue_capacity = 2 * kSliceSize;
  return options;
}

/// Retry schedule in client ticks, which are milliseconds of wall time: a
/// loopback round trip takes microseconds, so a frame unanswered for ~1 s
/// was lost, and a clean run retransmits nothing.
svc::RetryOptions retry_options() {
  svc::RetryOptions retry;
  retry.base_delay_ticks = 1000;
  retry.backoff_multiplier = 2.0;
  retry.max_delay_ticks = 4000;
  retry.jitter = 0.25;
  retry.max_attempts = 8;
  return retry;
}

std::uint64_t decision_hash(const svc::DecisionResponse& response) {
  return util::fnv1a64(svc::encode(response).payload);
}

/// Time inside every call of one kind within a phase, recorded as one
/// rollup span when the phase ends.
struct Rollup {
  const char* name = "";
  std::int64_t first_ns = -1;
  std::int64_t last_ns = 0;
  std::int64_t busy_ns = 0;
  std::uint64_t calls = 0;

  template <typename F>
  auto time(SpanRecorder* spans, F&& call) {
    if (spans == nullptr) return call();
    const std::int64_t start = spans->now_ns();
    struct Finish {
      Rollup& r;
      SpanRecorder& s;
      std::int64_t start;
      ~Finish() {
        const std::int64_t end = s.now_ns();
        if (r.first_ns < 0) r.first_ns = start;
        r.last_ns = end;
        r.busy_ns += end - start;
        ++r.calls;
      }
    } finish{*this, *spans, start};
    return call();
  }

  void flush(SpanRecorder* spans, std::uint64_t parent) {
    if (spans != nullptr && calls > 0) {
      spans->record({spans->next_id(), parent, name, first_ns, last_ns, busy_ns, calls, 0.0});
    }
    first_ns = -1;
    last_ns = busy_ns = 0;
    calls = 0;
  }
};

struct RoundTimes {
  std::vector<double> round_ms;
  std::vector<double> decide_ms;
  RateWindow reports;
  std::vector<std::uint64_t> hashes;
  std::optional<svc::DecisionResponse> last;
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t bytes = 0;
  std::uint64_t stalled = 0;
};

/// Fleet, service, server, channel and client of one TCP session.
class TcpSession {
 public:
  explicit TcpSession(std::uint64_t seed)
      : inputs_(seed),
        service_(inputs_.users(), service_options()),
        server_(service_, svc::Endpoint::parse("tcp:127.0.0.1:0"),
                [] {
                  svc::ServerOptions options;
                  options.ingress_threads = 1;
                  return options;
                }()),
        client_(retry_options(), util::Rng(seed).fork(100)) {
    server_.start();
    channel_.emplace(server_.endpoint());
    start_ = Clock::now();
  }
  TcpSession(const TcpSession&) = delete;
  TcpSession& operator=(const TcpSession&) = delete;
  ~TcpSession() {
    channel_.reset();
    server_.stop();
  }

  /// Runs one report-then-decide round; with a recorder, every client and
  /// transport call is timed into rollup spans under the round's phases.
  void run_round(std::uint64_t round, RoundTimes& out, SpanRecorder* spans) {
    const Clock::time_point begin = Clock::now();
    std::uint64_t round_id = 0;
    std::uint64_t phase_id = 0;
    std::int64_t round_ns = 0;
    std::int64_t phase_ns = 0;
    if (spans != nullptr) {
      round_id = spans->next_id();
      phase_id = spans->next_id();
      round_ns = phase_ns = spans->now_ns();
    }

    for (std::size_t i = 0; i < kSliceSize; ++i) {
      const svc::DeviceReport report = inputs_.report(round, i);
      client_calls_.time(spans, [&] { client_.send_report(report, tick()); });
    }
    while (client_calls_.time(spans, [&] { return client_.pending_reports(); }) > 0) {
      pump(begin, out, spans);
    }
    const Clock::time_point reports_done = Clock::now();
    out.reports.add(static_cast<double>(kSliceSize), seconds_between(begin, reports_done));
    if (spans != nullptr) {
      close_phase(*spans, phase_id, round_id, "svc.report_phase", phase_ns);
      phase_id = spans->next_id();
      phase_ns = spans->now_ns();
    }

    client_calls_.time(spans, [&] { return client_.request_decision(round, tick()); });
    std::optional<svc::DecisionResponse> decision;
    while (!(decision = client_calls_.time(spans, [&] { return client_.take_decision(); }))) {
      pump(begin, out, spans);
    }
    const Clock::time_point end = Clock::now();
    if (spans != nullptr) {
      close_phase(*spans, phase_id, round_id, "svc.decide_phase", phase_ns);
      const std::int64_t now = spans->now_ns();
      spans->record({round_id, 0, "svc.round", round_ns, now, now - round_ns, 1, 0.0});
    }

    const double round_s = seconds_between(begin, end);
    out.round_ms.push_back(round_s * 1e3);
    out.decide_ms.push_back(seconds_between(reports_done, end) * 1e3);
    if (round_s > kStallSeconds) ++out.stalled;
    out.hashes.push_back(decision_hash(*decision));
    out.last = std::move(decision);
  }

  /// Stops the server so its counters and the service may be read.
  void stop() {
    channel_.reset();
    server_.stop();
  }

  const svc::ServiceClient& client() const { return client_; }
  const svc::SchedulerService& service() const { return service_; }
  svc::ServerStats server_stats() const { return server_.stats(); }
  const SvcInputs& inputs() const { return inputs_; }

 private:
  std::uint64_t tick() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() - start_)
            .count());
  }

  void pump(Clock::time_point round_begin, RoundTimes& out, SpanRecorder* spans) {
    for (const auto& frame : client_calls_.time(spans, [&] { return client_.poll(tick()); })) {
      const bool sent = send_calls_.time(spans, [&] { return channel_->send_frame(frame); });
      if (!sent) throw std::runtime_error("svc-tcp: connection lost while sending");
      ++out.frames_sent;
      out.bytes += frame.size();
    }
    inbox_.clear();
    wait_calls_.time(spans, [&] { return channel_->poll_frames(inbox_, /*timeout_ms=*/1); });
    if (!channel_->connected()) throw std::runtime_error("svc-tcp: server closed the connection");
    for (const svc::Frame& frame : inbox_) {
      client_calls_.time(spans, [&] {
        const std::vector<std::uint8_t> bytes = svc::encode_frame(frame);
        out.bytes += bytes.size();
        client_.deliver(bytes);
      });
      ++out.frames_received;
    }
    if (seconds_between(round_begin, Clock::now()) > kAbortSeconds) {
      throw std::runtime_error("svc-tcp: round did not complete within 20 s");
    }
  }

  void close_phase(SpanRecorder& spans, std::uint64_t phase_id, std::uint64_t round_id,
                   const char* name, std::int64_t start_ns) {
    client_calls_.flush(&spans, phase_id);
    send_calls_.flush(&spans, phase_id);
    wait_calls_.flush(&spans, phase_id);
    const std::int64_t now = spans.now_ns();
    spans.record({phase_id, round_id, name, start_ns, now, now - start_ns, 1, 0.0});
  }

  SvcInputs inputs_;
  svc::SchedulerService service_;
  svc::SocketServer server_;
  svc::ServiceClient client_;
  std::optional<svc::ClientChannel> channel_;
  Clock::time_point start_;
  std::vector<svc::Frame> inbox_;
  Rollup client_calls_{"svc.client"};
  Rollup send_calls_{"transport.send_frame"};
  Rollup wait_calls_{"transport.poll_frames"};
};

std::unique_ptr<TcpSession> timed_setup(std::uint64_t seed, std::vector<double>& seconds) {
  std::unique_ptr<TcpSession> session;
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    session.reset();
    const Clock::time_point start = Clock::now();
    session = std::make_unique<TcpSession>(seed);
    seconds.push_back(seconds_between(start, Clock::now()));
  }
  return session;
}

/// Stage times of the in-process replay, summed over its rounds.
struct ReplayTimes {
  std::vector<std::uint64_t> hashes;
  std::optional<svc::DecisionResponse> last;
  std::vector<double> round_ms;
  double ingest_s = 0.0;
  double apply_s = 0.0;
  double outbox_s = 0.0;
  double answer_s = 0.0;
};

/// Feeds the rounds' report stream and decision requests to a fresh
/// in-process service, one datagram per frame, and captures its answers.
ReplayTimes replay(const SvcInputs& inputs, std::size_t rounds) {
  svc::SchedulerService service(inputs.users(), service_options());
  ReplayTimes out;
  std::vector<std::vector<std::uint8_t>> frames(kSliceSize);
  std::vector<svc::Frame> decoded;
  std::vector<svc::FrameError> errors;
  for (std::size_t round = 0; round < rounds; ++round) {
    const std::uint64_t tick = round;
    for (std::size_t i = 0; i < kSliceSize; ++i) {
      frames[i] = svc::encode_frame(svc::encode(inputs.report(round, i)));
    }
    svc::DecisionRequest request;
    request.controller_seq = round + 1;
    request.round = round;
    const std::vector<std::uint8_t> request_frame = svc::encode_frame(svc::encode(request));

    const Clock::time_point t0 = Clock::now();
    for (const auto& frame : frames) service.ingest(frame, tick);
    const Clock::time_point t1 = Clock::now();
    service.poll(tick);
    const Clock::time_point t2 = Clock::now();
    const auto acks = service.take_outbox();
    const Clock::time_point t3 = Clock::now();
    service.ingest(request_frame, tick);
    service.poll(tick);
    const Clock::time_point t4 = Clock::now();
    out.ingest_s += seconds_between(t0, t1);
    out.apply_s += seconds_between(t1, t2);
    out.outbox_s += seconds_between(t2, t3);
    out.answer_s += seconds_between(t3, t4);
    out.round_ms.push_back(seconds_between(t0, t4) * 1e3);
    if (acks.size() != kSliceSize) {
      throw std::runtime_error("svc-tcp replay: " + std::to_string(acks.size()) +
                               " acks for " + std::to_string(kSliceSize) + " reports");
    }

    decoded.clear();
    for (const auto& datagram : service.take_outbox()) {
      svc::decode_datagram(datagram, decoded, errors);
    }
    std::optional<svc::DecisionResponse> response;
    for (const svc::Frame& frame : decoded) {
      if (frame.type == svc::MsgType::kDecisionResponse) {
        response = svc::decode_decision_response(frame.payload);
      }
    }
    if (!response) throw std::runtime_error("svc-tcp replay: no decision response");
    out.hashes.push_back(decision_hash(*response));
    out.last = std::move(response);
  }
  return out;
}

void check_against_replay(Report& report, const std::string& what, const RoundTimes& tcp,
                          const ReplayTimes& replay) {
  std::size_t mismatched = 0;
  for (std::size_t r = 0; r < tcp.hashes.size(); ++r) {
    if (r >= replay.hashes.size() || tcp.hashes[r] != replay.hashes[r]) ++mismatched;
  }
  report.check(mismatched == 0, what + ": " + std::to_string(mismatched) + " of " +
                                    std::to_string(tcp.hashes.size()) +
                                    " decisions differ from the in-process replay");
  const bool last_equal = tcp.last && replay.last &&
                          tcp.last->selected == replay.last->selected &&
                          tcp.last->frequencies_hz == replay.last->frequencies_hz &&
                          tcp.last->degraded == replay.last->degraded;
  report.check(last_equal, what + ": last decision differs from the replay's");
  report.check(tcp.last && tcp.last->selected.size() ==
                               sched::selection_count(kDevices, service_options().fraction),
               what + ": decision does not pick Q * C devices");
}

}  // namespace

Report run_svc_tcp(const RunSettings& settings) {
  Report report;
  std::vector<double> setup_seconds;
  std::unique_ptr<TcpSession> session = timed_setup(settings.seed, setup_seconds);

  RoundTimes times;
  const Clock::time_point start = Clock::now();
  std::uint64_t round = 0;
  while (round == 0 || seconds_between(start, Clock::now()) < settings.seconds) {
    session->run_round(round++, times, nullptr);
  }
  session->stop();

  const std::uint64_t retries = session->client().retries();
  report.attempted = times.frames_sent;
  report.failed = retries + times.stalled;
  report.check(session->client().exhausted() == 0, "svc-tcp: a frame exhausted its retries");
  check_against_replay(report, "svc-tcp", times, replay(session->inputs(), round));

  report.add("setup_s", quartiles(setup_seconds).median, "s", setup_seconds.size());
  report.add("peak_rss_mb", peak_rss_mib().value_or(0.0), "MB");
  report.add("items_per_s", times.reports.rate(), "1/s", times.reports.windows());
  const Percentile p50 = percentile(times.round_ms, 50.0);
  const Percentile p95 = percentile(times.round_ms, 95.0);
  const Percentile p99 = percentile(times.round_ms, 99.0);
  report.add("round_ms_p50", p50.value, "ms", p50.samples);
  report.add("round_ms_p95", p95.value, "ms", p95.samples);
  report.add("round_ms_p99", p99.value, "ms", p99.samples);
  const Percentile d50 = percentile(times.decide_ms, 50.0);
  const Percentile d99 = percentile(times.decide_ms, 99.0);
  report.add("decide_ms_p50", d50.value, "ms", d50.samples);
  report.add("decide_ms_p99", d99.value, "ms", d99.samples);
  report.add("failed_share",
             static_cast<double>(report.failed) /
                 static_cast<double>(std::max<std::uint64_t>(report.attempted, 1)),
             "share");
  report.add("rounds", static_cast<double>(round), "count");
  return report;
}

Report trace_svc_tcp(const RunSettings& settings) {
  Report report;
  RoundTimes untraced;
  std::uint64_t retries = 0;
  {
    TcpSession session(settings.seed);
    for (std::uint64_t r = 0; r < kTracedRounds; ++r) session.run_round(r, untraced, nullptr);
    retries += session.client().retries();
  }

  SpanRecorder spans;
  RoundTimes traced;
  TcpSession session(settings.seed);
  for (std::uint64_t r = 0; r < kTracedRounds; ++r) session.run_round(r, traced, &spans);
  session.stop();
  retries += session.client().retries();
  const std::uint64_t rejected =
      session.client().frames_rejected() + session.service().stats().frames_rejected;
  const std::uint64_t shed = session.server_stats().ingress_shed;
  const ReplayTimes replayed = replay(session.inputs(), kTracedRounds);

  report.attempted = untraced.frames_sent + traced.frames_sent;
  report.failed = retries + untraced.stalled + traced.stalled;
  check_against_replay(report, "svc-tcp untraced", untraced, replayed);
  check_against_replay(report, "svc-tcp traced", traced, replayed);

  double client_ns = 0.0;
  double send_ns = 0.0;
  double wait_ns = 0.0;
  const std::vector<Span> all = spans.collect();
  std::vector<std::uint64_t> report_phases;
  for (const Span& s : all) {
    if (std::strcmp(s.name, "svc.report_phase") == 0) report_phases.push_back(s.id);
  }
  std::sort(report_phases.begin(), report_phases.end());
  for (const Span& s : all) {
    const bool in_reports =
        std::binary_search(report_phases.begin(), report_phases.end(), s.parent);
    if (std::strcmp(s.name, "transport.poll_frames") == 0) {
      wait_ns += static_cast<double>(s.busy_ns);
    } else if (in_reports && std::strcmp(s.name, "svc.client") == 0) {
      client_ns += static_cast<double>(s.busy_ns);
    } else if (in_reports && std::strcmp(s.name, "transport.send_frame") == 0) {
      send_ns += static_cast<double>(s.busy_ns);
    }
  }
  if (!settings.out_dir.empty()) spans.write_jsonl(settings.out_dir + "/spans-svc-tcp.jsonl");

  const double reports = static_cast<double>(kTracedRounds * kSliceSize);
  const double rounds = static_cast<double>(kTracedRounds);
  report.add("svc.client_us_per_report", client_ns / 1e3 / reports, "us");
  report.add("transport.send_us_per_report", send_ns / 1e3 / reports, "us");
  report.add("transport.wait_ms_per_round", wait_ns / 1e6 / rounds, "ms");
  report.add("svc.ingest_us_per_report", replayed.ingest_s * 1e6 / reports, "us");
  report.add("svc.apply_us_per_report", replayed.apply_s * 1e6 / reports, "us");
  report.add("svc.outbox_us_per_report", replayed.outbox_s * 1e6 / reports, "us");
  report.add("svc.answer_ms", replayed.answer_s * 1e3 / rounds, "ms", kTracedRounds);
  report.add("svc.frames_per_round",
             static_cast<double>(traced.frames_sent + traced.frames_received) / rounds,
             "count");
  report.add("svc.bytes_per_round", static_cast<double>(traced.bytes) / rounds, "count");
  report.add("svc.retries", static_cast<double>(retries), "count");
  report.add("svc.ingress_shed", static_cast<double>(shed), "count");
  report.add("svc.frames_rejected", static_cast<double>(rejected), "count");
  report.add("transport.overhead_ms_per_round",
             percentile(untraced.round_ms, 50.0).value -
                 percentile(replayed.round_ms, 50.0).value,
             "ms", kTracedRounds);
  report.add("trace.overhead_share.svc-tcp",
             percentile(traced.round_ms, 50.0).value /
                     percentile(untraced.round_ms, 50.0).value -
                 1.0,
             "share");
  return report;
}

}  // namespace perfbench
