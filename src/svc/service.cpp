#include "svc/service.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/registry.h"
#include "obs/trace.h"
#include "util/file_io.h"

namespace helcfl::svc {

namespace {

core::HelcflOptions scheduler_options(const ServiceOptions& options) {
  core::HelcflOptions helcfl;
  helcfl.fraction = options.fraction;
  helcfl.eta = options.eta;
  helcfl.enable_dvfs = options.enable_dvfs;
  return helcfl;
}

bool valid_delay(double value) {
  return std::isfinite(value) && value > 0.0;
}

/// Smallest wire size of one queued DeviceReport (four 8-byte fields).
constexpr std::size_t kReportBytes = 4 * 8;

}  // namespace

void ServiceOptions::validate() const {
  // fraction/eta are range-checked by the scheduler's own constructor.
  if (lease_ticks == 0) {
    throw ServiceError("ServiceOptions: lease_ticks must be >= 1");
  }
  if (queue_capacity == 0) {
    throw ServiceError("ServiceOptions: queue_capacity must be >= 1");
  }
  if (snapshot_every > 0 && snapshot_path.empty()) {
    throw ServiceError(
        "ServiceOptions: snapshot_every > 0 requires a snapshot_path");
  }
}

SchedulerService::SchedulerService(std::vector<sched::UserInfo> users,
                                   const ServiceOptions& options,
                                   obs::Instruments instruments)
    : options_(options),
      instruments_(instruments),
      scheduler_(scheduler_options(options)) {
  options_.validate();
  session_.users = std::move(users);
  if (session_.users.empty()) {
    throw ServiceError("SchedulerService: the fleet must have >= 1 device");
  }
  for (std::size_t i = 0; i < session_.users.size(); ++i) {
    const sched::UserInfo& user = session_.users[i];
    if (!valid_delay(user.t_cal_max_s) || !valid_delay(user.t_com_s)) {
      throw ServiceError("SchedulerService: device " + std::to_string(i) +
                         " has a non-positive initial delay");
    }
  }
  scheduler_.set_instruments(instruments_);
  // Every device starts alive with one lease's worth of grace: it must
  // report within lease_ticks of service start or it is parked.
  session_.alive.assign(session_.users.size(), 1);
  session_.lease_expiry_tick.assign(session_.users.size(), options_.lease_ticks);
  session_.last_report_seq.assign(session_.users.size(), 0);
}

void SchedulerService::count(std::string_view name, std::uint64_t delta) {
  if (instruments_.registry != nullptr) instruments_.registry->add(name, delta);
}

void SchedulerService::emit(const Frame& frame) {
  outbox_.push_back(encode_frame(frame));
}

void SchedulerService::ingest(std::span<const std::uint8_t> bytes,
                              std::uint64_t now_tick) {
  session_.now_tick = std::max(session_.now_tick, now_tick);
  std::vector<Frame> frames;
  std::vector<FrameError> errors;
  decode_datagram(bytes, frames, errors);

  obs::Tracer* tracer = instruments_.tracer;
  for (const FrameError error : errors) {
    ++stats_.frames_rejected;
    count("svc.frames_rejected");
    count(std::string("svc.frames_rejected.") +
          std::string(frame_error_name(error)));
    if (tracer != nullptr && tracer->enabled(obs::TraceLevel::kDecision)) {
      tracer->emit(obs::TraceLevel::kDecision, "svc_reject",
                   {{"tick", now_tick}, {"reason", frame_error_name(error)}});
    }
  }

  for (const Frame& frame : frames) {
    dispatch_frame(frame, now_tick);
  }
}

void SchedulerService::ingest(const Frame& frame, std::uint64_t now_tick) {
  session_.now_tick = std::max(session_.now_tick, now_tick);
  dispatch_frame(frame, now_tick);
}

void SchedulerService::dispatch_frame(const Frame& frame,
                                      std::uint64_t now_tick) {
  switch (frame.type) {
    case MsgType::kDeviceReport: {
      DeviceReport report;
      try {
        report = decode_device_report(frame.payload);
      } catch (const util::SerialError&) {
        ++stats_.frames_rejected;
        count("svc.frames_rejected");
        count("svc.frames_rejected.malformed");
        return;
      }
      ++stats_.frames_accepted;
      handle_report(report, now_tick);
      break;
    }
    case MsgType::kDecisionRequest: {
      DecisionRequest request;
      try {
        request = decode_decision_request(frame.payload);
      } catch (const util::SerialError&) {
        ++stats_.frames_rejected;
        count("svc.frames_rejected");
        count("svc.frames_rejected.malformed");
        return;
      }
      ++stats_.frames_accepted;
      handle_request(request);
      break;
    }
    case MsgType::kReportAck:
    case MsgType::kDecisionResponse:
      // Server-to-client messages looped back at us (misrouted or
      // reflected): valid frames, wrong direction.
      ++stats_.frames_rejected;
      count("svc.frames_rejected");
      count("svc.frames_rejected.unexpected_type");
      break;
  }
}

void SchedulerService::handle_report(const DeviceReport& report,
                                     std::uint64_t now_tick) {
  if (report.device_id >= session_.users.size() || !valid_delay(report.t_cal_max_s) ||
      !valid_delay(report.t_com_s) || report.report_seq == 0) {
    ++stats_.reports_invalid;
    count("svc.reports_invalid");
    return;
  }
  if (session_.report_queue.size() >= options_.queue_capacity) {
    // Oldest-first shedding: the most recent state is the most valuable,
    // and the shed sender's retry (never acked) re-delivers it later.
    const DeviceReport shed = session_.report_queue.front();
    session_.report_queue.pop_front();
    ++stats_.reports_shed;
    session_.degraded = true;
    count("svc.sheds");
    obs::Tracer* tracer = instruments_.tracer;
    if (tracer != nullptr && tracer->enabled(obs::TraceLevel::kRound)) {
      tracer->emit(obs::TraceLevel::kRound, "svc_shed",
                   {{"tick", now_tick},
                    {"device", shed.device_id},
                    {"report_seq", shed.report_seq},
                    {"queue_capacity", options_.queue_capacity}});
    }
  }
  session_.report_queue.push_back(report);
}

void SchedulerService::handle_request(const DecisionRequest& request) {
  if (request.controller_seq == session_.last_controller_seq &&
      !session_.cached_response.empty()) {
    // Exactly-once processing: the response was already computed; the
    // request retry means it was lost — retransmit, never re-decide.
    outbox_.push_back(session_.cached_response);
    ++stats_.responses_retransmitted;
    count("svc.responses_retransmitted");
    return;
  }
  if (request.controller_seq == session_.last_controller_seq + 1) {
    if (session_.pending_request.has_value() &&
        session_.pending_request->controller_seq == request.controller_seq) {
      // Duplicate of the not-yet-answered request; the pending one wins.
      ++stats_.responses_retransmitted;
      count("svc.responses_retransmitted");
      return;
    }
    session_.pending_request = request;
    return;
  }
  // From the past (already superseded) or from the future (a gap the
  // controller protocol cannot produce): count and drop.
  ++stats_.requests_stale;
  count("svc.requests_stale");
}

void SchedulerService::poll(std::uint64_t now_tick, std::size_t budget) {
  session_.now_tick = std::max(session_.now_tick, now_tick);
  expire_leases(now_tick);
  std::size_t applied = 0;
  while (!session_.report_queue.empty() && applied < budget) {
    const DeviceReport report = session_.report_queue.front();
    session_.report_queue.pop_front();
    apply_report(report, now_tick);
    ++applied;
  }
  if (session_.pending_request.has_value()) answer_request(now_tick);
}

void SchedulerService::apply_report(const DeviceReport& report,
                                    std::uint64_t now_tick) {
  const std::size_t d = static_cast<std::size_t>(report.device_id);
  if (report.report_seq <= session_.last_report_seq[d]) {
    // Duplicate or out-of-date: the state was already applied (or
    // superseded), but the ack may have been lost — re-ack so the sender
    // completes, and leave the state untouched.
    ++stats_.reports_deduped;
    count("svc.reports_deduped");
    emit(encode(ReportAck{report.device_id, report.report_seq}));
    return;
  }
  session_.users[d].t_cal_max_s = report.t_cal_max_s;
  session_.users[d].t_com_s = report.t_com_s;
  session_.last_report_seq[d] = report.report_seq;
  session_.lease_expiry_tick[d] = now_tick + options_.lease_ticks;
  if (session_.alive[d] == 0) {
    session_.alive[d] = 1;  // revival: the utility index re-inserts it next round
    ++stats_.leases_revived;
    count("svc.leases_revived");
    obs::Tracer* tracer = instruments_.tracer;
    if (tracer != nullptr && tracer->enabled(obs::TraceLevel::kRound)) {
      tracer->emit(obs::TraceLevel::kRound, "svc_lease",
                   {{"tick", now_tick}, {"device", d}, {"kind", "revive"}});
    }
  }
  ++stats_.reports_applied;
  count("svc.reports_applied");
  emit(encode(ReportAck{report.device_id, report.report_seq}));
}

void SchedulerService::expire_leases(std::uint64_t now_tick) {
  obs::Tracer* tracer = instruments_.tracer;
  const bool trace =
      tracer != nullptr && tracer->enabled(obs::TraceLevel::kRound);
  for (std::size_t d = 0; d < session_.alive.size(); ++d) {
    if (session_.alive[d] == 0 || session_.lease_expiry_tick[d] > now_tick) continue;
    session_.alive[d] = 0;  // parked by the utility index when it next surfaces
    ++stats_.leases_expired;
    count("svc.leases_expired");
    if (trace) {
      tracer->emit(obs::TraceLevel::kRound, "svc_lease",
                   {{"tick", now_tick},
                    {"device", d},
                    {"kind", "expire"},
                    {"expired_at", session_.lease_expiry_tick[d]}});
    }
  }
}

void SchedulerService::answer_request(std::uint64_t now_tick) {
  const DecisionRequest request = *session_.pending_request;
  const sched::FleetView fleet{session_.users, session_.alive};
  const sched::Decision decision =
      scheduler_.decide(fleet, static_cast<std::size_t>(request.round));

  DecisionResponse response;
  response.controller_seq = request.controller_seq;
  response.round = request.round;
  // Degraded while sheds are unabsorbed or reports are still queued: the
  // decision may not reflect every report the fleet has sent.
  response.degraded = session_.degraded || !session_.report_queue.empty();
  if (session_.report_queue.empty()) session_.degraded = false;
  response.selected = decision.selected;
  response.frequencies_hz = decision.frequencies_hz;

  session_.cached_response = encode_frame(encode(response));
  outbox_.push_back(session_.cached_response);
  session_.last_controller_seq = request.controller_seq;
  session_.pending_request.reset();

  ++stats_.decisions;
  count("svc.decisions");
  if (response.degraded) {
    ++stats_.decisions_degraded;
    count("svc.decisions_degraded");
  }
  obs::Tracer* tracer = instruments_.tracer;
  if (tracer != nullptr && tracer->enabled(obs::TraceLevel::kRound)) {
    tracer->emit(obs::TraceLevel::kRound, "svc_decision",
                 {{"tick", now_tick},
                  {"round", request.round},
                  {"controller_seq", request.controller_seq},
                  {"n_selected", response.selected.size()},
                  {"degraded", response.degraded},
                  {"queue_depth", session_.report_queue.size()}});
  }
  maybe_autosnapshot();
}

void SchedulerService::maybe_autosnapshot() {
  if (options_.snapshot_every == 0 ||
      stats_.decisions % options_.snapshot_every != 0) {
    return;
  }
  const std::string path =
      util::expand_path_token(options_.snapshot_path, "{decisions}", stats_.decisions);
  write_snapshot(path);
  ++stats_.snapshots_written;
  count("svc.snapshots");
  obs::Tracer* tracer = instruments_.tracer;
  if (tracer != nullptr && tracer->enabled(obs::TraceLevel::kRound)) {
    tracer->emit(obs::TraceLevel::kRound, "svc_snapshot",
                 {{"decisions", stats_.decisions}, {"path", path}});
  }
}

std::vector<std::vector<std::uint8_t>> SchedulerService::take_outbox() {
  return std::exchange(outbox_, {});
}

void SchedulerService::fields(
    auto&& io, util::RecordOf<Session> auto& s,
    util::RecordOf<std::vector<std::uint8_t>> auto& strategy) const {
  // Configuration echo — restore() onto a differently-configured service
  // must fail loudly, mirroring the checkpoint's identity fields.
  io.echo(session_.users.size(), "service snapshot fleet size");
  io.echo(options_.fraction, "service snapshot fraction");
  io.echo(options_.eta, "service snapshot eta");
  io.echo(options_.enable_dvfs, "service snapshot enable_dvfs");
  io.echo(options_.lease_ticks, "service snapshot lease_ticks");
  io.echo(options_.queue_capacity, "service snapshot queue_capacity");

  io(s.now_tick);
  // Per-device dynamic state (static params are construction inputs).
  io.column(s.users, &sched::UserInfo::t_cal_max_s);
  io.column(s.users, &sched::UserInfo::t_com_s);
  io(s.alive);
  io(s.lease_expiry_tick);
  io(s.last_report_seq);

  // Strategy frame (name + config echo + counters + utility-index frame).
  io(strategy);

  // Controller session (exactly-once dedup) and overload latch.
  io(s.last_controller_seq);
  io(s.cached_response);
  io(s.degraded);

  // In-flight work: queued reports and the staged request survive a crash.
  io(s.report_queue, kReportBytes, "queued reports");
  io(s.pending_request);
}

std::vector<std::uint8_t> SchedulerService::snapshot() const {
  const std::vector<std::uint8_t> strategy = util::to_bytes(scheduler_);
  util::ByteWriter payload;
  fields(util::Save(payload), session_, strategy);
  return util::seal(kSnapshotMagic, kSnapshotVersion, payload.data());
}

void SchedulerService::restore(std::span<const std::uint8_t> bytes) {
  std::span<const std::uint8_t> rest;
  try {
    rest = util::open_sealed(bytes, kSnapshotMagic, kSnapshotVersion,
                             "scheduler-service snapshot");
  } catch (const util::SerialError& error) {
    throw ServiceError(error.what());
  }
  try {
    Session fresh = session_;
    std::vector<std::uint8_t> strategy_bytes;
    util::ByteReader payload(rest);
    fields(util::Load(payload), fresh, strategy_bytes);
    payload.expect_end("service snapshot payload");

    const std::size_t n = fresh.users.size();
    if (fresh.alive.size() != n || fresh.lease_expiry_tick.size() != n ||
        fresh.last_report_seq.size() != n) {
      throw ServiceError(
          "service snapshot per-device state does not match the fleet size");
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (!valid_delay(fresh.users[i].t_cal_max_s) ||
          !valid_delay(fresh.users[i].t_com_s)) {
        throw ServiceError("service snapshot holds a non-positive delay for "
                           "device " + std::to_string(i));
      }
      if (fresh.alive[i] > 1) {
        throw ServiceError("service snapshot alive mask is not 0/1");
      }
    }
    if (fresh.report_queue.size() > options_.queue_capacity) {
      throw ServiceError("service snapshot queue (" +
                         std::to_string(fresh.report_queue.size()) +
                         " reports) exceeds queue_capacity (" +
                         std::to_string(options_.queue_capacity) + ")");
    }
    for (const DeviceReport& r : fresh.report_queue) {
      if (r.device_id >= n || !valid_delay(r.t_cal_max_s) ||
          !valid_delay(r.t_com_s) || r.report_seq == 0) {
        throw ServiceError("service snapshot holds an invalid queued report");
      }
    }

    // Everything parsed and validated.  The strategy restore is itself
    // parse-then-commit, so running it first keeps the whole restore
    // atomic: if it throws, no member has changed yet.
    util::load_state_exact(scheduler_, strategy_bytes, "service snapshot strategy frame");

    session_ = std::move(fresh);
    outbox_.clear();
  } catch (const util::SerialError& error) {
    // The checksum passed, so this is a layout (not corruption) problem.
    throw ServiceError(std::string("service snapshot payload is malformed: ") +
                       error.what());
  }
}

void SchedulerService::write_snapshot(const std::string& path) const {
  try {
    util::write_file_atomic(path, snapshot());
  } catch (const std::runtime_error& error) {
    throw ServiceError(std::string("service snapshot: ") + error.what());
  }
}

void SchedulerService::restore_file(const std::string& path) {
  std::vector<std::uint8_t> bytes;
  try {
    bytes = util::read_file_bytes(path);
  } catch (const std::runtime_error& error) {
    throw ServiceError(std::string("service snapshot: ") + error.what());
  }
  try {
    restore(bytes);
  } catch (const ServiceError& error) {
    throw ServiceError("'" + path + "': " + error.what());
  }
}

}  // namespace helcfl::svc
