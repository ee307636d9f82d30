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

/// Replaces the first "{decisions}" in a snapshot path template.
std::string expand_snapshot_path(const std::string& path,
                                 std::uint64_t decisions) {
  const std::string token = "{decisions}";
  const std::size_t at = path.find(token);
  if (at == std::string::npos) return path;
  return path.substr(0, at) + std::to_string(decisions) +
         path.substr(at + token.size());
}

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
      scheduler_(scheduler_options(options)),
      users_(std::move(users)) {
  options_.validate();
  if (users_.empty()) {
    throw ServiceError("SchedulerService: the fleet must have >= 1 device");
  }
  for (std::size_t i = 0; i < users_.size(); ++i) {
    if (!valid_delay(users_[i].t_cal_max_s) || !valid_delay(users_[i].t_com_s)) {
      throw ServiceError("SchedulerService: device " + std::to_string(i) +
                         " has a non-positive initial delay");
    }
  }
  scheduler_.set_instruments(instruments_);
  // Every device starts alive with one lease's worth of grace: it must
  // report within lease_ticks of service start or it is parked.
  alive_.assign(users_.size(), 1);
  lease_expiry_tick_.assign(users_.size(), options_.lease_ticks);
  last_report_seq_.assign(users_.size(), 0);
}

void SchedulerService::count(std::string_view name, std::uint64_t delta) {
  if (instruments_.registry != nullptr) instruments_.registry->add(name, delta);
}

void SchedulerService::emit(const Frame& frame) {
  outbox_.push_back(encode_frame(frame));
}

void SchedulerService::ingest(std::span<const std::uint8_t> bytes,
                              std::uint64_t now_tick) {
  now_tick_ = std::max(now_tick_, now_tick);
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
  now_tick_ = std::max(now_tick_, now_tick);
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
  if (report.device_id >= users_.size() || !valid_delay(report.t_cal_max_s) ||
      !valid_delay(report.t_com_s) || report.report_seq == 0) {
    ++stats_.reports_invalid;
    count("svc.reports_invalid");
    return;
  }
  if (report_queue_.size() >= options_.queue_capacity) {
    // Oldest-first shedding: the most recent state is the most valuable,
    // and the shed sender's retry (never acked) re-delivers it later.
    const DeviceReport shed = report_queue_.front();
    report_queue_.pop_front();
    ++stats_.reports_shed;
    degraded_ = true;
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
  report_queue_.push_back(report);
}

void SchedulerService::handle_request(const DecisionRequest& request) {
  if (request.controller_seq == last_controller_seq_ &&
      !cached_response_.empty()) {
    // Exactly-once processing: the response was already computed; the
    // request retry means it was lost — retransmit, never re-decide.
    outbox_.push_back(cached_response_);
    ++stats_.responses_retransmitted;
    count("svc.responses_retransmitted");
    return;
  }
  if (request.controller_seq == last_controller_seq_ + 1) {
    if (pending_request_.has_value() &&
        pending_request_->controller_seq == request.controller_seq) {
      // Duplicate of the not-yet-answered request; the pending one wins.
      ++stats_.responses_retransmitted;
      count("svc.responses_retransmitted");
      return;
    }
    pending_request_ = request;
    return;
  }
  // From the past (already superseded) or from the future (a gap the
  // controller protocol cannot produce): count and drop.
  ++stats_.requests_stale;
  count("svc.requests_stale");
}

void SchedulerService::poll(std::uint64_t now_tick, std::size_t budget) {
  now_tick_ = std::max(now_tick_, now_tick);
  expire_leases(now_tick);
  std::size_t applied = 0;
  while (!report_queue_.empty() && applied < budget) {
    const DeviceReport report = report_queue_.front();
    report_queue_.pop_front();
    apply_report(report, now_tick);
    ++applied;
  }
  if (pending_request_.has_value()) answer_request(now_tick);
}

void SchedulerService::apply_report(const DeviceReport& report,
                                    std::uint64_t now_tick) {
  const std::size_t d = static_cast<std::size_t>(report.device_id);
  if (report.report_seq <= last_report_seq_[d]) {
    // Duplicate or out-of-date: the state was already applied (or
    // superseded), but the ack may have been lost — re-ack so the sender
    // completes, and leave the state untouched.
    ++stats_.reports_deduped;
    count("svc.reports_deduped");
    emit(encode(ReportAck{report.device_id, report.report_seq}));
    return;
  }
  users_[d].t_cal_max_s = report.t_cal_max_s;
  users_[d].t_com_s = report.t_com_s;
  last_report_seq_[d] = report.report_seq;
  lease_expiry_tick_[d] = now_tick + options_.lease_ticks;
  if (alive_[d] == 0) {
    alive_[d] = 1;  // revival: the utility index re-inserts it next round
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
  for (std::size_t d = 0; d < alive_.size(); ++d) {
    if (alive_[d] == 0 || lease_expiry_tick_[d] > now_tick) continue;
    alive_[d] = 0;  // parked by the utility index when it next surfaces
    ++stats_.leases_expired;
    count("svc.leases_expired");
    if (trace) {
      tracer->emit(obs::TraceLevel::kRound, "svc_lease",
                   {{"tick", now_tick},
                    {"device", d},
                    {"kind", "expire"},
                    {"expired_at", lease_expiry_tick_[d]}});
    }
  }
}

void SchedulerService::answer_request(std::uint64_t now_tick) {
  const DecisionRequest request = *pending_request_;
  const sched::FleetView fleet{users_, alive_};
  const sched::Decision decision =
      scheduler_.decide(fleet, static_cast<std::size_t>(request.round));

  DecisionResponse response;
  response.controller_seq = request.controller_seq;
  response.round = request.round;
  // Degraded while sheds are unabsorbed or reports are still queued: the
  // decision may not reflect every report the fleet has sent.
  response.degraded = degraded_ || !report_queue_.empty();
  if (report_queue_.empty()) degraded_ = false;
  response.selected = decision.selected;
  response.frequencies_hz = decision.frequencies_hz;

  cached_response_ = encode_frame(encode(response));
  outbox_.push_back(cached_response_);
  last_controller_seq_ = request.controller_seq;
  pending_request_.reset();

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
                  {"queue_depth", report_queue_.size()}});
  }
  maybe_autosnapshot();
}

void SchedulerService::maybe_autosnapshot() {
  if (options_.snapshot_every == 0 ||
      stats_.decisions % options_.snapshot_every != 0) {
    return;
  }
  const std::string path =
      expand_snapshot_path(options_.snapshot_path, stats_.decisions);
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

std::vector<std::uint8_t> SchedulerService::snapshot() const {
  util::ByteWriter payload;
  // Configuration echo — restore() onto a differently-configured service
  // must fail loudly, mirroring the checkpoint's identity fields.
  payload.u64(users_.size());
  payload.f64(options_.fraction);
  payload.f64(options_.eta);
  payload.boolean(options_.enable_dvfs);
  payload.u64(options_.lease_ticks);
  payload.u64(options_.queue_capacity);

  payload.u64(now_tick_);

  // Per-device dynamic state (static params are construction inputs).
  std::vector<double> t_cal(users_.size());
  std::vector<double> t_com(users_.size());
  for (std::size_t i = 0; i < users_.size(); ++i) {
    t_cal[i] = users_[i].t_cal_max_s;
    t_com[i] = users_[i].t_com_s;
  }
  payload.vec_f64(t_cal);
  payload.vec_f64(t_com);
  payload.vec_u8(alive_);
  payload.vec_u64(lease_expiry_tick_);
  payload.vec_u64(last_report_seq_);

  // Strategy frame (name + config echo + counters + utility-index frame),
  // length-prefixed so restore can stage it.
  util::ByteWriter strategy;
  scheduler_.save_state(strategy);
  payload.vec_u8(strategy.data());

  // Controller session (exactly-once dedup) and overload latch.
  payload.u64(last_controller_seq_);
  payload.vec_u8(cached_response_);
  payload.boolean(degraded_);

  // In-flight work: queued reports and the staged request survive a crash.
  payload.u64(report_queue_.size());
  for (const DeviceReport& r : report_queue_) write_device_report(payload, r);
  payload.boolean(pending_request_.has_value());
  if (pending_request_.has_value()) {
    payload.u64(pending_request_->controller_seq);
    payload.u64(pending_request_->round);
  }

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
    util::ByteReader payload(rest);

    const std::uint64_t n_devices = payload.u64();
    const double fraction = payload.f64();
    const double eta = payload.f64();
    const bool enable_dvfs = payload.boolean();
    const std::uint64_t lease_ticks = payload.u64();
    const std::uint64_t queue_capacity = payload.u64();
    if (n_devices != users_.size() || fraction != options_.fraction ||
        eta != options_.eta || enable_dvfs != options_.enable_dvfs ||
        lease_ticks != options_.lease_ticks ||
        queue_capacity != options_.queue_capacity) {
      throw ServiceError(
          "service snapshot was taken under a different configuration "
          "(fleet size or options mismatch)");
    }

    const std::uint64_t now_tick = payload.u64();
    std::vector<double> t_cal = payload.vec_f64();
    std::vector<double> t_com = payload.vec_f64();
    std::vector<std::uint8_t> alive = payload.vec_u8();
    std::vector<std::uint64_t> lease_expiry = payload.vec_u64();
    std::vector<std::uint64_t> last_seq = payload.vec_u64();
    if (t_cal.size() != users_.size() || t_com.size() != users_.size() ||
        alive.size() != users_.size() ||
        lease_expiry.size() != users_.size() ||
        last_seq.size() != users_.size()) {
      throw ServiceError(
          "service snapshot per-device state does not match the fleet size");
    }
    for (std::size_t i = 0; i < users_.size(); ++i) {
      if (!valid_delay(t_cal[i]) || !valid_delay(t_com[i])) {
        throw ServiceError("service snapshot holds a non-positive delay for "
                           "device " + std::to_string(i));
      }
      if (alive[i] > 1) {
        throw ServiceError("service snapshot alive mask is not 0/1");
      }
    }

    std::vector<std::uint8_t> strategy_bytes = payload.vec_u8();

    const std::uint64_t last_controller_seq = payload.u64();
    std::vector<std::uint8_t> cached_response = payload.vec_u8();
    const bool degraded = payload.boolean();

    const std::uint64_t queue_size = payload.u64();
    if (queue_size > queue_capacity) {
      throw ServiceError("service snapshot queue (" +
                         std::to_string(queue_size) +
                         " reports) exceeds queue_capacity (" +
                         std::to_string(queue_capacity) + ")");
    }
    std::deque<DeviceReport> queue;
    for (std::uint64_t i = 0; i < queue_size; ++i) {
      const DeviceReport r = read_device_report(payload);
      if (r.device_id >= users_.size() || !valid_delay(r.t_cal_max_s) ||
          !valid_delay(r.t_com_s) || r.report_seq == 0) {
        throw ServiceError("service snapshot holds an invalid queued report");
      }
      queue.push_back(r);
    }
    std::optional<DecisionRequest> pending;
    if (payload.boolean()) {
      DecisionRequest request;
      request.controller_seq = payload.u64();
      request.round = payload.u64();
      pending = request;
    }
    payload.expect_end("service snapshot payload");

    // Everything parsed and validated.  The strategy restore is itself
    // parse-then-commit, so running it first keeps the whole restore
    // atomic: if it throws, no member has changed yet.
    util::ByteReader strategy(strategy_bytes);
    scheduler_.load_state(strategy);
    strategy.expect_end("service snapshot strategy frame");

    now_tick_ = now_tick;
    for (std::size_t i = 0; i < users_.size(); ++i) {
      users_[i].t_cal_max_s = t_cal[i];
      users_[i].t_com_s = t_com[i];
    }
    alive_ = std::move(alive);
    lease_expiry_tick_ = std::move(lease_expiry);
    last_report_seq_ = std::move(last_seq);
    last_controller_seq_ = last_controller_seq;
    cached_response_ = std::move(cached_response);
    degraded_ = degraded;
    report_queue_ = std::move(queue);
    pending_request_ = pending;
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
