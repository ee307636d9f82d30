// The long-running FLCC scheduler service (DESIGN.md §13).
//
// HELCFL's deliverable is the FLCC: the controller that consumes device
// state reports and answers with (selection, frequency) decisions.  This
// class is that controller as a deterministic, transport-agnostic state
// machine — the caller owns the wire (tests drive it through
// svc::FaultyLink, the loadgen through in-memory buffers) and the logical
// clock (a monotone tick counter; the service never reads wall time, so a
// whole protocol exchange is reproducible from seeds alone).
//
// Robustness model, designed for flaky mobile fleets:
//   * framed ingress — every datagram is decoded by the checksummed codec
//     in svc/frame.h; truncated/corrupt/unknown frames are counted and
//     dropped, never crash, and never desync later frames;
//   * dedup — device reports carry a per-device report_seq (stale and
//     duplicate seqs are re-acked but not re-applied), decision requests
//     carry a controller_seq processed exactly once (duplicates get the
//     cached response retransmitted, so a lost response never double-steps
//     the selector's α_q state);
//   * lease-based liveness — a device that has not reported within
//     lease_ticks is marked dead; the alive mask feeds the selector, whose
//     core::UtilityIndex parks the device and revives it on the next valid
//     report;
//   * load shedding — the ingress report queue is bounded; when full the
//     *oldest* queued report is shed (its sender retries, so nothing is
//     silently lost) and subsequent decisions carry a `degraded` flag until
//     a decision sees a clean queue;
//   * crash recovery — snapshot()/restore() capture the complete decision-
//     relevant state (selector counters + utility-index frame, per-device
//     dynamic state, dedup cursors, queued work) in the checkpoint header
//     discipline (magic/version/length/fnv1a); a restored service issues
//     byte-identical responses to one that never crashed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/helcfl_scheduler.h"
#include "obs/instruments.h"
#include "sched/scheduler.h"
#include "svc/frame.h"
#include "util/serial.h"

namespace helcfl::svc {

/// Thrown on construction/restore problems (bad options, malformed or
/// mismatched snapshot).  Wire-level garbage never throws — it is counted
/// and dropped.
class ServiceError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct ServiceOptions {
  // --- scheduling (forwarded to core::HelcflScheduler) -------------------
  double fraction = 0.1;    ///< user selection fraction C
  double eta = 0.9;         ///< Eq. (20) decay coefficient
  bool enable_dvfs = true;  ///< Algorithm-3 frequencies (else f_max)

  // --- liveness ----------------------------------------------------------
  /// A device is considered dead (parked, unselectable) when its last
  /// valid report is more than this many ticks old at poll() time.
  std::uint64_t lease_ticks = 64;

  // --- overload ----------------------------------------------------------
  /// Bounded ingress queue: reports beyond this many queued shed the
  /// oldest queued report (the shed sender's retry recovers it).
  std::size_t queue_capacity = 256;

  // --- crash recovery ----------------------------------------------------
  /// Write a snapshot to snapshot_path after every Nth decision (0 = off).
  std::uint64_t snapshot_every = 0;
  std::string snapshot_path;

  /// Throws ServiceError with an actionable message on bad knobs.
  void validate() const;
};

/// Aggregated service health counters (also mirrored into the attached
/// obs::Registry under the svc.* names in docs/OBSERVABILITY.md).
struct ServiceStats {
  std::uint64_t frames_accepted = 0;
  std::uint64_t frames_rejected = 0;   ///< codec-level rejections
  std::uint64_t reports_applied = 0;
  std::uint64_t reports_deduped = 0;   ///< duplicate/stale seq, re-acked
  std::uint64_t reports_invalid = 0;   ///< unknown device / bad delays
  std::uint64_t reports_shed = 0;      ///< dropped by the bounded queue
  std::uint64_t leases_expired = 0;
  std::uint64_t leases_revived = 0;
  std::uint64_t decisions = 0;
  std::uint64_t decisions_degraded = 0;
  std::uint64_t responses_retransmitted = 0;  ///< cached-response dedup hits
  std::uint64_t requests_stale = 0;    ///< controller_seq from the past/future
  std::uint64_t snapshots_written = 0;
};

/// See the header comment.  Single-threaded by design: the surrounding
/// server loop owns ordering (determinism requires it), and one instance
/// at Q = 1M sustains ~0.9M picks/sec (PR 6), so the scale-out unit is
/// the service process, not threads inside it.
class SchedulerService {
 public:
  /// `users` is the init-phase fleet contract (Algorithm 1 lines 1-2):
  /// static device parameters plus initial delays, index = device id.
  /// Reports update the delays; the device set itself is fixed.
  SchedulerService(std::vector<sched::UserInfo> users,
                   const ServiceOptions& options,
                   obs::Instruments instruments = {});

  // --- transport ---------------------------------------------------------

  /// Consumes one ingress datagram (any number of frames; a torn tail is
  /// rejected, not buffered).  Valid reports enter the bounded queue —
  /// shedding the oldest on overflow — and valid decision requests are
  /// staged.  Never throws on wire bytes.
  void ingest(std::span<const std::uint8_t> bytes, std::uint64_t now_tick);

  /// Consumes one already-decoded frame (stream transports run their own
  /// per-connection FrameDecoder — svc/transport.h — so re-encoding just
  /// to re-decode here would be waste).  Identical semantics to the
  /// datagram path for a validated frame.  Never throws on wire bytes.
  void ingest(const Frame& frame, std::uint64_t now_tick);

  /// Runs the service loop once at `now_tick`: expires leases, applies up
  /// to `budget` queued reports (emitting acks), then answers the staged
  /// decision request if any.  Responses accumulate in the outbox.
  void poll(std::uint64_t now_tick, std::size_t budget = SIZE_MAX);

  /// Encoded response frames ready for the wire, in emission order.
  /// Moves them out; the outbox is empty afterwards.
  std::vector<std::vector<std::uint8_t>> take_outbox();

  // --- crash recovery ----------------------------------------------------

  /// Complete state snapshot as a checksummed file image
  /// (magic "HSVS" | version | u64 size | u64 fnv1a | payload).
  std::vector<std::uint8_t> snapshot() const;

  /// Restores a snapshot() image onto an identically-constructed service
  /// (same fleet, same options).  Parses and validates everything before
  /// mutating any member; throws ServiceError on truncation, corruption,
  /// version or configuration mismatch — a failed restore leaves the
  /// service unchanged.
  void restore(std::span<const std::uint8_t> bytes);

  /// snapshot() to `path` atomically (tmp + rename).
  void write_snapshot(const std::string& path) const;

  /// restore() from `path`.
  void restore_file(const std::string& path);

  // --- introspection -----------------------------------------------------
  const ServiceStats& stats() const { return stats_; }
  std::size_t n_devices() const { return session_.users.size(); }
  std::size_t queue_depth() const { return session_.report_queue.size(); }
  bool device_alive(std::size_t device) const { return session_.alive[device] != 0; }
  std::uint64_t decisions_issued() const { return stats_.decisions; }
  const ServiceOptions& options() const { return options_; }

  static constexpr std::uint32_t kSnapshotMagic = 0x53565348;  ///< "HSVS" LE
  static constexpr std::uint32_t kSnapshotVersion = 1;

 private:
  void dispatch_frame(const Frame& frame, std::uint64_t now_tick);
  void handle_report(const DeviceReport& report, std::uint64_t now_tick);
  void handle_request(const DecisionRequest& request);
  void apply_report(const DeviceReport& report, std::uint64_t now_tick);
  void expire_leases(std::uint64_t now_tick);
  void answer_request(std::uint64_t now_tick);
  void emit(const Frame& frame);
  void count(std::string_view name, std::uint64_t delta = 1);
  void maybe_autosnapshot();

  ServiceOptions options_;
  obs::Instruments instruments_;
  core::HelcflScheduler scheduler_;

  /// Everything a snapshot persists besides the strategy frame.
  struct Session {
    // Fleet state: static device params from construction, delays updated
    // by reports.  alive is the lease-driven mask the FleetView borrows.
    std::vector<sched::UserInfo> users;
    std::vector<std::uint8_t> alive;
    std::vector<std::uint64_t> lease_expiry_tick;
    std::vector<std::uint64_t> last_report_seq;  ///< 0 = none applied yet

    // Bounded ingress queue (decoded, not-yet-applied reports).
    std::deque<DeviceReport> report_queue;

    // Controller session: exactly-once decision processing.
    std::uint64_t last_controller_seq = 0;
    std::vector<std::uint8_t> cached_response;  ///< encoded frame for last seq
    std::optional<DecisionRequest> pending_request;

    // Degradation latch: set by shedding, cleared by a decision that found
    // the queue empty at answer time.
    bool degraded = false;

    std::uint64_t now_tick = 0;  ///< latest tick seen (monotone)
  };

  /// The snapshot payload: configuration echo, the session's dynamic
  /// fields, and the strategy frame (staged as bytes so restore can
  /// validate everything before the strategy loads it).
  void fields(auto&& io, util::RecordOf<Session> auto& s,
              util::RecordOf<std::vector<std::uint8_t>> auto& strategy) const;

  Session session_;
  std::vector<std::vector<std::uint8_t>> outbox_;
  ServiceStats stats_;
};

}  // namespace helcfl::svc
