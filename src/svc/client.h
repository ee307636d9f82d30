// Client-side endpoint of the scheduler-service protocol (DESIGN.md §13).
//
// A ServiceClient is the gateway half of the exchange: it transmits device
// state reports and decision requests as checksummed frames, and keeps
// retransmitting each one — exponential backoff with jitter, bounded
// attempts (svc::RetryPolicy) — until the service acknowledges it.  Acks
// are keyed (device_id, report_seq) and decision responses by
// controller_seq, so duplicated or reordered deliveries are absorbed
// here: a duplicate ack completes nothing twice, a stale response is
// dropped.
//
// Like the service, the client is transport-agnostic and wall-clock-free:
// the caller owns the wire and the logical tick.  poll(now) returns the
// encoded frames due for (re)transmission at `now`; deliver(bytes) feeds
// back whatever the wire produced (including corruption — decode errors
// are counted, never thrown).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "svc/frame.h"
#include "svc/retry.h"
#include "util/rng.h"

namespace helcfl::svc {

class ServiceClient {
 public:
  /// `rng` drives retry jitter only — it never influences *what* is sent,
  /// so two clients with different RNG streams still converge to the same
  /// applied state.  `first_controller_seq` seats the request numbering,
  /// letting a controller resume after the service recovered from a
  /// snapshot (seq continues where the snapshot left off).
  ServiceClient(const RetryOptions& retry, util::Rng rng,
                std::uint64_t first_controller_seq = 1);

  // --- egress --------------------------------------------------------------

  /// Stages a device report for transmission at `now_tick`.  It is
  /// retransmitted with backoff until the matching ack arrives or the
  /// attempt budget is exhausted.
  void send_report(const DeviceReport& report, std::uint64_t now_tick);

  /// Stages a decision request for round `round`, assigning the next
  /// controller_seq (returned).  Only one request may be outstanding;
  /// throws std::logic_error otherwise.
  std::uint64_t request_decision(std::uint64_t round, std::uint64_t now_tick);

  /// Encoded frames due for (re)transmission at `now_tick`, in a
  /// deterministic order (reports by (device, seq), then the request).
  /// Each returned frame has its backoff advanced; entries that exhausted
  /// their attempt budget are dropped and counted instead of returned.
  std::vector<std::vector<std::uint8_t>> poll(std::uint64_t now_tick);

  // --- ingress -------------------------------------------------------------

  /// Consumes one datagram from the wire.  Acks complete pending reports;
  /// the response matching the outstanding request is captured (pick it up
  /// with take_decision()).  Corrupt frames and stale/duplicate messages
  /// are counted and dropped — never thrown.
  void deliver(std::span<const std::uint8_t> bytes);

  /// The captured decision response, if the outstanding request completed.
  /// Moves it out; afterwards a new request may be staged.
  std::optional<DecisionResponse> take_decision();

  // --- introspection -------------------------------------------------------
  /// Nothing pending: every report acked, no request outstanding.
  bool idle() const {
    return pending_reports_.empty() && !pending_request_.has_value();
  }
  std::size_t pending_reports() const { return pending_reports_.size(); }

  std::uint64_t retries() const { return retries_; }        ///< re-transmissions
  std::uint64_t exhausted() const { return exhausted_; }    ///< gave up
  std::uint64_t frames_rejected() const { return frames_rejected_; }

 private:
  struct Pending {
    std::vector<std::uint8_t> frame;  ///< encoded once, retransmitted as-is
    std::size_t attempts = 0;         ///< transmissions made so far
    std::uint64_t next_tx_tick = 0;
  };

  /// Transmits `entry` if due; returns false if it exhausted its budget
  /// (caller removes it).
  bool transmit_due(Pending& entry, std::uint64_t now_tick,
                    std::vector<std::vector<std::uint8_t>>& out);

  RetryPolicy policy_;
  util::Rng rng_;

  std::map<std::pair<std::uint64_t, std::uint64_t>, Pending> pending_reports_;
  std::optional<Pending> pending_request_;
  std::uint64_t pending_request_seq_ = 0;
  std::uint64_t next_controller_seq_;
  std::optional<DecisionResponse> decision_;

  std::uint64_t retries_ = 0;
  std::uint64_t exhausted_ = 0;
  std::uint64_t frames_rejected_ = 0;
};

}  // namespace helcfl::svc
