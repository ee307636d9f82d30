// Fault-injection subsystem (robustness extension; see DESIGN.md §8).
//
// The paper's MEC setting (Section I) is battery-powered mobile devices on
// wireless uplinks, yet the closed-form models of Eqs. (4)-(9) assume every
// selected user always finishes its local update and upload.  This module
// injects the failure modes the setting implies, deterministically:
//
//   - crashes:      the local update dies partway through; no model is
//                   produced but the cycles burned until the crash still
//                   cost Eq.-(5) energy;
//   - upload loss:  a TDMA upload attempt fails; the trainer may retry with
//                   backoff, each attempt re-occupying the uplink and
//                   costing Eq. (7)/(8) delay and energy;
//   - stragglers:   a transient compute slowdown (thermal throttling,
//                   background load) multiplies the Eq.-(4) delay;
//   - churn:        devices leave and rejoin the selectable fleet between
//                   rounds (mobility, connectivity loss).
//
// Determinism: per-client faults are drawn from an RNG forked per
// (round, user) — like the trainer's mini-batch streams — so outcomes never
// depend on which worker thread runs a client or in what order tasks
// complete (the bitwise thread-count invariance of DESIGN.md §7 holds with
// faults enabled).  Churn is a per-round Markov process advanced on the
// coordinator thread only.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "obs/trace.h"
#include "util/rng.h"
#include "util/serial.h"

namespace helcfl::mec {

/// Fault model knobs.  All rates are per-round probabilities in [0, 1].
/// `enabled = false` (the default) makes the injector a strict no-op: no
/// RNG is consumed and every client completes, so training traces are
/// bitwise identical to a build without the subsystem.
struct FaultOptions {
  bool enabled = false;
  /// P(a selected client crashes during its local update).
  double crash_rate = 0.0;
  /// P(one TDMA upload attempt fails); retries redraw independently.
  double upload_failure_rate = 0.0;
  /// P(a selected client suffers a transient compute slowdown this round).
  double straggler_rate = 0.0;
  /// Worst-case slowdown multiplier; an afflicted client's compute delay is
  /// scaled by U(1, straggler_slowdown).  Must be >= 1.
  double straggler_slowdown = 4.0;
  /// P(an available device leaves the selectable fleet before a round).
  double leave_rate = 0.0;
  /// P(an absent device rejoins before a round).  Must be > 0 whenever
  /// leave_rate > 0, or the fleet could drain permanently.
  double rejoin_rate = 0.25;

  /// Throws std::invalid_argument with an actionable message on bad knobs.
  void validate() const;

  /// True when any fault mode can actually trigger.
  bool any_fault_possible() const {
    return crash_rate > 0.0 || upload_failure_rate > 0.0 ||
           straggler_rate > 0.0 || leave_rate > 0.0;
  }
};

/// Everything injected into one client in one round.  Drawn up front on the
/// coordinator thread (deterministic), applied inside the client task.
struct ClientFaults {
  bool crashed = false;
  /// Fraction of the local update completed before the crash, in [0, 1);
  /// scales the wasted Eq.-(5) compute energy.  0 when not crashed.
  double crash_fraction = 0.0;
  /// Compute-delay multiplier, >= 1 (1 = no slowdown).
  double slowdown = 1.0;
  /// Upload attempts that failed before success or give-up.
  std::size_t failed_attempts = 0;
  /// False when every allowed attempt failed: the update is lost.
  bool upload_ok = true;

  /// Total transmissions made (failed + the successful one, if any).
  std::size_t attempts() const { return failed_attempts + (upload_ok ? 1 : 0); }
};

/// Deterministic fault source for a fleet of devices.
class FaultInjector {
 public:
  FaultInjector() = default;
  /// `base` should be a stream forked off the trainer seed; the injector
  /// derives independent sub-streams for churn and per-client draws.
  FaultInjector(std::size_t n_devices, const FaultOptions& options, util::Rng base);

  bool active() const { return options_.enabled && n_devices_ > 0; }
  const FaultOptions& options() const { return options_; }

  /// Attaches a JSONL tracer (borrowed, nullable): every churn transition
  /// becomes a `churn` event.  Pure observation — the Markov draws are
  /// identical with or without a tracer.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Advances availability churn by one round.  Call once per round, on the
  /// coordinator, before selection.  No-op when inactive or leave_rate = 0
  /// (the internal round counter used by churn events still advances).
  void begin_round();

  /// 1 = present in the selectable fleet, 0 = away (churn).  Empty span
  /// when the injector is inactive (everyone available).
  std::span<const std::uint8_t> availability() const;

  /// Devices currently away due to churn.
  std::size_t away_count() const;

  /// Draws client q's faults for round j from a stream forked on (j, q)
  /// alone.  `max_attempts` bounds upload attempts (1 = no retries); must
  /// be >= 1.  Thread-safe: const, touches no mutable state.
  ClientFaults draw(std::size_t round, std::size_t user,
                    std::size_t max_attempts) const;

  std::size_t size() const { return n_devices_; }

  /// Serializes the stream cursors (round counter, churn RNG, availability
  /// mask).  The per-client base stream is derived from the construction
  /// seed and never advances, so it is not stored — an injector rebuilt
  /// from the same seed plus this state replays identical faults.
  void save_state(util::ByteWriter& out) const;

  /// Restores cursors written by save_state() on an injector constructed
  /// with the same fleet size and options.  Parses fully before mutating;
  /// throws util::SerialError on any mismatch.
  void load_state(util::ByteReader& in);

 private:
  /// The frame: configuration echo, then the round counter, churn stream
  /// and availability mask.
  static void fields(auto&& io, util::RecordOf<FaultInjector> auto& f);

  std::size_t n_devices_ = 0;
  FaultOptions options_;
  util::Rng client_base_;          ///< parent of the per-(round,user) forks
  util::Rng churn_rng_;            ///< sequential churn stream
  std::vector<std::uint8_t> available_;
  obs::Tracer* tracer_ = nullptr;  ///< optional churn-event sink (borrowed)
  std::size_t round_ = 0;          ///< rounds begun (labels churn events)
};

}  // namespace helcfl::mec
