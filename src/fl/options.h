// TrainerOptions: every knob of the round engines (fl/trainer.h,
// fl/async_trainer.h) and of the stages they share (fl/round_stages.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>

#include "fl/client.h"
#include "mec/fading.h"
#include "mec/faults.h"
#include "nn/compression.h"
#include "obs/instruments.h"

namespace helcfl::fl {

struct TrainerOptions {
  std::size_t max_rounds = 300;  ///< J
  double deadline_s = std::numeric_limits<double>::infinity();  ///< constraint (14)
  ClientOptions client;
  std::size_t eval_every = 1;    ///< evaluate global model every k rounds
  std::size_t eval_batch = 256;
  double model_size_bits = 4e6;  ///< C_model of Eq. (7)
  std::uint64_t seed = 1;        ///< mini-batch sampling stream
  double target_accuracy = -1.0; ///< stop early once reached (< 0 = never)

  /// Worker threads for the per-round client loop, upload compression, and
  /// held-out evaluation.  1 = inline sequential execution (the reference
  /// path), 0 = auto (hardware_concurrency), N >= 2 = fixed pool of N.
  /// Client updates run on per-worker model replicas with pre-forked RNG
  /// streams and are reduced in selection order, so the training trace and
  /// final weights are bitwise identical for every value of this knob
  /// (DESIGN.md §7; models containing Dropout are the documented exception).
  std::size_t num_threads = 1;

  /// Algorithm 1's convergence exit: after each round the FLCC checks
  /// whether the global model has converged.  With window >= 2, training
  /// stops once the spread (max - min) of the last `window` rounds' mean
  /// training losses falls below `epsilon`.  window = 0 disables the check.
  std::size_t convergence_window = 0;
  double convergence_epsilon = 1e-3;

  // --- extensions (DESIGN.md §6); all off by default ---
  /// Per-device energy budget in joules; <= 0 = mains powered.  Depleted
  /// devices leave the selectable fleet; training stops when nobody is
  /// left.
  double battery_capacity_j = 0.0;
  /// Gauss-Markov channel fading.  When enabled, each round's actual
  /// upload delay/energy use the faded gain while strategies keep ranking
  /// users by the delays reported at initialization (stale information).
  mec::FadingOptions fading;
  /// Lossy upload compression: shrinks the wire size entering Eq. (7) and
  /// feeds the *reconstructed* weights into FedAvg.
  nn::CompressionOptions compression;

  // --- failure-aware execution (DESIGN.md §8); all off by default ---
  /// Injected client crashes, upload losses, transient stragglers, and
  /// availability churn.  Faults are drawn from streams forked per
  /// (round, user), so traces stay bitwise identical across thread counts.
  mec::FaultOptions faults;
  /// Quorum for FedAvg: a round whose surviving update count falls below
  /// this keeps the previous global model and is recorded as failed.
  std::size_t min_clients = 1;
  /// Upload retries allowed after a failed attempt.  Each retry re-occupies
  /// the TDMA uplink for another full Eq.-(7) duration (after
  /// `retry_backoff_s` of radio silence) and costs Eq.-(8) energy again.
  std::size_t max_upload_retries = 0;
  double retry_backoff_s = 0.0;
  /// Straggler cutoff: the server closes the round at this time; updates
  /// whose TDMA upload completes later are discarded (their energy is
  /// wasted).  infinity = wait for every upload.
  double straggler_cutoff_s = std::numeric_limits<double>::infinity();

  // --- checkpoint/resume (DESIGN.md §11); off by default ---
  /// Write a checkpoint after every N completed rounds (0 = never).
  /// Requires checkpoint_path.
  std::size_t checkpoint_every = 0;
  /// Destination file.  The literal token "{round}" expands to the number
  /// of completed rounds at write time, so one run can keep every cadence
  /// point ("ckpt_r{round}.bin" -> ckpt_r3.bin, ckpt_r6.bin, ...); without
  /// the token each write atomically replaces the previous file.
  std::string checkpoint_path;
  /// Resume a run from this checkpoint before executing any round.  The
  /// checkpoint must match this trainer's seed, fleet size, model shape,
  /// strategy, and battery configuration; any mismatch throws
  /// CheckpointError and leaves the trainer untouched.  Empty = fresh run.
  std::string resume_from;

  // --- observability (DESIGN.md §9); fully inert by default ---
  /// Borrowed trace / profile / counter sinks, all nullable.  Observation
  /// is strictly read-only: the sinks draw no RNG and reorder nothing, so
  /// the training trace and final weights are bitwise identical whether or
  /// not any sink is attached (enforced by test_trace_invariance).  The
  /// pointees must outlive run().
  obs::Instruments obs;

  /// Validates every field against `n_users` devices; throws
  /// std::invalid_argument with an actionable message on the first
  /// inconsistency (called by the trainer at construction).
  void validate(std::size_t n_users) const;
};

}  // namespace helcfl::fl
