// Per-round user selection and frequency determination interface.
//
// Algorithm 1 calls a SelectionStrategy at the top of every round (line 4)
// to obtain (a) the selected user set Γ_j and (b) the operating frequency
// F_Γj of each selected user.  Strategies are stateful across rounds (e.g.
// HELCFL's appearance counters); reset() restores the initial state.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "mec/channel.h"
#include "mec/device.h"
#include "obs/instruments.h"
#include "util/serial.h"

namespace helcfl::sched {

/// What the FLCC knows about one user after the initialization phase
/// (Algorithm 1 lines 1-2): its device parameters and the delays derived
/// from them at maximum frequency.
struct UserInfo {
  mec::Device device;        ///< static resource description of v_q
  double t_cal_max_s = 0.0;  ///< T^cal at f_max — Eq. (4)
  double t_com_s = 0.0;      ///< T^com — Eq. (7)

  /// Standalone round delay at f_max (Eq. 9, ignoring TDMA queueing) —
  /// the denominator of the Eq. (20) utility.
  double total_delay_max_s() const { return t_cal_max_s + t_com_s; }
};

/// Fleet snapshot passed to strategies each round.
///
/// `alive` is the availability mask maintained by the battery model
/// (1 = selectable); an empty mask means every user is available.  A
/// strategy must never select a user whose mask entry is 0.
struct FleetView {
  std::span<const UserInfo> users;         ///< all Q users, index = user id
  std::span<const std::uint8_t> alive = {};  ///< 1 = selectable; empty = all

  /// Whether user i may be selected this round.
  bool is_alive(std::size_t i) const { return alive.empty() || alive[i] != 0; }

  /// Number of selectable users.
  std::size_t alive_count() const {
    if (alive.empty()) return users.size();
    std::size_t count = 0;
    for (const auto a : alive) count += a != 0 ? 1 : 0;
    return count;
  }

  /// Indices of all selectable users, ascending.
  std::vector<std::size_t> alive_indices() const {
    std::vector<std::size_t> indices;
    indices.reserve(users.size());
    for (std::size_t i = 0; i < users.size(); ++i) {
      if (is_alive(i)) indices.push_back(i);
    }
    return indices;
  }
};

/// One round's scheduling decision: Γ_j and F_Γj, index-aligned.
struct Decision {
  std::vector<std::size_t> selected;     ///< indices into FleetView::users
  std::vector<double> frequencies_hz;    ///< operating frequency per selected user
};

/// Strategy interface (Algorithm 1 line 4).
class SelectionStrategy {
 public:
  SelectionStrategy() = default;
  SelectionStrategy(const SelectionStrategy&) = delete;
  SelectionStrategy& operator=(const SelectionStrategy&) = delete;
  virtual ~SelectionStrategy() = default;

  /// Chooses the users and frequencies for round `round` (0-based).
  virtual Decision decide(const FleetView& fleet, std::size_t round) = 0;

  /// Training feedback delivered after each round.  With failure-aware
  /// execution the trainer filters this down to the clients whose updates
  /// actually entered the global model, so loss-aware strategies (e.g.
  /// Oort-like selection) never learn from losses the server discarded;
  /// `decision` then holds only those survivors.  The default
  /// implementation ignores it.
  virtual void observe(std::size_t round, const Decision& decision,
                       std::span<const double> client_losses) {
    (void)round;
    (void)decision;
    (void)client_losses;
  }

  /// Completion feedback delivered after each round: `completed[k]` is 1
  /// iff the update of `decision.selected[k]` entered the global model
  /// (trained, uploaded within the retry budget, arrived before the
  /// straggler cutoff, and the round met its quorum).  Strategies whose
  /// state assumes participation (HELCFL's α_q appearance counters, FedCS's
  /// deadline set, Oort's reliability view) correct themselves here; the
  /// default implementation ignores it.  Called every round, after
  /// observe(); with faults disabled the mask is all-ones.
  virtual void report_completion(std::size_t round, const Decision& decision,
                                 std::span<const std::uint8_t> completed) {
    (void)round;
    (void)decision;
    (void)completed;
  }

  /// Restores construction-time state (counters, RNG stream).  The default
  /// implementation replays the snapshot captured by capture_initial_state()
  /// through load_state() — the same code path a checkpoint resume takes —
  /// so reset() cannot drift from restore semantics (no-op if the subclass
  /// never captured).  Override only if the strategy has state that
  /// save_state/load_state deliberately do not cover.
  virtual void reset();

  /// Serializes all mutable state into `out`.  Frame: the strategy name(),
  /// then a length-prefixed payload produced by do_save_state().  The
  /// payload also echoes the construction-time configuration so that
  /// load_state() onto a differently-configured strategy fails loudly.
  void save_state(util::ByteWriter& out) const;

  /// Restores state written by save_state() on an identically-configured
  /// strategy.  Throws util::SerialError if the stored name does not match
  /// name(), if the configuration echo mismatches, or if the payload is
  /// malformed or longer than do_load_state() consumes; implementations
  /// parse the full payload before mutating any member, and a payload with
  /// trailing bytes is undone from a pre-load snapshot, so a throwing load
  /// leaves the strategy unchanged.
  void load_state(util::ByteReader& in);

  /// The construction-time snapshot reset() restores (empty if the
  /// subclass never called capture_initial_state()).
  std::span<const std::uint8_t> initial_state() const { return initial_state_; }

  /// Human-readable scheme label ("HELCFL", "FedCS", ...); also the
  /// `strategy` field of every traced selection event.
  virtual std::string name() const = 0;

  /// Attaches observability sinks (all borrowed, all nullable; see
  /// `obs::Instruments`).  The trainer calls this at the start of run()
  /// with its own instruments so strategy decisions land in the same
  /// trace.  Tracing must never perturb a decision: strategies only read
  /// already-computed values when emitting (no RNG, no reordering).
  void set_instruments(const obs::Instruments& instruments) {
    instruments_ = instruments;
  }

 protected:
  /// Writes the strategy-specific payload: configuration echo first, then
  /// mutable state.  Default: empty payload (stateless strategy).
  virtual void do_save_state(util::ByteWriter& out) const { (void)out; }

  /// Parses a payload written by do_save_state().  Must validate and parse
  /// everything into locals before assigning to members ("no partial
  /// restore").  Default: accepts only the empty payload.
  virtual void do_load_state(util::ByteReader& in) { (void)in; }

  /// Records the current state as the reset() target.  Call at the end of
  /// the most-derived constructor (virtual dispatch to do_save_state() is
  /// correct there — the object is fully constructed as that type).
  void capture_initial_state();

  /// The attached sinks (default: all null, i.e. tracing off).
  obs::Instruments instruments_{};

 private:
  /// The frame: name() as an echo, then the do_save_state() payload.
  void fields(auto&& io, util::RecordOf<std::vector<std::uint8_t>> auto& payload) const;

  std::vector<std::uint8_t> initial_state_;
};

/// N = max(Q * C, 1) of Algorithm 2 line 11.
std::size_t selection_count(std::size_t n_users, double fraction);

/// Builds the per-user FleetView entries from raw devices (initialization
/// phase: derive T^cal at f_max and T^com).
std::vector<UserInfo> build_user_info(std::span<const mec::Device> devices,
                                      const mec::Channel& channel,
                                      double model_size_bits);

}  // namespace helcfl::sched
