#include "core/greedy_decay_selection.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace helcfl::core {

GreedyDecaySelector::GreedyDecaySelector(double fraction, double eta)
    : fraction_(fraction), eta_(eta), index_(eta) {
  if (eta <= 0.0 || eta > 1.0) {
    throw std::invalid_argument("GreedyDecaySelector: eta must be in (0, 1]");
  }
  if (fraction <= 0.0 || fraction > 1.0) {
    throw std::invalid_argument("GreedyDecaySelector: fraction must be in (0, 1]");
  }
}

std::vector<std::size_t> GreedyDecaySelector::select(
    const sched::FleetView& fleet, std::vector<SelectionTraceEntry>* trace) {
  const std::size_t q = fleet.users.size();
  if (counters_.empty()) {
    counters_.assign(q, 0);
  } else if (counters_.size() != q) {
    throw std::invalid_argument("GreedyDecaySelector: fleet size changed");
  }

  // Lines 8-10: depleted devices are not in V' (battery extension).
  const std::size_t alive = fleet.alive_count();
  if (alive == 0) return {};

  // The index carries every selectable user's Eq. (20) utility across
  // rounds; the prologue only reconciles delay reports and revivals.
  if (!index_.initialized()) {
    index_.build(fleet.users, counters_);
  } else {
    index_.begin_round(fleet, counters_);
  }

  // Lines 11-19: greedily take the top N by utility — O(N log Q) pops in
  // (utility desc, index asc) order, the stable-sort tie-break contract.
  const std::size_t n = std::min(sched::selection_count(q, fraction_), alive);
  index_.extract_top(fleet, n, picks_);

  // Decision-time telemetry (pure observation: α_q captured before the
  // line-18 increment below, so the trace shows the counters the Eq. (20)
  // ranking actually used).
  if (trace != nullptr) {
    trace->clear();
    trace->reserve(picks_.size());
    for (std::size_t rank = 0; rank < picks_.size(); ++rank) {
      const UtilityIndex::Pick& pick = picks_[rank];
      trace->push_back({pick.user, rank, pick.utility, counters_[pick.user]});
    }
  }

  // Line 18: decay the selected users' future utility, re-inserting each
  // extracted user with its post-increment utility.
  std::vector<std::size_t> order;
  order.reserve(picks_.size());
  for (const UtilityIndex::Pick& pick : picks_) {
    order.push_back(pick.user);
    ++counters_[pick.user];
    index_.update_counter(pick.user, counters_[pick.user]);
  }
  return order;
}

void GreedyDecaySelector::revoke_appearance(std::size_t user) {
  if (user < counters_.size() && counters_[user] > 0) {
    --counters_[user];
    if (index_.initialized()) index_.update_counter(user, counters_[user]);
  }
}

void GreedyDecaySelector::reset() {
  counters_.clear();
  index_.clear();
}

void GreedyDecaySelector::restore_appearance_counts(std::vector<std::size_t> counters) {
  counters_ = std::move(counters);
  index_.clear();
}

void GreedyDecaySelector::fields(auto&& io,
                                 util::RecordOf<GreedyDecaySelector> auto& s) {
  io(s.counters_);
  UtilityIndex::fields(io, s.index_);
}

void GreedyDecaySelector::save_state(util::ByteWriter& out) const {
  fields(util::Save(out), *this);
}

void GreedyDecaySelector::load_state(util::ByteReader& in) {
  GreedyDecaySelector fresh(fraction_, eta_);
  fields(util::Load(in), fresh);
  fresh.index_.rebuild(fresh.counters_);
  *this = std::move(fresh);
}

}  // namespace helcfl::core
