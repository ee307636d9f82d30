#include "oracles/greedy_decay_reference.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/utility.h"

namespace helcfl::core {

GreedyDecayReference::GreedyDecayReference(double fraction, double eta)
    : fraction_(fraction), eta_(eta) {
  if (eta <= 0.0 || eta > 1.0) {
    throw std::invalid_argument("GreedyDecayReference: eta must be in (0, 1]");
  }
  if (fraction <= 0.0 || fraction > 1.0) {
    throw std::invalid_argument("GreedyDecayReference: fraction must be in (0, 1]");
  }
}

std::vector<std::size_t> GreedyDecayReference::select(
    const sched::FleetView& fleet, std::vector<SelectionTraceEntry>* trace) {
  const std::size_t q = fleet.users.size();
  if (counters_.empty()) {
    counters_.assign(q, 0);
  } else if (counters_.size() != q) {
    throw std::invalid_argument("GreedyDecayReference: fleet size changed");
  }

  // Lines 8-10: utility of every selectable user (depleted devices are
  // not in V' — battery extension).
  const std::vector<std::size_t> alive = fleet.alive_indices();
  if (alive.empty()) return {};
  std::vector<double> utilities(q, 0.0);
  for (const std::size_t i : alive) {
    utilities[i] =
        utility(counters_[i], fleet.users[i].t_cal_max_s, fleet.users[i].t_com_s, eta_);
  }

  // Lines 11-19: greedily take the top N by utility.  A full sort of an
  // index array keeps ties deterministic (lower index wins).
  const std::size_t n = std::min(sched::selection_count(q, fraction_), alive.size());
  std::vector<std::size_t> order = alive;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return utilities[a] > utilities[b];
  });
  order.resize(n);

  // Decision-time telemetry (pure observation: α_q captured before the
  // line-18 increment below, so the trace shows the counters the Eq. (20)
  // ranking actually used).
  if (trace != nullptr) {
    trace->clear();
    trace->reserve(order.size());
    for (std::size_t rank = 0; rank < order.size(); ++rank) {
      const std::size_t i = order[rank];
      trace->push_back({i, rank, utilities[i], counters_[i]});
    }
  }

  // Line 18: decay the selected users' future utility.
  for (const std::size_t i : order) ++counters_[i];
  return order;
}

void GreedyDecayReference::revoke_appearance(std::size_t user) {
  if (user < counters_.size() && counters_[user] > 0) --counters_[user];
}

void GreedyDecayReference::reset() { counters_.clear(); }

void GreedyDecayReference::restore_appearance_counts(std::vector<std::size_t> counters) {
  counters_ = std::move(counters);
}

}  // namespace helcfl::core
