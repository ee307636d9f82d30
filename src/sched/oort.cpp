#include "sched/oort.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/trace.h"

namespace helcfl::sched {

OortSelection::OortSelection(const OortOptions& options, util::Rng rng)
    : options_(options) {
  state_.rng = rng;
  if (options.fraction <= 0.0 || options.fraction > 1.0) {
    throw std::invalid_argument("OortSelection: fraction must be in (0, 1]");
  }
  if (options.alpha < 0.0) {
    throw std::invalid_argument("OortSelection: alpha must be >= 0");
  }
  if (options.explore_ratio < 0.0 || options.explore_ratio > 1.0) {
    throw std::invalid_argument("OortSelection: explore_ratio must be in [0, 1]");
  }
  capture_initial_state();
}

double OortSelection::statistical_utility(std::size_t user) const {
  if (user >= state_.explored.size() || !state_.explored[user]) {
    return state_.max_seen_loss;
  }
  return state_.last_loss[user];
}

Decision OortSelection::decide(const FleetView& fleet, std::size_t round) {
  const std::size_t q = fleet.users.size();
  if (state_.last_loss.empty()) {
    state_.last_loss.assign(q, 0.0);
    state_.explored.assign(q, 0);
  } else if (state_.last_loss.size() != q) {
    throw std::invalid_argument("OortSelection: fleet size changed");
  }
  if (state_.resolved_t_pref <= 0.0) {
    if (options_.preferred_duration_s > 0.0) {
      state_.resolved_t_pref = options_.preferred_duration_s;
    } else {
      std::vector<double> delays;
      delays.reserve(q);
      for (const auto& user : fleet.users) delays.push_back(user.total_delay_max_s());
      std::nth_element(delays.begin(), delays.begin() + static_cast<std::ptrdiff_t>(q / 2),
                       delays.end());
      state_.resolved_t_pref = delays[q / 2];
    }
  }

  const std::vector<std::size_t> alive = fleet.alive_indices();
  Decision decision;
  if (alive.empty()) return decision;
  const std::size_t n = std::min(selection_count(q, options_.fraction), alive.size());
  const auto n_explore = static_cast<std::size_t>(
      std::floor(options_.explore_ratio * static_cast<double>(n)));
  const std::size_t n_exploit = n - n_explore;

  // Exploit arm: top users by loss x system utility.
  std::vector<std::size_t> order = alive;
  std::vector<double> utilities(q, 0.0);
  for (const std::size_t i : alive) {
    const double stat =
        static_cast<double>(fleet.users[i].device.num_samples) *
        statistical_utility(i);
    const double t = fleet.users[i].total_delay_max_s();
    const double t_pref = state_.resolved_t_pref;
    const double system = t <= t_pref ? 1.0 : std::pow(t_pref / t, options_.alpha);
    utilities[i] = stat * system * reliability_multiplier(i);
  }
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return utilities[a] > utilities[b];
  });
  decision.selected.assign(order.begin(),
                           order.begin() + static_cast<std::ptrdiff_t>(n_exploit));

  // Explore arm: uniform over the remaining alive users.
  if (n_explore > 0) {
    std::vector<std::size_t> rest(order.begin() + static_cast<std::ptrdiff_t>(n_exploit),
                                  order.end());
    for (const std::size_t pick : state_.rng.sample_without_replacement(
             rest.size(), std::min(n_explore, rest.size()))) {
      decision.selected.push_back(rest[pick]);
    }
  }

  decision.frequencies_hz.reserve(decision.selected.size());
  for (const std::size_t i : decision.selected) {
    decision.frequencies_hz.push_back(fleet.users[i].device.f_max_hz);
  }
  // Decision telemetry: Oort is debugged through exactly this per-decision
  // view (Lai et al., OSDI 2021) — the utility each pick was ranked by,
  // whether it came from the exploit or explore arm, and the reliability
  // discount its failure streak currently costs it.
  if (obs::Tracer* tracer = instruments_.tracer;
      tracer != nullptr && tracer->enabled(obs::TraceLevel::kDecision)) {
    for (std::size_t rank = 0; rank < decision.selected.size(); ++rank) {
      const std::size_t user = decision.selected[rank];
      tracer->emit(obs::TraceLevel::kDecision, "selection",
                   {{"round", round},
                    {"user", user},
                    {"rank", rank},
                    {"strategy", name()},
                    {"utility", utilities[user]},
                    {"explore_arm", rank >= n_exploit},
                    {"reliability", reliability_multiplier(user)}});
    }
  }
  return decision;
}

void OortSelection::observe(std::size_t /*round*/, const Decision& decision,
                            std::span<const double> client_losses) {
  if (decision.selected.size() != client_losses.size()) {
    throw std::invalid_argument("OortSelection::observe: size mismatch");
  }
  for (std::size_t k = 0; k < decision.selected.size(); ++k) {
    const std::size_t user = decision.selected[k];
    if (user >= state_.last_loss.size()) continue;
    state_.last_loss[user] = client_losses[k];
    state_.explored[user] = 1;
    state_.max_seen_loss = std::max(state_.max_seen_loss, client_losses[k]);
  }
}

double OortSelection::reliability_multiplier(std::size_t user) const {
  const std::vector<std::size_t>& streaks = state_.failure_streaks;
  const std::size_t misses =
      user < streaks.size() ? std::min<std::size_t>(streaks[user], 60) : 0;
  return misses == 0 ? 1.0 : std::ldexp(1.0, -static_cast<int>(misses));
}

void OortSelection::report_completion(std::size_t /*round*/, const Decision& decision,
                                      std::span<const std::uint8_t> completed) {
  if (decision.selected.size() != completed.size()) {
    throw std::invalid_argument("OortSelection::report_completion: size mismatch");
  }
  for (std::size_t k = 0; k < decision.selected.size(); ++k) {
    const std::size_t user = decision.selected[k];
    std::vector<std::size_t>& streaks = state_.failure_streaks;
    if (user >= streaks.size()) streaks.resize(user + 1, 0);
    streaks[user] = completed[k] != 0 ? 0 : streaks[user] + 1;
  }
}

void OortSelection::fields(auto&& io, util::RecordOf<State> auto& state) const {
  io.echo(options_.fraction, "OortSelection fraction");
  io.echo(options_.alpha, "OortSelection alpha");
  io.echo(options_.explore_ratio, "OortSelection explore_ratio");
  io.echo(options_.preferred_duration_s, "OortSelection preferred_duration_s");
  io(state.rng);
  io(state.resolved_t_pref);
  io(state.max_seen_loss);
  io(state.last_loss);
  io(state.explored);
  io(state.failure_streaks);
}

void OortSelection::do_save_state(util::ByteWriter& out) const {
  fields(util::Save(out), state_);
}

void OortSelection::do_load_state(util::ByteReader& in) {
  State state = state_;
  fields(util::Load(in), state);
  if (state.explored.size() != state.last_loss.size()) {
    throw util::SerialError(
        "OortSelection: explored/last_loss length mismatch in saved state");
  }
  for (const std::uint8_t flag : state.explored) {
    if (flag > 1) throw util::SerialError("OortSelection: explored flag is not 0/1");
  }
  state_ = std::move(state);
}

}  // namespace helcfl::sched
