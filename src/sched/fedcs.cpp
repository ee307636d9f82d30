#include "sched/fedcs.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "mec/tdma.h"
#include "obs/trace.h"

namespace helcfl::sched {

FedCsSelection::FedCsSelection(double deadline_s, double max_fraction)
    : deadline_s_(deadline_s), max_fraction_(max_fraction) {
  if (deadline_s <= 0.0) {
    throw std::invalid_argument("FedCsSelection: deadline must be positive");
  }
  capture_initial_state();
}

void FedCsSelection::fields(
    auto&& io, util::RecordOf<std::vector<std::size_t>> auto& streaks) const {
  io.echo(deadline_s_, "FedCsSelection deadline_s");
  io.echo(max_fraction_, "FedCsSelection max_fraction");
  io(streaks);
}

void FedCsSelection::do_save_state(util::ByteWriter& out) const {
  fields(util::Save(out), failure_streaks_);
}

void FedCsSelection::do_load_state(util::ByteReader& in) {
  std::vector<std::size_t> streaks;
  fields(util::Load(in), streaks);
  failure_streaks_ = std::move(streaks);
}

double estimate_round_time(const FleetView& fleet,
                           std::span<const std::size_t> members) {
  std::vector<double> compute;
  std::vector<double> upload;
  compute.reserve(members.size());
  upload.reserve(members.size());
  for (const std::size_t i : members) {
    compute.push_back(fleet.users[i].t_cal_max_s);
    upload.push_back(fleet.users[i].t_com_s);
  }
  return mec::schedule_uploads(compute, upload).round_delay_s;
}

Decision FedCsSelection::decide(const FleetView& fleet, std::size_t round) {
  // Candidates in ascending order of standalone delay — the "short training
  // delay first" greedy of the paper.  Failure-aware ranking: a consecutive
  // miss doubles a candidate's effective delay, so unreliable clients sink
  // behind deliverers without ever being excluded outright (a recovered
  // client clears its streak on the next completed round).
  const auto ranking_delay = [&](std::size_t i) {
    const double streak_penalty =
        static_cast<double>(std::uint64_t{1} << std::min<std::size_t>(failure_streak(i), 32));
    return fleet.users[i].total_delay_max_s() * streak_penalty;
  };
  std::vector<std::size_t> order(fleet.users.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return ranking_delay(a) < ranking_delay(b);
  });

  const std::size_t cap = max_fraction_ > 0.0
                              ? selection_count(fleet.users.size(), max_fraction_)
                              : fleet.users.size();

  Decision decision;
  for (const std::size_t candidate : order) {
    if (!fleet.is_alive(candidate)) continue;
    if (decision.selected.size() >= cap) break;
    decision.selected.push_back(candidate);
    if (estimate_round_time(fleet, decision.selected) > deadline_s_) {
      decision.selected.pop_back();
      // Later candidates are even slower; no further candidate can fit.
      break;
    }
  }
  // Never return an empty round: admit the single fastest *alive* user even
  // if it alone exceeds the deadline (FedCS's "at least one" behaviour).
  if (decision.selected.empty()) {
    for (const std::size_t candidate : order) {
      if (fleet.is_alive(candidate)) {
        decision.selected.push_back(candidate);
        break;
      }
    }
  }

  decision.frequencies_hz.reserve(decision.selected.size());
  for (const std::size_t i : decision.selected) {
    decision.frequencies_hz.push_back(fleet.users[i].device.f_max_hz);
  }
  // Decision telemetry: the deadline-greedy admits by ranking delay (the
  // standalone delay inflated by the failure streak), so the trace records
  // the value each admitted user was actually ranked by.
  if (obs::Tracer* tracer = instruments_.tracer;
      tracer != nullptr && tracer->enabled(obs::TraceLevel::kDecision)) {
    for (std::size_t rank = 0; rank < decision.selected.size(); ++rank) {
      const std::size_t user = decision.selected[rank];
      tracer->emit(obs::TraceLevel::kDecision, "selection",
                   {{"round", round},
                    {"user", user},
                    {"rank", rank},
                    {"strategy", name()},
                    {"ranking_delay_s", ranking_delay(user)},
                    {"deadline_s", deadline_s_}});
    }
  }
  return decision;
}

void FedCsSelection::report_completion(std::size_t /*round*/,
                                       const Decision& decision,
                                       std::span<const std::uint8_t> completed) {
  if (decision.selected.size() != completed.size()) {
    throw std::invalid_argument("FedCsSelection::report_completion: size mismatch");
  }
  for (std::size_t k = 0; k < decision.selected.size(); ++k) {
    const std::size_t user = decision.selected[k];
    if (user >= failure_streaks_.size()) failure_streaks_.resize(user + 1, 0);
    failure_streaks_[user] = completed[k] != 0 ? 0 : failure_streaks_[user] + 1;
  }
}

}  // namespace helcfl::sched
