#include "core/helcfl_scheduler.h"

#include <stdexcept>

#include "core/dvfs.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace helcfl::core {

HelcflScheduler::HelcflScheduler(const HelcflOptions& options)
    : options_(options), selector_(options.fraction, options.eta) {
  capture_initial_state();
}

sched::Decision HelcflScheduler::decide(const sched::FleetView& fleet,
                                        std::size_t round) {
  obs::Tracer* tracer = instruments_.tracer;
  const bool trace_decisions =
      tracer != nullptr && tracer->enabled(obs::TraceLevel::kDecision);

  sched::Decision decision;
  std::vector<SelectionTraceEntry> selection_trace;
  {
    const obs::ScopedSpan span(instruments_.profiler, "greedy_decay",
                               static_cast<std::int64_t>(round));
    decision.selected =
        selector_.select(fleet, trace_decisions ? &selection_trace : nullptr);
  }
  // Per-user selection decisions: the Eq. (20) inputs exactly as the
  // greedy ranking saw them (α_q pre-increment).
  for (const SelectionTraceEntry& entry : selection_trace) {
    const sched::UserInfo& info = fleet.users[entry.user];
    tracer->emit(obs::TraceLevel::kDecision, "selection",
                 {{"round", round},
                  {"user", entry.user},
                  {"rank", entry.rank},
                  {"strategy", name()},
                  {"utility", entry.utility},
                  {"alpha", entry.appearances},
                  {"t_cal_max_s", info.t_cal_max_s},
                  {"t_com_s", info.t_com_s}});
  }

  decision.frequencies_hz.reserve(decision.selected.size());
  if (options_.enable_dvfs) {
    const obs::ScopedSpan span(instruments_.profiler, "freq_determination",
                               static_cast<std::int64_t>(round));
    const FrequencyPlan plan = determine_frequencies(fleet, decision.selected);
    for (const std::size_t user : decision.selected) {
      decision.frequencies_hz.push_back(plan.frequency_of(user));
    }
    // Per-user DVFS assignments in upload order: the Algorithm-3 timeline
    // plus what each slowdown bought (slack reclaimed, Eq.-(5) savings).
    if (trace_decisions) {
      for (const FrequencyAssignment& a : plan.assignments) {
        tracer->emit(obs::TraceLevel::kDecision, "dvfs",
                     {{"round", round},
                      {"user", a.user},
                      {"f_hz", a.frequency_hz},
                      {"f_max_hz", fleet.users[a.user].device.f_max_hz},
                      {"clamped", a.clamped},
                      {"slack_reclaimed_s", a.slack_reclaimed_s},
                      {"energy_saved_j", a.energy_saved_j},
                      {"compute_end_s", a.compute_end_s},
                      {"upload_start_s", a.upload_start_s},
                      {"upload_end_s", a.upload_end_s}});
      }
    }
  } else {
    for (const std::size_t user : decision.selected) {
      decision.frequencies_hz.push_back(fleet.users[user].device.f_max_hz);
    }
  }
  return decision;
}

void HelcflScheduler::report_completion(std::size_t /*round*/,
                                        const sched::Decision& decision,
                                        std::span<const std::uint8_t> completed) {
  if (decision.selected.size() != completed.size()) {
    throw std::invalid_argument("HelcflScheduler::report_completion: size mismatch");
  }
  for (std::size_t k = 0; k < completed.size(); ++k) {
    if (completed[k] == 0) selector_.revoke_appearance(decision.selected[k]);
  }
}

void HelcflScheduler::fields(auto&& io,
                             util::RecordOf<GreedyDecaySelector> auto& selector) const {
  io.echo(options_.fraction, "HelcflScheduler fraction");
  io.echo(options_.eta, "HelcflScheduler eta");
  io.echo(options_.enable_dvfs, "HelcflScheduler enable_dvfs");
  io(selector);
}

void HelcflScheduler::do_save_state(util::ByteWriter& out) const {
  fields(util::Save(out), selector_);
}

// The echo is checked before the selector frame is read, and the
// selector's own load_state is parse-then-commit.
void HelcflScheduler::do_load_state(util::ByteReader& in) {
  fields(util::Load(in), selector_);
}

std::string HelcflScheduler::name() const {
  return options_.enable_dvfs ? "HELCFL" : "HELCFL-noDVFS";
}

}  // namespace helcfl::core
