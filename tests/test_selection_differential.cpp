// The differential harness that carries the correctness of the incremental
// utility index (DESIGN.md §12): the index-backed GreedyDecaySelector and
// the retained naive re-sort (GreedyDecayReference) are driven through
// thousands of seed-generated randomized rounds — decay, revocation,
// fault-completion patterns, battery depletion/revival, delay reports,
// mid-run serialization — and must agree pick-for-pick, rank-for-rank,
// utility-bit-for-bit, and counter-for-counter after every round.
//
// Any mismatch prints the scenario seed so the exact sequence reproduces
// with  --gtest_filter=...  HELCFL_DIFF_SEED=<seed>.
//
// Depth: the default run executes >= 2000 randomized rounds (the
// acceptance floor).  Setting HELCFL_DIFF_DEEP=1 — the `slow`-labelled
// ctest registration CI runs — multiplies the scenario count and raises
// the fleet-size ceiling.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "oracles/greedy_decay_reference.h"
#include "core/utility.h"
#include "core/greedy_decay_selection.h"
#include "fl_fixtures.h"
#include "util/rng.h"
#include "util/serial.h"

namespace helcfl::core {
namespace {

bool deep_mode() {
  const char* deep = std::getenv("HELCFL_DIFF_DEEP");
  return deep != nullptr && deep[0] == '1';
}

// One randomized scenario configuration, derived entirely from `seed`.
struct Scenario {
  std::uint64_t seed = 0;
  std::size_t q = 0;          // fleet size
  double fraction = 0.0;      // selection fraction C
  double eta = 0.0;           // decay coefficient (1.0 = tie-heavy regime)
  std::size_t rounds = 0;
  double depletion_rate = 0.0;   // alive 1 -> 0 per user per round
  double revival_rate = 0.0;     // alive 0 -> 1 per user per round
  double fault_rate = 0.0;       // selected user fails -> revoke
  double delay_report_rate = 0.0;  // per-round chance of a delay report
  bool tie_prone_delays = false;   // draw delays from a tiny discrete set

  std::string describe() const {
    std::ostringstream out;
    out << "seed=" << seed << " Q=" << q << " C=" << fraction << " eta=" << eta
        << " rounds=" << rounds << " depletion=" << depletion_rate
        << " revival=" << revival_rate << " faults=" << fault_rate
        << " delay_reports=" << delay_report_rate
        << " tie_prone=" << tie_prone_delays;
    return out.str();
  }
};

Scenario make_scenario(std::uint64_t seed, std::size_t max_q) {
  util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  Scenario s;
  s.seed = seed;
  // Bias toward tiny fleets (edge cases live there) but sweep up to max_q.
  s.q = rng.bernoulli(0.4)
            ? static_cast<std::size_t>(rng.uniform_int(1, 8))
            : static_cast<std::size_t>(
                  rng.uniform_int(9, static_cast<std::int64_t>(max_q)));
  s.fraction = rng.bernoulli(0.2) ? 1.0 : rng.uniform(0.05, 0.9);
  // Cover the full eta domain with extra mass on the tie-heavy eta = 1.
  const double eta_draw = rng.uniform();
  if (eta_draw < 0.25) {
    s.eta = 1.0;
  } else if (eta_draw < 0.5) {
    s.eta = 0.5;  // exact-power ties with power-of-two delays
  } else {
    s.eta = rng.uniform(0.05, 0.999);
  }
  s.rounds = static_cast<std::size_t>(rng.uniform_int(20, 60));
  s.depletion_rate = rng.bernoulli(0.5) ? rng.uniform(0.0, 0.3) : 0.0;
  s.revival_rate = rng.uniform(0.1, 0.6);
  s.fault_rate = rng.bernoulli(0.5) ? rng.uniform(0.0, 0.5) : 0.0;
  s.delay_report_rate = rng.bernoulli(0.4) ? rng.uniform(0.0, 0.4) : 0.0;
  s.tie_prone_delays = rng.bernoulli(0.5);
  return s;
}

// Delays drawn either from a tiny discrete set (forcing utility ties, the
// stable-sort tie-break regime) or continuously.
double draw_delay(util::Rng& rng, bool tie_prone) {
  if (tie_prone) {
    static constexpr double kChoices[] = {0.5, 1.0, 1.0, 2.0, 2.0, 4.0};
    return kChoices[rng.uniform_int(0, 5)];
  }
  return rng.uniform(0.2, 8.0);
}

// Runs one scenario, accumulating the number of rounds executed into
// `executed` (void so ASSERT_* can abort it; the caller checks
// HasFatalFailure).  All failures carry the scenario description for
// seed-driven reproduction.
void run_scenario(const Scenario& s, std::size_t& executed) {
  SCOPED_TRACE("reproduce with: " + s.describe());
  util::Rng rng(s.seed);

  std::vector<sched::UserInfo> users;
  users.reserve(s.q);
  for (std::size_t i = 0; i < s.q; ++i) {
    sched::UserInfo info;
    info.device = testing::make_device(i, 2.0, 20);
    info.t_cal_max_s = draw_delay(rng, s.tie_prone_delays);
    info.t_com_s = draw_delay(rng, s.tie_prone_delays) * 0.25;
    users.push_back(info);
  }
  std::vector<std::uint8_t> alive(s.q, 1);

  GreedyDecaySelector index_selector(s.fraction, s.eta);
  GreedyDecayReference reference(s.fraction, s.eta);

  std::vector<SelectionTraceEntry> index_trace;
  std::vector<SelectionTraceEntry> reference_trace;
  for (std::size_t round = 0; round < s.rounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));

    // Battery / churn evolution (skipped on round 0 so every scenario
    // exercises at least one all-alive round).
    if (round > 0) {
      for (std::size_t i = 0; i < s.q; ++i) {
        if (alive[i] != 0 && rng.bernoulli(s.depletion_rate)) alive[i] = 0;
        else if (alive[i] == 0 && rng.bernoulli(s.revival_rate)) alive[i] = 1;
      }
    }

    // Delay reports: a few users re-report T^cal/T^com before the round.
    if (round > 0 && rng.bernoulli(s.delay_report_rate)) {
      const std::size_t n_reports =
          static_cast<std::size_t>(rng.uniform_int(1, static_cast<std::int64_t>(s.q)));
      for (const std::size_t i : rng.sample_without_replacement(s.q, n_reports)) {
        users[i].t_cal_max_s = draw_delay(rng, s.tie_prone_delays);
        users[i].t_com_s = draw_delay(rng, s.tie_prone_delays) * 0.25;
      }
    }

    const sched::FleetView fleet{users, alive};
    const std::vector<std::size_t> picks_index =
        index_selector.select(fleet, &index_trace);
    const std::vector<std::size_t> picks_reference =
        reference.select(fleet, &reference_trace);
    ++executed;

    // Pick-for-pick: same users in the same rank order.
    ASSERT_EQ(picks_index, picks_reference);
    // Rank-for-rank and utility-bit-for-bit (EXPECT_EQ on double is exact
    // equality, not tolerance).
    ASSERT_EQ(index_trace.size(), reference_trace.size());
    for (std::size_t k = 0; k < index_trace.size(); ++k) {
      EXPECT_EQ(index_trace[k].user, reference_trace[k].user) << "rank " << k;
      EXPECT_EQ(index_trace[k].rank, reference_trace[k].rank) << "rank " << k;
      EXPECT_EQ(index_trace[k].utility, reference_trace[k].utility) << "rank " << k;
      EXPECT_EQ(index_trace[k].appearances, reference_trace[k].appearances)
          << "rank " << k;
    }

    // Fault-completion pattern: failed participants get their appearance
    // revoked on both selectors (HelcflScheduler::report_completion).
    for (const std::size_t user : picks_index) {
      if (rng.bernoulli(s.fault_rate)) {
        index_selector.revoke_appearance(user);
        reference.revoke_appearance(user);
      }
    }

    // Post-round alpha_q agreement, every round.
    const auto counts_index = index_selector.appearance_counts();
    const auto counts_reference = reference.appearance_counts();
    ASSERT_EQ(counts_index.size(), counts_reference.size());
    for (std::size_t i = 0; i < counts_index.size(); ++i) {
      ASSERT_EQ(counts_index[i], counts_reference[i]) << "alpha of user " << i;
    }

    // Occasionally push the index selector through its serialization path
    // mid-run: save, reload into a fresh instance, continue.  Divergence
    // after this point would indicate the frame loses index state.
    if (rng.bernoulli(0.05)) {
      util::ByteWriter saved;
      index_selector.save_state(saved);
      GreedyDecaySelector reloaded(s.fraction, s.eta);
      util::ByteReader reader(saved.data());
      reloaded.load_state(reader);
      reader.expect_end("differential selector frame");
      index_selector = std::move(reloaded);
    }
  }
}

TEST(SelectionDifferential, RandomizedRoundsAgreeExactly) {
  const bool deep = deep_mode();
  const std::size_t scenarios = deep ? 300 : 64;
  const std::size_t max_q = deep ? 2048 : 256;

  // A pinned seed reproduces one failing scenario in isolation.
  std::size_t total_rounds = 0;
  if (const char* pinned = std::getenv("HELCFL_DIFF_SEED")) {
    const Scenario s = make_scenario(std::strtoull(pinned, nullptr, 10), max_q);
    run_scenario(s, total_rounds);
    return;
  }

  for (std::uint64_t seed = 1; seed <= scenarios; ++seed) {
    run_scenario(make_scenario(seed, max_q), total_rounds);
    if (::testing::Test::HasFatalFailure()) {
      FAIL() << "stopping after first mismatching scenario (seed " << seed
             << "); reproduce with HELCFL_DIFF_SEED=" << seed;
    }
  }
  // The acceptance floor: >= 2000 randomized rounds with zero mismatches.
  EXPECT_GE(total_rounds, 2000u);
}

// Directed tie-torture: every user identical under eta = 1 — the ordering
// is pure stable-sort tie-breaking, so any index tie-break deviation shows
// immediately.
TEST(SelectionDifferential, EtaOneAllTiedMatchesStableOrder) {
  const std::size_t q = 97;
  std::vector<std::pair<double, double>> delays(q, {1.0, 0.5});
  const auto users = testing::users_with_delays(delays);
  GreedyDecaySelector index_selector(0.13, 1.0);
  GreedyDecayReference reference(0.13, 1.0);
  for (std::size_t round = 0; round < 40; ++round) {
    const auto a = index_selector.select({users});
    const auto b = reference.select({users});
    ASSERT_EQ(a, b) << "round " << round;
    // With everything tied, stable order selects the lowest indices.
    const std::size_t n = sched::selection_count(q, 0.13);
    for (std::size_t k = 0; k < n; ++k) EXPECT_EQ(a[k], k);
  }
}

// Directed underflow torture: after enough selections eta^alpha underflows
// to exactly 0.0 and whole cohorts tie at zero utility; ordering must stay
// the stable index order among them.
TEST(SelectionDifferential, UnderflowedUtilitiesStayOrdered) {
  const auto users = testing::users_with_delays({{1.0, 0.0}, {2.0, 0.0}});
  GreedyDecaySelector index_selector(0.5, 0.001);  // brutal decay
  GreedyDecayReference reference(0.5, 0.001);
  for (std::size_t round = 0; round < 300; ++round) {
    ASSERT_EQ(index_selector.select({users}), reference.select({users}))
        << "round " << round;
  }
  // By now both counters are large enough that eta^alpha == 0.0 exactly.
  EXPECT_EQ(utility(index_selector.appearance_counts()[0], 1.0, 0.0, 0.001), 0.0);
}

// The index must actually be incremental, not a re-sort in disguise: after
// warm-up, a steady-state round touches O(N log Q) heap entries and the
// heap never exceeds the compaction bound.
TEST(SelectionDifferential, IndexWorksIncrementally) {
  util::Rng rng(7);
  std::vector<std::pair<double, double>> delays;
  const std::size_t q = 4096;
  delays.reserve(q);
  for (std::size_t i = 0; i < q; ++i) {
    delays.push_back({rng.uniform(0.2, 8.0), rng.uniform(0.05, 2.0)});
  }
  const auto users = testing::users_with_delays(delays);
  GreedyDecaySelector selector(0.01, 0.9);  // N = 41
  (void)selector.select({users});           // build
  const std::uint64_t discards_before = selector.index().stale_discards();
  for (std::size_t round = 0; round < 50; ++round) (void)selector.select({users});
  // Steady state: stale discards stay proportional to picks, far below a
  // per-round re-sort's Q touches.
  const std::uint64_t discards = selector.index().stale_discards() - discards_before;
  EXPECT_LT(discards, 50 * 2 * sched::selection_count(q, 0.01));
  EXPECT_LE(selector.index().heap_entries(), 2 * q + 64 + sched::selection_count(q, 0.01));
}

}  // namespace
}  // namespace helcfl::core
