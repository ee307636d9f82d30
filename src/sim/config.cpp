#include "sim/config.h"

#include <stdexcept>
#include <string>

#include "sched/scheduler.h"

namespace helcfl::sim {

Scheme parse_scheme(const std::string& text) {
  if (text == "helcfl") return Scheme::kHelcfl;
  if (text == "helcfl_nodvfs") return Scheme::kHelcflNoDvfs;
  if (text == "classic") return Scheme::kClassicFl;
  if (text == "fedcs") return Scheme::kFedCs;
  if (text == "fedl") return Scheme::kFedl;
  if (text == "sl") return Scheme::kSl;
  if (text == "oort") return Scheme::kOort;
  throw std::invalid_argument("unknown scheme: " + text);
}

std::string scheme_name(Scheme scheme) {
  switch (scheme) {
    case Scheme::kHelcfl: return "HELCFL";
    case Scheme::kHelcflNoDvfs: return "HELCFL-noDVFS";
    case Scheme::kClassicFl: return "ClassicFL";
    case Scheme::kFedCs: return "FedCS";
    case Scheme::kFedl: return "FEDL";
    case Scheme::kSl: return "SL";
    case Scheme::kOort: return "Oort";
  }
  return "unknown";
}

void ExperimentConfig::validate() const {
  // Every range check is written as !(in range), so a NaN fails it too.
  if (n_users == 0) throw std::invalid_argument("config: n_users == 0");
  if (!(fraction > 0.0 && fraction <= 1.0)) {
    throw std::invalid_argument("config: fraction must be in (0, 1]");
  }
  if (!(eta > 0.0 && eta < 1.0)) {
    throw std::invalid_argument("config: eta must be in (0, 1)");
  }
  if (!(f_min_hz > 0.0 && f_max_low_hz >= f_min_hz && f_max_high_hz >= f_max_low_hz)) {
    throw std::invalid_argument("config: bad frequency range");
  }
  if (!(switched_capacitance > 0.0 && cycles_per_sample > 0.0 && compute_scale > 0.0)) {
    throw std::invalid_argument("config: bad compute constants");
  }
  if (!(tx_power_w > 0.0 && bandwidth_hz > 0.0 && noise_w > 0.0)) {
    throw std::invalid_argument("config: bad radio constants");
  }
  if (!(gain_sq_low > 0.0 && gain_sq_high >= gain_sq_low)) {
    throw std::invalid_argument("config: bad channel gain range");
  }
  if (noniid && shards_per_user == 0) {
    throw std::invalid_argument("config: shards_per_user == 0");
  }
  if (dataset.train_samples < n_users) {
    throw std::invalid_argument("config: fewer training samples than users");
  }
  if (trainer.max_rounds == 0) throw std::invalid_argument("config: max_rounds == 0");
  if (!(fedl_kappa > 0.0)) throw std::invalid_argument("config: fedl_kappa must be > 0");
  trainer.validate(n_users);
  // A quorum larger than the per-round cohort ⌈Q·C⌉ could never be met even
  // when every selected client survives.
  const std::size_t cohort = sched::selection_count(n_users, fraction);
  if (trainer.min_clients > cohort) {
    throw std::invalid_argument(
        "config: trainer.min_clients = " + std::to_string(trainer.min_clients) +
        " exceeds the per-round cohort size " + std::to_string(cohort) +
        " (= max(Q*C, 1)); every round would fail its quorum");
  }
}

ExperimentConfig paper_config() {
  ExperimentConfig config;
  config.dataset.train_samples = 4000;
  config.dataset.test_samples = 1000;
  config.trainer.max_rounds = 300;
  config.trainer.client.learning_rate = 0.05F;
  // FedAvg-style local mini-batch steps with momentum; the client drift
  // they cause is what makes non-IID training visibly harder than IID
  // (Fig. 2).  Set local_steps = 1, batch_size = 0, momentum = 0 for the
  // literal Eq. (3) GD step.
  config.trainer.client.local_steps = 5;
  config.trainer.client.batch_size = 20;
  config.trainer.client.momentum = 0.5F;
  config.trainer.model_size_bits = 4e6;  // SqueezeNet + deep compression ~0.5 MB
  return config;
}

}  // namespace helcfl::sim
