#include "mec/faults.h"

#include <cmath>
#include <stdexcept>
#include <string>

namespace helcfl::mec {

namespace {

// Sub-stream ids off the injector's base RNG.
constexpr std::uint64_t kChurnStream = 1;
constexpr std::uint64_t kClientStream = 2;

void check_rate(double value, const char* name) {
  if (!(value >= 0.0 && value <= 1.0)) {
    throw std::invalid_argument(std::string("FaultOptions: ") + name + " = " +
                                std::to_string(value) +
                                " must be a probability in [0, 1]");
  }
}

}  // namespace

void FaultOptions::validate() const {
  check_rate(crash_rate, "crash_rate");
  check_rate(upload_failure_rate, "upload_failure_rate");
  check_rate(straggler_rate, "straggler_rate");
  check_rate(leave_rate, "leave_rate");
  check_rate(rejoin_rate, "rejoin_rate");
  if (!(straggler_slowdown >= 1.0) || !std::isfinite(straggler_slowdown)) {
    throw std::invalid_argument(
        "FaultOptions: straggler_slowdown = " + std::to_string(straggler_slowdown) +
        " must be a finite multiplier >= 1");
  }
  if (leave_rate > 0.0 && rejoin_rate <= 0.0) {
    throw std::invalid_argument(
        "FaultOptions: rejoin_rate must be > 0 when leave_rate > 0, otherwise "
        "churn drains the fleet permanently");
  }
}

FaultInjector::FaultInjector(std::size_t n_devices, const FaultOptions& options,
                             util::Rng base)
    : n_devices_(n_devices),
      options_(options),
      client_base_(base.fork(kClientStream)),
      churn_rng_(base.fork(kChurnStream)) {
  options_.validate();
  if (active()) available_.assign(n_devices_, 1);
}

void FaultInjector::begin_round() {
  const std::size_t round = round_++;
  if (!active() || options_.leave_rate <= 0.0) return;
  const bool trace =
      tracer_ != nullptr && tracer_->enabled(obs::TraceLevel::kRound);
  for (std::size_t i = 0; i < n_devices_; ++i) {
    if (available_[i] != 0) {
      if (churn_rng_.bernoulli(options_.leave_rate)) {
        available_[i] = 0;
        if (trace) {
          tracer_->emit(obs::TraceLevel::kRound, "churn",
                        {{"round", round}, {"user", i}, {"kind", "leave"}});
        }
      }
    } else {
      if (churn_rng_.bernoulli(options_.rejoin_rate)) {
        available_[i] = 1;
        if (trace) {
          tracer_->emit(obs::TraceLevel::kRound, "churn",
                        {{"round", round}, {"user", i}, {"kind", "rejoin"}});
        }
      }
    }
  }
}

std::span<const std::uint8_t> FaultInjector::availability() const {
  if (!active()) return {};
  return available_;
}

std::size_t FaultInjector::away_count() const {
  std::size_t away = 0;
  for (const auto a : available_) away += a == 0 ? 1 : 0;
  return away;
}

void FaultInjector::fields(auto&& io, util::RecordOf<FaultInjector> auto& f) {
  io.echo(f.n_devices_, "FaultInjector n_devices");
  io.echo(f.options_.enabled, "FaultInjector enabled");
  io(f.round_);
  io(f.churn_rng_);
  io(f.available_);
}

void FaultInjector::save_state(util::ByteWriter& out) const {
  fields(util::Save(out), *this);
}

void FaultInjector::load_state(util::ByteReader& in) {
  FaultInjector fresh = *this;
  fields(util::Load(in), fresh);
  if (fresh.available_.size() != available_.size()) {
    throw util::SerialError("FaultInjector: availability mask length mismatch");
  }
  *this = std::move(fresh);
}

ClientFaults FaultInjector::draw(std::size_t round, std::size_t user,
                                 std::size_t max_attempts) const {
  if (max_attempts == 0) {
    throw std::invalid_argument("FaultInjector::draw: max_attempts must be >= 1");
  }
  ClientFaults faults;
  if (!active()) return faults;

  // One independent stream per (round, user): the draw order below is fixed,
  // so a client's faults are identical no matter when or where its task runs.
  util::Rng rng = client_base_.fork(round * n_devices_ + user);
  if (options_.crash_rate > 0.0 && rng.bernoulli(options_.crash_rate)) {
    faults.crashed = true;
    faults.crash_fraction = rng.uniform();
  }
  if (options_.straggler_rate > 0.0 && rng.bernoulli(options_.straggler_rate)) {
    faults.slowdown = rng.uniform(1.0, options_.straggler_slowdown);
  }
  if (!faults.crashed && options_.upload_failure_rate > 0.0) {
    while (faults.failed_attempts < max_attempts &&
           rng.bernoulli(options_.upload_failure_rate)) {
      ++faults.failed_attempts;
    }
    faults.upload_ok = faults.failed_attempts < max_attempts;
  }
  return faults;
}

}  // namespace helcfl::mec
