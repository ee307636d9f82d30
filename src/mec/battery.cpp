#include "mec/battery.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace helcfl::mec {

double Battery::drain(double joules) {
  if (joules < 0.0) throw std::invalid_argument("Battery::drain: negative energy");
  if (is_mains_powered()) return joules;
  const double drained = std::min(joules, remaining_j_);
  remaining_j_ -= drained;
  return drained;
}

double Battery::state_of_charge() const {
  if (is_mains_powered()) return 1.0;
  return remaining_j_ / capacity_j_;
}


BatteryFleet::BatteryFleet(std::size_t n_devices, double capacity_j)
    : batteries_(n_devices, Battery(capacity_j)), alive_(n_devices, 1) {}

BatteryFleet::BatteryFleet(std::vector<double> capacities_j) {
  batteries_.reserve(capacities_j.size());
  for (const double capacity : capacities_j) batteries_.emplace_back(capacity);
  alive_.assign(batteries_.size(), 1);
}

double BatteryFleet::drain(std::size_t i, double joules) {
  const double drained = batteries_.at(i).drain(joules);
  if (batteries_[i].depleted()) alive_[i] = 0;
  return drained;
}

std::size_t BatteryFleet::alive_count() const {
  std::size_t count = 0;
  for (const auto a : alive_) count += a;
  return count;
}

namespace {

/// The fleet frame: every battery's fields() walk, counted.
void fleet_fields(auto&& io, auto& batteries) { io(batteries, 2 * 8, "batteries"); }

}  // namespace

void BatteryFleet::save_state(util::ByteWriter& out) const {
  fleet_fields(util::Save(out), batteries_);
}

void BatteryFleet::load_state(util::ByteReader& in) {
  std::vector<Battery> loaded;
  fleet_fields(util::Load(in), loaded);
  if (loaded.size() != batteries_.size()) {
    throw util::SerialError("BatteryFleet: state was saved for " +
                            std::to_string(loaded.size()) +
                            " batteries, this fleet has " +
                            std::to_string(batteries_.size()));
  }
  std::vector<std::uint8_t> alive(loaded.size());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    const Battery& b = loaded[i];
    if (b.capacity_j() != batteries_[i].capacity_j()) {
      throw util::SerialError("BatteryFleet: capacity mismatch at battery " +
                              std::to_string(i));
    }
    if (!(b.remaining_j() >= 0.0 && b.remaining_j() <= std::max(b.capacity_j(), 0.0))) {
      throw util::SerialError("BatteryFleet: charge out of range at battery " +
                              std::to_string(i));
    }
    alive[i] = b.depleted() ? 0 : 1;
  }
  batteries_ = std::move(loaded);
  alive_ = std::move(alive);
}

double BatteryFleet::mean_state_of_charge() const {
  if (batteries_.empty()) return 1.0;
  double sum = 0.0;
  for (const auto& b : batteries_) sum += b.state_of_charge();
  return sum / static_cast<double>(batteries_.size());
}

}  // namespace helcfl::mec
