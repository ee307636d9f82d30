// Battery model (extension; see DESIGN.md §6).
//
// The paper motivates its energy optimization with "the energy of user
// devices is quickly exhausted or even device shutdown occurs during FL
// training" (Section I).  This module makes that concrete: each device
// carries a finite energy budget; once depleted the device drops out of
// the selectable fleet.  The bench_ext_battery_lifetime experiment uses it
// to show that Algorithm 3's savings translate into longer fleet lifetime
// and more reachable accuracy under a fixed per-device budget.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/serial.h"

namespace helcfl::mec {

/// One device's energy budget.
class Battery {
 public:
  Battery() = default;
  /// `capacity_j` <= 0 means "mains powered": never depletes.
  explicit Battery(double capacity_j)
      : capacity_j_(capacity_j), remaining_j_(std::max(capacity_j, 0.0)) {}

  bool is_mains_powered() const { return capacity_j_ <= 0.0; }

  /// True once the remaining charge has hit zero (never for mains power).
  bool depleted() const { return !is_mains_powered() && remaining_j_ <= 0.0; }

  /// Withdraws up to `joules`; returns the amount actually drained (the
  /// last round of a dying device may overdraw, which is clamped).
  double drain(double joules);

  /// True when the battery can fund an expense of `joules` right now.
  bool can_afford(double joules) const {
    return is_mains_powered() || remaining_j_ >= joules;
  }

  double capacity_j() const { return capacity_j_; }
  double remaining_j() const { return remaining_j_; }  ///< 0 for mains power

  /// Remaining fraction in [0, 1]; 1 for mains power.
  double state_of_charge() const;

  /// The checkpoint layout: capacity (a configuration echo the fleet
  /// checks), then the remaining charge.
  friend void fields(auto&& io, util::RecordOf<Battery> auto& b) {
    io(b.capacity_j_);
    io(b.remaining_j_);
  }

 private:
  double capacity_j_ = 0.0;
  double remaining_j_ = 0.0;
};

/// The batteries of a whole fleet plus the derived availability mask.
class BatteryFleet {
 public:
  BatteryFleet() = default;
  /// All devices share the same capacity.  capacity_j <= 0 = mains power.
  BatteryFleet(std::size_t n_devices, double capacity_j);
  /// Heterogeneous capacities.
  explicit BatteryFleet(std::vector<double> capacities_j);

  std::size_t size() const { return batteries_.size(); }
  const Battery& battery(std::size_t i) const { return batteries_.at(i); }

  /// Drains device i; updates the availability mask.
  double drain(std::size_t i, double joules);

  bool is_alive(std::size_t i) const { return alive_.at(i) != 0; }
  std::size_t alive_count() const;

  /// 1 = selectable, 0 = depleted; aligned with device indices and
  /// directly usable as FleetView::alive.
  std::span<const std::uint8_t> alive_mask() const { return alive_; }

  /// Mean state of charge over all devices.
  double mean_state_of_charge() const;

  /// Serializes capacities (as a configuration echo) and remaining charge.
  void save_state(util::ByteWriter& out) const;

  /// Restores charge written by save_state() on a fleet constructed with
  /// identical capacities; recomputes the alive mask.  Parses fully before
  /// mutating; throws util::SerialError on mismatch.
  void load_state(util::ByteReader& in);

 private:
  std::vector<Battery> batteries_;
  std::vector<std::uint8_t> alive_;
};

}  // namespace helcfl::mec
