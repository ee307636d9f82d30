// Time-varying channel fading (extension; see DESIGN.md §6).
//
// The paper assumes static channel gains h_q².  Real uplinks fade between
// rounds; schedulers that rank users by a delay estimated once at
// initialization (HELCFL, FedCS) then act on *stale* information.  This
// module provides a per-device Gauss-Markov (first-order autoregressive)
// fading process in the dB domain:
//
//   x_{t+1} = rho * x_t + sqrt(1 - rho^2) * sigma * n_t,   n_t ~ N(0, 1)
//   multiplier_t = 10^{x_t / 10}
//
// so the instantaneous gain is h_q² * multiplier_t with a log-normal
// marginal of spread `sigma_db` and round-to-round correlation `rho`.
#pragma once

#include <cstddef>
#include <vector>

#include "util/rng.h"
#include "util/serial.h"

namespace helcfl::mec {

/// Gauss-Markov fading knobs (see the header comment for the process).
struct FadingOptions {
  bool enabled = false;   ///< false = static gains, the paper's assumption
  double rho = 0.9;       ///< round-to-round correlation in [0, 1)
  double sigma_db = 4.0;  ///< marginal standard deviation in dB
};

/// Independent Gauss-Markov fading states for a fleet of devices.
class FadingProcess {
 public:
  FadingProcess() = default;
  /// Starts every device at its stationary distribution draw.
  FadingProcess(std::size_t n_devices, const FadingOptions& options, util::Rng rng);

  /// Advances all devices one round.
  void step();

  /// Linear-scale gain multiplier of device i for the current round (1.0
  /// when fading is disabled).
  double multiplier(std::size_t i) const;

  std::size_t size() const { return states_db_.size(); }
  bool enabled() const { return options_.enabled; }

  /// Serializes the RNG cursor and per-device dB states.
  void save_state(util::ByteWriter& out) const;

  /// Restores state written by save_state() on a process constructed with
  /// the same fleet size; throws util::SerialError on mismatch.
  void load_state(util::ByteReader& in);

 private:
  /// The frame: configuration echo, stream cursor, per-device dB states.
  static void fields(auto&& io, util::RecordOf<FadingProcess> auto& p);

  FadingOptions options_;
  util::Rng rng_;
  std::vector<double> states_db_;
};

}  // namespace helcfl::mec
