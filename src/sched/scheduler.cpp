#include "sched/scheduler.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "mec/cost_model.h"

namespace helcfl::sched {

void SelectionStrategy::fields(
    auto&& io, util::RecordOf<std::vector<std::uint8_t>> auto& payload) const {
  io.echo(name(), "SelectionStrategy name");
  io(payload);
}

void SelectionStrategy::save_state(util::ByteWriter& out) const {
  util::ByteWriter payload;
  do_save_state(payload);
  fields(util::Save(out), payload.data());
}

void SelectionStrategy::load_state(util::ByteReader& in) {
  std::vector<std::uint8_t> payload;
  fields(util::Load(in), payload);
  util::ByteReader reader(payload);
  util::ByteWriter before;
  do_save_state(before);
  do_load_state(reader);
  if (reader.done()) return;
  // Trailing payload bytes: do_load_state() committed what it parsed, so
  // put the pre-load state back before rejecting the frame.
  util::ByteReader undo(before.data());
  do_load_state(undo);
  reader.expect_end("strategy payload (" + name() + ")");
}

void SelectionStrategy::capture_initial_state() {
  initial_state_ = util::to_bytes(*this);
}

void SelectionStrategy::reset() {
  if (initial_state_.empty()) return;
  util::load_state_exact(*this, initial_state_,
                         "strategy initial snapshot (" + name() + ")");
}

std::size_t selection_count(std::size_t n_users, double fraction) {
  if (fraction < 0.0 || fraction > 1.0) {
    throw std::invalid_argument("selection_count: fraction must be in [0, 1]");
  }
  const double raw = static_cast<double>(n_users) * fraction;
  const auto n = static_cast<std::size_t>(std::llround(raw));
  return std::clamp<std::size_t>(n, 1, n_users);
}

std::vector<UserInfo> build_user_info(std::span<const mec::Device> devices,
                                      const mec::Channel& channel,
                                      double model_size_bits) {
  std::vector<UserInfo> users;
  users.reserve(devices.size());
  for (const auto& device : devices) {
    if (!device.is_valid()) {
      throw std::invalid_argument("build_user_info: invalid device " +
                                  device.to_string());
    }
    UserInfo info;
    info.device = device;
    info.t_cal_max_s = mec::compute_delay_s(device, device.f_max_hz);
    info.t_com_s = mec::upload_delay_s(device, channel, model_size_bits);
    users.push_back(info);
  }
  return users;
}

}  // namespace helcfl::sched
