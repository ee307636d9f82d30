#include "core/utility_index.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "core/utility.h"

namespace helcfl::core {

UtilityIndex::UtilityIndex(double eta) : eta_(eta) {
  if (eta <= 0.0 || eta > 1.0) {
    throw std::invalid_argument("UtilityIndex: eta must be in (0, 1]");
  }
}

void UtilityIndex::build(std::span<const sched::UserInfo> users,
                         std::span<const std::size_t> counters) {
  if (users.size() != counters.size()) {
    throw std::invalid_argument("UtilityIndex::build: users/counters size mismatch");
  }
  if (users.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("UtilityIndex::build: fleet too large");
  }
  clear();
  const std::size_t q = users.size();
  t_cal_.reserve(q);
  t_com_.reserve(q);
  for (const sched::UserInfo& info : users) {
    t_cal_.push_back(info.t_cal_max_s);
    t_com_.push_back(info.t_com_s);
  }
  versions_.assign(q, 0);
  parked_.assign(q, 0);
  heap_.reserve(2 * q + 64);
  for (std::size_t i = 0; i < q; ++i) {
    heap_.push_back(Entry{utility(counters[i], t_cal_[i], t_com_[i], eta_), 0,
                          static_cast<std::uint32_t>(i)});
  }
  std::make_heap(heap_.begin(), heap_.end(), outranked);
  initialized_ = true;
}

void UtilityIndex::clear() {
  initialized_ = false;
  t_cal_.clear();
  t_com_.clear();
  versions_.clear();
  parked_.clear();
  parked_list_.clear();
  heap_.clear();
}

void UtilityIndex::begin_round(const sched::FleetView& fleet,
                               std::span<const std::size_t> counters) {
  const std::size_t q = t_cal_.size();
  if (!initialized_ || fleet.users.size() != q || counters.size() != q) {
    throw std::logic_error("UtilityIndex::begin_round: index not built for this fleet");
  }

  // Delay-report verification: an O(Q) compare-only sweep (the common case
  // is zero changes — the init-phase delays are static for most runs).
  // Each changed user gets its cache updated and a refreshed entry pushed.
  for (std::size_t i = 0; i < q; ++i) {
    const sched::UserInfo& info = fleet.users[i];
    if (info.t_cal_max_s == t_cal_[i] && info.t_com_s == t_com_[i]) continue;
    t_cal_[i] = info.t_cal_max_s;
    t_com_[i] = info.t_com_s;
    ++delay_refreshes_;
    if (parked_[i] == 0) push_fresh(i, counters[i]);
    // Parked users only carry the cache update; revival below re-inserts
    // them with the fresh values.
  }

  // Revive parked users the alive mask readmits.  Entries whose flag was
  // already cleared by an update (revocation while parked) are dropped.
  if (!parked_list_.empty()) {
    std::size_t kept = 0;
    for (const std::uint32_t user : parked_list_) {
      if (parked_[user] == 0) continue;  // un-parked since; entry is live
      if (fleet.is_alive(user)) {
        push_fresh(user, counters[user]);
      } else {
        parked_list_[kept++] = user;
      }
    }
    parked_list_.resize(kept);
  }

  if (heap_.size() > 2 * q + 64) compact(counters);
}

void UtilityIndex::extract_top(const sched::FleetView& fleet, std::size_t n,
                               std::vector<Pick>& out) {
  out.clear();
  while (out.size() < n) {
    if (heap_.empty()) {
      throw std::logic_error(
          "UtilityIndex::extract_top: heap exhausted before n picks "
          "(extracted user not re-inserted?)");
    }
    std::pop_heap(heap_.begin(), heap_.end(), outranked);
    const Entry top = heap_.back();
    heap_.pop_back();
    if (top.version != versions_[top.user]) {  // lazy deletion
      ++stale_discards_;
      continue;
    }
    if (!fleet.is_alive(top.user)) {  // depleted/absent: park until revived
      parked_[top.user] = 1;
      parked_list_.push_back(top.user);
      continue;
    }
    out.push_back({top.user, top.utility});
  }
}

void UtilityIndex::update_counter(std::size_t user, std::size_t alpha) {
  if (!initialized_ || user >= versions_.size()) {
    throw std::logic_error("UtilityIndex::update_counter: unknown user");
  }
  push_fresh(user, alpha);
}

void UtilityIndex::push_fresh(std::size_t user, std::size_t alpha) {
  ++versions_[user];
  parked_[user] = 0;  // parked_list_ entry (if any) lazily dropped later
  heap_.push_back(Entry{utility(alpha, t_cal_[user], t_com_[user], eta_),
                        versions_[user], static_cast<std::uint32_t>(user)});
  std::push_heap(heap_.begin(), heap_.end(), outranked);
}

void UtilityIndex::compact(std::span<const std::size_t> counters) {
  ++compactions_;
  heap_.clear();
  const std::size_t q = t_cal_.size();
  for (std::size_t i = 0; i < q; ++i) {
    if (parked_[i] != 0) continue;
    heap_.push_back(Entry{utility(counters[i], t_cal_[i], t_com_[i], eta_),
                          versions_[i], static_cast<std::uint32_t>(i)});
  }
  std::make_heap(heap_.begin(), heap_.end(), outranked);
}

void UtilityIndex::save(util::ByteWriter& out) const { fields(util::Save(out), *this); }

void UtilityIndex::load(util::ByteReader& in, std::span<const std::size_t> counters) {
  UtilityIndex fresh = *this;
  fields(util::Load(in), fresh);
  fresh.rebuild(counters);
  *this = std::move(fresh);
}

void UtilityIndex::rebuild(std::span<const std::size_t> counters) {
  if (!initialized_) {
    clear();
    return;
  }
  if (t_cal_.size() != counters.size() || t_com_.size() != counters.size()) {
    throw util::SerialError(
        "UtilityIndex: delay cache size does not match the appearance "
        "counters (" +
        std::to_string(t_cal_.size()) + "/" + std::to_string(t_com_.size()) +
        " vs " + std::to_string(counters.size()) + ")");
  }
  for (std::size_t i = 0; i < t_cal_.size(); ++i) {
    if (!(t_cal_[i] + t_com_[i] > 0.0)) {
      throw util::SerialError("UtilityIndex: non-positive cached delay for user " +
                              std::to_string(i));
    }
  }
  // Canonical heap: ascending user order, version 0, nobody parked; dead
  // users re-park on their next extraction.
  const std::size_t q = t_cal_.size();
  versions_.assign(q, 0);
  parked_.assign(q, 0);
  parked_list_.clear();
  heap_.clear();
  heap_.reserve(2 * q + 64);
  for (std::size_t i = 0; i < q; ++i) {
    heap_.push_back(Entry{utility(counters[i], t_cal_[i], t_com_[i], eta_), 0,
                          static_cast<std::uint32_t>(i)});
  }
  std::make_heap(heap_.begin(), heap_.end(), outranked);
}

}  // namespace helcfl::core
