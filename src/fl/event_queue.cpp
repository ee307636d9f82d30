#include "fl/event_queue.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace helcfl::fl {

namespace {

/// Heap comparator: std::push_heap keeps the *largest* element first, so
/// "a sorts later than b" puts the earliest event on top.
bool later(const Event& a, const Event& b) { return b.before(a); }

}  // namespace

std::uint64_t EventQueue::push(double time_s, EventKind kind, std::uint64_t user,
                               std::uint64_t tag, double value) {
  if (!std::isfinite(time_s) || time_s < 0.0) {
    throw std::invalid_argument(
        "EventQueue::push: time_s = " + std::to_string(time_s) +
        " must be finite and non-negative (a NaN or infinite timestamp would "
        "break the queue's total order)");
  }
  Event event;
  event.time_s = time_s;
  event.seq = next_seq_++;
  event.kind = kind;
  event.user = user;
  event.tag = tag;
  event.value = value;
  heap_.push_back(event);
  std::push_heap(heap_.begin(), heap_.end(), later);
  return event.seq;
}

const Event& EventQueue::top() const {
  if (heap_.empty()) throw std::logic_error("EventQueue::top: queue is empty");
  return heap_.front();
}

Event EventQueue::pop() {
  if (heap_.empty()) throw std::logic_error("EventQueue::pop: queue is empty");
  std::pop_heap(heap_.begin(), heap_.end(), later);
  Event event = heap_.back();
  heap_.pop_back();
  return event;
}

std::vector<Event> EventQueue::sorted_events() const {
  std::vector<Event> events = heap_;
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) { return a.before(b); });
  return events;
}

void fields(auto&& io, util::RecordOf<Event> auto& e) {
  io(e.time_s);
  io(e.seq);
  io(e.kind);
  io(e.user);
  io(e.tag);
  io(e.value);
}

/// One serialized event is 8+8+1+8+8+8 bytes.
constexpr std::size_t kEventBytes = 41;

void EventQueue::fields(auto&& io, util::RecordOf<EventQueue> auto& q) {
  io(q.next_seq_);
  io(q.heap_, kEventBytes, "EventQueue events");
}

void EventQueue::save_state(util::ByteWriter& out) const {
  EventQueue canonical;
  canonical.next_seq_ = next_seq_;
  canonical.heap_ = sorted_events();
  fields(util::Save(out), canonical);
}

void EventQueue::load_state(util::ByteReader& in) {
  // Parse and validate everything into a fresh queue; commit at the end.
  EventQueue fresh;
  fields(util::Load(in), fresh);
  const std::vector<Event>& events = fresh.heap_;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& event = events[i];
    if (static_cast<std::uint8_t>(event.kind) >= kEventKindCount) {
      throw util::SerialError("EventQueue: event " + std::to_string(i) +
                              " has invalid kind " +
                              std::to_string(static_cast<unsigned>(event.kind)));
    }
    if (!std::isfinite(event.time_s) || event.time_s < 0.0) {
      throw util::SerialError(
          "EventQueue: event " + std::to_string(i) +
          " has a non-finite or negative timestamp — corrupted frame");
    }
    if (event.seq >= fresh.next_seq_) {
      throw util::SerialError(
          "EventQueue: event " + std::to_string(i) + " carries seq " +
          std::to_string(event.seq) + " >= next_seq " +
          std::to_string(fresh.next_seq_) + " — corrupted frame");
    }
    // Canonical frames are strictly increasing in (time, seq); this also
    // proves every seq is unique.
    if (i > 0 && !events[i - 1].before(event)) {
      throw util::SerialError(
          "EventQueue: events " + std::to_string(i - 1) + " and " +
          std::to_string(i) +
          " are out of canonical (time, seq) order — corrupted frame");
    }
  }

  std::make_heap(fresh.heap_.begin(), fresh.heap_.end(), later);
  *this = std::move(fresh);
}

}  // namespace helcfl::fl
