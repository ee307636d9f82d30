// fl::EventQueue: the deterministically ordered heart of the async engine
// (docs/ASYNC.md).  Pops come out in strict (time_s, seq) order — seq is
// unique, so the order is total and independent of insertion order and of
// how pushes interleave with pops; the canonical serialization round-trips
// byte-identically; and a malformed frame is rejected leaving the target
// queue untouched.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "fl/event_queue.h"
#include "util/rng.h"
#include "util/serial.h"

namespace helcfl::fl {
namespace {

Event make_event(double time_s, std::uint64_t seq, EventKind kind,
                 std::uint64_t user = 0, std::uint64_t tag = 0,
                 double value = 0.0) {
  return Event{time_s, seq, kind, user, tag, value};
}

std::vector<Event> drain(EventQueue& queue) {
  std::vector<Event> events;
  while (!queue.empty()) events.push_back(queue.pop());
  return events;
}

std::vector<std::uint8_t> frame_bytes(const EventQueue& queue) {
  util::ByteWriter writer;
  queue.save_state(writer);
  return writer.take();
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue queue;
  queue.push(3.0, EventKind::kComputeFinish, 1);
  queue.push(1.0, EventKind::kUploadFinish, 2);
  queue.push(2.0, EventKind::kFault, 3);

  EXPECT_EQ(queue.size(), 3U);
  EXPECT_EQ(queue.top().user, 2U);
  const std::vector<Event> events = drain(queue);
  ASSERT_EQ(events.size(), 3U);
  EXPECT_EQ(events[0].time_s, 1.0);
  EXPECT_EQ(events[1].time_s, 2.0);
  EXPECT_EQ(events[2].time_s, 3.0);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, EqualTimestampsPopInInsertionOrder) {
  // Four events at the same instant: the seq tie-break makes the pop order
  // exactly the push order — the property the async engine's uplink leans
  // on (TDMA grants pushed in grant order pop in grant order).
  EventQueue queue;
  for (std::uint64_t user = 0; user < 4; ++user) {
    queue.push(5.0, EventKind::kUploadFinish, user);
  }
  const std::vector<Event> events = drain(queue);
  ASSERT_EQ(events.size(), 4U);
  for (std::uint64_t user = 0; user < 4; ++user) {
    EXPECT_EQ(events[user].user, user);
    EXPECT_EQ(events[user].seq, user);
  }
}

TEST(EventQueue, SeqAssignmentIsSequentialAndSurvivesClear) {
  EventQueue queue;
  EXPECT_EQ(queue.push(1.0, EventKind::kChurn, 0), 0U);
  EXPECT_EQ(queue.push(1.0, EventKind::kChurn, 0), 1U);
  EXPECT_EQ(queue.next_seq(), 2U);
  queue.clear();
  EXPECT_TRUE(queue.empty());
  // clear() empties the heap but never reuses sequence numbers: a reused
  // seq would silently reorder equal-time events across epochs.
  EXPECT_EQ(queue.push(1.0, EventKind::kChurn, 0), 2U);
}

TEST(EventQueue, FuzzedPopOrderMatchesStableSortForAnyInsertionOrder) {
  // Heavily colliding timestamps (8 distinct values for 200 events): the
  // pop sequence must equal the push sequence stably sorted by time.
  util::Rng rng(0xE7E11);
  for (int trial = 0; trial < 20; ++trial) {
    EventQueue queue;
    std::vector<Event> pushed;
    const std::size_t n = 200;
    for (std::size_t i = 0; i < n; ++i) {
      const double time = static_cast<double>(rng.uniform_int(0, 7));
      const auto kind = static_cast<EventKind>(rng.uniform_int(0, 3));
      const auto user = static_cast<std::uint64_t>(rng.uniform_int(0, 15));
      const auto tag = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 20));
      const double value = rng.uniform();
      const std::uint64_t seq = queue.push(time, kind, user, tag, value);
      pushed.push_back(make_event(time, seq, kind, user, tag, value));
    }
    std::stable_sort(pushed.begin(), pushed.end(),
                     [](const Event& a, const Event& b) { return a.before(b); });
    EXPECT_EQ(drain(queue), pushed) << "trial " << trial;
  }
}

TEST(EventQueue, FuzzedInterleavedPushPopKeepsHeapInvariant) {
  // Random push/pop interleavings against a reference model: every pop
  // must return the (time, seq)-minimum of the current content.
  util::Rng rng(0xBEEFCAFE);
  for (int trial = 0; trial < 10; ++trial) {
    EventQueue queue;
    std::vector<Event> model;  // kept sorted by before()
    for (int op = 0; op < 500; ++op) {
      const bool do_pop = !model.empty() && rng.bernoulli(0.4);
      if (do_pop) {
        const Event expected = model.front();
        model.erase(model.begin());
        EXPECT_EQ(queue.pop(), expected) << "trial " << trial << " op " << op;
      } else {
        const double time = static_cast<double>(rng.uniform_int(0, 9)) / 2.0;
        const auto user = static_cast<std::uint64_t>(rng.uniform_int(0, 7));
        const std::uint64_t seq =
            queue.push(time, EventKind::kComputeFinish, user);
        const Event event = make_event(time, seq, EventKind::kComputeFinish, user);
        model.insert(std::upper_bound(model.begin(), model.end(), event,
                                      [](const Event& a, const Event& b) {
                                        return a.before(b);
                                      }),
                     event);
      }
      ASSERT_EQ(queue.size(), model.size());
      if (!model.empty()) EXPECT_EQ(queue.top(), model.front());
    }
  }
}

TEST(EventQueue, SortedEventsMatchesPopOrderWithoutDraining) {
  util::Rng rng(77);
  EventQueue queue;
  for (int i = 0; i < 64; ++i) {
    queue.push(static_cast<double>(rng.uniform_int(0, 3)),
               static_cast<EventKind>(rng.uniform_int(0, 3)),
               static_cast<std::uint64_t>(i));
  }
  const std::vector<Event> sorted = queue.sorted_events();
  EXPECT_EQ(queue.size(), 64U);  // sorted_events is non-destructive
  EXPECT_EQ(drain(queue), sorted);
}

TEST(EventQueue, SerializationRoundTripsByteIdentically) {
  util::Rng rng(0x5E41A1);
  EventQueue queue;
  for (int i = 0; i < 100; ++i) {
    queue.push(static_cast<double>(rng.uniform_int(0, 5)),
               static_cast<EventKind>(rng.uniform_int(0, 3)),
               static_cast<std::uint64_t>(rng.uniform_int(0, 30)),
               static_cast<std::uint64_t>(rng.uniform_int(0, 1000)),
               rng.uniform());
  }
  // Pop a few so the serialized heap is a mid-run snapshot, not pristine.
  for (int i = 0; i < 17; ++i) queue.pop();

  const std::vector<std::uint8_t> bytes = frame_bytes(queue);
  EventQueue loaded;
  util::ByteReader reader(bytes);
  loaded.load_state(reader);
  reader.expect_end("event queue frame");

  // Canonical form: re-serializing the loaded queue is byte-identical.
  EXPECT_EQ(frame_bytes(loaded), bytes);
  EXPECT_EQ(loaded.next_seq(), queue.next_seq());
  EXPECT_EQ(loaded.sorted_events(), queue.sorted_events());
  EXPECT_EQ(drain(loaded), drain(queue));
}

TEST(EventQueue, LoadedQueueContinuesSeqAssignment) {
  EventQueue queue;
  queue.push(1.0, EventKind::kChurn, 0);
  queue.push(2.0, EventKind::kChurn, 0);
  const std::vector<std::uint8_t> bytes = frame_bytes(queue);

  EventQueue loaded;
  util::ByteReader reader(bytes);
  loaded.load_state(reader);
  // New pushes must not collide with restored seqs.
  EXPECT_EQ(loaded.push(0.5, EventKind::kChurn, 0), 2U);
  const std::vector<Event> events = drain(loaded);
  ASSERT_EQ(events.size(), 3U);
  EXPECT_EQ(events[0].seq, 2U);  // earliest time wins despite newest seq
}

TEST(EventQueue, PushRejectsNonFiniteAndNegativeTimes) {
  EventQueue queue;
  EXPECT_THROW(queue.push(std::numeric_limits<double>::quiet_NaN(),
                          EventKind::kChurn, 0),
               std::invalid_argument);
  EXPECT_THROW(queue.push(std::numeric_limits<double>::infinity(),
                          EventKind::kChurn, 0),
               std::invalid_argument);
  EXPECT_THROW(queue.push(-1.0, EventKind::kChurn, 0), std::invalid_argument);
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.next_seq(), 0U);  // failed pushes burn no seq
}

TEST(EventQueue, TopAndPopOnEmptyThrow) {
  EventQueue queue;
  EXPECT_THROW(queue.top(), std::logic_error);
  EXPECT_THROW(queue.pop(), std::logic_error);
}

// Builds a hand-crafted frame: next_seq, count, then (time, seq, kind,
// user, tag, value) per event — the canonical layout of save_state.
std::vector<std::uint8_t> craft_frame(
    std::uint64_t next_seq,
    const std::vector<Event>& events) {
  util::ByteWriter writer;
  writer.u64(next_seq);
  writer.u64(events.size());
  for (const Event& e : events) {
    writer.f64(e.time_s);
    writer.u64(e.seq);
    writer.u8(static_cast<std::uint8_t>(e.kind));
    writer.u64(e.user);
    writer.u64(e.tag);
    writer.f64(e.value);
  }
  return writer.take();
}

void expect_load_rejected(const std::vector<std::uint8_t>& bytes) {
  EventQueue target;
  target.push(9.0, EventKind::kChurn, 42);  // pre-existing content
  const std::vector<std::uint8_t> before = frame_bytes(target);
  util::ByteReader reader(bytes);
  EXPECT_ANY_THROW(target.load_state(reader));
  // Parse-then-commit: the rejected frame left the target untouched.
  EXPECT_EQ(frame_bytes(target), before);
}

TEST(EventQueue, LoadRejectsTruncatedFrame) {
  EventQueue queue;
  queue.push(1.0, EventKind::kComputeFinish, 3);
  std::vector<std::uint8_t> bytes = frame_bytes(queue);
  bytes.resize(bytes.size() - 5);
  expect_load_rejected(bytes);
}

TEST(EventQueue, LoadRejectsAbsurdCount) {
  util::ByteWriter writer;
  writer.u64(10);                  // next_seq
  writer.u64(1'000'000'000'000ULL);  // count with no bytes behind it
  expect_load_rejected(writer.take());
}

TEST(EventQueue, LoadRejectsUnknownKind) {
  expect_load_rejected(craft_frame(
      1, {make_event(1.0, 0, static_cast<EventKind>(kEventKindCount))}));
}

TEST(EventQueue, LoadRejectsNonFiniteTime) {
  expect_load_rejected(craft_frame(
      1, {make_event(std::numeric_limits<double>::quiet_NaN(), 0,
                     EventKind::kChurn)}));
}

TEST(EventQueue, LoadRejectsSeqBeyondCursor) {
  // seq 7 with next_seq 3: a future push would collide.
  expect_load_rejected(craft_frame(3, {make_event(1.0, 7, EventKind::kChurn)}));
}

TEST(EventQueue, LoadRejectsOutOfOrderAndDuplicateEvents) {
  // Canonical frames are strictly increasing in (time, seq); both a swap
  // and a duplicate violate that.
  expect_load_rejected(craft_frame(4, {make_event(2.0, 1, EventKind::kChurn),
                                       make_event(1.0, 0, EventKind::kChurn)}));
  expect_load_rejected(craft_frame(4, {make_event(1.0, 2, EventKind::kChurn),
                                       make_event(1.0, 2, EventKind::kChurn)}));
}

TEST(EventQueue, EventBeforeIsStrictTotalOrder) {
  const Event a = make_event(1.0, 0, EventKind::kChurn);
  const Event b = make_event(1.0, 1, EventKind::kChurn);
  const Event c = make_event(2.0, 0, EventKind::kChurn);
  EXPECT_TRUE(a.before(b));
  EXPECT_FALSE(b.before(a));
  EXPECT_TRUE(a.before(c));
  EXPECT_TRUE(b.before(c));
  EXPECT_FALSE(a.before(a));
}

}  // namespace
}  // namespace helcfl::fl
