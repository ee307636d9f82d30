#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

namespace {

std::atomic<std::uint64_t> g_next_instance{1};

// The calling thread's buffer in the recorder that last used it.  Pool
// threads outlive no recorder, but the driving thread serves several in
// turn, hence the instance check.
struct ThreadSlot {
  std::uint64_t instance = 0;
  void* buffer = nullptr;
};
thread_local ThreadSlot t_slot;

}  // namespace

SpanRecorder::SpanRecorder()
    : instance_(g_next_instance.fetch_add(1, std::memory_order_relaxed)),
      epoch_(std::chrono::steady_clock::now()) {}

SpanRecorder::Buffer& SpanRecorder::local_buffer() {
  if (t_slot.instance != instance_) {
    auto buffer = std::make_unique<Buffer>();
    buffer->spans.reserve(4096);
    t_slot = {instance_, buffer.get()};
    const std::lock_guard<std::mutex> lock(buffers_mutex_);
    buffers_.push_back(std::move(buffer));
  }
  return *static_cast<Buffer*>(t_slot.buffer);
}

void SpanRecorder::record(const Span& span) { local_buffer().spans.push_back(span); }

std::vector<Span> SpanRecorder::collect() const {
  std::vector<Span> all;
  const std::lock_guard<std::mutex> lock(buffers_mutex_);
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  std::stable_sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_ns < b.start_ns;
  });
  return all;
}

void SpanRecorder::write_jsonl(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) throw std::runtime_error("cannot write spans to " + path);
  for (const Span& s : collect()) {
    std::fprintf(out,
                 "{\"id\":%llu,\"parent\":%llu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"busy_ns\":%lld,\"calls\":%llu,\"work\":%.17g}\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.name,
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.busy_ns),
                 static_cast<unsigned long long>(s.calls), s.work);
  }
  if (std::fclose(out) != 0) throw std::runtime_error("error closing " + path);
}

}  // namespace perfbench
