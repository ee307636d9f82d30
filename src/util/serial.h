// Little-endian binary serialization primitives for checkpointing.
//
// Every stateful component that participates in checkpoint/resume
// (strategies, RNG streams, fault injector, batteries, the trainer itself)
// writes its state through a ByteWriter and restores it through a
// ByteReader.  The encoding is deliberately dumb: fixed-width little-endian
// integers, IEEE-754 bit patterns for floats, and u64 length prefixes for
// strings and vectors.  There is no schema negotiation here; the sealed
// image at the bottom adds the magic, version, and checksum envelope.
//
// Readers are strict: any read past the end of the buffer throws
// SerialError, and callers that expect to consume a buffer exactly call
// expect_end().  Nothing in this header ever silently truncates.
//
// Persisted records state their layout once, as a field walk
//
//   void fields(auto&& io, util::RecordOf<Foo> auto& r) { io(r.a); io(r.b); }
//
// that Save (r const) runs to write and Load (r mutable) runs to read, so a
// writer and its reader cannot drift apart.  Load only ever fills a fresh
// record; callers validate after the walk and commit with one move.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/rng.h"

namespace helcfl::util {

// The walk writes std::size_t fields through its u64 overload (LP64).
static_assert(std::is_same_v<std::size_t, std::uint64_t>);

/// Thrown on any malformed read: overrun, bad length prefix, trailing
/// bytes where none were expected.
class SerialError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Appends fixed-width little-endian values to a growable byte buffer.
class ByteWriter {
 public:
  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void f32(float v);   ///< IEEE-754 bit pattern, preserves NaN payloads
  void f64(double v);  ///< IEEE-754 bit pattern, preserves NaN payloads
  void boolean(bool v);

  /// u64 byte length followed by the raw bytes.
  void str(std::string_view s);

  /// Raw bytes, no length prefix (caller frames them).
  void raw(std::span<const std::uint8_t> bytes);

  /// u64 element count followed by each element.
  void vec_f32(std::span<const float> v);
  void vec_f64(std::span<const double> v);
  void vec_u64(std::span<const std::uint64_t> v);
  void vec_u8(std::span<const std::uint8_t> v);
  /// std::size_t vectors are widened to u64 on the wire.
  void vec_size(std::span<const std::size_t> v);

  const std::vector<std::uint8_t>& data() const { return buffer_; }
  std::vector<std::uint8_t> take() { return std::move(buffer_); }
  std::size_t size() const { return buffer_.size(); }

 private:
  /// u64 count, then `put` for each element.
  template <typename T>
  void write_all(std::span<const T> v, void (ByteWriter::*put)(T));

  std::vector<std::uint8_t> buffer_;
};

/// Consumes a byte buffer written by ByteWriter.  Borrow semantics: the
/// underlying bytes must outlive the reader.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  float f32();
  double f64();
  bool boolean();
  std::string str();

  /// Next `n` bytes without copying; advances the cursor.
  std::span<const std::uint8_t> raw(std::size_t n);

  std::vector<float> vec_f32();
  std::vector<double> vec_f64();
  std::vector<std::uint64_t> vec_u64();
  std::vector<std::uint8_t> vec_u8();
  std::vector<std::size_t> vec_size();

  std::size_t remaining() const { return data_.size() - cursor_; }
  bool done() const { return cursor_ == data_.size(); }

  /// Throws SerialError if any bytes remain unconsumed.  `what` names the
  /// structure being decoded so the error is actionable.
  void expect_end(std::string_view what) const;

 private:
  /// Bounds-checked element count for a vector of `elem_size`-byte items.
  std::size_t read_count(std::size_t elem_size);

  /// A bounds-checked count, then `get` for each element.
  template <typename T>
  std::vector<T> read_all(T (ByteReader::*get)());

  std::span<const std::uint8_t> data_;
  std::size_t cursor_ = 0;
};

/// FNV-1a 64-bit hash — the checkpoint payload checksum.  Not
/// cryptographic; it detects corruption, not tampering.
std::uint64_t fnv1a64(std::span<const std::uint8_t> data);

/// A sealed state image (fl::Checkpoint, the scheduler-service snapshot):
/// u32 magic | u32 version | u64 payload size | u64 fnv1a64(payload) |
/// payload.
inline constexpr std::size_t kSealHeaderBytes = 4 + 4 + 8 + 8;

/// Wraps `payload` in the sealed-image envelope.
std::vector<std::uint8_t> seal(std::uint32_t magic, std::uint32_t version,
                               std::span<const std::uint8_t> payload);

/// Validates a sealed image and returns its payload (a view into `image`).
/// Throws SerialError, naming the image `what` (e.g. "checkpoint"), when
/// the image is shorter than the header, has a bad magic or a foreign
/// version, is truncated or followed by trailing bytes, or fails the
/// checksum.
std::span<const std::uint8_t> open_sealed(std::span<const std::uint8_t> image,
                                          std::uint32_t magic, std::uint32_t version,
                                          std::string_view what);

/// `T` or `const T`: the record parameter of a fields() walk.
template <typename R, typename T>
concept RecordOf = std::same_as<std::remove_const_t<R>, T>;

/// The Rng::State layout: four state words, seed, Box-Muller cache.
void fields(auto&& io, RecordOf<Rng::State> auto& s) {
  for (auto& word : s.words) io(word);
  io(s.seed);
  io(s.cached_normal);
  io(s.has_cached_normal);
}

/// How a counted vector walks its sub-records unless told otherwise.
inline constexpr auto kFieldsWalk = [](auto& io, auto& record) { fields(io, record); };

/// One side of a fields() walk: Save (kLoad = false) writes each field to
/// a ByteWriter, Load (kLoad = true) reads it back from a ByteReader.  Both
/// sides share this one list of field kinds.
template <bool kLoad>
class FieldWalk {
 public:
  using Stream = std::conditional_t<kLoad, ByteReader, ByteWriter>;
  template <typename T>
  using Ref = std::conditional_t<kLoad, T&, const T&>;

  explicit FieldWalk(Stream& stream) : s_(stream) {}

  void operator()(Ref<std::uint64_t> v) { io(v, &ByteWriter::u64, &ByteReader::u64); }
  void operator()(Ref<std::uint8_t> v) { io(v, &ByteWriter::u8, &ByteReader::u8); }
  void operator()(Ref<double> v) { io(v, &ByteWriter::f64, &ByteReader::f64); }
  void operator()(Ref<bool> v) { io(v, &ByteWriter::boolean, &ByteReader::boolean); }
  void operator()(Ref<std::string> v) { io(v, &ByteWriter::str, &ByteReader::str); }
  void operator()(Ref<std::vector<float>> v) {
    io(v, &ByteWriter::vec_f32, &ByteReader::vec_f32);
  }
  void operator()(Ref<std::vector<double>> v) {
    io(v, &ByteWriter::vec_f64, &ByteReader::vec_f64);
  }
  void operator()(Ref<std::vector<std::uint64_t>> v) {
    io(v, &ByteWriter::vec_u64, &ByteReader::vec_u64);
  }
  void operator()(Ref<std::vector<std::uint8_t>> v) {
    io(v, &ByteWriter::vec_u8, &ByteReader::vec_u8);
  }
  void operator()(Ref<Rng> rng) {
    Rng::State state = rng.state();
    fields(*this, state);
    if constexpr (kLoad) rng.set_state(state);
  }
  template <typename E>
    requires std::is_enum_v<std::remove_const_t<E>>
  void operator()(E& e) {
    auto raw = static_cast<std::underlying_type_t<std::remove_const_t<E>>>(e);
    (*this)(raw);
    if constexpr (kLoad) e = static_cast<E>(raw);
  }
  /// A component that keeps its own frame (save_state/load_state).
  template <typename T>
    requires requires(T& t, Stream& s) { t.save_state(s); } ||
             requires(T& t, Stream& s) { t.load_state(s); }
  void operator()(T& component) {
    if constexpr (kLoad) {
      component.load_state(s_);
    } else {
      component.save_state(s_);
    }
  }
  /// Presence flag, then the sub-record if present.
  template <typename O>
    requires std::same_as<std::remove_const_t<O>, std::optional<typename O::value_type>>
  void operator()(O& record) {
    bool present = record.has_value();
    (*this)(present);
    if constexpr (kLoad) {
      record.reset();
      if (present) record.emplace();
    }
    if (present) fields(*this, *record);
  }
  /// u64 count, then each sub-record.  Load rejects a count the remaining
  /// bytes cannot hold (`min_bytes` per record) before reserving anything;
  /// the error names the records `what`.
  template <typename C, typename Walk = decltype(kFieldsWalk)>
  void operator()(C& records, std::size_t min_bytes, std::string_view what,
                  Walk walk = kFieldsWalk) {
    std::uint64_t count = records.size();
    (*this)(count);
    if constexpr (kLoad) {
      if (count > s_.remaining() / min_bytes) {
        throw SerialError("frame declares " + std::to_string(count) + " " +
                          std::string(what) + " but only " +
                          std::to_string(s_.remaining()) +
                          " byte(s) remain — corrupted or malformed");
      }
      records.clear();
      if constexpr (requires { records.reserve(count); }) records.reserve(count);
      for (std::uint64_t i = 0; i < count; ++i) walk(*this, records.emplace_back());
    } else {
      for (const auto& record : records) walk(*this, record);
    }
  }
  /// One member of every record as a u64-counted vector; Load fills the
  /// existing records and rejects any other count.
  template <typename V, typename M>
  void column(V& records, M member) {
    std::uint64_t count = records.size();
    (*this)(count);
    if (count != records.size()) {
      throw SerialError("frame holds a column of " + std::to_string(count) +
                        " entries for " + std::to_string(records.size()) + " records");
    }
    for (auto& record : records) (*this)(record.*member);
  }
  /// A configuration echo: Save writes `value`; Load reads the saved one
  /// and throws SerialError, naming the field, unless the two are equal.
  template <typename T>
  void echo(const T& value, std::string_view name) {
    T saved = value;
    (*this)(saved);
    if (kLoad && saved != value) {
      const auto text = [](const T& v) {
        if constexpr (std::is_same_v<T, std::string>) return v;
        else return std::to_string(v);
      };
      throw SerialError(std::string(name) + " mismatch: saved " + text(saved) +
                        ", this one has " + text(value));
    }
  }

 private:
  void io(auto& v, auto put, auto get) {
    if constexpr (kLoad) {
      v = (s_.*get)();
    } else {
      (s_.*put)(v);
    }
  }

  Stream& s_;
};

using Save = FieldWalk<false>;
using Load = FieldWalk<true>;

/// `record`'s walk (or a component's save_state() frame) as bytes.
template <typename R>
std::vector<std::uint8_t> to_bytes(const R& record) {
  ByteWriter out;
  Save io(out);
  if constexpr (requires { record.save_state(out); }) {
    io(record);
  } else {
    fields(io, record);
  }
  return out.take();
}

/// Walks exactly `bytes` into a fresh R; `what` names it in the
/// trailing-bytes error.
template <typename R>
R from_bytes(std::span<const std::uint8_t> bytes, std::string_view what) {
  ByteReader in(bytes);
  Load io(in);
  R record{};
  fields(io, record);
  in.expect_end(what);
  return record;
}

/// component.load_state() over exactly `frame`; `what` names the frame in
/// the trailing-bytes error.  load_state() commits what it parsed before
/// the end can be checked, so a frame with trailing bytes is undone from a
/// pre-load snapshot: a throw always leaves `component` unchanged.
template <typename T>
void load_state_exact(T& component, std::span<const std::uint8_t> frame,
                      std::string_view what) {
  const std::vector<std::uint8_t> before = to_bytes(component);
  ByteReader in(frame);
  component.load_state(in);
  if (in.done()) return;
  ByteReader undo(before);
  component.load_state(undo);
  in.expect_end(what);
}

/// Serializes a full Rng cursor (state words, seed, Box-Muller cache).
void write_rng(ByteWriter& out, const Rng& rng);

/// Restores an Rng cursor written by write_rng().
Rng read_rng(ByteReader& in);

}  // namespace helcfl::util
