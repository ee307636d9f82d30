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
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace helcfl::util {

class Rng;

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

/// Serializes a full Rng cursor (state words, seed, Box-Muller cache).
void write_rng(ByteWriter& out, const Rng& rng);

/// Restores an Rng cursor written by write_rng().
Rng read_rng(ByteReader& in);

}  // namespace helcfl::util
