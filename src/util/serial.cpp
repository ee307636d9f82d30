#include "util/serial.h"

#include <bit>
#include <cstring>
#include <type_traits>

namespace helcfl::util {

namespace {

template <typename T>
void append_le(std::vector<std::uint8_t>& buffer, T value) {
  static_assert(std::is_unsigned_v<T>);
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    buffer.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
  }
}

/// Out-of-bounds reads name the offending offset so a malformed buffer
/// can be diagnosed from the error message alone.
[[noreturn]] void fail_overrun(std::size_t need, std::size_t offset,
                               std::size_t size) {
  throw SerialError("ByteReader: read of " + std::to_string(need) +
                    " byte(s) at offset " + std::to_string(offset) +
                    " past end of " + std::to_string(size) + "-byte buffer");
}

}  // namespace

void ByteWriter::u8(std::uint8_t v) { buffer_.push_back(v); }
void ByteWriter::u32(std::uint32_t v) { append_le(buffer_, v); }
void ByteWriter::u64(std::uint64_t v) { append_le(buffer_, v); }
void ByteWriter::f32(float v) { u32(std::bit_cast<std::uint32_t>(v)); }
void ByteWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
void ByteWriter::boolean(bool v) { u8(v ? 1 : 0); }

void ByteWriter::str(std::string_view s) {
  u64(s.size());
  buffer_.insert(buffer_.end(), s.begin(), s.end());
}

void ByteWriter::raw(std::span<const std::uint8_t> bytes) {
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

template <typename T>
void ByteWriter::write_all(std::span<const T> v, void (ByteWriter::*put)(T)) {
  u64(v.size());
  for (const T x : v) (this->*put)(x);
}

void ByteWriter::vec_f32(std::span<const float> v) { write_all(v, &ByteWriter::f32); }
void ByteWriter::vec_f64(std::span<const double> v) { write_all(v, &ByteWriter::f64); }
void ByteWriter::vec_u64(std::span<const std::uint64_t> v) { write_all(v, &ByteWriter::u64); }

void ByteWriter::vec_u8(std::span<const std::uint8_t> v) {
  u64(v.size());
  raw(v);
}

void ByteWriter::vec_size(std::span<const std::size_t> v) { vec_u64(v); }

std::uint8_t ByteReader::u8() {
  if (remaining() < 1) fail_overrun(1, cursor_, data_.size());
  return data_[cursor_++];
}

std::uint32_t ByteReader::u32() {
  if (remaining() < 4) fail_overrun(4, cursor_, data_.size());
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(data_[cursor_ + i]) << (8 * i);
  }
  cursor_ += 4;
  return v;
}

std::uint64_t ByteReader::u64() {
  if (remaining() < 8) fail_overrun(8, cursor_, data_.size());
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(data_[cursor_ + i]) << (8 * i);
  }
  cursor_ += 8;
  return v;
}

float ByteReader::f32() { return std::bit_cast<float>(u32()); }
double ByteReader::f64() { return std::bit_cast<double>(u64()); }

bool ByteReader::boolean() {
  const std::uint8_t v = u8();
  if (v > 1) throw SerialError("ByteReader: boolean byte is neither 0 nor 1");
  return v != 0;
}

std::string ByteReader::str() {
  const std::size_t n = read_count(1);
  std::string s(reinterpret_cast<const char*>(data_.data() + cursor_), n);
  cursor_ += n;
  return s;
}

std::span<const std::uint8_t> ByteReader::raw(std::size_t n) {
  if (remaining() < n) fail_overrun(n, cursor_, data_.size());
  const auto view = data_.subspan(cursor_, n);
  cursor_ += n;
  return view;
}

std::size_t ByteReader::read_count(std::size_t elem_size) {
  const std::size_t prefix_offset = cursor_;
  const std::uint64_t n = u64();
  // Reject counts the remaining bytes cannot possibly satisfy *before*
  // sizing a vector from them: a corrupt length prefix must fail cleanly,
  // not attempt a huge allocation.
  if (n > remaining() / elem_size) {
    throw SerialError("ByteReader: length prefix " + std::to_string(n) +
                      " at offset " + std::to_string(prefix_offset) +
                      " exceeds the " + std::to_string(remaining()) +
                      " remaining byte(s)");
  }
  return static_cast<std::size_t>(n);
}

template <typename T>
std::vector<T> ByteReader::read_all(T (ByteReader::*get)()) {
  std::vector<T> v(read_count(sizeof(T)));
  for (auto& x : v) x = (this->*get)();
  return v;
}

std::vector<float> ByteReader::vec_f32() { return read_all(&ByteReader::f32); }
std::vector<double> ByteReader::vec_f64() { return read_all(&ByteReader::f64); }
std::vector<std::uint64_t> ByteReader::vec_u64() { return read_all(&ByteReader::u64); }

std::vector<std::uint8_t> ByteReader::vec_u8() {
  const std::size_t n = read_count(1);
  const auto view = raw(n);
  return std::vector<std::uint8_t>(view.begin(), view.end());
}

std::vector<std::size_t> ByteReader::vec_size() { return vec_u64(); }

void ByteReader::expect_end(std::string_view what) const {
  if (!done()) {
    throw SerialError(std::string(what) + ": " + std::to_string(remaining()) +
                      " trailing byte(s) after the last field");
  }
}

std::uint64_t fnv1a64(std::span<const std::uint8_t> data) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const std::uint8_t byte : data) {
    hash ^= byte;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::vector<std::uint8_t> seal(std::uint32_t magic, std::uint32_t version,
                               std::span<const std::uint8_t> payload) {
  ByteWriter image;
  image.u32(magic);
  image.u32(version);
  image.u64(payload.size());
  image.u64(fnv1a64(payload));
  image.raw(payload);
  return image.take();
}

std::span<const std::uint8_t> open_sealed(std::span<const std::uint8_t> image,
                                          std::uint32_t magic, std::uint32_t version,
                                          std::string_view what) {
  const std::string name(what);
  if (image.size() < kSealHeaderBytes) {
    throw SerialError(name + " is truncated: " + std::to_string(image.size()) +
                      " bytes, shorter than the " +
                      std::to_string(kSealHeaderBytes) + "-byte header");
  }
  ByteReader header(image.subspan(0, kSealHeaderBytes));
  if (header.u32() != magic) {
    std::string expected(4, ' ');
    for (std::size_t i = 0; i < 4; ++i) expected[i] = static_cast<char>(magic >> (8 * i));
    throw SerialError("not a " + name + ": bad magic (expected \"" + expected + "\")");
  }
  const std::uint32_t found = header.u32();
  if (found != version) {
    throw SerialError(name + " version " + std::to_string(found) +
                      " is not supported by this build (expected version " +
                      std::to_string(version) + ")" +
                      (found > version ? "; it was probably written by a newer release"
                                       : ""));
  }
  const std::uint64_t payload_size = header.u64();
  const std::uint64_t checksum = header.u64();
  const std::span<const std::uint8_t> payload = image.subspan(kSealHeaderBytes);
  if (payload_size > payload.size()) {
    throw SerialError(name + " is truncated: header declares a " +
                      std::to_string(payload_size) + "-byte payload but only " +
                      std::to_string(payload.size()) + " bytes follow");
  }
  if (payload_size < payload.size()) {
    throw SerialError(name + " has " + std::to_string(payload.size() - payload_size) +
                      " trailing byte(s) after the declared payload");
  }
  if (fnv1a64(payload) != checksum) {
    throw SerialError(name + " payload checksum mismatch: the file is corrupted");
  }
  return payload;
}

void write_rng(ByteWriter& out, const Rng& rng) { Save{out}(rng); }

Rng read_rng(ByteReader& in) {
  Rng rng;
  Load{in}(rng);
  return rng;
}

}  // namespace helcfl::util
