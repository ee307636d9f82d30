#include "svc/frame.h"

#include <algorithm>
#include <cstring>

namespace helcfl::svc {

namespace {

/// Reads the fixed-width header fields from a buffer known to hold at
/// least kFrameHeaderBytes.
struct Header {
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  std::uint32_t type = 0;
  std::uint64_t payload_size = 0;
  std::uint64_t checksum = 0;
};

Header parse_header(std::span<const std::uint8_t> bytes) {
  util::ByteReader in(bytes.subspan(0, kFrameHeaderBytes));
  Header h;
  h.magic = in.u32();
  h.version = in.u32();
  h.type = in.u32();
  h.payload_size = in.u64();
  h.checksum = in.u64();
  return h;
}

const std::uint8_t kMagicBytes[4] = {
    static_cast<std::uint8_t>(kFrameMagic & 0xFF),
    static_cast<std::uint8_t>((kFrameMagic >> 8) & 0xFF),
    static_cast<std::uint8_t>((kFrameMagic >> 16) & 0xFF),
    static_cast<std::uint8_t>((kFrameMagic >> 24) & 0xFF),
};

}  // namespace

bool is_known_type(std::uint32_t type) {
  switch (static_cast<MsgType>(type)) {
    case MsgType::kDeviceReport:
    case MsgType::kReportAck:
    case MsgType::kDecisionRequest:
    case MsgType::kDecisionResponse:
      return true;
  }
  return false;
}

std::string_view frame_error_name(FrameError error) {
  switch (error) {
    case FrameError::kBadMagic: return "bad_magic";
    case FrameError::kBadVersion: return "bad_version";
    case FrameError::kBadType: return "bad_type";
    case FrameError::kOversized: return "oversized";
    case FrameError::kChecksumMismatch: return "checksum_mismatch";
    case FrameError::kTruncated: return "truncated";
  }
  return "unknown";
}

std::vector<std::uint8_t> encode_frame(const Frame& frame) {
  util::ByteWriter out;
  out.u32(kFrameMagic);
  out.u32(kFrameVersion);
  out.u32(static_cast<std::uint32_t>(frame.type));
  out.u64(frame.payload.size());
  out.u64(util::fnv1a64(frame.payload));
  out.raw(frame.payload);
  return out.take();
}

std::uint32_t peek_frame_type(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kFrameHeaderBytes) return 0;
  util::ByteReader in(bytes.subspan(4 + 4, 4));  // after magic and version
  return in.u32();
}

std::uint64_t peek_payload_u64(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kFrameHeaderBytes + 8) return UINT64_MAX;
  util::ByteReader in(bytes.subspan(kFrameHeaderBytes, 8));
  return in.u64();
}

void FrameDecoder::feed(std::span<const std::uint8_t> bytes) {
  // Compact lazily: only when the dead prefix dominates the live bytes, so
  // feed/next cycles stay amortized O(bytes).
  if (head_ > 4096 && head_ > buffer_.size() - head_) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

std::size_t FrameDecoder::skip_to_magic() {
  const std::size_t start = head_;
  while (buffer_.size() - head_ >= 4) {
    if (std::memcmp(buffer_.data() + head_, kMagicBytes, 4) == 0) break;
    ++head_;
  }
  // Fewer than 4 bytes left: they can only be a magic prefix — keep the
  // longest suffix that still matches, drop the rest.
  while (buffer_.size() - head_ < 4 && buffer_.size() > head_) {
    const std::size_t n = buffer_.size() - head_;
    if (std::memcmp(buffer_.data() + head_, kMagicBytes, n) == 0) break;
    ++head_;
  }
  return head_ - start;
}

FrameDecoder::Result FrameDecoder::next(Frame& out, FrameError& error) {
  // Hunt for a plausible frame start first so garbage never blocks the
  // header parse below.  Skipped bytes are charged to the *next* result:
  // if we had to skip, report one kBadMagic rejection for the whole gap.
  const std::size_t skipped = skip_to_magic();
  if (skipped > 0) {
    stats_.resync_bytes += skipped;
    ++stats_.rejected;
    error = FrameError::kBadMagic;
    return Result::kRejected;
  }

  const std::size_t available = buffer_.size() - head_;
  if (available < kFrameHeaderBytes) return Result::kNeedMore;

  const Header h =
      parse_header(std::span<const std::uint8_t>(buffer_).subspan(head_));

  // Header-level rejections consume the magic so the resync scan moves
  // past this frame start instead of spinning on it.
  if (h.version != kFrameVersion) {
    head_ += 4;
    ++stats_.rejected;
    error = FrameError::kBadVersion;
    return Result::kRejected;
  }
  if (h.payload_size > kMaxPayloadBytes) {
    head_ += 4;
    ++stats_.rejected;
    error = FrameError::kOversized;
    return Result::kRejected;
  }
  if (!is_known_type(h.type)) {
    head_ += 4;
    ++stats_.rejected;
    error = FrameError::kBadType;
    return Result::kRejected;
  }

  if (available < kFrameHeaderBytes + h.payload_size) return Result::kNeedMore;

  const std::span<const std::uint8_t> payload(
      buffer_.data() + head_ + kFrameHeaderBytes,
      static_cast<std::size_t>(h.payload_size));
  if (util::fnv1a64(payload) != h.checksum) {
    // The payload bits are untrustworthy, and so is the length that framed
    // them — consume only the magic and let the resync scan find the next
    // genuine frame start.
    head_ += 4;
    ++stats_.rejected;
    error = FrameError::kChecksumMismatch;
    return Result::kRejected;
  }

  out.type = static_cast<MsgType>(h.type);
  out.payload.assign(payload.begin(), payload.end());
  head_ += kFrameHeaderBytes + static_cast<std::size_t>(h.payload_size);
  ++stats_.frames;
  return Result::kFrame;
}

void FrameDecoder::reset() {
  buffer_.clear();
  head_ = 0;
}

void decode_datagram(std::span<const std::uint8_t> bytes,
                     std::vector<Frame>& out, std::vector<FrameError>& errors) {
  FrameDecoder decoder;
  decoder.feed(bytes);
  Frame frame;
  FrameError error;
  for (;;) {
    switch (decoder.next(frame, error)) {
      case FrameDecoder::Result::kFrame:
        out.push_back(std::move(frame));
        frame = Frame{};
        break;
      case FrameDecoder::Result::kRejected:
        errors.push_back(error);
        break;
      case FrameDecoder::Result::kNeedMore:
        // A buffered residue is a torn frame: datagram transports will
        // never deliver the remainder.
        if (decoder.buffered() > 0) errors.push_back(FrameError::kTruncated);
        return;
    }
  }
}

// --- messages ------------------------------------------------------------

Frame encode(const DeviceReport& msg) {
  return Frame{MsgType::kDeviceReport, util::to_bytes(msg)};
}

Frame encode(const ReportAck& msg) {
  return Frame{MsgType::kReportAck, util::to_bytes(msg)};
}

Frame encode(const DecisionRequest& msg) {
  return Frame{MsgType::kDecisionRequest, util::to_bytes(msg)};
}

Frame encode(const DecisionResponse& msg) {
  return Frame{MsgType::kDecisionResponse, util::to_bytes(msg)};
}

DeviceReport decode_device_report(std::span<const std::uint8_t> payload) {
  return util::from_bytes<DeviceReport>(payload, "DeviceReport");
}

ReportAck decode_report_ack(std::span<const std::uint8_t> payload) {
  return util::from_bytes<ReportAck>(payload, "ReportAck");
}

DecisionRequest decode_decision_request(std::span<const std::uint8_t> payload) {
  return util::from_bytes<DecisionRequest>(payload, "DecisionRequest");
}

DecisionResponse decode_decision_response(std::span<const std::uint8_t> payload) {
  DecisionResponse msg = util::from_bytes<DecisionResponse>(payload, "DecisionResponse");
  if (msg.selected.size() != msg.frequencies_hz.size()) {
    throw util::SerialError(
        "DecisionResponse: selected/frequencies length mismatch (" +
        std::to_string(msg.selected.size()) + " vs " +
        std::to_string(msg.frequencies_hz.size()) + ")");
  }
  return msg;
}

}  // namespace helcfl::svc
