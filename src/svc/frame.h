// Framed wire protocol of the FLCC scheduler service (DESIGN.md §13).
//
// The service and its clients exchange length-prefixed, checksummed binary
// frames built on util/serial.h.  The framing is designed robustness-first:
// a receiver must survive truncated, oversized, bit-flipped, duplicated,
// and reordered input without crashing, leaking, or misparsing a later
// healthy frame.  Layout (all little-endian):
//
//   u32 magic "HSVC" | u32 version | u32 type | u64 payload_size
//   u64 fnv1a64(payload) | payload_size bytes of payload
//
// The checksum covers the payload only, so header corruption and payload
// corruption are detected (and counted) as distinct failures.  A payload
// size above kMaxPayloadBytes is rejected *before* any buffering sized
// from it — a flipped bit in the length field must not become a multi-GB
// allocation.  After any rejection the decoder resynchronizes by scanning
// for the next magic, so one corrupt frame never poisons the frames that
// follow it.
//
// Duplicate suppression is deliberately NOT here: the frame layer cannot
// know message semantics.  The service dedups on the per-sender sequence
// numbers carried inside each payload (svc/service.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "util/serial.h"

namespace helcfl::svc {

/// "HSVC" read little-endian.
inline constexpr std::uint32_t kFrameMagic = 0x43565348;
inline constexpr std::uint32_t kFrameVersion = 1;
/// magic + version + type + payload_size + checksum.
inline constexpr std::size_t kFrameHeaderBytes = 4 + 4 + 4 + 8 + 8;
/// Upper bound on a single payload; large enough for a decision over a
/// 100k-user fleet, small enough that a corrupt length field cannot force
/// a giant allocation.
inline constexpr std::size_t kMaxPayloadBytes = std::size_t{4} << 20;

/// Wire message types.  Values are part of the protocol; never renumber.
enum class MsgType : std::uint32_t {
  kDeviceReport = 1,      ///< device → service: state report (renews lease)
  kReportAck = 2,         ///< service → device: report applied (or re-ack)
  kDecisionRequest = 3,   ///< controller → service: run one selection round
  kDecisionResponse = 4,  ///< service → controller: (selection, frequency)
};

/// True iff `type` is a known MsgType value.
bool is_known_type(std::uint32_t type);

/// One decoded frame: type plus raw payload bytes (parse via the message
/// helpers below).
struct Frame {
  MsgType type = MsgType::kDeviceReport;
  std::vector<std::uint8_t> payload;
};

/// Why a frame was rejected.  Every value maps to a `svc.frames_rejected`
/// increment and names the counter suffix used by the service.
enum class FrameError : std::uint8_t {
  kBadMagic = 0,    ///< resynchronized past garbage to find this out
  kBadVersion,      ///< magic matched but the version is foreign
  kBadType,         ///< unknown MsgType value
  kOversized,       ///< declared payload_size > kMaxPayloadBytes
  kChecksumMismatch,  ///< payload bits do not hash to the header checksum
  kTruncated,       ///< datagram ended mid-frame (datagram mode only)
};

/// Stable lowercase label ("bad_magic", "checksum_mismatch", ...).
std::string_view frame_error_name(FrameError error);

/// Encodes one frame: header (with payload checksum) + payload.
std::vector<std::uint8_t> encode_frame(const Frame& frame);

/// Raw type field of an encoded frame, read from its header without a
/// checksum pass; 0 (no MsgType) when `bytes` is shorter than a header.
std::uint32_t peek_frame_type(std::span<const std::uint8_t> bytes);

/// First u64 of an encoded frame's payload (a ReportAck's device_id) without
/// a full decode; UINT64_MAX when the frame is too short to hold one.
std::uint64_t peek_payload_u64(std::span<const std::uint8_t> bytes);

/// Incremental decoder over a byte stream.  feed() appends transport
/// bytes; next() yields complete frames, rejection reasons, or asks for
/// more input.  The decoder never throws on wire data and always makes
/// progress: a rejected frame consumes at least one byte.
class FrameDecoder {
 public:
  enum class Result {
    kFrame,     ///< `out` holds a validated frame
    kNeedMore,  ///< the buffered prefix is a valid but incomplete frame
    kRejected,  ///< `error` holds the reason; call next() again
  };

  struct Stats {
    std::uint64_t frames = 0;        ///< validated frames produced
    std::uint64_t rejected = 0;      ///< rejection events (any reason)
    std::uint64_t resync_bytes = 0;  ///< garbage bytes skipped hunting magic
  };

  /// Appends transport bytes to the internal buffer.
  void feed(std::span<const std::uint8_t> bytes);

  /// Decodes the next frame out of the buffer.  kRejected consumes the
  /// offending bytes (one byte for bad magic, the whole frame otherwise),
  /// so callers loop until kNeedMore.
  Result next(Frame& out, FrameError& error);

  /// Drops all buffered bytes (datagram boundary).
  void reset();

  std::size_t buffered() const { return buffer_.size() - head_; }
  const Stats& stats() const { return stats_; }

 private:
  /// Skips buffered bytes until a magic prefix (or tail shorter than the
  /// magic) leads the buffer.  Returns the bytes skipped.
  std::size_t skip_to_magic();

  std::vector<std::uint8_t> buffer_;
  std::size_t head_ = 0;  ///< consumed prefix, compacted when it dominates
  Stats stats_;
};

/// Decodes a whole datagram (one ingest() call's bytes) into frames.
/// Unlike the streaming decoder a trailing partial frame is a *rejection*
/// (kTruncated), not a wait — datagram transports never deliver the rest.
/// Appends validated frames to `out`; appends each rejection reason to
/// `errors`.  Never throws on wire data.
void decode_datagram(std::span<const std::uint8_t> bytes,
                     std::vector<Frame>& out, std::vector<FrameError>& errors);

// --- messages ------------------------------------------------------------
//
// Every message carries the sender's sequence number so the service (and
// client) can suppress duplicates introduced by retries or by the wire.
// decode_* helpers throw util::SerialError on a malformed payload (wrong
// field count, trailing bytes); callers count that as a rejection.

/// Device → service: the device's current delay profile.  A valid report
/// renews the device's liveness lease; report_seq orders reports from the
/// same device (stale/duplicate seqs are re-acked but not re-applied).
struct DeviceReport {
  std::uint64_t device_id = 0;
  std::uint64_t report_seq = 0;   ///< per-device, strictly increasing
  double t_cal_max_s = 0.0;       ///< T^cal at f_max — Eq. (4)
  double t_com_s = 0.0;           ///< T^com — Eq. (7)
};

/// Service → device: report (device_id, report_seq) is applied.  Also sent
/// for duplicate/stale seqs so a lost ack never wedges the sender.
struct ReportAck {
  std::uint64_t device_id = 0;
  std::uint64_t report_seq = 0;
};

/// Controller → service: run one scheduling round.  controller_seq is the
/// idempotency key: the service processes each seq exactly once and
/// retransmits the cached response for the latest seq on duplicates.
struct DecisionRequest {
  std::uint64_t controller_seq = 0;  ///< strictly increasing, starts at 1
  std::uint64_t round = 0;           ///< round label echoed in the response
};

/// Service → controller: Γ_j and F_Γj for one round, index-aligned.
struct DecisionResponse {
  std::uint64_t controller_seq = 0;
  std::uint64_t round = 0;
  bool degraded = false;  ///< ingress overloaded: reports were shed since
                          ///< the previous decision or are still queued
  std::vector<std::size_t> selected;
  std::vector<double> frequencies_hz;
};

// The payload layouts (util::Save/util::Load walks).  The service snapshot
// stores its queued reports and staged request in these layouts too.

void fields(auto&& io, util::RecordOf<DeviceReport> auto& msg) {
  io(msg.device_id);
  io(msg.report_seq);
  io(msg.t_cal_max_s);
  io(msg.t_com_s);
}

void fields(auto&& io, util::RecordOf<ReportAck> auto& msg) {
  io(msg.device_id);
  io(msg.report_seq);
}

void fields(auto&& io, util::RecordOf<DecisionRequest> auto& msg) {
  io(msg.controller_seq);
  io(msg.round);
}

void fields(auto&& io, util::RecordOf<DecisionResponse> auto& msg) {
  io(msg.controller_seq);
  io(msg.round);
  io(msg.degraded);
  io(msg.selected);
  io(msg.frequencies_hz);
}

Frame encode(const DeviceReport& msg);
Frame encode(const ReportAck& msg);
Frame encode(const DecisionRequest& msg);
Frame encode(const DecisionResponse& msg);

DeviceReport decode_device_report(std::span<const std::uint8_t> payload);
ReportAck decode_report_ack(std::span<const std::uint8_t> payload);
DecisionRequest decode_decision_request(std::span<const std::uint8_t> payload);
DecisionResponse decode_decision_response(std::span<const std::uint8_t> payload);

}  // namespace helcfl::svc
