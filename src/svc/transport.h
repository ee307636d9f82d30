// POSIX socket transport for the scheduler-service protocol (docs/SERVICE.md §6).
//
// PR 7 made the protocol transport-agnostic; this header gives it a real
// wire: TCP and Unix-domain stream sockets, non-blocking, poll()-driven.
// The framing layer (svc/frame.h) already assumes an adversarial byte
// stream, so the transport's only jobs are the ones the in-process codec
// never saw:
//
//   * stream reassembly — TCP delivers arbitrary byte slices; FramedConn
//     owns a per-connection streaming FrameDecoder, so a frame split
//     across any read boundary (down to 1-byte reads) reassembles, and a
//     corrupt byte on a live connection costs a resync, not the session;
//   * short writes — a full kernel send buffer accepts a prefix of a
//     frame; FramedConn buffers the remainder and finishes it when the
//     socket drains, so no frame is ever torn by the sender;
//   * backpressure — the per-connection output buffer is bounded; a
//     peer that stops reading eventually fails queue_frame(), and the
//     caller (svc/listener.h) closes the connection instead of buffering
//     without bound;
//   * connection loss — reads observe EOF/reset and report kClosed; the
//     lease-liveness model (svc/service.h) absorbs the rest: a device
//     whose connection died simply stops reporting and its lease expires.
//
// Nothing here knows message semantics: retransmission, dedup, and
// exactly-once decisions stay in ServiceClient/SchedulerService, which is
// what makes decisions over this transport provably identical to the
// in-process datagram path (tests/test_svc_tcp_differential.cpp).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "svc/frame.h"

namespace helcfl::svc {

/// Thrown on setup errors (bad endpoint spec, bind/listen/connect
/// failures).  Established connections never throw on wire traffic —
/// errors surface as IoStatus values the caller handles.
class TransportError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A listen/connect address.  Text form (accepted by parse(), produced by
/// to_string()):
///   tcp:HOST:PORT   numeric IPv4 host; port 0 binds an ephemeral port
///   unix:PATH       filesystem path of a Unix-domain stream socket
struct Endpoint {
  enum class Kind { kTcp, kUnix };

  Kind kind = Kind::kTcp;
  std::string host = "127.0.0.1";  ///< TCP only, numeric IPv4
  std::uint16_t port = 0;          ///< TCP only; 0 = ephemeral
  std::string path;                ///< Unix only

  /// Parses the text form; throws TransportError with the offending spec.
  static Endpoint parse(const std::string& spec);
  std::string to_string() const;
};

/// Move-only RAII file descriptor with the socket plumbing the transport
/// needs.  All factories return non-blocking sockets.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  Socket(Socket&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  Socket& operator=(Socket&& other) noexcept {
    if (this != &other) {
      close();
      fd_ = std::exchange(other.fd_, -1);
    }
    return *this;
  }

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void close();

  /// Binds and listens on `endpoint` (SO_REUSEADDR for TCP; a stale Unix
  /// socket file is unlinked first).  Throws TransportError on failure.
  static Socket listen_on(const Endpoint& endpoint, int backlog);

  /// Connects to `endpoint` (blocking connect, then switched to
  /// non-blocking; TCP_NODELAY for TCP).  Throws TransportError.
  static Socket connect_to(const Endpoint& endpoint);

  /// A connected non-blocking AF_UNIX stream pair — the loopback wire the
  /// stream-edge-case tests drive byte by byte.
  static std::pair<Socket, Socket> stream_pair();

  /// Accepts one pending connection as a non-blocking socket (TCP_NODELAY
  /// applied); nullopt when the queue is empty.  Throws on fatal errors.
  std::optional<Socket> accept_one();

  /// The bound local endpoint — resolves an ephemeral TCP port after
  /// listen_on({... port = 0}).
  Endpoint local_endpoint() const;

  void set_nonblocking(bool on);
  /// Shrinks/grows the kernel send buffer (tests force short writes with
  /// tiny values; the kernel clamps to its floor).
  void set_send_buffer(int bytes);

 private:
  int fd_ = -1;
};

/// One framed, non-blocking stream connection: a streaming FrameDecoder on
/// the read side, a bounded elastic output buffer on the write side.  Used
/// by both halves of the wire — the server wraps every accepted socket in
/// one (svc/listener.h), the client wraps its connect socket
/// (ClientChannel below).  Not thread-safe; callers serialize access.
class FramedConn {
 public:
  struct Options {
    /// queue_frame() fails once the unsent backlog would exceed this —
    /// the slow-peer backpressure bound.
    std::size_t max_output_bytes = std::size_t{8} << 20;
  };

  /// Bytes per recv() attempt; the buffer is kept across reads.
  static constexpr std::size_t kReadChunkBytes = std::size_t{64} << 10;

  enum class IoStatus {
    kOk,      ///< progress made (possibly zero bytes; EAGAIN is kOk)
    kClosed,  ///< orderly EOF or peer reset; no further I/O possible
    kError,   ///< unexpected errno; treat the connection as dead
  };

  FramedConn() = default;
  explicit FramedConn(Socket socket);
  FramedConn(Socket socket, Options options);

  /// Reads every byte the socket currently has and appends each validated
  /// frame to `out` (decode rejections are absorbed by the decoder's
  /// resync and visible in decode_stats()).  Frames already buffered are
  /// delivered even when the read observes EOF.
  IoStatus read_frames(std::vector<Frame>& out);

  /// Queues one encoded frame for transmission.  False when the backlog
  /// cap would be exceeded — the frame is NOT queued (a partially-sent
  /// frame already in flight is never abandoned; framing stays intact).
  bool queue_frame(std::span<const std::uint8_t> frame_bytes);

  /// Writes as much of the backlog as the socket accepts.  Partial sends
  /// keep the remainder queued; EAGAIN returns kOk with want_write() true.
  IoStatus flush();

  bool want_write() const { return out_head_ < outbuf_.size(); }
  std::size_t output_backlog() const { return outbuf_.size() - out_head_; }

  const FrameDecoder::Stats& decode_stats() const { return decoder_.stats(); }
  std::uint64_t bytes_read() const { return bytes_read_; }
  /// flush() calls that moved only part of the backlog (short writes).
  std::uint64_t short_writes() const { return short_writes_; }

  Socket& socket() { return socket_; }
  const Socket& socket() const { return socket_; }

 private:
  Socket socket_;
  Options options_;
  FrameDecoder decoder_;
  std::vector<std::uint8_t> read_buf_;  ///< sized on the first read
  std::vector<std::uint8_t> outbuf_;
  std::size_t out_head_ = 0;  ///< sent prefix, compacted when it dominates
  std::uint64_t bytes_read_ = 0;
  std::uint64_t short_writes_ = 0;
};

/// Client-side convenience endpoint: connect, send frames (blocking until
/// the kernel accepts them), poll for inbound frames with a timeout.
/// After a failure (send_frame false / poll observes close) the channel
/// reports !connected(); callers reconnect by constructing a fresh
/// ClientChannel — which also resets decoder state, the stream-level
/// recovery path for a poisoned connection.
class ClientChannel {
 public:
  ClientChannel() = default;
  /// Connects immediately; throws TransportError when the endpoint is
  /// unreachable.
  explicit ClientChannel(const Endpoint& endpoint);

  bool connected() const { return conn_.has_value(); }
  void close();

  /// Sends one encoded frame, waiting (poll) for writability as needed.
  /// False when the connection died mid-send; the channel is closed.
  bool send_frame(std::span<const std::uint8_t> frame_bytes);

  /// Waits up to `timeout_ms` for inbound bytes and appends every decoded
  /// frame to `out`.  Returns the number of frames appended; 0 with
  /// !connected() means the server closed the connection.
  std::size_t poll_frames(std::vector<Frame>& out, int timeout_ms);

  FrameDecoder::Stats decode_stats() const {
    return conn_.has_value() ? conn_->decode_stats() : FrameDecoder::Stats{};
  }

 private:
  std::optional<FramedConn> conn_;
};

}  // namespace helcfl::svc
