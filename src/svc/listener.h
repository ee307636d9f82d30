// Socket front end for SchedulerService (docs/SERVICE.md §8).
//
// SocketServer turns the single-threaded, logical-tick service core into a
// network server without touching its decision semantics.  It runs ONE
// loop thread — the only caller of SchedulerService — and each lap:
//
//   ppoll(wake fd, listen socket, every connection)
//     → accept new connections
//     → read each ready connection's frames (per-connection streaming
//       decoder, svc/transport.h) straight into SchedulerService::ingest
//     → service.poll(tick) once, on a logical tick derived from wall time
//       (or an injected tick_source)
//     → route the whole outbox, then flush each connection once
//
// So `controller_seq` exactly-once processing and snapshot byte-identity
// are exactly what they were in-process, and the service's own bounded
// report queue is the only place a report is ever shed.
//
// Response routing: a ReportAck goes to the connection that most recently
// sent a report for that device; a DecisionResponse goes to the connection
// that most recently sent a decision request.  A response whose connection
// died is dropped — the peer's retransmit (after reconnecting) recovers
// it, exactly like a lost datagram.
//
// Slow peers: each connection's output buffer is bounded
// (max_conn_output_bytes, one lap's replies included); a peer that stops
// reading long enough to fill it is disconnected (`svc.conn_stalled`) rather than buffered without
// bound.  Disconnection is never fatal to the protocol: the lease model
// parks silent devices, retries re-deliver lost messages.
//
// stop() drains gracefully: no new connections, bytes already on the
// sockets are processed, pending output is flushed (bounded by
// drain_timeout_ms), then sockets close.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <span>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/instruments.h"
#include "svc/service.h"
#include "svc/transport.h"
#include "svc/wire_faults.h"

namespace helcfl::svc {

/// Aggregated transport-level health counters (mirrored into the attached
/// obs::Registry under the svc.conn_* / svc.ingress_* / svc.egress_*
/// names in docs/OBSERVABILITY.md).
struct ServerStats {
  std::uint64_t conns_accepted = 0;
  std::uint64_t conns_closed = 0;    ///< every close, any reason
  std::uint64_t conns_stalled = 0;   ///< closed for output-backlog overflow
  std::uint64_t conn_read_errors = 0;
  std::uint64_t frames_rejected = 0;  ///< stream decoder rejections, all conns
  std::uint64_t ingress_frames = 0;  ///< validated frames fed to the service
  /// Always 0: the server keeps no queue of its own, so every shed is the
  /// service's (`ServiceStats::reports_shed`).  Kept for existing callers.
  std::uint64_t ingress_shed = 0;
  std::uint64_t egress_frames = 0;   ///< outbox frames routed to a peer
  std::uint64_t egress_unroutable = 0;  ///< no live connection for a frame
  std::uint64_t chaos_dropped = 0;      ///< egress chaos faults (tests)
  std::uint64_t chaos_corrupted = 0;
  std::uint64_t chaos_duplicated = 0;
  /// Mirror of the service's decision counter, published by the loop
  /// thread — the race-free way to watch progress while the server runs.
  std::uint64_t decisions_issued = 0;
};

struct ServerOptions {
  /// Must be 1: the loop thread does all ingress.  Kept so existing
  /// callers that set it to 1 still compile; validate() rejects others.
  std::size_t ingress_threads = 1;

  /// Per-connection output backlog bound: unsent bytes plus the replies
  /// a lap queues before its flush.  Exceeding it closes the connection
  /// (slow-client backpressure).
  std::size_t max_conn_output_bytes = std::size_t{8} << 20;

  int listen_backlog = 64;

  /// When > 0, applied to every accepted socket (tests shrink it to force
  /// short writes); 0 keeps the OS default.
  int conn_send_buffer_bytes = 0;

  /// Loop cadence when no traffic arrives — leases still expire on time
  /// because every lap calls poll(tick).
  std::uint64_t idle_poll_interval_us = 500;

  /// How long stop() keeps flushing pending output before closing.
  std::uint64_t drain_timeout_ms = 1000;

  /// Logical clock for the service core.  Default (unset): milliseconds
  /// of wall time since start().  Tests inject a counter they control so
  /// lease expiry is deterministic.
  std::function<std::uint64_t()> tick_source;

  /// Chaos knob for robustness tests: fault outbound frames (drop,
  /// corrupt, duplicate — delay is meaningless on an ordered stream and
  /// ignored) before they reach a connection.  Inert by default.
  WireFaultOptions egress_chaos;
  std::uint64_t egress_chaos_seed = 0;

  /// Throws ServiceError with an actionable message on bad knobs.
  void validate() const;
};

/// See the header comment.  The service is borrowed: the caller constructs
/// (and may snapshot/restore) it, but must not touch it between start()
/// and stop() — the loop thread is the only permitted caller.
class SocketServer {
 public:
  SocketServer(SchedulerService& service, const Endpoint& endpoint,
               const ServerOptions& options, obs::Instruments instruments = {});
  ~SocketServer();
  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Binds, listens, and spawns the loop thread.  Throws
  /// TransportError/ServiceError on setup failure.
  void start();

  /// Graceful drain; idempotent.  Safe to call from any thread except the
  /// server's own.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// The bound endpoint (resolves an ephemeral tcp:...:0 port).  Only
  /// valid after start().
  const Endpoint& endpoint() const { return bound_endpoint_; }

  /// Safe to call while the server runs.
  ServerStats stats() const;
  std::size_t open_connections() const;

 private:
  struct Conn {
    std::uint64_t id = 0;
    FramedConn framed;
    std::uint64_t rejected_counted = 0;  ///< decoder rejections in stats_
    bool closed = false;
  };

  void loop();
  void accept_pending();
  /// Reads one connection and feeds its frames to the service.
  void read_conn(Conn& conn, std::uint64_t tick, std::vector<Frame>& frames);
  void route_outbox();
  /// The live connection an encoded outbox frame goes to (nullptr: none).
  Conn* route_of(std::span<const std::uint8_t> frame_bytes);
  /// Queues one encoded frame on `conn`; stalls the connection when its
  /// backlog bound is hit.
  void deliver(Conn* conn, std::span<const std::uint8_t> frame_bytes);
  void close_conn(Conn& conn);
  void drain_output();
  std::uint64_t current_tick() const;
  /// Adds to one ServerStats field and, when `name` is set, the registry.
  void count(std::uint64_t ServerStats::*field, std::string_view name,
             std::uint64_t delta = 1);
  void trace_conn(std::uint64_t conn_id, std::string_view kind);

  SchedulerService& service_;
  Endpoint requested_endpoint_;
  Endpoint bound_endpoint_;
  ServerOptions options_;
  obs::Instruments instruments_;

  Socket listen_socket_;
  Socket wake_fd_;  ///< eventfd: stop() interrupts the loop's ppoll

  // Loop-thread state.
  std::map<std::uint64_t, Conn> conns_;  ///< by id, in accept order
  std::uint64_t next_conn_id_ = 1;
  /// Replies chase the latest connection a sender used, so reconnects
  /// are transparent; an id whose connection closed routes nowhere.
  std::unordered_map<std::uint64_t, std::uint64_t> device_route_;
  std::uint64_t controller_conn_ = 0;
  WireFaultInjector egress_chaos_;
  bool chaos_enabled_ = false;

  std::chrono::steady_clock::time_point start_time_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  bool started_ = false;

  mutable std::mutex stats_mutex_;
  ServerStats stats_;  ///< written by the loop thread under stats_mutex_

  std::thread thread_;  ///< last: it runs loop() over every member above
};

}  // namespace helcfl::svc
