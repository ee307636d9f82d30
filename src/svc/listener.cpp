#include "svc/listener.h"

#include <poll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <ctime>

#include "obs/registry.h"
#include "obs/trace.h"

namespace helcfl::svc {

void ServerOptions::validate() const {
  if (ingress_threads != 1) {
    throw ServiceError(
        "ServerOptions: ingress_threads must be 1 (one loop thread reads "
        "every connection)");
  }
  if (max_conn_output_bytes < kFrameHeaderBytes) {
    throw ServiceError(
        "ServerOptions: max_conn_output_bytes cannot hold a frame header");
  }
  egress_chaos.validate();
}

SocketServer::SocketServer(SchedulerService& service, const Endpoint& endpoint,
                           const ServerOptions& options,
                           obs::Instruments instruments)
    : service_(service),
      requested_endpoint_(endpoint),
      bound_endpoint_(endpoint),
      options_(options),
      instruments_(instruments) {
  options_.validate();
  if (options_.egress_chaos.any_fault_possible()) {
    egress_chaos_ = WireFaultInjector(options_.egress_chaos,
                                      util::Rng(options_.egress_chaos_seed));
    chaos_enabled_ = true;
  }
}

SocketServer::~SocketServer() { stop(); }

void SocketServer::count(std::uint64_t ServerStats::*field,
                         std::string_view name, std::uint64_t delta) {
  {
    std::lock_guard lock(stats_mutex_);
    stats_.*field += delta;
  }
  if (!name.empty() && instruments_.registry != nullptr) {
    instruments_.registry->add(name, delta);
  }
}

void SocketServer::trace_conn(std::uint64_t conn_id, std::string_view kind) {
  obs::Tracer* tracer = instruments_.tracer;
  if (tracer != nullptr && tracer->enabled(obs::TraceLevel::kRound)) {
    tracer->emit(obs::TraceLevel::kRound, "svc_conn",
                 {{"conn", conn_id}, {"kind", kind}});
  }
}

std::uint64_t SocketServer::current_tick() const {
  if (options_.tick_source) return options_.tick_source();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start_time_)
          .count());
}

void SocketServer::start() {
  if (started_) {
    throw ServiceError("SocketServer: start() called twice");
  }
  started_ = true;
  listen_socket_ = Socket::listen_on(requested_endpoint_, options_.listen_backlog);
  bound_endpoint_ = requested_endpoint_.kind == Endpoint::Kind::kTcp
                        ? listen_socket_.local_endpoint()
                        : requested_endpoint_;
  wake_fd_ = Socket(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC));
  if (!wake_fd_.valid()) throw TransportError("eventfd failed for the stop wakeup");
  start_time_ = std::chrono::steady_clock::now();
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { loop(); });
}

void SocketServer::stop() {
  if (!started_ || !running_.load(std::memory_order_acquire)) return;
  stopping_.store(true, std::memory_order_release);
  const std::uint64_t one = 1;
  (void)!::write(wake_fd_.fd(), &one, sizeof(one));
  if (thread_.joinable()) thread_.join();
  listen_socket_.close();
  wake_fd_.close();
  running_.store(false, std::memory_order_release);
}

void SocketServer::loop() {
  const timespec idle{
      static_cast<std::time_t>(options_.idle_poll_interval_us / 1'000'000),
      static_cast<long>(options_.idle_poll_interval_us % 1'000'000 * 1'000)};
  const timespec no_wait{0, 0};
  std::vector<pollfd> pfds;
  std::vector<Conn*> polled;  ///< the connection behind pfds[2 + i]
  std::vector<Frame> frames;

  for (;;) {
    // A stop() after this load still interrupts the wait through the wake
    // fd, so the lap after it is the last: it takes no new connection and
    // only reads what is already on the sockets.
    const bool last_lap = stopping_.load(std::memory_order_acquire);
    pfds.assign({pollfd{wake_fd_.fd(), POLLIN, 0},
                 pollfd{listen_socket_.fd(), POLLIN, 0}});
    polled.clear();
    for (auto& [id, conn] : conns_) {
      const short events =
          conn.framed.want_write() ? POLLIN | POLLOUT : POLLIN;
      pfds.push_back(pollfd{conn.framed.socket().fd(), events, 0});
      polled.push_back(&conn);
    }
    // ppoll, not poll: the idle cadence is in microseconds.
    (void)::ppoll(pfds.data(), pfds.size(), last_lap ? &no_wait : &idle,
                  nullptr);
    if (pfds[0].revents & POLLIN) {
      std::uint64_t wakeups = 0;
      (void)!::read(wake_fd_.fd(), &wakeups, sizeof(wakeups));
    }

    const std::uint64_t tick = current_tick();
    for (std::size_t i = 0; i < polled.size(); ++i) {
      if (pfds[i + 2].revents & (POLLIN | POLLHUP | POLLERR)) {
        read_conn(*polled[i], tick, frames);
      }
    }
    if (!last_lap && (pfds[1].revents & POLLIN)) accept_pending();

    service_.poll(tick);
    route_outbox();
    for (auto& [id, conn] : conns_) {
      if (!conn.closed && conn.framed.want_write() &&
          conn.framed.flush() != FramedConn::IoStatus::kOk) {
        close_conn(conn);
      }
    }
    std::erase_if(conns_, [](const auto& entry) { return entry.second.closed; });
    {
      std::lock_guard lock(stats_mutex_);
      stats_.decisions_issued = service_.stats().decisions;
    }
    if (last_lap) break;
  }

  drain_output();
  for (auto& [id, conn] : conns_) close_conn(conn);
  conns_.clear();
}

void SocketServer::accept_pending() {
  for (;;) {
    std::optional<Socket> accepted;
    try {
      accepted = listen_socket_.accept_one();
    } catch (const TransportError&) {
      return;  // transient accept failure; retry on the next lap
    }
    if (!accepted.has_value()) return;
    if (options_.conn_send_buffer_bytes > 0) {
      try {
        accepted->set_send_buffer(options_.conn_send_buffer_bytes);
      } catch (const TransportError&) {
      }
    }
    const std::uint64_t id = next_conn_id_++;
    conns_.emplace(
        id, Conn{.id = id,
                 .framed = FramedConn(std::move(*accepted),
                                      FramedConn::Options{
                                          .max_output_bytes =
                                              options_.max_conn_output_bytes})});
    count(&ServerStats::conns_accepted, "svc.conn_accepted");
    trace_conn(id, "accept");
  }
}

void SocketServer::read_conn(Conn& conn, std::uint64_t tick,
                             std::vector<Frame>& frames) {
  frames.clear();
  const FramedConn::IoStatus status = conn.framed.read_frames(frames);
  const std::uint64_t rejected = conn.framed.decode_stats().rejected;
  if (rejected > conn.rejected_counted) {
    count(&ServerStats::frames_rejected, "svc.conn_frames_rejected",
          rejected - conn.rejected_counted);
    conn.rejected_counted = rejected;
  }
  if (!frames.empty()) {
    count(&ServerStats::ingress_frames, "svc.ingress_frames", frames.size());
  }
  for (const Frame& frame : frames) {
    if (frame.type == MsgType::kDeviceReport) {
      try {
        device_route_[decode_device_report(frame.payload).device_id] = conn.id;
      } catch (const util::SerialError&) {
        // Malformed payload: the service counts it below.
      }
    } else if (frame.type == MsgType::kDecisionRequest) {
      controller_conn_ = conn.id;
    }
    service_.ingest(frame, tick);
  }
  if (status == FramedConn::IoStatus::kError) {
    count(&ServerStats::conn_read_errors, "svc.conn_read_errors");
  }
  if (status != FramedConn::IoStatus::kOk) close_conn(conn);
}

SocketServer::Conn* SocketServer::route_of(
    std::span<const std::uint8_t> frame_bytes) {
  const std::uint32_t type = peek_frame_type(frame_bytes);
  std::uint64_t conn_id = 0;
  if (type == static_cast<std::uint32_t>(MsgType::kReportAck)) {
    const auto it = device_route_.find(peek_payload_u64(frame_bytes));
    if (it == device_route_.end()) return nullptr;
    conn_id = it->second;
  } else if (type == static_cast<std::uint32_t>(MsgType::kDecisionResponse)) {
    conn_id = controller_conn_;
  }
  const auto it = conns_.find(conn_id);
  return it != conns_.end() && !it->second.closed ? &it->second : nullptr;
}

void SocketServer::route_outbox() {
  std::vector<std::uint8_t> scratch;
  for (const std::vector<std::uint8_t>& frame : service_.take_outbox()) {
    Conn* conn = route_of(frame);
    if (!chaos_enabled_) {
      deliver(conn, frame);
      continue;
    }
    const WireFaultInjector::Plan plan = egress_chaos_.plan_frame();
    if (plan.dropped) {
      count(&ServerStats::chaos_dropped, {});
      continue;
    }
    for (std::size_t c = 0; c < plan.copies; ++c) {
      scratch.assign(frame.begin(), frame.end());
      const WireFaultInjector::Delivery& delivery = plan.delivery[c];
      if (delivery.corrupted && !scratch.empty()) {
        scratch[delivery.corrupt_index % scratch.size()] ^=
            delivery.corrupt_mask;
        count(&ServerStats::chaos_corrupted, {});
      }
      if (c > 0) count(&ServerStats::chaos_duplicated, {});
      deliver(conn, scratch);
    }
  }
}

void SocketServer::deliver(Conn* conn,
                           std::span<const std::uint8_t> frame_bytes) {
  if (conn == nullptr || conn->closed) {
    count(&ServerStats::egress_unroutable, "svc.egress_unroutable");
    return;
  }
  if (!conn->framed.queue_frame(frame_bytes)) {
    count(&ServerStats::conns_stalled, "svc.conn_stalled");
    trace_conn(conn->id, "stall");
    close_conn(*conn);
    return;
  }
  count(&ServerStats::egress_frames, "svc.egress_frames");
}

void SocketServer::close_conn(Conn& conn) {
  if (conn.closed) return;
  conn.closed = true;
  conn.framed.socket().close();
  count(&ServerStats::conns_closed, "svc.conn_closed");
  trace_conn(conn.id, "close");
}

void SocketServer::drain_output() {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(options_.drain_timeout_ms);
  for (auto& [id, conn] : conns_) {
    while (!conn.closed && conn.framed.want_write() &&
           std::chrono::steady_clock::now() < deadline) {
      pollfd pfd{conn.framed.socket().fd(), POLLOUT, 0};
      (void)::poll(&pfd, 1, /*timeout_ms=*/10);
      if (conn.framed.flush() != FramedConn::IoStatus::kOk) break;
    }
  }
}

ServerStats SocketServer::stats() const {
  std::lock_guard lock(stats_mutex_);
  return stats_;
}

std::size_t SocketServer::open_connections() const {
  std::lock_guard lock(stats_mutex_);
  return stats_.conns_accepted - stats_.conns_closed;
}

}  // namespace helcfl::svc
