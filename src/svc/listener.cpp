#include "svc/listener.h"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <iterator>
#include <utility>

#include "obs/registry.h"
#include "obs/trace.h"

namespace helcfl::svc {

namespace {

void drain_pipe(int fd) {
  std::uint8_t buf[256];
  while (::read(fd, buf, sizeof(buf)) > 0) {
  }
}

}  // namespace

void ServerOptions::validate() const {
  if (ingress_threads == 0) {
    throw ServiceError("ServerOptions: ingress_threads must be >= 1");
  }
  if (ingress_queue_capacity == 0) {
    throw ServiceError("ServerOptions: ingress_queue_capacity must be >= 1");
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

void SocketServer::count(std::string_view name, std::uint64_t delta) {
  if (instruments_.registry != nullptr) instruments_.registry->add(name, delta);
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
  start_time_ = std::chrono::steady_clock::now();

  readers_.clear();
  for (std::size_t i = 0; i < options_.ingress_threads; ++i) {
    auto reader = std::make_unique<Reader>();
    int fds[2];
    if (::pipe2(fds, O_NONBLOCK | O_CLOEXEC) < 0) {
      throw TransportError("pipe2 failed for reader wakeup");
    }
    reader->wake_read_fd = fds[0];
    reader->wake_write_fd = fds[1];
    readers_.push_back(std::move(reader));
  }

  running_.store(true, std::memory_order_release);
  stopping_.store(false, std::memory_order_release);
  service_stop_.store(false, std::memory_order_release);

  for (std::size_t i = 0; i < readers_.size(); ++i) {
    readers_[i]->thread = std::thread([this, i] { reader_loop(i); });
  }
  service_thread_ = std::thread([this] { service_loop(); });
  acceptor_thread_ = std::thread([this] { acceptor_loop(); });
}

void SocketServer::stop() {
  if (!started_ || !running_.load(std::memory_order_acquire)) return;

  // Phase 1: no new connections, no new ingress.  Readers drain their
  // sockets' pending bytes on the way out (they exit at loop top).
  stopping_.store(true, std::memory_order_release);
  for (auto& reader : readers_) wake_reader(*reader);
  if (acceptor_thread_.joinable()) acceptor_thread_.join();
  for (auto& reader : readers_) {
    if (reader->thread.joinable()) reader->thread.join();
  }

  // Phase 2: the service thread consumes everything already queued, runs
  // one final poll, and routes the last outbox.
  service_stop_.store(true, std::memory_order_release);
  ingress_cv_.notify_all();
  if (service_thread_.joinable()) service_thread_.join();

  // Phase 3: flush whatever output is still buffered, then close.
  drain_output();

  {
    std::lock_guard lock(conns_mutex_);
    for (auto& [id, conn] : conns_) {
      std::lock_guard conn_lock(conn->mutex);
      if (!conn->closed.load(std::memory_order_acquire)) {
        conn->closed.store(true, std::memory_order_release);
        stats_.conns_closed.fetch_add(1, std::memory_order_relaxed);
        count("svc.conn_closed");
      }
      conn->framed.socket().close();
    }
    conns_.clear();
  }
  listen_socket_.close();
  for (auto& reader : readers_) {
    if (reader->wake_read_fd >= 0) ::close(reader->wake_read_fd);
    if (reader->wake_write_fd >= 0) ::close(reader->wake_write_fd);
    reader->wake_read_fd = reader->wake_write_fd = -1;
  }
  running_.store(false, std::memory_order_release);
}

void SocketServer::drain_output() {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(options_.drain_timeout_ms);
  std::vector<ConnPtr> open;
  {
    std::lock_guard lock(conns_mutex_);
    for (auto& [id, conn] : conns_) {
      if (!conn->closed.load(std::memory_order_acquire)) open.push_back(conn);
    }
  }
  for (const ConnPtr& conn : open) {
    std::lock_guard conn_lock(conn->mutex);
    while (conn->framed.want_write() &&
           std::chrono::steady_clock::now() < deadline) {
      const FramedConn::IoStatus status = conn->framed.flush();
      if (status != FramedConn::IoStatus::kOk) break;
      if (!conn->framed.want_write()) break;
      pollfd pfd{conn->framed.socket().fd(), POLLOUT, 0};
      (void)::poll(&pfd, 1, /*timeout_ms=*/10);
    }
  }
}

void SocketServer::wake_reader(Reader& reader) {
  const std::uint8_t byte = 1;
  if (reader.wake_write_fd >= 0) {
    // A full pipe already guarantees a pending wakeup.
    (void)!::write(reader.wake_write_fd, &byte, 1);
  }
}

void SocketServer::acceptor_loop() {
  std::size_t next_reader = 0;
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_socket_.fd(), POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/50);
    if (ready <= 0) continue;
    for (;;) {
      std::optional<Socket> accepted;
      try {
        accepted = listen_socket_.accept_one();
      } catch (const TransportError&) {
        break;  // transient accept failure; retry on the next poll
      }
      if (!accepted.has_value()) break;
      if (options_.conn_send_buffer_bytes > 0) {
        try {
          accepted->set_send_buffer(options_.conn_send_buffer_bytes);
        } catch (const TransportError&) {
        }
      }
      auto conn = std::make_shared<Conn>();
      conn->id = next_conn_id_.fetch_add(1, std::memory_order_relaxed);
      conn->owner = next_reader;
      conn->framed = FramedConn(
          std::move(*accepted),
          FramedConn::Options{.max_output_bytes = options_.max_conn_output_bytes,
                              .read_chunk_bytes = std::size_t{64} << 10});
      {
        std::lock_guard lock(conns_mutex_);
        conns_.emplace(conn->id, conn);
      }
      Reader& reader = *readers_[next_reader];
      {
        std::lock_guard lock(reader.mutex);
        reader.conns.push_back(conn);
      }
      wake_reader(reader);
      next_reader = (next_reader + 1) % readers_.size();
      stats_.conns_accepted.fetch_add(1, std::memory_order_relaxed);
      count("svc.conn_accepted");
      trace_conn(conn->id, "accept");
    }
  }
}

void SocketServer::reader_loop(std::size_t index) {
  Reader& reader = *readers_[index];
  std::vector<pollfd> pfds;
  std::vector<ConnPtr> polled;
  std::vector<Frame> frames;

  while (!stopping_.load(std::memory_order_acquire)) {
    // Reap connections closed since the last lap (by this thread on I/O
    // failure or by the service thread on output-backlog overflow).
    std::vector<ConnPtr> reaped;
    {
      std::lock_guard lock(reader.mutex);
      auto it = std::partition(
          reader.conns.begin(), reader.conns.end(), [](const ConnPtr& c) {
            return !c->closed.load(std::memory_order_acquire);
          });
      reaped.assign(it, reader.conns.end());
      reader.conns.erase(it, reader.conns.end());
    }
    for (const ConnPtr& conn : reaped) {
      {
        std::lock_guard conn_lock(conn->mutex);
        conn->framed.socket().close();
      }
      {
        std::lock_guard lock(conns_mutex_);
        conns_.erase(conn->id);
      }
      stats_.conns_closed.fetch_add(1, std::memory_order_relaxed);
      count("svc.conn_closed");
      trace_conn(conn->id, "close");
      enqueue_ingress(IngressItem{IngressItem::Kind::kConnClosed, conn->id, {}});
    }

    pfds.clear();
    polled.clear();
    pfds.push_back(pollfd{reader.wake_read_fd, POLLIN, 0});
    {
      std::lock_guard lock(reader.mutex);
      for (const ConnPtr& conn : reader.conns) {
        short events = POLLIN;
        {
          std::lock_guard conn_lock(conn->mutex);
          if (conn->framed.want_write()) events |= POLLOUT;
          pfds.push_back(pollfd{conn->framed.socket().fd(), events, 0});
        }
        polled.push_back(conn);
      }
    }

    const int ready = ::poll(pfds.data(), pfds.size(), /*timeout_ms=*/50);
    if (ready < 0) continue;
    if (pfds[0].revents & POLLIN) drain_pipe(reader.wake_read_fd);

    for (std::size_t i = 0; i < polled.size(); ++i) {
      const short revents = pfds[i + 1].revents;
      if (revents == 0) continue;
      const ConnPtr& conn = polled[i];
      if (conn->closed.load(std::memory_order_acquire)) continue;
      bool dead = false;
      bool read_error = false;
      frames.clear();
      {
        std::lock_guard conn_lock(conn->mutex);
        if (revents & (POLLIN | POLLHUP | POLLERR)) {
          const FramedConn::IoStatus status = conn->framed.read_frames(frames);
          if (status == FramedConn::IoStatus::kClosed) dead = true;
          if (status == FramedConn::IoStatus::kError) {
            dead = true;
            read_error = true;
          }
        }
        if (!dead && (revents & POLLOUT)) {
          if (conn->framed.flush() != FramedConn::IoStatus::kOk) dead = true;
        }
      }
      for (Frame& frame : frames) {
        enqueue_ingress(
            IngressItem{IngressItem::Kind::kFrame, conn->id, std::move(frame)});
      }
      if (read_error) {
        stats_.conn_read_errors.fetch_add(1, std::memory_order_relaxed);
        count("svc.conn_read_errors");
      }
      if (dead) conn->closed.store(true, std::memory_order_release);
    }
  }
}

void SocketServer::enqueue_ingress(IngressItem item) {
  {
    std::lock_guard lock(ingress_mutex_);
    if (item.kind == IngressItem::Kind::kFrame &&
        ingress_queue_.size() >= options_.ingress_queue_capacity) {
      // Oldest-first shedding, reports only: the shed sender's retry
      // recovers it, and decision requests must never vanish here.
      auto oldest = std::find_if(
          ingress_queue_.begin(), ingress_queue_.end(), [](const IngressItem& q) {
            return q.kind == IngressItem::Kind::kFrame &&
                   q.frame.type == MsgType::kDeviceReport;
          });
      if (oldest != ingress_queue_.end()) {
        ingress_queue_.erase(oldest);
        stats_.ingress_shed.fetch_add(1, std::memory_order_relaxed);
        count("svc.ingress_shed");
      } else if (item.frame.type == MsgType::kDeviceReport) {
        stats_.ingress_shed.fetch_add(1, std::memory_order_relaxed);
        count("svc.ingress_shed");
        return;  // all queued work is requests/control; drop the newcomer
      }
    }
    if (item.kind == IngressItem::Kind::kFrame) {
      stats_.ingress_frames.fetch_add(1, std::memory_order_relaxed);
      count("svc.ingress_frames");
    }
    ingress_queue_.push_back(std::move(item));
  }
  ingress_cv_.notify_one();
}

SocketServer::ConnPtr SocketServer::route_of(
    std::span<const std::uint8_t> frame_bytes) {
  const std::uint32_t type = peek_frame_type(frame_bytes);
  std::uint64_t conn_id = 0;
  if (type == static_cast<std::uint32_t>(MsgType::kReportAck)) {
    const std::uint64_t device = peek_payload_u64(frame_bytes);
    const auto it = device_route_.find(device);
    if (it == device_route_.end()) return nullptr;
    conn_id = it->second;
  } else if (type == static_cast<std::uint32_t>(MsgType::kDecisionResponse)) {
    conn_id = controller_conn_;
  }
  if (conn_id == 0) return nullptr;
  std::lock_guard lock(conns_mutex_);
  const auto it = conns_.find(conn_id);
  return it != conns_.end() ? it->second : nullptr;
}

void SocketServer::deliver_to_conn(const ConnPtr& conn,
                                   std::span<const std::uint8_t> frame_bytes) {
  if (conn == nullptr || conn->closed.load(std::memory_order_acquire)) {
    stats_.egress_unroutable.fetch_add(1, std::memory_order_relaxed);
    count("svc.egress_unroutable");
    return;
  }
  bool stalled = false;
  bool need_wake = false;
  {
    std::lock_guard conn_lock(conn->mutex);
    if (!conn->framed.queue_frame(frame_bytes)) {
      stalled = true;
    } else {
      // Opportunistic flush: the reader may be mid-poll without POLLOUT
      // for this connection; often the kernel takes the frame right now.
      const FramedConn::IoStatus status = conn->framed.flush();
      if (status != FramedConn::IoStatus::kOk) {
        conn->closed.store(true, std::memory_order_release);
        need_wake = true;
      } else if (conn->framed.want_write()) {
        need_wake = true;
      }
    }
  }
  if (stalled) {
    conn->closed.store(true, std::memory_order_release);
    stats_.conns_stalled.fetch_add(1, std::memory_order_relaxed);
    count("svc.conn_stalled");
    trace_conn(conn->id, "stall");
    need_wake = true;
  } else {
    stats_.egress_frames.fetch_add(1, std::memory_order_relaxed);
    count("svc.egress_frames");
  }
  if (need_wake) wake_reader(*readers_[conn->owner]);
}

void SocketServer::service_loop() {
  std::vector<IngressItem> batch;
  std::vector<std::uint8_t> scratch;

  auto process_batch = [&] {
    const std::uint64_t tick = current_tick();
    for (IngressItem& item : batch) {
      if (item.kind == IngressItem::Kind::kConnClosed) {
        for (auto it = device_route_.begin(); it != device_route_.end();) {
          it = it->second == item.conn_id ? device_route_.erase(it)
                                          : std::next(it);
        }
        if (controller_conn_ == item.conn_id) controller_conn_ = 0;
        continue;
      }
      // Route bookkeeping: replies chase the latest connection a sender
      // used, so reconnects are transparent.
      if (item.frame.type == MsgType::kDeviceReport) {
        try {
          const DeviceReport report = decode_device_report(item.frame.payload);
          device_route_[report.device_id] = item.conn_id;
        } catch (const util::SerialError&) {
          // Malformed payload: the service counts it below.
        }
      } else if (item.frame.type == MsgType::kDecisionRequest) {
        controller_conn_ = item.conn_id;
      }
      service_.ingest(item.frame, tick);
    }
    batch.clear();
    service_.poll(tick);
    for (const std::vector<std::uint8_t>& frame : service_.take_outbox()) {
      if (!chaos_enabled_) {
        deliver_to_conn(route_of(frame), frame);
        continue;
      }
      const WireFaultInjector::Plan plan = egress_chaos_.plan_frame();
      if (plan.dropped) {
        stats_.chaos_dropped.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      for (std::size_t c = 0; c < plan.copies; ++c) {
        scratch.assign(frame.begin(), frame.end());
        const WireFaultInjector::Delivery& delivery = plan.delivery[c];
        if (delivery.corrupted && !scratch.empty()) {
          scratch[delivery.corrupt_index % scratch.size()] ^=
              delivery.corrupt_mask;
          stats_.chaos_corrupted.fetch_add(1, std::memory_order_relaxed);
        }
        if (c > 0) {
          stats_.chaos_duplicated.fetch_add(1, std::memory_order_relaxed);
        }
        deliver_to_conn(route_of(frame), scratch);
      }
    }
    stats_.decisions_issued.store(service_.stats().decisions,
                                  std::memory_order_relaxed);
  };

  for (;;) {
    {
      std::unique_lock lock(ingress_mutex_);
      ingress_cv_.wait_for(
          lock, std::chrono::microseconds(options_.idle_poll_interval_us),
          [&] {
            return !ingress_queue_.empty() ||
                   service_stop_.load(std::memory_order_acquire);
          });
      batch.assign(std::make_move_iterator(ingress_queue_.begin()),
                   std::make_move_iterator(ingress_queue_.end()));
      ingress_queue_.clear();
    }
    const bool last_lap = service_stop_.load(std::memory_order_acquire);
    process_batch();
    if (last_lap) break;  // readers are joined: the drained batch was final
  }
}

ServerStats SocketServer::stats() const {
  ServerStats snapshot;
  snapshot.conns_accepted = stats_.conns_accepted.load(std::memory_order_relaxed);
  snapshot.conns_closed = stats_.conns_closed.load(std::memory_order_relaxed);
  snapshot.conns_stalled = stats_.conns_stalled.load(std::memory_order_relaxed);
  snapshot.conn_read_errors =
      stats_.conn_read_errors.load(std::memory_order_relaxed);
  snapshot.ingress_frames = stats_.ingress_frames.load(std::memory_order_relaxed);
  snapshot.ingress_shed = stats_.ingress_shed.load(std::memory_order_relaxed);
  snapshot.egress_frames = stats_.egress_frames.load(std::memory_order_relaxed);
  snapshot.egress_unroutable =
      stats_.egress_unroutable.load(std::memory_order_relaxed);
  snapshot.chaos_dropped = stats_.chaos_dropped.load(std::memory_order_relaxed);
  snapshot.chaos_corrupted =
      stats_.chaos_corrupted.load(std::memory_order_relaxed);
  snapshot.chaos_duplicated =
      stats_.chaos_duplicated.load(std::memory_order_relaxed);
  snapshot.decisions_issued =
      stats_.decisions_issued.load(std::memory_order_relaxed);
  return snapshot;
}

std::size_t SocketServer::open_connections() const {
  std::lock_guard lock(conns_mutex_);
  std::size_t open = 0;
  for (const auto& [id, conn] : conns_) {
    if (!conn->closed.load(std::memory_order_acquire)) ++open;
  }
  return open;
}

}  // namespace helcfl::svc
