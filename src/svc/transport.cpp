#include "svc/transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace helcfl::svc {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw TransportError(what + ": " + std::strerror(errno));
}

void set_fd_nonblocking(int fd, bool on) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) fail("fcntl(F_GETFL)");
  const int want = on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (::fcntl(fd, F_SETFL, want) < 0) fail("fcntl(F_SETFL)");
}

void set_tcp_nodelay(int fd) {
  // Frames are small and latency-bound (a decision round-trip is four
  // frames); Nagle would serialize the whole protocol on 40ms timers.
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

sockaddr_un unix_address(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    throw TransportError("unix socket path is empty or longer than " +
                         std::to_string(sizeof(addr.sun_path) - 1) +
                         " bytes: '" + path + "'");
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

sockaddr_in tcp_address(const Endpoint& endpoint) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(endpoint.port);
  if (::inet_pton(AF_INET, endpoint.host.c_str(), &addr.sin_addr) != 1) {
    throw TransportError("'" + endpoint.host +
                         "' is not a numeric IPv4 address (tcp endpoints "
                         "take dotted-quad hosts, e.g. tcp:127.0.0.1:7777)");
  }
  return addr;
}

}  // namespace

Endpoint Endpoint::parse(const std::string& spec) {
  Endpoint endpoint;
  if (spec.rfind("unix:", 0) == 0) {
    endpoint.kind = Kind::kUnix;
    endpoint.path = spec.substr(5);
    if (endpoint.path.empty()) {
      throw TransportError("endpoint '" + spec + "' is missing a path");
    }
    return endpoint;
  }
  if (spec.rfind("tcp:", 0) == 0) {
    endpoint.kind = Kind::kTcp;
    const std::string rest = spec.substr(4);
    const std::size_t colon = rest.rfind(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 == rest.size()) {
      throw TransportError("endpoint '" + spec +
                           "' is not of the form tcp:HOST:PORT");
    }
    endpoint.host = rest.substr(0, colon);
    const std::string port = rest.substr(colon + 1);
    char* end = nullptr;
    const unsigned long value = std::strtoul(port.c_str(), &end, 10);
    if (end == port.c_str() || *end != '\0' || value > 65535) {
      throw TransportError("endpoint '" + spec + "' has a bad port '" +
                           port + "'");
    }
    endpoint.port = static_cast<std::uint16_t>(value);
    return endpoint;
  }
  throw TransportError("endpoint '" + spec +
                       "' must start with tcp: or unix:");
}

std::string Endpoint::to_string() const {
  if (kind == Kind::kUnix) return "unix:" + path;
  return "tcp:" + host + ":" + std::to_string(port);
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Socket Socket::listen_on(const Endpoint& endpoint, int backlog) {
  if (endpoint.kind == Endpoint::Kind::kUnix) {
    const sockaddr_un addr = unix_address(endpoint.path);
    Socket sock(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0));
    if (!sock.valid()) fail("socket(AF_UNIX)");
    // A previous server's socket file would make bind fail with EADDRINUSE
    // even though nobody is listening; stale files are safe to remove.
    (void)::unlink(endpoint.path.c_str());
    if (::bind(sock.fd(), reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) < 0) {
      fail("bind(" + endpoint.to_string() + ")");
    }
    if (::listen(sock.fd(), backlog) < 0) fail("listen");
    sock.set_nonblocking(true);
    return sock;
  }
  const sockaddr_in addr = tcp_address(endpoint);
  Socket sock(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!sock.valid()) fail("socket(AF_INET)");
  const int one = 1;
  (void)::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(sock.fd(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    fail("bind(" + endpoint.to_string() + ")");
  }
  if (::listen(sock.fd(), backlog) < 0) fail("listen");
  sock.set_nonblocking(true);
  return sock;
}

Socket Socket::connect_to(const Endpoint& endpoint) {
  if (endpoint.kind == Endpoint::Kind::kUnix) {
    const sockaddr_un addr = unix_address(endpoint.path);
    Socket sock(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0));
    if (!sock.valid()) fail("socket(AF_UNIX)");
    if (::connect(sock.fd(), reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) < 0) {
      fail("connect(" + endpoint.to_string() + ")");
    }
    sock.set_nonblocking(true);
    return sock;
  }
  const sockaddr_in addr = tcp_address(endpoint);
  Socket sock(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!sock.valid()) fail("socket(AF_INET)");
  if (::connect(sock.fd(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) < 0) {
    fail("connect(" + endpoint.to_string() + ")");
  }
  set_tcp_nodelay(sock.fd());
  sock.set_nonblocking(true);
  return sock;
}

std::pair<Socket, Socket> Socket::stream_pair() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) < 0) {
    fail("socketpair");
  }
  Socket a(fds[0]);
  Socket b(fds[1]);
  a.set_nonblocking(true);
  b.set_nonblocking(true);
  return {std::move(a), std::move(b)};
}

std::optional<Socket> Socket::accept_one() {
  const int fd = ::accept(fd_, nullptr, nullptr);
  if (fd < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR ||
        errno == ECONNABORTED) {
      return std::nullopt;
    }
    fail("accept");
  }
  Socket sock(fd);
  sock.set_nonblocking(true);
  // Harmless no-op on AF_UNIX (setsockopt error ignored).
  set_tcp_nodelay(fd);
  return sock;
}

Endpoint Socket::local_endpoint() const {
  sockaddr_storage storage{};
  socklen_t len = sizeof(storage);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&storage), &len) < 0) {
    fail("getsockname");
  }
  Endpoint endpoint;
  if (storage.ss_family == AF_UNIX) {
    const auto* addr = reinterpret_cast<const sockaddr_un*>(&storage);
    endpoint.kind = Endpoint::Kind::kUnix;
    endpoint.path = addr->sun_path;
    return endpoint;
  }
  const auto* addr = reinterpret_cast<const sockaddr_in*>(&storage);
  endpoint.kind = Endpoint::Kind::kTcp;
  char host[INET_ADDRSTRLEN] = {};
  ::inet_ntop(AF_INET, &addr->sin_addr, host, sizeof(host));
  endpoint.host = host;
  endpoint.port = ntohs(addr->sin_port);
  return endpoint;
}

void Socket::set_nonblocking(bool on) { set_fd_nonblocking(fd_, on); }

void Socket::set_send_buffer(int bytes) {
  if (::setsockopt(fd_, SOL_SOCKET, SO_SNDBUF, &bytes, sizeof(bytes)) < 0) {
    fail("setsockopt(SO_SNDBUF)");
  }
}

FramedConn::FramedConn(Socket socket)
    : FramedConn(std::move(socket), Options()) {}

FramedConn::FramedConn(Socket socket, Options options)
    : socket_(std::move(socket)), options_(options) {}

FramedConn::IoStatus FramedConn::read_frames(std::vector<Frame>& out) {
  auto drain_decoder = [&] {
    Frame frame;
    FrameError error;
    for (;;) {
      switch (decoder_.next(frame, error)) {
        case FrameDecoder::Result::kFrame:
          out.push_back(std::move(frame));
          frame = Frame{};
          break;
        case FrameDecoder::Result::kRejected:
          break;  // counted in decoder_.stats(); resync already advanced
        case FrameDecoder::Result::kNeedMore:
          return;
      }
    }
  };

  read_buf_.resize(kReadChunkBytes);
  for (;;) {
    const ssize_t n = ::recv(socket_.fd(), read_buf_.data(), read_buf_.size(), 0);
    if (n > 0) {
      bytes_read_ += static_cast<std::uint64_t>(n);
      decoder_.feed(std::span<const std::uint8_t>(read_buf_.data(),
                                                  static_cast<std::size_t>(n)));
      if (static_cast<std::size_t>(n) < read_buf_.size()) {
        drain_decoder();
        return IoStatus::kOk;
      }
      continue;  // the socket may hold more than one chunk
    }
    if (n == 0) {
      drain_decoder();
      return IoStatus::kClosed;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
      drain_decoder();
      return IoStatus::kOk;
    }
    if (errno == ECONNRESET) {
      drain_decoder();
      return IoStatus::kClosed;
    }
    drain_decoder();
    return IoStatus::kError;
  }
}

bool FramedConn::queue_frame(std::span<const std::uint8_t> frame_bytes) {
  if (output_backlog() + frame_bytes.size() > options_.max_output_bytes) {
    return false;
  }
  // Compact the sent prefix before it dominates the live bytes.
  if (out_head_ > 4096 && out_head_ > outbuf_.size() - out_head_) {
    outbuf_.erase(outbuf_.begin(),
                  outbuf_.begin() + static_cast<std::ptrdiff_t>(out_head_));
    out_head_ = 0;
  }
  outbuf_.insert(outbuf_.end(), frame_bytes.begin(), frame_bytes.end());
  return true;
}

FramedConn::IoStatus FramedConn::flush() {
  while (want_write()) {
    const std::size_t backlog = output_backlog();
    const ssize_t n = ::send(socket_.fd(), outbuf_.data() + out_head_, backlog,
                             MSG_NOSIGNAL);
    if (n > 0) {
      out_head_ += static_cast<std::size_t>(n);
      if (static_cast<std::size_t>(n) < backlog) ++short_writes_;
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
      return IoStatus::kOk;
    }
    if (errno == EPIPE || errno == ECONNRESET) return IoStatus::kClosed;
    return IoStatus::kError;
  }
  if (out_head_ == outbuf_.size() && !outbuf_.empty()) {
    outbuf_.clear();
    out_head_ = 0;
  }
  return IoStatus::kOk;
}

ClientChannel::ClientChannel(const Endpoint& endpoint)
    : conn_(FramedConn(Socket::connect_to(endpoint))) {}

void ClientChannel::close() { conn_.reset(); }

bool ClientChannel::send_frame(std::span<const std::uint8_t> frame_bytes) {
  if (!conn_.has_value()) return false;
  if (!conn_->queue_frame(frame_bytes)) {
    // The client never queues unboundedly: wait for the socket to drain.
    // (Only reachable with a pathologically small max_output_bytes.)
    close();
    return false;
  }
  while (conn_->want_write()) {
    const FramedConn::IoStatus status = conn_->flush();
    if (status != FramedConn::IoStatus::kOk) {
      close();
      return false;
    }
    if (!conn_->want_write()) break;
    pollfd pfd{conn_->socket().fd(), POLLOUT, 0};
    if (::poll(&pfd, 1, /*timeout_ms=*/100) < 0 && errno != EINTR) {
      close();
      return false;
    }
  }
  return true;
}

std::size_t ClientChannel::poll_frames(std::vector<Frame>& out,
                                       int timeout_ms) {
  if (!conn_.has_value()) return 0;
  const std::size_t before = out.size();
  pollfd pfd{conn_->socket().fd(), POLLIN, 0};
  const int ready = ::poll(&pfd, 1, timeout_ms);
  if (ready < 0 && errno != EINTR) {
    close();
    return 0;
  }
  if (ready > 0) {
    const FramedConn::IoStatus status = conn_->read_frames(out);
    if (status != FramedConn::IoStatus::kOk) close();
  }
  return out.size() - before;
}

}  // namespace helcfl::svc
