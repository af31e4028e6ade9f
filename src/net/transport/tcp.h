// From-scratch POSIX TCP transport for deployed FL.
//
// All sockets are non-blocking; every operation takes an explicit deadline
// enforced with poll(), so a dead peer can stall a caller for at most its
// timeout — never forever. Writes use MSG_NOSIGNAL (a vanished peer yields
// an error, not SIGPIPE). TCP_NODELAY is set: protocol messages are
// latency-sensitive and already batched into frames.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "net/transport/transport.h"

namespace adafl::net::transport {

/// Bounded exponential backoff schedule for reconnect attempts.
struct BackoffPolicy {
  std::chrono::milliseconds initial{200};
  std::chrono::milliseconds max{5000};
  double multiplier = 2.0;
  /// Attempts before giving up; 0 = retry forever.
  int max_attempts = 10;

  /// Delay before attempt `attempt` (0-based): initial * multiplier^attempt,
  /// clamped to max.
  std::chrono::milliseconds delay(int attempt) const;
};

/// Frame transport over one connected TCP socket. Construct via connect()
/// or TcpListener::accept().
class TcpTransport final : public Transport {
 public:
  /// Takes ownership of a connected socket fd.
  TcpTransport(int fd, std::string peer_desc);
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  /// Connects to host:port (numeric IP or resolvable name) within
  /// `timeout`. Returns nullptr on failure.
  static std::unique_ptr<TcpTransport> connect(
      const std::string& host, std::uint16_t port,
      std::chrono::milliseconds timeout);

  bool send(const Frame& f) override;
  /// Writes `encoded` as is.
  bool send_encoded(
      const Frame& f,
      const std::shared_ptr<const std::vector<std::uint8_t>>& encoded)
      override;
  std::optional<Frame> recv(std::chrono::milliseconds timeout) override;
  bool closed() const override { return closed_; }
  void close() override;
  std::string peer() const override { return peer_; }

  /// Deadline applied to each send() call (a peer that stops draining its
  /// receive buffer fails the send instead of blocking the round loop).
  void set_send_timeout(std::chrono::milliseconds t) { send_timeout_ = t; }

 private:
  /// Writes all of `bytes` within the send deadline; false (and closed)
  /// on failure.
  bool write_all(std::span<const std::uint8_t> bytes);

  int fd_ = -1;
  bool closed_ = false;
  std::string peer_;
  FrameParser parser_;
  std::chrono::milliseconds send_timeout_{10000};
};

/// Listening socket accepting TcpTransport connections.
class TcpListener {
 public:
  /// Binds 0.0.0.0:`port` (0 = ephemeral; see port()) and listens. Throws
  /// CheckError if the address is unavailable.
  explicit TcpListener(std::uint16_t port);
  ~TcpListener();

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  /// The bound port (resolves ephemeral binds).
  std::uint16_t port() const { return port_; }

  /// Waits up to `timeout` for one connection; nullptr on timeout or after
  /// close().
  std::unique_ptr<TcpTransport> accept(std::chrono::milliseconds timeout);

  /// Stops accepting; pending and future accept() calls return nullptr.
  /// Safe to call from a different thread than accept() (the usual shape:
  /// main thread closes, accept loop unblocks). The fd itself is released
  /// by the destructor, never while an accept() may still be polling it.
  void close();
  bool closed() const { return closed_.load(); }

  /// The listening socket, for EventLoop::adopt_listener. The listener
  /// still owns the fd (close()/dtor semantics unchanged); do not accept()
  /// on this object while an event loop drives the fd.
  int fd() const { return fd_.load(); }

 private:
  std::atomic<int> fd_{-1};
  std::atomic<bool> closed_{false};
  std::uint16_t port_ = 0;
};

}  // namespace adafl::net::transport
