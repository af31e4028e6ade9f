// In-process Transport: a pair of endpoints joined by two byte queues.
//
// Frames are run through encode_frame()/decode_frame() on every hop — the
// loopback path exercises the exact bytes a socket would carry, so a
// deployed run over loopback is the simulator-grade reference for the TCP
// path (and is what the equivalence tests drive).
#pragma once

#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <utility>

#include "net/transport/transport.h"

namespace adafl::net::transport {

class LoopbackTransport;

/// Creates a connected endpoint pair. Each endpoint is thread-safe against
/// its peer (one thread per endpoint, the usual client/server shape).
std::pair<std::unique_ptr<LoopbackTransport>,
          std::unique_ptr<LoopbackTransport>>
make_loopback_pair();

class LoopbackTransport final : public Transport {
 public:
  /// Destruction closes both channels, like a socket: a peer dropped by the
  /// server (conn.reset()) observes the disconnect instead of blocking on
  /// recv() forever.
  ~LoopbackTransport() override { close(); }

  bool send(const Frame& f) override;
  std::optional<Frame> recv(std::chrono::milliseconds timeout) override;
  bool closed() const override;
  void close() override;
  std::string peer() const override { return "loopback"; }

 private:
  friend std::pair<std::unique_ptr<LoopbackTransport>,
                   std::unique_ptr<LoopbackTransport>>
  make_loopback_pair();

  /// One direction of the pipe: encoded frame buffers in flight.
  struct Channel {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<std::vector<std::uint8_t>> queue;
    bool closed = false;
  };

  LoopbackTransport(std::shared_ptr<Channel> tx, std::shared_ptr<Channel> rx)
      : tx_(std::move(tx)), rx_(std::move(rx)) {}

  std::shared_ptr<Channel> tx_;  ///< frames this endpoint sends
  std::shared_ptr<Channel> rx_;  ///< frames this endpoint receives
};

}  // namespace adafl::net::transport
