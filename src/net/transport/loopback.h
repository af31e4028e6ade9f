// In-process Transport: a pair of endpoints joined by two queues of encoded
// frames.
//
// A frame is encoded once per send (send_encoded() queues the caller's
// buffer, so a broadcast shares one immutable encoding across every
// receiver) and decoded per receiver: each recv() runs decode_frame() —
// magic, type, length, CRC — on the exact bytes a socket would carry. A
// deployed run over loopback is therefore the simulator-grade reference for
// the TCP path (and is what the equivalence tests drive).
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
  bool send_encoded(
      const Frame& f,
      const std::shared_ptr<const std::vector<std::uint8_t>>& encoded)
      override;
  std::optional<Frame> recv(std::chrono::milliseconds timeout) override;
  bool closed() const override;
  void close() override;
  std::string peer() const override { return "loopback"; }

 private:
  friend std::pair<std::unique_ptr<LoopbackTransport>,
                   std::unique_ptr<LoopbackTransport>>
  make_loopback_pair();

  /// One direction of the pipe: encoded frame buffers in flight (shared
  /// and immutable; a broadcast buffer may sit in many queues at once).
  struct Channel {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<std::shared_ptr<const std::vector<std::uint8_t>>> queue;
    bool closed = false;
  };

  bool enqueue(std::shared_ptr<const std::vector<std::uint8_t>> encoded);

  LoopbackTransport(std::shared_ptr<Channel> tx, std::shared_ptr<Channel> rx)
      : tx_(std::move(tx)), rx_(std::move(rx)) {}

  std::shared_ptr<Channel> tx_;  ///< frames this endpoint sends
  std::shared_ptr<Channel> rx_;  ///< frames this endpoint receives
};

}  // namespace adafl::net::transport
