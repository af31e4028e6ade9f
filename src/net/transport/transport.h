// Abstract frame transport: the seam between the FL session protocol and
// the medium carrying it. TcpTransport (tcp.h) runs the protocol over real
// POSIX sockets; LoopbackTransport (loopback.h) runs the *same encoded
// bytes* through in-process queues, so the protocol state machine is
// identical on the simulated and deployed paths and the two can be asserted
// bitwise-equivalent.
#pragma once

#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/transport/frame.h"

namespace adafl::net::transport {

class Transport {
 public:
  virtual ~Transport() = default;

  /// Sends one frame. Returns false if the connection is down (the frame
  /// was not delivered); the transport is then closed().
  virtual bool send(const Frame& f) = 0;

  /// Sends `f` given its complete encoding, `encoded` == encode_frame(f)
  /// (non-null). A broadcast encodes its frame once and hands every
  /// connection the same immutable buffer: LoopbackTransport queues the
  /// buffer itself, TcpTransport writes it as is, UdpTransport fragments it.
  /// The default ignores `encoded` and calls send(f), so a decorator that
  /// overrides only send() still sees every frame. Same return contract as
  /// send().
  virtual bool send_encoded(
      const Frame& f,
      const std::shared_ptr<const std::vector<std::uint8_t>>& encoded) {
    (void)encoded;
    return send(f);
  }

  /// Waits up to `timeout` for the next frame. Returns nullopt on timeout
  /// or when the connection closed — distinguish via closed(). Throws
  /// CheckError if the peer sent a malformed byte stream; callers should
  /// drop the connection on that. recv(0) is a poll: it returns a frame
  /// already received, or nullopt, and never sleeps — servers and relays
  /// sweep every connection with it on each pass.
  virtual std::optional<Frame> recv(std::chrono::milliseconds timeout) = 0;

  virtual bool closed() const = 0;

  /// Shuts the connection down; subsequent send/recv fail fast. Idempotent.
  virtual void close() = 0;

  /// Human-readable peer description for logs ("127.0.0.1:4242",
  /// "loopback").
  virtual std::string peer() const = 0;
};

}  // namespace adafl::net::transport
