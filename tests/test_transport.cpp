// Transport layer: loopback pair semantics, real TCP sockets on 127.0.0.1,
// and the reconnect backoff schedule. Focus is on the failure-path contract
// (timeouts return nullopt, EOF flips closed(), dead ports fail fast) that
// the session layer's resilience is built on.
#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "net/transport/loopback.h"
#include "net/transport/tcp.h"
#include "tensor/check.h"

namespace adafl::net::transport {
namespace {

using std::chrono::milliseconds;

Frame ping_frame(std::uint32_t round, std::uint32_t client_id) {
  Frame f;
  f.type = MsgType::kPing;
  f.round = round;
  f.client_id = client_id;
  return f;
}

TEST(Backoff, ExponentialBoundedDelays) {
  BackoffPolicy b;
  b.initial = milliseconds(100);
  b.max = milliseconds(450);
  b.multiplier = 2.0;
  EXPECT_EQ(b.delay(0), milliseconds(100));
  EXPECT_EQ(b.delay(1), milliseconds(200));
  EXPECT_EQ(b.delay(2), milliseconds(400));
  EXPECT_EQ(b.delay(3), milliseconds(450));  // clamped
  EXPECT_EQ(b.delay(30), milliseconds(450));
}

TEST(Backoff, ExtremeAttemptsSaturateAtMax) {
  BackoffPolicy b;
  b.initial = milliseconds(100);
  b.max = milliseconds(450);
  b.multiplier = 2.0;
  // pow(2, 64+) overflows double range well before these; the delay must
  // saturate at max instead of wrapping through an undefined int64 cast.
  EXPECT_EQ(b.delay(64), milliseconds(450));
  EXPECT_EQ(b.delay(1024), milliseconds(450));
  EXPECT_EQ(b.delay(std::numeric_limits<int>::max()), milliseconds(450));
}

TEST(Backoff, ZeroInitialNeverGoesNegativeOrNaN) {
  BackoffPolicy b;
  b.initial = milliseconds(0);
  b.max = milliseconds(450);
  b.multiplier = 2.0;
  EXPECT_EQ(b.delay(0), milliseconds(0));
  EXPECT_EQ(b.delay(5), milliseconds(0));
  // 0 * inf = NaN in double space; it must clamp to max, not cast NaN.
  EXPECT_EQ(b.delay(2048), milliseconds(450));
}

TEST(Loopback, SendRecvBothDirections) {
  auto [a, b] = make_loopback_pair();
  Frame f = ping_frame(3, 1);
  f.payload = {9, 8, 7};
  EXPECT_TRUE(a->send(f));
  const auto got = b->recv(milliseconds(500));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->type, MsgType::kPing);
  EXPECT_EQ(got->round, 3u);
  EXPECT_EQ(got->payload, f.payload);

  EXPECT_TRUE(b->send(ping_frame(4, 2)));
  const auto back = a->recv(milliseconds(500));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->round, 4u);
  EXPECT_EQ(a->peer(), "loopback");
}

TEST(Loopback, RecvTimesOutWhenIdle) {
  auto [a, b] = make_loopback_pair();
  EXPECT_FALSE(a->recv(milliseconds(0)).has_value());
  EXPECT_FALSE(a->recv(milliseconds(20)).has_value());
  EXPECT_FALSE(a->closed());
  (void)b;
}

TEST(Loopback, CloseDrainsInFlightFramesThenEof) {
  auto [a, b] = make_loopback_pair();
  EXPECT_TRUE(a->send(ping_frame(1, 0)));
  EXPECT_TRUE(a->send(ping_frame(2, 0)));
  a->close();
  // Frames already in flight still arrive...
  EXPECT_FALSE(b->closed());
  EXPECT_EQ(b->recv(milliseconds(100))->round, 1u);
  EXPECT_EQ(b->recv(milliseconds(100))->round, 2u);
  // ...then the connection reads as closed and recv fails fast.
  EXPECT_TRUE(b->closed());
  EXPECT_FALSE(b->recv(milliseconds(0)).has_value());
  // Sending into a closed pipe fails from either end.
  EXPECT_FALSE(b->send(ping_frame(3, 0)));
  EXPECT_FALSE(a->send(ping_frame(3, 0)));
}

// recv(0) is a poll (transport.h): it reports exactly the queue state and
// never waits. Only state is asserted, never elapsed time.
TEST(Loopback, ZeroTimeoutRecvPollsQueueState) {
  auto [a, b] = make_loopback_pair();
  EXPECT_FALSE(b->recv(milliseconds(0)).has_value());
  EXPECT_FALSE(b->closed());

  EXPECT_TRUE(a->send(ping_frame(1, 0)));
  const auto got = b->recv(milliseconds(0));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->round, 1u);
  EXPECT_FALSE(b->recv(milliseconds(0)).has_value());

  // After the peer closes, queued frames still drain through polls, and
  // only then does closed() turn true.
  EXPECT_TRUE(a->send(ping_frame(2, 0)));
  EXPECT_TRUE(a->send(ping_frame(3, 0)));
  a->close();
  EXPECT_FALSE(b->closed());
  EXPECT_EQ(b->recv(milliseconds(0))->round, 2u);
  EXPECT_FALSE(b->closed());
  EXPECT_EQ(b->recv(milliseconds(0))->round, 3u);
  EXPECT_TRUE(b->closed());
  EXPECT_FALSE(b->recv(milliseconds(0)).has_value());
}

std::shared_ptr<const std::vector<std::uint8_t>> encoded(const Frame& f) {
  return std::make_shared<const std::vector<std::uint8_t>>(encode_frame(f));
}

Frame model_like_frame(std::size_t payload_bytes) {
  Frame f;
  f.type = MsgType::kModel;
  f.round = 9;
  f.payload.resize(payload_bytes);
  for (std::size_t i = 0; i < f.payload.size(); ++i)
    f.payload[i] = static_cast<std::uint8_t>(i * 29 + 5);
  return f;
}

void expect_same_frame(const Frame& got, const Frame& want) {
  EXPECT_EQ(got.type, want.type);
  EXPECT_EQ(got.round, want.round);
  EXPECT_EQ(got.client_id, want.client_id);
  EXPECT_EQ(got.payload, want.payload);
}

// send_encoded() queues the caller's encoding; the receiver decodes it to
// the frame send() would have delivered. One buffer feeds many receivers.
TEST(Loopback, SendEncodedMatchesSend) {
  const Frame f = model_like_frame(4099);
  const auto bytes = encoded(f);
  auto [a, b] = make_loopback_pair();
  auto [c, d] = make_loopback_pair();
  ASSERT_TRUE(a->send(f));
  ASSERT_TRUE(a->send_encoded(f, bytes));
  ASSERT_TRUE(c->send_encoded(f, bytes));
  for (auto* rx : {b.get(), b.get(), d.get()}) {
    const auto got = rx->recv(milliseconds(0));
    ASSERT_TRUE(got.has_value());
    expect_same_frame(*got, f);
  }
  EXPECT_EQ(bytes->size(), f.wire_size());
  // Sending into a closed pipe fails like send().
  a->close();
  EXPECT_FALSE(a->send_encoded(f, bytes));
}

// The receiver still validates the queued bytes (magic, type, length, CRC):
// a buffer that is not encode_frame(f) is caught at recv(), not trusted.
TEST(Loopback, SendEncodedBytesAreDecodedAndChecked) {
  const Frame f = model_like_frame(300);
  auto bad = std::make_shared<std::vector<std::uint8_t>>(encode_frame(f));
  (*bad)[kFrameHeaderBytes + 7] ^= 0x01;  // payload bit: CRC mismatch
  auto [a, b] = make_loopback_pair();
  ASSERT_TRUE(a->send_encoded(f, bad));
  EXPECT_THROW(b->recv(milliseconds(0)), CheckError);
}

/// Decorator that overrides send() only, like the counting and fault
/// decorators built on Transport.
class SendCountingTransport final : public Transport {
 public:
  explicit SendCountingTransport(std::unique_ptr<Transport> inner)
      : inner_(std::move(inner)) {}
  bool send(const Frame& f) override {
    seen.push_back(f);
    return inner_->send(f);
  }
  std::optional<Frame> recv(milliseconds timeout) override {
    return inner_->recv(timeout);
  }
  bool closed() const override { return inner_->closed(); }
  void close() override { inner_->close(); }
  std::string peer() const override { return inner_->peer(); }

  std::vector<Frame> seen;

 private:
  std::unique_ptr<Transport> inner_;
};

// The default send_encoded() calls send(): a decorator that knows nothing of
// pre-encoded sends still sees, counts and forwards every frame.
TEST(Transport, SendEncodedDefaultRoutesThroughSend) {
  auto [a, b] = make_loopback_pair();
  SendCountingTransport counting(std::move(a));
  Transport& t = counting;
  const Frame f1 = model_like_frame(64);
  Frame f2 = ping_frame(4, 1);
  f2.payload = {1, 2, 3};
  ASSERT_TRUE(t.send_encoded(f1, encoded(f1)));
  ASSERT_TRUE(t.send_encoded(f2, encoded(f2)));
  ASSERT_EQ(counting.seen.size(), 2u);
  expect_same_frame(counting.seen[0], f1);
  expect_same_frame(counting.seen[1], f2);
  expect_same_frame(*b->recv(milliseconds(0)), f1);
  expect_same_frame(*b->recv(milliseconds(0)), f2);
}

TEST(Tcp, EphemeralListenerRoundTrip) {
  TcpListener listener(0);
  EXPECT_GT(listener.port(), 0);

  std::unique_ptr<TcpTransport> server_side;
  std::thread acceptor(
      [&] { server_side = listener.accept(milliseconds(2000)); });
  auto client = TcpTransport::connect("127.0.0.1", listener.port(),
                                      milliseconds(2000));
  acceptor.join();
  ASSERT_NE(client, nullptr);
  ASSERT_NE(server_side, nullptr);
  EXPECT_FALSE(client->peer().empty());
  EXPECT_FALSE(server_side->peer().empty());

  // Small frame client -> server.
  Frame f = ping_frame(5, 2);
  f.payload = {1, 2, 3, 4};
  EXPECT_TRUE(client->send(f));
  auto got = server_side->recv(milliseconds(2000));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->payload, f.payload);

  // Large frame server -> client (bigger than any single socket buffer, so
  // partial writes/reads and reassembly are exercised).
  Frame big;
  big.type = MsgType::kModel;
  big.round = 1;
  big.payload.resize(3 * 1024 * 1024);
  for (std::size_t i = 0; i < big.payload.size(); ++i)
    big.payload[i] = static_cast<std::uint8_t>(i * 131 + 17);
  std::thread sender([&] { EXPECT_TRUE(server_side->send(big)); });
  auto rx = client->recv(milliseconds(5000));
  sender.join();
  ASSERT_TRUE(rx.has_value());
  EXPECT_EQ(rx->payload, big.payload);
}

TEST(Tcp, RecvTimeoutThenPeerCloseBecomesEof) {
  TcpListener listener(0);
  std::unique_ptr<TcpTransport> server_side;
  std::thread acceptor(
      [&] { server_side = listener.accept(milliseconds(2000)); });
  auto client = TcpTransport::connect("127.0.0.1", listener.port(),
                                      milliseconds(2000));
  acceptor.join();
  ASSERT_NE(client, nullptr);
  ASSERT_NE(server_side, nullptr);

  // Quiet peer: recv times out without flipping closed().
  EXPECT_FALSE(client->recv(milliseconds(30)).has_value());
  EXPECT_FALSE(client->closed());

  // Peer hangs up: recv observes EOF and the transport reads closed.
  server_side->close();
  EXPECT_FALSE(client->recv(milliseconds(2000)).has_value());
  EXPECT_TRUE(client->closed());
  EXPECT_FALSE(client->send(ping_frame(1, 0)));
}

TEST(Tcp, ConnectToDeadPortFailsFast) {
  // Bind an ephemeral port, then close it so nothing listens there.
  std::uint16_t dead_port = 0;
  {
    TcpListener listener(0);
    dead_port = listener.port();
  }
  auto t = TcpTransport::connect("127.0.0.1", dead_port, milliseconds(1000));
  EXPECT_EQ(t, nullptr);
}

TEST(Tcp, SendAfterLocalCloseFails) {
  TcpListener listener(0);
  std::unique_ptr<TcpTransport> server_side;
  std::thread acceptor(
      [&] { server_side = listener.accept(milliseconds(2000)); });
  auto client = TcpTransport::connect("127.0.0.1", listener.port(),
                                      milliseconds(2000));
  acceptor.join();
  ASSERT_NE(client, nullptr);
  client->close();
  EXPECT_TRUE(client->closed());
  EXPECT_FALSE(client->send(ping_frame(1, 0)));
  EXPECT_FALSE(client->recv(milliseconds(0)).has_value());
}

// send_encoded() writes the given bytes as they are; the peer's stream
// parser decodes the same frame send() would have produced, including one
// larger than any socket buffer.
TEST(Tcp, SendEncodedWritesBytesAsIs) {
  TcpListener listener(0);
  std::unique_ptr<TcpTransport> server_side;
  std::thread acceptor(
      [&] { server_side = listener.accept(milliseconds(2000)); });
  auto client = TcpTransport::connect("127.0.0.1", listener.port(),
                                      milliseconds(2000));
  acceptor.join();
  ASSERT_NE(client, nullptr);
  ASSERT_NE(server_side, nullptr);

  const Frame big = model_like_frame(3 * 1024 * 1024 + 5);
  const Frame small = ping_frame(2, 7);
  std::thread sender([&] {
    EXPECT_TRUE(server_side->send_encoded(big, encoded(big)));
    EXPECT_TRUE(server_side->send(small));
    EXPECT_TRUE(server_side->send_encoded(small, encoded(small)));
  });
  const auto got_big = client->recv(milliseconds(5000));
  sender.join();
  ASSERT_TRUE(got_big.has_value());
  expect_same_frame(*got_big, big);
  for (int i = 0; i < 2; ++i) {
    const auto got = client->recv(milliseconds(2000));
    ASSERT_TRUE(got.has_value());
    expect_same_frame(*got, small);
  }
  client->close();
  EXPECT_FALSE(client->send_encoded(small, encoded(small)));
}

}  // namespace
}  // namespace adafl::net::transport
