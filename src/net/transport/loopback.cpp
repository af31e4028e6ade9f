#include "net/transport/loopback.h"

namespace adafl::net::transport {

std::pair<std::unique_ptr<LoopbackTransport>,
          std::unique_ptr<LoopbackTransport>>
make_loopback_pair() {
  auto a_to_b = std::make_shared<LoopbackTransport::Channel>();
  auto b_to_a = std::make_shared<LoopbackTransport::Channel>();
  std::unique_ptr<LoopbackTransport> a(
      new LoopbackTransport(a_to_b, b_to_a));
  std::unique_ptr<LoopbackTransport> b(
      new LoopbackTransport(b_to_a, a_to_b));
  return {std::move(a), std::move(b)};
}

bool LoopbackTransport::send(const Frame& f) {
  return enqueue(
      std::make_shared<const std::vector<std::uint8_t>>(encode_frame(f)));
}

bool LoopbackTransport::send_encoded(
    const Frame&,
    const std::shared_ptr<const std::vector<std::uint8_t>>& encoded) {
  return enqueue(encoded);
}

bool LoopbackTransport::enqueue(
    std::shared_ptr<const std::vector<std::uint8_t>> encoded) {
  std::lock_guard<std::mutex> lock(tx_->mu);
  if (tx_->closed) return false;
  tx_->queue.push_back(std::move(encoded));
  tx_->cv.notify_all();
  return true;
}

std::optional<Frame> LoopbackTransport::recv(
    std::chrono::milliseconds timeout) {
  std::shared_ptr<const std::vector<std::uint8_t>> encoded;
  {
    std::unique_lock<std::mutex> lock(rx_->mu);
    // A zero timeout is a poll: the timed wait's timer slack would put an
    // idle poll to sleep.
    if (timeout.count() > 0)
      rx_->cv.wait_for(lock, timeout, [&] {
        return !rx_->queue.empty() || rx_->closed;
      });
    if (rx_->queue.empty()) return std::nullopt;  // timeout or closed
    encoded = std::move(rx_->queue.front());
    rx_->queue.pop_front();
  }
  // Every queued buffer is exactly one encoded frame.
  return decode_frame(*encoded);
}

bool LoopbackTransport::closed() const {
  std::lock_guard<std::mutex> lock(rx_->mu);
  return rx_->closed && rx_->queue.empty();
}

void LoopbackTransport::close() {
  for (auto* ch : {tx_.get(), rx_.get()}) {
    std::lock_guard<std::mutex> lock(ch->mu);
    ch->closed = true;
    ch->cv.notify_all();
  }
}

}  // namespace adafl::net::transport
