// Measurement probes the benchmark generator wraps around the program's
// public seams: byte/frame counting decorators for Transport and
// DatagramLink, /proc readers for another process's CPU and peak memory,
// a steady-clock timer, and a minimal JSON writer for the result line.
//
// Everything here observes from outside: the decorators forward every call
// unchanged, so the program under test behaves exactly as it does without
// them, and their counts never depend on the program's own CommLedger.
#pragma once

#include <time.h>
#include <unistd.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "net/transport/transport.h"
#include "net/transport/udp.h"

namespace flbench {

namespace nt = adafl::net::transport;
using Clock = std::chrono::steady_clock;

/// Seconds on the monotonic clock: the same clock as Python's
/// time.monotonic(), so timestamps compare across processes.
inline double now_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

/// Appends the wall time of `fn()` to `out` (when `out` is non-null) and
/// returns what fn returns.
template <typename Fn>
auto timed(std::vector<double>* out, Fn&& fn) {
  if (out == nullptr) return fn();
  const double t0 = now_s();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    out->push_back(now_s() - t0);
  } else {
    auto r = fn();
    out->push_back(now_s() - t0);
    return r;
  }
}

/// Frames and bytes per message type, one direction.
struct FrameTally {
  static constexpr std::size_t kTypes = 16;
  std::array<std::int64_t, kTypes> frames{};
  std::array<std::int64_t, kTypes> bytes{};

  void add(nt::MsgType t, std::size_t wire_bytes) {
    const auto i = static_cast<std::size_t>(t) % kTypes;
    ++frames[i];
    bytes[i] += static_cast<std::int64_t>(wire_bytes);
  }
  std::int64_t total_frames() const {
    std::int64_t s = 0;
    for (auto v : frames) s += v;
    return s;
  }
  std::int64_t total_bytes() const {
    std::int64_t s = 0;
    for (auto v : bytes) s += v;
    return s;
  }
  void merge(const FrameTally& o) {
    for (std::size_t i = 0; i < kTypes; ++i) {
      frames[i] += o.frames[i];
      bytes[i] += o.bytes[i];
    }
  }
};

/// Both directions of one endpoint, as its owner sees them: `up` is what the
/// endpoint sent, `down` what it received. Owned by one thread.
struct LinkTally {
  FrameTally up, down;
  std::int64_t dgram_up_bytes = 0, dgram_down_bytes = 0;
  std::int64_t dgram_up = 0, dgram_down = 0;
  std::int64_t parity_up_bytes = 0, parity_down_bytes = 0;
  std::vector<double> send_s;  ///< Transport::send wall time per frame
};

/// Transport decorator counting every frame that crosses it (envelope
/// included: Frame::wire_size() is the exact encoded size) and timing each
/// send. `on_send` sees every frame handed to send(), delivered or not.
class CountingTransport final : public nt::Transport {
 public:
  CountingTransport(std::unique_ptr<nt::Transport> inner, LinkTally* tally,
                    std::function<void(const nt::Frame&)> on_send = {})
      : inner_(std::move(inner)), tally_(tally), on_send_(std::move(on_send)) {}

  bool send(const nt::Frame& f) override {
    if (on_send_) on_send_(f);
    const double t0 = now_s();
    const bool ok = inner_->send(f);
    tally_->send_s.push_back(now_s() - t0);
    if (ok) tally_->up.add(f.type, f.wire_size());
    return ok;
  }
  std::optional<nt::Frame> recv(std::chrono::milliseconds timeout) override {
    auto f = inner_->recv(timeout);
    if (f) tally_->down.add(f->type, f->wire_size());
    return f;
  }
  bool closed() const override { return inner_->closed(); }
  void close() override { inner_->close(); }
  std::string peer() const override { return inner_->peer(); }

 private:
  std::unique_ptr<nt::Transport> inner_;
  LinkTally* tally_;
  std::function<void(const nt::Frame&)> on_send_;
};

/// DatagramLink decorator counting datagrams and bytes (40-byte datagram
/// header included) and splitting out parity shards by their header.
/// Placed above a FaultyDatagramLink it counts what the client put on the
/// wire, including datagrams the fault model then drops.
class CountingLink final : public nt::DatagramLink {
 public:
  CountingLink(std::unique_ptr<nt::DatagramLink> inner, LinkTally* tally)
      : inner_(std::move(inner)), tally_(tally) {}

  bool send(std::span<const std::uint8_t> d) override {
    const bool ok = inner_->send(d);
    if (ok) {
      ++tally_->dgram_up;
      tally_->dgram_up_bytes += static_cast<std::int64_t>(d.size());
      if (is_parity(d))
        tally_->parity_up_bytes += static_cast<std::int64_t>(d.size());
    }
    return ok;
  }
  std::optional<std::vector<std::uint8_t>> recv(
      std::chrono::milliseconds timeout) override {
    auto d = inner_->recv(timeout);
    if (d) {
      ++tally_->dgram_down;
      tally_->dgram_down_bytes += static_cast<std::int64_t>(d->size());
      if (is_parity(*d))
        tally_->parity_down_bytes += static_cast<std::int64_t>(d->size());
    }
    return d;
  }
  bool closed() const override { return inner_->closed(); }
  void close() override { inner_->close(); }
  std::string peer() const override { return inner_->peer(); }

 private:
  static bool is_parity(std::span<const std::uint8_t> d) {
    const auto h = nt::parse_datagram(d);
    return h && h->shard >= h->k;
  }
  std::unique_ptr<nt::DatagramLink> inner_;
  LinkTally* tally_;
};

/// CPU seconds (user + system, all threads) of process `pid`, from
/// /proc/<pid>/stat; nullopt when the process is gone.
inline std::optional<double> proc_cpu_s(long pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(in, line)) return std::nullopt;
  // The command name (field 2) may contain spaces; fields resume after ')'.
  const auto rp = line.rfind(')');
  if (rp == std::string::npos) return std::nullopt;
  std::istringstream rest(line.substr(rp + 2));
  std::string field;
  unsigned long long utime = 0, stime = 0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::stoull(field);
    if (i == 15) stime = std::stoull(field);
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// CPU seconds consumed so far by the thread behind `clock`
/// (pthread_getcpuclockid).
inline double thread_cpu_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

/// Minimal JSON object writer: numbers keep every digit (%.17g).
class Json {
 public:
  Json& num(const std::string& k, double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return raw(k, buf);
  }
  Json& integer(const std::string& k, std::int64_t v) {
    return raw(k, std::to_string(v));
  }
  Json& str(const std::string& k, const std::string& v) {
    std::string q = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      q += c;
    }
    return raw(k, q + "\"");
  }
  Json& boolean(const std::string& k, bool v) {
    return raw(k, v ? "true" : "false");
  }
  Json& nums(const std::string& k, const std::vector<double>& v) {
    std::string s = "[";
    char buf[40];
    for (std::size_t i = 0; i < v.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s%.17g", i ? "," : "", v[i]);
      s += buf;
    }
    return raw(k, s + "]");
  }
  Json& obj(const std::string& k, const Json& o) { return raw(k, o.text()); }
  Json& raw(const std::string& k, const std::string& v) {
    body_ += (body_.empty() ? "\"" : ",\"") + k + "\":" + v;
    return *this;
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

}  // namespace flbench
