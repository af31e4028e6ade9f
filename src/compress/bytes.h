// Little-endian byte encoding helpers shared by the compression wire format
// (compress/wire.h) and the deployed transport framing (net/transport/).
//
// Writers append to a std::vector<std::uint8_t>; Reader is a bounds-checked
// cursor that throws CheckError on any attempt to read past the end, so
// malformed network input can never over-read a buffer.
//
// Float arrays move in bulk (put_f32s / Reader::f32s): on a little-endian
// host the in-memory floats already are the wire bytes, so each is one
// memcpy; other hosts take the per-element path. Both write and read the
// same bytes, bit for bit (NaN payloads included).
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "tensor/check.h"

namespace adafl::bytes {

inline void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}

inline void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

inline void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

inline void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
}

inline void put_f32(std::vector<std::uint8_t>& out, float f) {
  std::uint32_t v = 0;
  std::memcpy(&v, &f, 4);
  put_u32(out, v);
}

/// Appends `v` as consecutive little-endian f32s; byte for byte what a
/// put_f32() loop writes.
inline void put_f32s(std::vector<std::uint8_t>& out, std::span<const float> v) {
  if constexpr (std::endian::native == std::endian::little) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(v.data());
    out.insert(out.end(), p, p + v.size() * 4);
  } else {
    for (float f : v) put_f32(out, f);
  }
}

inline void put_f64(std::vector<std::uint8_t>& out, double d) {
  std::uint64_t v = 0;
  std::memcpy(&v, &d, 8);
  put_u64(out, v);
}

/// u32 length prefix + raw bytes.
inline void put_str(std::vector<std::uint8_t>& out, std::string_view s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

/// Bounds-checked little-endian reader over a borrowed buffer.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> b) : b_(b) {}

  std::uint8_t u8() {
    ADAFL_CHECK_MSG(off_ + 1 <= b_.size(), "bytes: truncated u8");
    return b_[off_++];
  }

  std::uint16_t u16() {
    ADAFL_CHECK_MSG(off_ + 2 <= b_.size(), "bytes: truncated u16");
    const std::uint16_t v = static_cast<std::uint16_t>(
        static_cast<std::uint16_t>(b_[off_]) |
        (static_cast<std::uint16_t>(b_[off_ + 1]) << 8));
    off_ += 2;
    return v;
  }

  std::uint32_t u32() {
    ADAFL_CHECK_MSG(off_ + 4 <= b_.size(), "bytes: truncated u32");
    const std::uint32_t v = static_cast<std::uint32_t>(b_[off_]) |
                            (static_cast<std::uint32_t>(b_[off_ + 1]) << 8) |
                            (static_cast<std::uint32_t>(b_[off_ + 2]) << 16) |
                            (static_cast<std::uint32_t>(b_[off_ + 3]) << 24);
    off_ += 4;
    return v;
  }

  std::uint64_t u64() {
    const std::uint64_t lo = u32();
    const std::uint64_t hi = u32();
    return lo | (hi << 32);
  }

  float f32() {
    const std::uint32_t v = u32();
    float f = 0.0f;
    std::memcpy(&f, &v, 4);
    return f;
  }

  /// Fills `out` with the next out.size() f32s; throws before copying
  /// anything if fewer than out.size() * 4 bytes remain.
  void f32s(std::span<float> out) {
    ADAFL_CHECK_MSG(out.size() <= remaining() / 4,
                    "bytes: truncated read of " << out.size() << " f32s");
    if constexpr (std::endian::native == std::endian::little) {
      if (out.empty()) return;
      std::memcpy(out.data(), b_.data() + off_, out.size() * 4);
      off_ += out.size() * 4;
    } else {
      for (float& f : out) f = f32();
    }
  }

  double f64() {
    const std::uint64_t v = u64();
    double d = 0.0;
    std::memcpy(&d, &v, 8);
    return d;
  }

  /// Borrows the next `n` bytes without copying.
  std::span<const std::uint8_t> raw(std::size_t n) {
    ADAFL_CHECK_MSG(off_ + n <= b_.size(),
                    "bytes: truncated raw read of " << n);
    auto s = b_.subspan(off_, n);
    off_ += n;
    return s;
  }

  /// Reads a put_str()-encoded string.
  std::string str() {
    const std::uint32_t n = u32();
    ADAFL_CHECK_MSG(off_ + n <= b_.size(), "bytes: truncated string");
    std::string s(reinterpret_cast<const char*>(b_.data()) +
                      static_cast<std::ptrdiff_t>(off_),
                  n);
    off_ += n;
    return s;
  }

  std::size_t offset() const { return off_; }
  std::size_t remaining() const { return b_.size() - off_; }

 private:
  std::span<const std::uint8_t> b_;
  std::size_t off_ = 0;
};

}  // namespace adafl::bytes
