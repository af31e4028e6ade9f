#include "net/fec/interleave.h"

#include <cstring>

#include "tensor/check.h"

namespace adafl::net::fec {

// Shard s holds frame bytes s, s + k, s + 2k, ...: one strided walk per
// shard, no per-byte division, and only the tail past the last byte zeroed.

void interleave(std::span<const std::uint8_t> src, int k,
                std::size_t shard_len, std::uint8_t* const* shards) {
  ADAFL_CHECK_MSG(k >= 1, "interleave: k < 1");
  ADAFL_CHECK_MSG(static_cast<std::size_t>(k) * shard_len >= src.size(),
                  "interleave: " << src.size() << " bytes exceed " << k
                                 << " shards of " << shard_len);
  const std::size_t stride = static_cast<std::size_t>(k);
  for (int s = 0; s < k; ++s) {
    std::uint8_t* dst = shards[s];
    std::size_t t = 0;
    for (std::size_t b = static_cast<std::size_t>(s); b < src.size();
         b += stride)
      dst[t++] = src[b];
    std::memset(dst + t, 0, shard_len - t);
  }
}

void deinterleave(const std::uint8_t* const* shards, int k,
                  std::size_t shard_len, std::span<std::uint8_t> dst) {
  ADAFL_CHECK_MSG(k >= 1, "deinterleave: k < 1");
  ADAFL_CHECK_MSG(static_cast<std::size_t>(k) * shard_len >= dst.size(),
                  "deinterleave: " << dst.size() << " bytes exceed " << k
                                   << " shards of " << shard_len);
  const std::size_t stride = static_cast<std::size_t>(k);
  for (int s = 0; s < k; ++s) {
    const std::uint8_t* src = shards[s];
    std::size_t t = 0;
    for (std::size_t b = static_cast<std::size_t>(s); b < dst.size();
         b += stride)
      dst[b] = src[t++];
  }
}

}  // namespace adafl::net::fec
