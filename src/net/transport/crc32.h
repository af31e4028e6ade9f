// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) used by the frame
// envelope to detect payload corruption, and by the CLIs to fingerprint
// final model weights for deployment-vs-simulation equivalence checks.
#pragma once

#include <cstdint>
#include <span>

namespace adafl::net::transport {

/// CRC-32 of `data` (init 0xFFFFFFFF, final xor 0xFFFFFFFF — the common
/// zlib/PNG convention; crc32 of "123456789" is 0xCBF43926).
std::uint32_t crc32(std::span<const std::uint8_t> data);

/// Incremental form: `crc` is the running value (start with 0) so large
/// payloads can be checksummed in chunks: crc = crc32_update(crc, chunk).
std::uint32_t crc32_update(std::uint32_t crc,
                           std::span<const std::uint8_t> data);

/// CRC-32 of A followed by B from crc32(A), crc32(B) and |B| alone, without
/// touching the bytes (zlib's crc32_combine): a writer that already holds
/// the CRC of each piece gets the CRC of the whole in O(log |B|).
std::uint32_t crc32_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                            std::uint64_t len_b);

}  // namespace adafl::net::transport
