#include "net/transport/crc32.h"

#include <array>
#include <cstddef>

namespace adafl::net::transport {

namespace {

// Slicing-by-16: table k maps a byte to its CRC contribution when followed
// by k zero bytes, so one step folds 16 input bytes with 16 independent
// lookups instead of a 16-long dependency chain. 16 KB of constant tables,
// built at compile time; byte order is fixed by assembling the words from
// bytes, so the result is the same on every host.
using Tables = std::array<std::array<std::uint32_t, 256>, 16>;

constexpr Tables make_tables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k)
    for (std::size_t i = 0; i < 256; ++i)
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
  return t;
}

constexpr Tables kTables = make_tables();

inline std::uint32_t load_le32(const std::uint8_t* p) {
  return std::uint32_t{p[0]} | (std::uint32_t{p[1]} << 8) |
         (std::uint32_t{p[2]} << 16) | (std::uint32_t{p[3]} << 24);
}

// crc32_combine works in GF(2)[x] modulo the CRC polynomial, in the
// reflected bit order of the CRC itself (bit 31 is x^0). Appending |B| zero
// bytes to A multiplies A's CRC register by x^(8|B|); the CRC of A‖B is
// that product xor crc32(B) (the init/final xors cancel out).
constexpr std::uint32_t kPoly = 0xEDB88320u;

/// a(x) * b(x) mod p(x). Requires a != 0.
constexpr std::uint32_t mul_mod_p(std::uint32_t a, std::uint32_t b) {
  std::uint32_t m = 1u << 31;
  std::uint32_t p = 0;
  for (;;) {
    if (a & m) {
      p ^= b;
      if ((a & (m - 1)) == 0) break;
    }
    m >>= 1;
    b = (b & 1u) ? (b >> 1) ^ kPoly : b >> 1;
  }
  return p;
}

/// kX2n[k] = x^(2^k) mod p(x).
using PowerTable = std::array<std::uint32_t, 32>;

constexpr PowerTable make_powers() {
  PowerTable t{};
  std::uint32_t p = 1u << 30;  // x^1
  t[0] = p;
  for (std::size_t k = 1; k < t.size(); ++k) t[k] = p = mul_mod_p(p, p);
  return t;
}

constexpr PowerTable kX2n = make_powers();

/// x^(n * 2^k) mod p(x).
std::uint32_t x2n_mod_p(std::uint64_t n, unsigned k) {
  std::uint32_t p = 1u << 31;  // x^0
  for (; n != 0; n >>= 1, ++k)
    if (n & 1u) p = mul_mod_p(kX2n[k & 31u], p);
  return p;
}

}  // namespace

std::uint32_t crc32_update(std::uint32_t crc,
                           std::span<const std::uint8_t> data) {
  const auto& t = kTables;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::uint32_t c = crc ^ 0xFFFFFFFFu;
  for (; n >= 16; n -= 16, p += 16) {
    const std::uint32_t w0 = load_le32(p) ^ c;
    const std::uint32_t w1 = load_le32(p + 4);
    const std::uint32_t w2 = load_le32(p + 8);
    const std::uint32_t w3 = load_le32(p + 12);
    c = t[15][w0 & 0xFFu] ^ t[14][(w0 >> 8) & 0xFFu] ^
        t[13][(w0 >> 16) & 0xFFu] ^ t[12][w0 >> 24] ^
        t[11][w1 & 0xFFu] ^ t[10][(w1 >> 8) & 0xFFu] ^
        t[9][(w1 >> 16) & 0xFFu] ^ t[8][w1 >> 24] ^
        t[7][w2 & 0xFFu] ^ t[6][(w2 >> 8) & 0xFFu] ^
        t[5][(w2 >> 16) & 0xFFu] ^ t[4][w2 >> 24] ^
        t[3][w3 & 0xFFu] ^ t[2][(w3 >> 8) & 0xFFu] ^
        t[1][(w3 >> 16) & 0xFFu] ^ t[0][w3 >> 24];
  }
  for (; n > 0; --n, ++p) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  return crc32_update(0, data);
}

std::uint32_t crc32_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                            std::uint64_t len_b) {
  // x^(8 len_b) = x^(len_b * 2^3).
  return mul_mod_p(x2n_mod_p(len_b, 3), crc_a) ^ crc_b;
}

}  // namespace adafl::net::transport
