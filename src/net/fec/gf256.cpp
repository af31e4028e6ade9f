#include "net/fec/gf256.h"

namespace adafl::net::fec {

namespace {

constexpr GfTables build_tables() {
  GfTables t{};
  std::uint16_t x = 1;
  for (int i = 0; i < 255; ++i) {
    t.exp[i] = static_cast<std::uint8_t>(x);
    t.log[x] = static_cast<std::uint8_t>(i);
    x <<= 1;
    if (x & 0x100) x ^= kGfPoly;
  }
  // Double the antilog table so an index log(a) + log(b) (< 510) never
  // needs `% 255`; the two spare slots stay zero and are never read.
  for (int i = 255; i < 510; ++i) t.exp[i] = t.exp[i - 255];
  t.log[0] = 0;  // log(0) is undefined; callers guard, this is belt
  return t;
}

constexpr GfMulTable build_products(const GfTables& t) {
  GfMulTable p{};  // row 0 and column 0 stay zero
  for (int a = 1; a < 256; ++a)
    for (int b = 1; b < 256; ++b)
      p[a][b] = t.exp[t.log[a] + t.log[b]];
  return p;
}

}  // namespace

constinit const GfTables kGf = build_tables();
constinit const GfMulTable kGfMul = build_products(build_tables());

std::uint8_t gf_mul_slow(std::uint8_t a, std::uint8_t b) {
  std::uint16_t acc = 0;
  std::uint16_t aa = a;
  for (int bit = 0; bit < 8; ++bit) {
    if (b & (1u << bit)) acc ^= aa << bit;
  }
  // Reduce the 15-bit carryless product modulo the field polynomial.
  for (int bit = 14; bit >= 8; --bit) {
    if (acc & (1u << bit)) acc ^= kGfPoly << (bit - 8);
  }
  return static_cast<std::uint8_t>(acc);
}

}  // namespace adafl::net::fec
