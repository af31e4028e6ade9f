// Property tests for the GF(256) / Reed-Solomon erasure-coding layer that
// backs the UDP datagram transport. The contract the transport relies on:
// encode -> erase up to r symbols -> decode restores the codeword
// byte-identically, and an unrecoverable pattern is REPORTED (false), never
// silently corrected into garbage.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "net/fec/gf256.h"
#include "net/fec/interleave.h"
#include "net/fec/rs.h"
#include "tensor/check.h"

namespace adafl::net::fec {
namespace {

constexpr std::uint64_t kSeed = 0xFEC0FEC0u;

// --- GF(256) ---------------------------------------------------------------

// The log/antilog tables must agree with a from-first-principles
// carry-less multiply over the whole 256x256 field.
TEST(Gf256, TablesMatchSlowReference) {
  for (int a = 0; a < 256; ++a)
    for (int b = 0; b < 256; ++b) {
      const auto x = static_cast<std::uint8_t>(a);
      const auto y = static_cast<std::uint8_t>(b);
      ASSERT_EQ(gf_mul(x, y), gf_mul_slow(x, y))
          << "gf_mul(" << a << ", " << b << ")";
    }
}

// The product table the shard kernels stream through, read directly (not
// via gf_mul), against the table-free reference for all 65,536 pairs.
TEST(Gf256, ProductTableMatchesSlowReference) {
  for (int a = 0; a < 256; ++a)
    for (int b = 0; b < 256; ++b)
      ASSERT_EQ(kGfMul[static_cast<std::size_t>(a)]
                      [static_cast<std::size_t>(b)],
                gf_mul_slow(static_cast<std::uint8_t>(a),
                            static_cast<std::uint8_t>(b)))
          << "kGfMul[" << a << "][" << b << "]";
}

TEST(Gf256, FieldAxioms) {
  std::mt19937_64 rng(kSeed);
  for (int i = 0; i < 20000; ++i) {
    const auto a = static_cast<std::uint8_t>(rng());
    const auto b = static_cast<std::uint8_t>(rng());
    const auto c = static_cast<std::uint8_t>(rng());
    EXPECT_EQ(gf_mul(a, b), gf_mul(b, a));
    EXPECT_EQ(gf_mul(a, gf_mul(b, c)), gf_mul(gf_mul(a, b), c));
    // Distributivity over the field's addition (XOR).
    EXPECT_EQ(gf_mul(a, static_cast<std::uint8_t>(b ^ c)),
              gf_mul(a, b) ^ gf_mul(a, c));
  }
  EXPECT_EQ(gf_mul(0, 123), 0);
  EXPECT_EQ(gf_mul(1, 123), 123);
}

TEST(Gf256, InverseAndDivision) {
  for (int a = 1; a < 256; ++a) {
    const auto x = static_cast<std::uint8_t>(a);
    EXPECT_EQ(gf_mul(x, gf_inv(x)), 1) << "a=" << a;
    EXPECT_EQ(gf_div(x, x), 1);
  }
  EXPECT_THROW(gf_inv(0), CheckError);
  EXPECT_THROW(gf_div(1, 0), CheckError);
}

// alpha = 2 generates the multiplicative group: 255 distinct powers.
TEST(Gf256, AlphaIsPrimitive) {
  std::vector<bool> seen(256, false);
  for (int i = 0; i < 255; ++i) {
    const std::uint8_t p = gf_exp(i);
    EXPECT_FALSE(seen[p]) << "alpha^" << i << " repeats";
    seen[p] = true;
  }
  EXPECT_EQ(gf_exp(0), 1);
  EXPECT_EQ(gf_exp(255), 1);  // doubled table wraps: alpha^255 = alpha^0
}

// --- RS(n, k) codeword round-trips -----------------------------------------

struct Codeword {
  std::vector<std::uint8_t> data;
  std::vector<std::uint8_t> parity;
  std::vector<std::uint8_t> word;  // data || parity
};

Codeword make_codeword(const RsCode& rs, std::mt19937_64& rng) {
  Codeword c;
  c.data.resize(static_cast<std::size_t>(rs.k()));
  for (auto& b : c.data) b = static_cast<std::uint8_t>(rng());
  c.parity.resize(static_cast<std::size_t>(rs.parity()));
  rs.encode(c.data, c.parity);
  c.word = c.data;
  c.word.insert(c.word.end(), c.parity.begin(), c.parity.end());
  return c;
}

// Erase exactly `e` random positions (zero-filled, positions reported).
std::vector<int> erase_random(std::vector<std::uint8_t>& word, int e,
                              std::mt19937_64& rng) {
  std::vector<int> pos(word.size());
  for (std::size_t i = 0; i < pos.size(); ++i) pos[i] = static_cast<int>(i);
  std::shuffle(pos.begin(), pos.end(), rng);
  pos.resize(static_cast<std::size_t>(e));
  for (int p : pos) word[static_cast<std::size_t>(p)] = 0;
  return pos;
}

// Every erasure count up to r decodes byte-identically, across a spread of
// (n, k) shapes including the transport defaults.
TEST(ReedSolomon, ErasuresUpToParityBudgetDecodeExactly) {
  std::mt19937_64 rng(kSeed ^ 1);
  const int shapes[][2] = {{20, 16}, {16, 8}, {6, 4}, {255, 223}, {10, 1}};
  for (const auto& s : shapes) {
    const RsCode rs(s[0], s[1]);
    for (int e = 0; e <= rs.parity(); ++e) {
      for (int trial = 0; trial < 20; ++trial) {
        const Codeword c = make_codeword(rs, rng);
        std::vector<std::uint8_t> rx = c.word;
        const std::vector<int> erased = erase_random(rx, e, rng);
        ASSERT_TRUE(rs.decode(rx, erased))
            << "n=" << s[0] << " k=" << s[1] << " e=" << e;
        ASSERT_EQ(rx, c.word);
      }
    }
  }
}

// One more erasure than parity: decode must return false and must leave the
// codeword exactly as it received it (no silent corruption).
TEST(ReedSolomon, BeyondBudgetReportsUnrecoverableWithoutCorrupting) {
  std::mt19937_64 rng(kSeed ^ 2);
  const int shapes[][2] = {{20, 16}, {16, 8}, {6, 4}};
  for (const auto& s : shapes) {
    const RsCode rs(s[0], s[1]);
    for (int trial = 0; trial < 50; ++trial) {
      const Codeword c = make_codeword(rs, rng);
      std::vector<std::uint8_t> rx = c.word;
      const std::vector<int> erased = erase_random(rx, rs.parity() + 1, rng);
      const std::vector<std::uint8_t> as_received = rx;
      ASSERT_FALSE(rs.decode(rx, erased));
      ASSERT_EQ(rx, as_received) << "decode corrupted an unrecoverable word";
    }
  }
}

// Unknown-position errors: v corruptions (no erasure hints) decode while
// 2v <= r.
TEST(ReedSolomon, ErrorsWithinHalfBudgetDecode) {
  std::mt19937_64 rng(kSeed ^ 3);
  const RsCode rs(20, 14);  // r = 6 -> corrects up to 3 unknown errors
  for (int v = 0; v <= 3; ++v) {
    for (int trial = 0; trial < 40; ++trial) {
      const Codeword c = make_codeword(rs, rng);
      std::vector<std::uint8_t> rx = c.word;
      std::vector<int> pos(rx.size());
      for (std::size_t i = 0; i < pos.size(); ++i)
        pos[i] = static_cast<int>(i);
      std::shuffle(pos.begin(), pos.end(), rng);
      for (int i = 0; i < v; ++i)
        rx[static_cast<std::size_t>(pos[static_cast<std::size_t>(i)])] ^=
            static_cast<std::uint8_t>(1 + rng() % 255);
      ASSERT_TRUE(rs.decode(rx, {})) << "v=" << v;
      ASSERT_EQ(rx, c.word);
    }
  }
}

// Mixed errata: e erasures + v errors decode while e + 2v <= r.
TEST(ReedSolomon, MixedErrataWithinBudgetDecode) {
  std::mt19937_64 rng(kSeed ^ 4);
  const RsCode rs(24, 16);  // r = 8
  for (int e = 0; e <= 4; ++e) {
    const int v = (8 - e) / 2;
    for (int trial = 0; trial < 25; ++trial) {
      const Codeword c = make_codeword(rs, rng);
      std::vector<std::uint8_t> rx = c.word;
      std::vector<int> pos(rx.size());
      for (std::size_t i = 0; i < pos.size(); ++i)
        pos[i] = static_cast<int>(i);
      std::shuffle(pos.begin(), pos.end(), rng);
      std::vector<int> erased(pos.begin(), pos.begin() + e);
      for (int p : erased) rx[static_cast<std::size_t>(p)] = 0;
      for (int i = e; i < e + v; ++i)
        rx[static_cast<std::size_t>(pos[static_cast<std::size_t>(i)])] ^=
            static_cast<std::uint8_t>(1 + rng() % 255);
      ASSERT_TRUE(rs.decode(rx, erased)) << "e=" << e << " v=" << v;
      ASSERT_EQ(rx, c.word);
    }
  }
}

// --- Shard-wise (column) coding, as the transport uses it ------------------

TEST(ReedSolomon, ShardReconstructionRoundTrip) {
  std::mt19937_64 rng(kSeed ^ 5);
  const int n = 12, k = 8;
  const std::size_t s = 97;
  const RsCode rs(n, k);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<std::vector<std::uint8_t>> shards(
        static_cast<std::size_t>(n), std::vector<std::uint8_t>(s));
    for (int i = 0; i < k; ++i)
      for (auto& b : shards[static_cast<std::size_t>(i)])
        b = static_cast<std::uint8_t>(rng());
    std::vector<const std::uint8_t*> dp(static_cast<std::size_t>(k));
    std::vector<std::uint8_t*> pp(static_cast<std::size_t>(n - k));
    for (int i = 0; i < k; ++i)
      dp[static_cast<std::size_t>(i)] = shards[static_cast<std::size_t>(i)].data();
    for (int i = k; i < n; ++i)
      pp[static_cast<std::size_t>(i - k)] =
          shards[static_cast<std::size_t>(i)].data();
    rs.encode_shards(dp.data(), pp.data(), s);
    const auto original = shards;

    // Erase up to r random shards and reconstruct.
    std::vector<bool> present(static_cast<std::size_t>(n), true);
    std::vector<int> idx(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) idx[static_cast<std::size_t>(i)] = i;
    std::shuffle(idx.begin(), idx.end(), rng);
    const int e = 1 + static_cast<int>(rng() % static_cast<unsigned>(n - k));
    for (int i = 0; i < e; ++i) {
      const int p = idx[static_cast<std::size_t>(i)];
      present[static_cast<std::size_t>(p)] = false;
      std::fill(shards[static_cast<std::size_t>(p)].begin(),
                shards[static_cast<std::size_t>(p)].end(), 0);
    }
    std::vector<std::uint8_t*> all(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
      all[static_cast<std::size_t>(i)] = shards[static_cast<std::size_t>(i)].data();
    ASSERT_TRUE(rs.reconstruct_shards(all.data(), present, s));
    ASSERT_EQ(shards, original) << "trial " << trial << " e=" << e;
  }
}

TEST(ReedSolomon, ShardReconstructionBeyondBudgetFails) {
  const int n = 6, k = 4;
  const std::size_t s = 16;
  const RsCode rs(n, k);
  std::mt19937_64 rng(kSeed ^ 6);
  std::vector<std::vector<std::uint8_t>> shards(
      static_cast<std::size_t>(n), std::vector<std::uint8_t>(s));
  for (int i = 0; i < k; ++i)
    for (auto& b : shards[static_cast<std::size_t>(i)])
      b = static_cast<std::uint8_t>(rng());
  std::vector<const std::uint8_t*> dp;
  std::vector<std::uint8_t*> pp;
  for (int i = 0; i < k; ++i)
    dp.push_back(shards[static_cast<std::size_t>(i)].data());
  for (int i = k; i < n; ++i)
    pp.push_back(shards[static_cast<std::size_t>(i)].data());
  rs.encode_shards(dp.data(), pp.data(), s);

  std::vector<bool> present(static_cast<std::size_t>(n), true);
  present[0] = present[1] = present[2] = false;  // 3 lost, only r=2 parity
  std::vector<std::uint8_t*> all;
  for (auto& sh : shards) all.push_back(sh.data());
  EXPECT_FALSE(rs.reconstruct_shards(all.data(), present, s));
}

// --- Shard-wide coding equals the per-column reference --------------------

using Shards = std::vector<std::vector<std::uint8_t>>;

std::vector<std::uint8_t*> ptrs(Shards& shards) {
  std::vector<std::uint8_t*> p;
  for (auto& sh : shards) p.push_back(sh.data());
  return p;
}

/// k random data shards of `len` bytes plus r parity shards from
/// encode_shards.
Shards encoded_generation(const RsCode& rs, std::size_t len,
                          std::mt19937_64& rng) {
  Shards shards(static_cast<std::size_t>(rs.n()),
                std::vector<std::uint8_t>(len));
  for (int i = 0; i < rs.k(); ++i)
    for (auto& b : shards[static_cast<std::size_t>(i)])
      b = static_cast<std::uint8_t>(rng());
  auto p = ptrs(shards);
  rs.encode_shards(p.data(), p.data() + rs.k(), len);
  return shards;
}

/// What reconstruct_shards did before it went shard-wide: decode() on every
/// byte column with the missing shards as erasures. Returns false (shards
/// untouched) if any column fails; otherwise fills the missing shards.
bool reconstruct_by_columns(const RsCode& rs, Shards& shards,
                            const std::vector<bool>& present) {
  std::vector<int> erasures;
  for (int i = 0; i < rs.n(); ++i)
    if (!present[static_cast<std::size_t>(i)]) erasures.push_back(i);
  Shards out = shards;
  std::vector<std::uint8_t> cw(static_cast<std::size_t>(rs.n()));
  for (std::size_t t = 0; t < shards[0].size(); ++t) {
    for (int i = 0; i < rs.n(); ++i)
      cw[static_cast<std::size_t>(i)] =
          present[static_cast<std::size_t>(i)]
              ? shards[static_cast<std::size_t>(i)][t]
              : 0;
    if (!rs.decode(cw, erasures)) return false;
    for (int e : erasures)
      out[static_cast<std::size_t>(e)][t] = cw[static_cast<std::size_t>(e)];
  }
  shards = std::move(out);
  return true;
}

/// Marks `missing` absent and pre-fills them with 0xEE, so a shard the
/// reconstruction forgot to write shows.
std::vector<bool> erase_shards(Shards& shards,
                               const std::vector<int>& missing) {
  std::vector<bool> present(shards.size(), true);
  for (int m : missing) {
    present[static_cast<std::size_t>(m)] = false;
    std::fill(shards[static_cast<std::size_t>(m)].begin(),
              shards[static_cast<std::size_t>(m)].end(), 0xEE);
  }
  return present;
}

// Parity shard j from encode_shards equals parity symbol j of encode() on
// every byte column, for every k <= 16 and r <= 8 the transport can ship.
TEST(ReedSolomon, EncodeShardsMatchesPerCodewordEncode) {
  std::mt19937_64 rng(kSeed ^ 8);
  for (int k = 1; k <= 16; ++k)
    for (int r = 0; r <= 8; ++r) {
      const RsCode rs(k + r, k);
      for (std::size_t len : {1, 2, 7, 97, 1200}) {
        const Shards shards = encoded_generation(rs, len, rng);
        std::vector<std::uint8_t> data(static_cast<std::size_t>(k));
        std::vector<std::uint8_t> parity(static_cast<std::size_t>(r));
        for (std::size_t t = 0; t < len; ++t) {
          for (int i = 0; i < k; ++i)
            data[static_cast<std::size_t>(i)] =
                shards[static_cast<std::size_t>(i)][t];
          rs.encode(data, parity);
          for (int j = 0; j < r; ++j)
            ASSERT_EQ(shards[static_cast<std::size_t>(k + j)][t],
                      parity[static_cast<std::size_t>(j)])
                << "k=" << k << " r=" << r << " len=" << len << " t=" << t
                << " j=" << j;
        }
      }
    }
}

// All C(20, 4) = 4,845 ways to lose r shards of the transport's default
// RS(20, 16): every missing shard, parity included, comes back exactly as
// the per-column decoder rebuilds it (and so equal to what was sent).
TEST(ReedSolomon, ReconstructShardsMatchesColumnDecodeOnEveryKPresentPattern) {
  std::mt19937_64 rng(kSeed ^ 9);
  const RsCode rs(20, 16);
  const std::size_t len = 13;
  const Shards sent = encoded_generation(rs, len, rng);
  int patterns = 0;
  for (int a = 0; a < 20; ++a)
    for (int b = a + 1; b < 20; ++b)
      for (int c = b + 1; c < 20; ++c)
        for (int d = c + 1; d < 20; ++d) {
          Shards got = sent;
          const std::vector<bool> present = erase_shards(got, {a, b, c, d});
          Shards want = got;
          ASSERT_TRUE(reconstruct_by_columns(rs, want, present));
          auto p = ptrs(got);
          ASSERT_TRUE(rs.reconstruct_shards(p.data(), present, len));
          ASSERT_EQ(got, want) << "lost " << a << "," << b << "," << c << ","
                               << d;
          ASSERT_EQ(got, sent);
          ++patterns;
        }
  EXPECT_EQ(patterns, 4845);
}

// Fewer than r losses leave spare present shards, which reconstruct_shards
// recomputes and checks; intact spares agree and the repair matches the
// per-column decoder.
TEST(ReedSolomon, ReconstructShardsWithSparePresentShardsMatchesColumnDecode) {
  std::mt19937_64 rng(kSeed ^ 10);
  // {30, 10} rebuilds 20 shards: three passes of the 8-output kernel.
  const int shapes[][2] = {{20, 16}, {12, 8}, {16, 8},
                           {6, 4},   {9, 1},  {30, 10}};
  for (const auto& shape : shapes) {
    const RsCode rs(shape[0], shape[1]);
    for (int e = 1; e < rs.parity(); ++e)
      for (int trial = 0; trial < 20; ++trial) {
        const std::size_t len = 1 + rng() % 64;
        const Shards sent = encoded_generation(rs, len, rng);
        std::vector<int> idx(static_cast<std::size_t>(rs.n()));
        for (int i = 0; i < rs.n(); ++i) idx[static_cast<std::size_t>(i)] = i;
        std::shuffle(idx.begin(), idx.end(), rng);
        idx.resize(static_cast<std::size_t>(e));
        Shards got = sent;
        const std::vector<bool> present = erase_shards(got, idx);
        Shards want = got;
        ASSERT_TRUE(reconstruct_by_columns(rs, want, present));
        auto p = ptrs(got);
        ASSERT_TRUE(rs.reconstruct_shards(p.data(), present, len));
        ASSERT_EQ(got, want) << "n=" << rs.n() << " k=" << rs.k()
                             << " e=" << e;
        ASSERT_EQ(got, sent);
      }
  }
}

// A corrupted present shard makes a spare disagree with the basis, and the
// generation goes through the per-column errata decoder: it corrects the
// damage when e + 2v <= r and refuses otherwise. Either way the result
// equals the per-column reference, and a refusal writes nothing.
TEST(ReedSolomon, CorruptPresentShardFallsBackToErrataDecoder) {
  std::mt19937_64 rng(kSeed ^ 11);
  const RsCode rs(20, 16);
  const std::size_t len = 31;
  int repaired = 0, refused = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const Shards sent = encoded_generation(rs, len, rng);
    const int e = 1 + static_cast<int>(rng() % 3);  // leaves 1..3 spares
    std::vector<int> idx(20);
    for (int i = 0; i < 20; ++i) idx[static_cast<std::size_t>(i)] = i;
    std::shuffle(idx.begin(), idx.end(), rng);
    Shards got = sent;
    const std::vector<bool> present =
        erase_shards(got, {idx.begin(), idx.begin() + e});
    // Corrupt one byte of a present shard, basis or spare alike.
    const int victim = idx[static_cast<std::size_t>(e)];
    got[static_cast<std::size_t>(victim)][rng() % len] ^=
        static_cast<std::uint8_t>(1 + rng() % 255);
    Shards want = got;
    const bool want_ok = reconstruct_by_columns(rs, want, present);
    const Shards before = got;
    auto p = ptrs(got);
    ASSERT_EQ(rs.reconstruct_shards(p.data(), present, len), want_ok)
        << "trial " << trial << " e=" << e;
    ASSERT_EQ(got, want_ok ? want : before) << "trial " << trial;
    (want_ok ? repaired : refused) += 1;
  }
  // e = 1 (1 + 2 <= 4) always corrects; e = 3 never can.
  EXPECT_GT(repaired, 0);
  EXPECT_GT(refused, 0);
}

TEST(ReedSolomon, RejectsInvalidShapes) {
  EXPECT_THROW(RsCode(256, 16), CheckError);  // n > 255
  EXPECT_THROW(RsCode(4, 5), CheckError);     // k > n
  EXPECT_THROW(RsCode(4, 0), CheckError);     // k < 1
}

// --- Block interleaver -----------------------------------------------------

TEST(Interleave, RoundTripAllRemainders) {
  std::mt19937_64 rng(kSeed ^ 7);
  for (int k = 1; k <= 7; ++k) {
    for (std::size_t len = 1; len <= 64; ++len) {
      const std::size_t s = (len + static_cast<std::size_t>(k) - 1) /
                            static_cast<std::size_t>(k);
      std::vector<std::uint8_t> src(len);
      for (auto& b : src) b = static_cast<std::uint8_t>(rng());
      std::vector<std::vector<std::uint8_t>> shards(
          static_cast<std::size_t>(k), std::vector<std::uint8_t>(s, 0xEE));
      std::vector<std::uint8_t*> sp;
      for (auto& sh : shards) sp.push_back(sh.data());
      interleave(src, k, s, sp.data());

      std::vector<const std::uint8_t*> cp;
      for (auto& sh : shards) cp.push_back(sh.data());
      std::vector<std::uint8_t> dst(len);
      deinterleave(cp.data(), k, s, dst);
      ASSERT_EQ(dst, src) << "k=" << k << " len=" << len;
    }
  }
}

// The strided interleaver equals the b % k, b / k definition for every k
// the transport uses and every length up to k * s, tails zeroed: shards
// start out 0xEE, so a tail the interleaver forgot to clear shows.
TEST(Interleave, MatchesDivisionReferenceAtEveryLength) {
  std::mt19937_64 rng(kSeed ^ 12);
  for (int k = 1; k <= 16; ++k)
    for (std::size_t s : {1, 3, 8}) {
      const std::size_t kk = static_cast<std::size_t>(k);
      for (std::size_t len = 0; len <= kk * s; ++len) {
        std::vector<std::uint8_t> src(len);
        for (auto& b : src) b = static_cast<std::uint8_t>(rng());
        Shards want(kk, std::vector<std::uint8_t>(s, 0));
        for (std::size_t b = 0; b < len; ++b) want[b % kk][b / kk] = src[b];
        Shards got(kk, std::vector<std::uint8_t>(s, 0xEE));
        auto p = ptrs(got);
        interleave(src, k, s, p.data());
        ASSERT_EQ(got, want) << "k=" << k << " s=" << s << " len=" << len;

        std::vector<std::uint8_t> dst(len, 0xEE);
        std::vector<const std::uint8_t*> cp(p.begin(), p.end());
        deinterleave(cp.data(), k, s, dst);
        ASSERT_EQ(dst, src) << "k=" << k << " s=" << s << " len=" << len;
      }
    }
}

// Byte b of the source lands in shard b%k at offset b/k — adjacent bytes in
// different shards, so one lost datagram costs one byte per RS column.
TEST(Interleave, AdjacentBytesLandInDistinctShards) {
  const int k = 4;
  const std::size_t s = 4;
  std::vector<std::uint8_t> src = {0, 1, 2,  3,  4,  5,  6,  7,
                                   8, 9, 10, 11, 12, 13, 14, 15};
  std::vector<std::vector<std::uint8_t>> shards(
      4, std::vector<std::uint8_t>(s, 0));
  std::vector<std::uint8_t*> sp;
  for (auto& sh : shards) sp.push_back(sh.data());
  interleave(src, k, s, sp.data());
  EXPECT_EQ(shards[0], (std::vector<std::uint8_t>{0, 4, 8, 12}));
  EXPECT_EQ(shards[1], (std::vector<std::uint8_t>{1, 5, 9, 13}));
  EXPECT_EQ(shards[2], (std::vector<std::uint8_t>{2, 6, 10, 14}));
  EXPECT_EQ(shards[3], (std::vector<std::uint8_t>{3, 7, 11, 15}));
}

}  // namespace
}  // namespace adafl::net::fec
