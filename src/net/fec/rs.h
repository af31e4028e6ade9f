// Systematic Reed-Solomon RS(n, k) over GF(256), n = k + r <= 255.
//
// A codeword is [d_0 .. d_{k-1}, p_0 .. p_{r-1}]: the data symbols pass
// through untouched (systematic) and r parity symbols follow. Position i
// holds the coefficient of x^{n-1-i}, so the generator polynomial
// g(x) = prod_{j=0}^{r-1} (x - alpha^j) divides every valid codeword and the
// syndromes S_j = C(alpha^j) of an intact codeword are all zero.
//
// The decoder is the full errata pipeline: syndrome computation, erasure
// locator, Berlekamp-Massey over the Forney syndromes for unknown error
// positions, Chien search for the errata locator's roots, and the Forney
// algorithm for magnitudes. It corrects e erasures plus v errors whenever
// e + 2v <= r; the datagram transport uses the pure-erasure case (lost
// datagrams have known positions), where the full budget of r losses per
// generation is repairable.
//
// Failure is loud and safe: decode() returns false (and leaves the codeword
// bytes untouched) when the errata exceed the budget or the corrected word
// still has nonzero syndromes — a failed repair can never hand corrupted
// bytes onward.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace adafl::net::fec {

/// Largest codeword the field supports.
constexpr int kRsMaxSymbols = 255;

class RsCode {
 public:
  /// n total symbols, k of them data. Throws CheckError unless
  /// 1 <= k <= n <= 255.
  RsCode(int n, int k);

  int n() const { return n_; }
  int k() const { return k_; }
  int parity() const { return n_ - k_; }

  /// Systematic encode: data.size() == k, parity.size() == n - k.
  void encode(std::span<const std::uint8_t> data,
              std::span<std::uint8_t> parity) const;

  /// Corrects `codeword` (size n) in place given the known-bad positions
  /// `erasures` (codeword indices, each in [0, n)); unknown errors beyond
  /// the erasure list are located via Berlekamp-Massey. Returns true on
  /// success. On failure the codeword is left exactly as passed in.
  bool decode(std::span<std::uint8_t> codeword,
              std::span<const int> erasures) const;

  // --- Shard-level coding (the FEC-generation shape). --------------------
  // A generation is k equal-length data shards plus r parity shards; byte
  // column t across the shards forms one RS codeword, so losing a shard is
  // one erasure in every column's codeword. Both calls work shard-wide
  // rather than column by column: the code is linear, so every shard is a
  // GF(256) combination of k others, computed with one table lookup per
  // source byte for up to eight output shards at once. The bytes equal the
  // per-column encode()/decode() on every input.

  /// data[i] / parity[j] each point at shard_len bytes. Parity j is
  /// XOR_i C[j][i] * data[i], C being the parities of the unit vectors.
  void encode_shards(const std::uint8_t* const* data,
                     std::uint8_t* const* parity, std::size_t shard_len) const;

  /// shards[0..n): data then parity; present[i] says shard i arrived.
  /// Reconstructs every missing shard, parity included, in place (missing
  /// entries must point at writable shard_len-byte buffers) from the first
  /// k present shards, inverting their generator rows once. Spare present
  /// shards are recomputed and compared; on any mismatch the generation goes
  /// through the per-column errata decoder instead, which may correct the
  /// corrupt shard's bytes exactly as decode() does. Returns false —
  /// touching nothing — when more than r shards are missing or any column
  /// fails to decode.
  bool reconstruct_shards(std::uint8_t* const* shards,
                          const std::vector<bool>& present,
                          std::size_t shard_len) const;

 private:
  /// The per-column errata decoder over a whole generation: the fallback
  /// when present shards disagree. Writes nothing unless every column
  /// decodes.
  bool reconstruct_columns(std::uint8_t* const* shards,
                           const std::vector<bool>& present,
                           std::span<const int> erasures,
                           std::size_t shard_len) const;

  int n_;
  int k_;
  std::vector<std::uint8_t> gen_;  ///< generator poly, descending, gen_[0]=1
  /// r x k row-major: parity j = XOR_i coef_[j * k + i] * data_i.
  std::vector<std::uint8_t> coef_;
};

}  // namespace adafl::net::fec
