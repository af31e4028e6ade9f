#include "net/fec/rs.h"

#include <algorithm>
#include <cstring>
#include <memory>

#include "net/fec/gf256.h"
#include "tensor/check.h"

namespace adafl::net::fec {

namespace {

// Decoder polynomials are ascending: p[d] is the coefficient of x^d.
using Poly = std::vector<std::uint8_t>;

Poly poly_mul(const Poly& a, const Poly& b) {
  Poly out(a.size() + b.size() - 1, 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] == 0) continue;
    for (std::size_t j = 0; j < b.size(); ++j)
      out[i + j] ^= gf_mul(a[i], b[j]);
  }
  return out;
}

std::uint8_t poly_eval(const Poly& p, std::uint8_t x) {
  // Horner from the top coefficient down.
  std::uint8_t acc = 0;
  for (std::size_t i = p.size(); i-- > 0;) acc = gf_mul(acc, x) ^ p[i];
  return acc;
}

/// Formal derivative in characteristic 2: even-degree terms vanish.
Poly poly_derivative(const Poly& p) {
  Poly out(p.size() > 1 ? p.size() - 1 : 1, 0);
  for (std::size_t d = 1; d < p.size(); d += 2) out[d - 1] = p[d];
  return out;
}

int poly_degree(const Poly& p) {
  for (std::size_t i = p.size(); i-- > 0;)
    if (p[i] != 0) return static_cast<int>(i);
  return 0;
}

/// One step of the systematic encoder's remainder register (size r): feeds
/// data symbol `sym` by shifting the register left and folding
/// (sym + reg[0]) * (g - x^r) back in. `g_tail` holds g's r non-leading
/// coefficients, descending.
void feed_register(std::uint8_t* reg, int r, const std::uint8_t* g_tail,
                   std::uint8_t sym) {
  const std::uint8_t coef = sym ^ reg[0];
  // Shift the remainder register left one symbol...
  for (int j = 0; j + 1 < r; ++j) reg[j] = reg[j + 1];
  reg[r - 1] = 0;
  // ...and fold coef * (g - x^r) back in.
  if (coef != 0)
    for (int j = 0; j < r; ++j) reg[j] ^= gf_mul(g_tail[j], coef);
}

/// dst[j] = XOR_i coef[j * count + i] * src[i] over len bytes, j < outs.
///
/// Eight outputs at a time share one table per source: entry x of source
/// i's table packs coef[j][i] * x for those outputs, byte j - j0 of the
/// word. Multiplying by a constant is linear over GF(2), so each table
/// is 8 products plus 255 XORs to fill. Then one lookup per source byte
/// yields that byte's term in all eight outputs, and each output byte is
/// the XOR of `count` lookups.
void combine(std::uint8_t* const* dst, int outs,
             const std::uint8_t* const* src, int count,
             const std::uint8_t* coef, std::size_t len) {
  const std::size_t kk = static_cast<std::size_t>(count);
  const auto table = std::make_unique_for_overwrite<std::uint64_t[]>(kk * 256);
  for (int j0 = 0; j0 < outs; j0 += 8) {
    const int w = std::min(8, outs - j0);
    for (std::size_t i = 0; i < kk; ++i) {
      std::uint64_t* ti = table.get() + i * 256;
      ti[0] = 0;
      for (int bit = 0; bit < 8; ++bit) {
        const auto unit = static_cast<std::uint8_t>(1u << bit);
        std::uint64_t base = 0;
        for (int j = 0; j < w; ++j) {
          const std::size_t row = static_cast<std::size_t>(j0 + j);
          base |= std::uint64_t{gf_mul(coef[row * kk + i], unit)} << (8 * j);
        }
        const int half = 1 << bit;
        for (int x = 0; x < half; ++x) ti[half + x] = base ^ ti[x];
      }
    }
    // Eight positions per step: each source word loads once, acc[b]
    // collects position t + b, and output j's word is byte j of each
    // acc[b]. Words go in and out through the same shifts, so byte order
    // is moot.
    std::size_t t = 0;
    for (; t + 8 <= len; t += 8) {
      std::uint64_t acc[8] = {};
      for (std::size_t i = 0; i < kk; ++i) {
        const std::uint64_t* ti = table.get() + i * 256;
        std::uint64_t x;
        std::memcpy(&x, src[i] + t, 8);
        for (int b = 0; b < 8; ++b) acc[b] ^= ti[(x >> (8 * b)) & 0xFF];
      }
      for (int j = 0; j < w; ++j) {
        std::uint64_t word = 0;
        for (int b = 0; b < 8; ++b)
          word |= ((acc[b] >> (8 * j)) & 0xFF) << (8 * b);
        std::memcpy(dst[j0 + j] + t, &word, 8);
      }
    }
    for (; t < len; ++t) {
      std::uint64_t acc = 0;
      for (std::size_t i = 0; i < kk; ++i)
        acc ^= table[i * 256 + src[i][t]];
      for (int j = 0; j < w; ++j)
        dst[j0 + j][t] = static_cast<std::uint8_t>(acc >> (8 * j));
    }
  }
}

/// Gauss-Jordan inverse of the k x k row-major matrix `m` (destroyed) into
/// `inv`. Returns false when m is singular.
bool invert(std::vector<std::uint8_t>& m, std::vector<std::uint8_t>& inv,
            int k) {
  const auto at = [k](std::vector<std::uint8_t>& a, int row, int col)
      -> std::uint8_t& {
    return a[static_cast<std::size_t>(row * k + col)];
  };
  inv.assign(static_cast<std::size_t>(k * k), 0);
  for (int i = 0; i < k; ++i) at(inv, i, i) = 1;
  for (int col = 0; col < k; ++col) {
    int piv = col;
    while (piv < k && at(m, piv, col) == 0) ++piv;
    if (piv == k) return false;
    if (piv != col)
      for (int c = 0; c < k; ++c) {
        std::swap(at(m, piv, c), at(m, col, c));
        std::swap(at(inv, piv, c), at(inv, col, c));
      }
    const std::uint8_t scale = gf_inv(at(m, col, col));
    for (int c = 0; c < k; ++c) {
      at(m, col, c) = gf_mul(at(m, col, c), scale);
      at(inv, col, c) = gf_mul(at(inv, col, c), scale);
    }
    for (int row = 0; row < k; ++row) {
      const std::uint8_t f = at(m, row, col);
      if (row == col || f == 0) continue;
      for (int c = 0; c < k; ++c) {
        at(m, row, c) ^= gf_mul(f, at(m, col, c));
        at(inv, row, c) ^= gf_mul(f, at(inv, col, c));
      }
    }
  }
  return true;
}

}  // namespace

RsCode::RsCode(int n, int k) : n_(n), k_(k) {
  ADAFL_CHECK_MSG(k >= 1 && k <= n && n <= kRsMaxSymbols,
                  "RsCode: invalid (n=" << n << ", k=" << k << ")");
  // g(x) = prod_{j=0}^{r-1} (x - alpha^j), built descending (gen_[0] = 1).
  gen_ = {1};
  for (int j = 0; j < n_ - k_; ++j) {
    std::vector<std::uint8_t> next(gen_.size() + 1, 0);
    const std::uint8_t root = gf_exp(j);
    for (std::size_t i = 0; i < gen_.size(); ++i) {
      next[i] ^= gen_[i];                     // x * gen
      next[i + 1] ^= gf_mul(gen_[i], root);   // alpha^j * gen
    }
    gen_ = std::move(next);
  }
  // Encoding is linear, so parity j of any data vector is
  // XOR_i coef_[j][i] * d_i with column i the parity of unit vector e_i.
  // encode(e_i) leaves the register at its state after feeding 1 and then
  // k-1-i zeros, so one register run yields every column, last first.
  const int r = n_ - k_;
  coef_.assign(static_cast<std::size_t>(r * k_), 0);
  if (r == 0) return;
  std::vector<std::uint8_t> reg(static_cast<std::size_t>(r), 0);
  for (int i = k_ - 1; i >= 0; --i) {
    feed_register(reg.data(), r, gen_.data() + 1, i == k_ - 1 ? 1 : 0);
    for (int j = 0; j < r; ++j)
      coef_[static_cast<std::size_t>(j * k_ + i)] =
          reg[static_cast<std::size_t>(j)];
  }
}

void RsCode::encode(std::span<const std::uint8_t> data,
                    std::span<std::uint8_t> parity) const {
  const int r = n_ - k_;
  ADAFL_CHECK_MSG(static_cast<int>(data.size()) == k_ &&
                      static_cast<int>(parity.size()) == r,
                  "RsCode::encode: span sizes disagree with (n, k)");
  // Synthetic division of m(x) * x^r by g(x); the remainder is the parity.
  std::fill(parity.begin(), parity.end(), std::uint8_t{0});
  if (r == 0) return;
  for (int i = 0; i < k_; ++i)
    feed_register(parity.data(), r, gen_.data() + 1,
                  data[static_cast<std::size_t>(i)]);
}

bool RsCode::decode(std::span<std::uint8_t> codeword,
                    std::span<const int> erasures) const {
  const int r = parity();
  ADAFL_CHECK_MSG(static_cast<int>(codeword.size()) == n_,
                  "RsCode::decode: codeword size != n");
  const int e = static_cast<int>(erasures.size());
  if (e > r) return false;
  for (int pos : erasures)
    ADAFL_CHECK_MSG(pos >= 0 && pos < n_,
                    "RsCode::decode: erasure position out of range");
  if (r == 0) return true;

  // Syndromes S_j = C(alpha^j). All zero (and nothing erased) => intact.
  Poly synd(static_cast<std::size_t>(r), 0);
  bool any = false;
  for (int j = 0; j < r; ++j) {
    const std::uint8_t a = gf_exp(j);
    std::uint8_t acc = 0;
    for (int i = 0; i < n_; ++i)
      acc = gf_mul(acc, a) ^ codeword[static_cast<std::size_t>(i)];
    synd[static_cast<std::size_t>(j)] = acc;
    any = any || acc != 0;
  }
  if (!any && e == 0) return true;

  // Erasure locator Gamma(x) = prod (1 - X_i x), X_i = alpha^{n-1-pos}.
  Poly gamma = {1};
  for (int pos : erasures) {
    const std::uint8_t x = gf_exp(n_ - 1 - pos);
    gamma = poly_mul(gamma, Poly{1, x});
  }

  // Forney syndromes T = S * Gamma mod x^r: for j >= e the erased symbols'
  // contribution cancels, leaving a pure error sequence for Berlekamp-
  // Massey to model.
  Poly t = poly_mul(synd, gamma);
  t.resize(static_cast<std::size_t>(r), 0);

  // Berlekamp-Massey over t[e..r-1] finds the error locator Lambda.
  Poly lambda = {1};
  Poly prev = {1};
  int L = 0;
  int m = 1;
  std::uint8_t b = 1;
  for (int idx = 0; idx < r - e; ++idx) {
    const int j = e + idx;
    std::uint8_t delta = t[static_cast<std::size_t>(j)];
    for (int i = 1; i <= L && i < static_cast<int>(lambda.size()); ++i)
      delta ^= gf_mul(lambda[static_cast<std::size_t>(i)],
                      t[static_cast<std::size_t>(j - i)]);
    if (delta == 0) {
      ++m;
      continue;
    }
    if (2 * L <= idx) {
      Poly tmp = lambda;
      const std::uint8_t scale = gf_div(delta, b);
      lambda.resize(std::max(lambda.size(), prev.size() + m), 0);
      for (std::size_t i = 0; i < prev.size(); ++i)
        lambda[i + static_cast<std::size_t>(m)] ^= gf_mul(scale, prev[i]);
      L = idx + 1 - L;
      prev = std::move(tmp);
      b = delta;
      m = 1;
    } else {
      const std::uint8_t scale = gf_div(delta, b);
      lambda.resize(std::max(lambda.size(), prev.size() + m), 0);
      for (std::size_t i = 0; i < prev.size(); ++i)
        lambda[i + static_cast<std::size_t>(m)] ^= gf_mul(scale, prev[i]);
      ++m;
    }
  }
  if (2 * L > r - e) return false;  // more errors than the budget covers

  // Errata locator Psi = Lambda * Gamma; Chien search for its roots over
  // the shortened positions. Every root X_i^{-1} marks errata position i.
  Poly psi = poly_mul(lambda, gamma);
  const int psi_deg = poly_degree(psi);
  std::vector<int> errata;
  errata.reserve(static_cast<std::size_t>(psi_deg));
  for (int i = 0; i < n_; ++i) {
    const std::uint8_t x_inv = gf_inv(gf_exp(n_ - 1 - i));
    if (poly_eval(psi, x_inv) == 0) errata.push_back(i);
  }
  if (static_cast<int>(errata.size()) != psi_deg) return false;

  // Forney: e_i = X_i * Omega(X_i^{-1}) / Psi'(X_i^{-1}),
  // Omega = S * Psi mod x^r.
  Poly omega = poly_mul(synd, psi);
  omega.resize(static_cast<std::size_t>(r), 0);
  const Poly psi_prime = poly_derivative(psi);
  std::vector<std::pair<int, std::uint8_t>> fixes;
  fixes.reserve(errata.size());
  for (int i : errata) {
    const std::uint8_t x = gf_exp(n_ - 1 - i);
    const std::uint8_t x_inv = gf_inv(x);
    const std::uint8_t denom = poly_eval(psi_prime, x_inv);
    if (denom == 0) return false;  // inconsistent locator; refuse to guess
    const std::uint8_t mag = gf_mul(x, gf_div(poly_eval(omega, x_inv), denom));
    fixes.emplace_back(i, mag);
  }

  for (const auto& [pos, mag] : fixes)
    codeword[static_cast<std::size_t>(pos)] ^= mag;

  // Verify: a successful repair must leave every syndrome zero. If not,
  // undo — the caller gets its original bytes back, not a plausible fake.
  for (int j = 0; j < r; ++j) {
    const std::uint8_t a = gf_exp(j);
    std::uint8_t acc = 0;
    for (int i = 0; i < n_; ++i)
      acc = gf_mul(acc, a) ^ codeword[static_cast<std::size_t>(i)];
    if (acc != 0) {
      for (const auto& [pos, mag] : fixes)
        codeword[static_cast<std::size_t>(pos)] ^= mag;
      return false;
    }
  }
  return true;
}

void RsCode::encode_shards(const std::uint8_t* const* data,
                           std::uint8_t* const* parity,
                           std::size_t shard_len) const {
  combine(parity, n_ - k_, data, k_, coef_.data(), shard_len);
}

bool RsCode::reconstruct_columns(std::uint8_t* const* shards,
                                 const std::vector<bool>& present,
                                 std::span<const int> erasures,
                                 std::size_t shard_len) const {
  // Decode column-by-column into scratch; only commit if every column
  // repairs, so a failed generation never leaks half-written shards.
  std::vector<std::uint8_t> repaired(erasures.size() * shard_len);
  std::uint8_t cw[kRsMaxSymbols];
  for (std::size_t t = 0; t < shard_len; ++t) {
    for (int i = 0; i < n_; ++i)
      cw[i] = present[static_cast<std::size_t>(i)] ? shards[i][t] : 0;
    if (!decode({cw, static_cast<std::size_t>(n_)}, erasures)) return false;
    for (std::size_t j = 0; j < erasures.size(); ++j)
      repaired[j * shard_len + t] = cw[erasures[j]];
  }
  for (std::size_t j = 0; j < erasures.size(); ++j)
    std::copy_n(repaired.data() + j * shard_len, shard_len,
                shards[erasures[j]]);
  return true;
}

bool RsCode::reconstruct_shards(std::uint8_t* const* shards,
                                const std::vector<bool>& present,
                                std::size_t shard_len) const {
  ADAFL_CHECK_MSG(static_cast<int>(present.size()) == n_,
                  "reconstruct_shards: present bitmap size != n");
  // The first k present shards are the basis; later present ones are spare.
  std::vector<int> missing, basis, spare;
  for (int i = 0; i < n_; ++i) {
    if (!present[static_cast<std::size_t>(i)])
      missing.push_back(i);
    else if (static_cast<int>(basis.size()) < k_)
      basis.push_back(i);
    else
      spare.push_back(i);
  }
  if (static_cast<int>(missing.size()) > parity()) return false;
  if (missing.empty() || shard_len == 0) return true;

  // Generator row of shard x: unit vector e_x for data, coef_ row for
  // parity. Every shard is (row of x) . data and data = M^-1 . basis, M the
  // basis shards' rows, so shard x = ((row of x) . M^-1) . basis.
  const std::size_t kk = static_cast<std::size_t>(k_);
  const auto gen_row = [&](int x, std::uint8_t* row) {
    std::fill_n(row, kk, std::uint8_t{0});
    if (x < k_)
      row[x] = 1;
    else
      std::copy_n(coef_.data() + static_cast<std::size_t>(x - k_) * kk, kk,
                  row);
  };
  std::vector<std::uint8_t> m(kk * kk), inv;
  for (std::size_t b = 0; b < kk; ++b) gen_row(basis[b], m.data() + b * kk);
  // An MDS code makes every k x k submatrix invertible; the per-column
  // decoder is the backstop should that ever not hold.
  if (!invert(m, inv, k_))
    return reconstruct_columns(shards, present, missing, shard_len);

  // Rebuild every non-basis shard, missing and spare alike, into scratch.
  std::vector<int> rebuilt = missing;
  rebuilt.insert(rebuilt.end(), spare.begin(), spare.end());
  const std::size_t outs = rebuilt.size();
  std::vector<std::uint8_t> g(kk), rows(outs * kk), out(outs * shard_len);
  std::vector<std::uint8_t*> dst(outs);
  for (std::size_t o = 0; o < outs; ++o) {
    gen_row(rebuilt[o], g.data());
    for (std::size_t c = 0; c < kk; ++c) {
      std::uint8_t acc = 0;
      for (std::size_t i = 0; i < kk; ++i)
        acc ^= gf_mul(g[i], inv[i * kk + c]);
      rows[o * kk + c] = acc;
    }
    dst[o] = out.data() + o * shard_len;
  }
  std::vector<const std::uint8_t*> src(kk);
  for (std::size_t b = 0; b < kk; ++b) src[b] = shards[basis[b]];
  combine(dst.data(), static_cast<int>(outs), src.data(), k_, rows.data(),
          shard_len);

  // Spare shards must equal what the basis predicts. Any mismatch means a
  // present shard is corrupt; the per-column errata decoder then corrects
  // or refuses exactly as decode() does.
  for (std::size_t o = missing.size(); o < outs; ++o)
    if (std::memcmp(dst[o], shards[rebuilt[o]], shard_len) != 0)
      return reconstruct_columns(shards, present, missing, shard_len);
  for (std::size_t o = 0; o < missing.size(); ++o)
    std::memcpy(shards[rebuilt[o]], dst[o], shard_len);
  return true;
}

}  // namespace adafl::net::fec
