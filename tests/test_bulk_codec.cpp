// Bulk float codec (bytes::put_f32s / Reader::f32s) and the encoders built
// on it — encode_model, the identity wire payload, encode_server_checkpoint
// and encode_checkpoint_file_bytes — pinned byte for byte against
// per-element reference encoders kept in this file. Lengths 0, 1, 2, 3, 17
// and 49,866 (the CIFAR MLP's parameter count); NaN payloads, -0.0,
// denormals and ±inf must survive bit for bit.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <span>
#include <vector>

#include "compress/bytes.h"
#include "compress/wire.h"
#include "core/server_checkpoint.h"
#include "net/transport/crc32.h"
#include "net/transport/session.h"
#include "tensor/check.h"

namespace adafl {
namespace {

constexpr std::size_t kLengths[] = {0, 1, 2, 3, 17, 49866};

// --- Per-element reference encoder (little-endian, one byte at a time). ---

void ref_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}

void ref_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int b = 0; b < 4; ++b)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
}

void ref_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int b = 0; b < 8; ++b)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
}

void ref_f32(std::vector<std::uint8_t>& out, float f) {
  ref_u32(out, std::bit_cast<std::uint32_t>(f));
}

void ref_f64(std::vector<std::uint8_t>& out, double d) {
  ref_u64(out, std::bit_cast<std::uint64_t>(d));
}

void ref_f32_vec(std::vector<std::uint8_t>& out, const std::vector<float>& v) {
  ref_u64(out, v.size());
  for (float f : v) ref_f32(out, f);
}

void ref_str(std::vector<std::uint8_t>& out, const std::string& s) {
  ref_u32(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

void ref_rng(std::vector<std::uint8_t>& out, const tensor::RngState& s) {
  for (int i = 0; i < 4; ++i) ref_u64(out, s.s[i]);
  ref_f64(out, s.cached);
  ref_u8(out, s.has_cached ? 1 : 0);
}

// --- Test values. ---------------------------------------------------------

/// `n` floats: the special bit patterns first (cycled), then random bit
/// patterns (every class: normals, denormals, NaNs with random payloads).
/// With `finite_only`, NaN and ±inf patterns are replaced by finite ones.
std::vector<float> tricky_floats(std::size_t n, std::uint64_t seed,
                                 bool finite_only = false) {
  static constexpr std::uint32_t kSpecial[] = {
      0x80000000u,  // -0.0
      0x00000001u,  // smallest denormal
      0x807FFFFFu,  // largest negative denormal
      0x7FC12345u,  // quiet NaN with payload
      0x7F800001u,  // signalling NaN
      0xFFC00001u,  // negative quiet NaN
      0x7F800000u,  // +inf
      0xFF800000u,  // -inf
      0x3F800000u,  // 1.0
  };
  std::mt19937 rng(static_cast<std::uint32_t>(seed));
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t bits = i < 3 * std::size(kSpecial)
                             ? kSpecial[i % std::size(kSpecial)]
                             : static_cast<std::uint32_t>(rng());
    if (finite_only && (bits & 0x7F800000u) == 0x7F800000u)
      bits &= 0xBFFFFFFFu;  // exponent 0xFF -> 0x7F: a finite value
    v[i] = std::bit_cast<float>(bits);
  }
  return v;
}

std::vector<std::uint32_t> bits_of(std::span<const float> v) {
  std::vector<std::uint32_t> b(v.size());
  for (std::size_t i = 0; i < v.size(); ++i)
    b[i] = std::bit_cast<std::uint32_t>(v[i]);
  return b;
}

// --- bytes::put_f32s / Reader::f32s. ---------------------------------------

TEST(BulkFloatCodec, PutMatchesPerElementAndReadsBackBitExact) {
  for (const std::size_t n : kLengths) {
    const auto v = tricky_floats(n, 0xB01u + n);
    std::vector<std::uint8_t> got = {0xAB}, want = {0xAB};  // unaligned tail
    bytes::put_f32s(got, v);
    for (float f : v) ref_f32(want, f);
    ASSERT_EQ(got, want) << "n=" << n;

    bytes::Reader r(got);
    ASSERT_EQ(r.u8(), 0xAB);
    std::vector<float> back(n, 7.0f);
    r.f32s(back);
    EXPECT_EQ(bits_of(back), bits_of(v)) << "n=" << n;
    EXPECT_EQ(r.remaining(), 0u);
  }
}

TEST(BulkFloatCodec, ReaderRejectsOneByteShortAndConsumesNothing) {
  for (const std::size_t n : kLengths) {
    if (n == 0) continue;
    std::vector<std::uint8_t> buf;
    for (float f : tricky_floats(n, n)) ref_f32(buf, f);
    buf.pop_back();
    bytes::Reader r(buf);
    std::vector<float> out(n, 7.0f);
    EXPECT_THROW(r.f32s(out), CheckError) << "n=" << n;
    EXPECT_EQ(r.offset(), 0u) << "n=" << n;
    for (float f : out) ASSERT_EQ(f, 7.0f) << "n=" << n;
  }
  // An empty read of an empty buffer is fine.
  bytes::Reader r(std::span<const std::uint8_t>{});
  r.f32s(std::span<float>{});
  EXPECT_EQ(r.remaining(), 0u);
}

// --- MODEL payload. ---------------------------------------------------------

TEST(BulkFloatCodec, EncodeModelMatchesReferenceAndRoundTrips) {
  for (const std::size_t n : kLengths) {
    net::transport::ModelPayload m;
    m.global = tricky_floats(n, 1 + n);
    m.g_hat = tricky_floats(n, 2 + n);
    std::vector<std::uint8_t> want;
    ref_u64(want, n);
    for (float f : m.global) ref_f32(want, f);
    for (float f : m.g_hat) ref_f32(want, f);
    const auto got = net::transport::encode_model(m);
    ASSERT_EQ(got, want) << "n=" << n;

    const auto back = net::transport::parse_model(got);
    EXPECT_EQ(bits_of(back.global), bits_of(m.global)) << "n=" << n;
    EXPECT_EQ(bits_of(back.g_hat), bits_of(m.g_hat)) << "n=" << n;
    if (n > 0) {
      want.pop_back();
      EXPECT_THROW(net::transport::parse_model(want), CheckError);
    }
  }
}

// --- Identity (dense) wire payload. ------------------------------------------

TEST(BulkFloatCodec, IdentityWireMatchesReferenceAndRoundTrips) {
  for (const std::size_t n : kLengths) {
    compress::EncodedGradient e;
    e.kind = compress::CodecKind::kIdentity;
    e.dense_size = static_cast<std::int64_t>(n);
    e.values = tricky_floats(n, 3 + n);
    std::vector<std::uint8_t> want = {0, 0, 0, 0};  // kind, aux, reserved
    ref_u32(want, static_cast<std::uint32_t>(n));
    for (float f : e.values) ref_f32(want, f);
    std::vector<std::uint8_t> got = {1, 2, 3};  // cleared by serialize_into
    compress::serialize_into(e, got);
    ASSERT_EQ(got, want) << "n=" << n;

    compress::EncodedGradient back;
    back.values.assign(5, 1.0f);  // reused storage is overwritten
    compress::deserialize_into(got, back);
    EXPECT_EQ(back.kind, compress::CodecKind::kIdentity);
    EXPECT_EQ(back.dense_size, e.dense_size);
    EXPECT_EQ(bits_of(back.values), bits_of(e.values)) << "n=" << n;
    EXPECT_EQ(back.wire_bytes, static_cast<std::int64_t>(want.size()));
    want.pop_back();
    EXPECT_THROW(compress::deserialize_into(want, back), CheckError);
  }
}

// --- Server checkpoint sections and file image. ------------------------------

core::ServerCheckpoint checkpoint_of(std::size_t n, bool finite_only) {
  core::ServerCheckpoint ck;
  ck.producer = "adafl-sync";
  ck.next_round = 4;
  ck.total_rounds = 9;
  ck.seed = 0x0123456789ABCDEFull;
  ck.config_crc = 0xC0FFEEu;
  ck.clock = 2.25;
  ck.global = tricky_floats(n, 10 + n, finite_only);
  core::ServerCheckpoint::AdaFlCoreState a;
  a.g_hat = tricky_floats(n, 11 + n, finite_only);
  a.selected_updates = 12;
  a.skipped_clients = 2;
  a.min_ratio_used = 0.05;
  a.max_ratio_used = 0.5;
  a.mean_selected_per_round = 1.5;
  a.selected_sum = 6;
  a.rounds_planned = 3;
  ck.adafl = a;
  core::ServerCheckpoint::AdamState adam;
  adam.m = tricky_floats(n, 12 + n, finite_only);
  adam.v = tricky_floats(n, 13 + n, finite_only);
  adam.t = 3;
  ck.adam = adam;
  ck.c_global = tricky_floats(n, 14 + n, finite_only);
  ck.server_rng = tensor::Rng(5).state();
  ck.link_rngs = {tensor::Rng(6).state(), tensor::Rng(7).state()};
  ck.schedule = {1, 0, 2};
  core::ServerCheckpoint::ClientState c;
  c.loader_rng = tensor::Rng(8).state();
  c.loader_cursor = 1;
  c.loader_indices = {2, 0, 1};
  c.dgc_u = tricky_floats(n, 15 + n, finite_only);
  c.dgc_v = tricky_floats(n, 16 + n, finite_only);
  c.c_local = tricky_floats(n, 17 + n, finite_only);
  ck.clients = {c, c};
  return ck;
}

std::vector<core::CheckpointSection> reference_sections(
    const core::ServerCheckpoint& ck) {
  std::vector<core::CheckpointSection> out(7);
  const char* names[] = {"meta", "global", "adafl", "adam",
                         "scaffold", "rng", "clients"};
  for (std::size_t i = 0; i < out.size(); ++i) out[i].name = names[i];

  auto& meta = out[0].data;
  ref_str(meta, ck.producer);
  ref_u32(meta, ck.next_round);
  ref_u32(meta, ck.total_rounds);
  ref_u64(meta, ck.seed);
  ref_u32(meta, ck.config_crc);
  ref_f64(meta, ck.clock);

  ref_f32_vec(out[1].data, ck.global);

  auto& adafl = out[2].data;
  ref_u8(adafl, ck.adafl ? 1 : 0);
  if (ck.adafl) {
    ref_f32_vec(adafl, ck.adafl->g_hat);
    ref_u64(adafl, static_cast<std::uint64_t>(ck.adafl->selected_updates));
    ref_u64(adafl, static_cast<std::uint64_t>(ck.adafl->skipped_clients));
    ref_f64(adafl, ck.adafl->min_ratio_used);
    ref_f64(adafl, ck.adafl->max_ratio_used);
    ref_f64(adafl, ck.adafl->mean_selected_per_round);
    ref_u64(adafl, static_cast<std::uint64_t>(ck.adafl->selected_sum));
    ref_u32(adafl, static_cast<std::uint32_t>(ck.adafl->rounds_planned));
  }

  auto& adam = out[3].data;
  ref_u8(adam, ck.adam ? 1 : 0);
  if (ck.adam) {
    ref_f32_vec(adam, ck.adam->m);
    ref_f32_vec(adam, ck.adam->v);
    ref_u64(adam, static_cast<std::uint64_t>(ck.adam->t));
  }

  auto& scaffold = out[4].data;
  ref_u8(scaffold, ck.c_global ? 1 : 0);
  if (ck.c_global) ref_f32_vec(scaffold, *ck.c_global);

  auto& rng = out[5].data;
  ref_u8(rng, ck.server_rng ? 1 : 0);
  if (ck.server_rng) ref_rng(rng, *ck.server_rng);
  ref_u32(rng, static_cast<std::uint32_t>(ck.link_rngs.size()));
  for (const auto& s : ck.link_rngs) ref_rng(rng, s);
  ref_u32(rng, static_cast<std::uint32_t>(ck.schedule.size()));
  for (std::int32_t i : ck.schedule) ref_u32(rng, static_cast<std::uint32_t>(i));

  auto& clients = out[6].data;
  ref_u32(clients, static_cast<std::uint32_t>(ck.clients.size()));
  for (const auto& c : ck.clients) {
    ref_rng(clients, c.loader_rng);
    ref_u64(clients, c.loader_cursor);
    ref_u64(clients, c.loader_indices.size());
    for (std::int32_t i : c.loader_indices)
      ref_u32(clients, static_cast<std::uint32_t>(i));
    ref_f32_vec(clients, c.dgc_u);
    ref_f32_vec(clients, c.dgc_v);
    ref_f32_vec(clients, c.c_local);
  }
  return out;
}

/// The file image with a second, whole-buffer CRC pass for the trailer.
std::vector<std::uint8_t> reference_image(
    const std::vector<core::CheckpointSection>& sections) {
  std::vector<std::uint8_t> buf = {'A', 'D', 'F', 'L'};
  ref_u32(buf, core::kServerCheckpointVersion);
  ref_u32(buf, static_cast<std::uint32_t>(sections.size()));
  for (const auto& s : sections) {
    ref_str(buf, s.name);
    ref_u64(buf, s.data.size());
    ref_u32(buf, net::transport::crc32(s.data));
    buf.insert(buf.end(), s.data.begin(), s.data.end());
  }
  ref_u32(buf, net::transport::crc32(buf));
  return buf;
}

TEST(BulkFloatCodec, ServerCheckpointMatchesReference) {
  for (const std::size_t n : kLengths) {
    const core::ServerCheckpoint ck = checkpoint_of(n, /*finite_only=*/false);
    const auto got = core::encode_server_checkpoint(ck);
    const auto want = reference_sections(ck);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].name, want[i].name);
      ASSERT_EQ(got[i].data, want[i].data)
          << "section " << want[i].name << ", n=" << n;
    }
    ASSERT_EQ(core::encode_checkpoint_file_bytes(got), reference_image(want))
        << "n=" << n;
  }
  // Empty and single-section containers take the same one-pass CRC path.
  for (const std::vector<core::CheckpointSection>& sections :
       {std::vector<core::CheckpointSection>{},
        std::vector<core::CheckpointSection>{{"", {}}},
        std::vector<core::CheckpointSection>{{"x", {1, 2, 3}}, {"", {}}}})
    EXPECT_EQ(core::encode_checkpoint_file_bytes(sections),
              reference_image(sections));
}

TEST(BulkFloatCodec, ServerCheckpointRoundTripsBitExact) {
  for (const std::size_t n : kLengths) {
    if (n == 0) continue;  // the decoder requires non-empty weights
    const core::ServerCheckpoint ck = checkpoint_of(n, /*finite_only=*/true);
    const auto image =
        core::encode_checkpoint_file_bytes(core::encode_server_checkpoint(ck));
    const core::ServerCheckpoint back = core::decode_server_checkpoint(
        core::decode_checkpoint_file_bytes(image, "test image"));
    EXPECT_EQ(bits_of(back.global), bits_of(ck.global)) << "n=" << n;
    ASSERT_TRUE(back.adafl && back.adam && back.c_global);
    EXPECT_EQ(bits_of(back.adafl->g_hat), bits_of(ck.adafl->g_hat));
    EXPECT_EQ(bits_of(back.adam->m), bits_of(ck.adam->m));
    EXPECT_EQ(bits_of(back.adam->v), bits_of(ck.adam->v));
    EXPECT_EQ(bits_of(*back.c_global), bits_of(*ck.c_global));
    ASSERT_EQ(back.clients.size(), 2u);
    EXPECT_EQ(bits_of(back.clients[1].dgc_u), bits_of(ck.clients[1].dgc_u));
    EXPECT_EQ(bits_of(back.clients[1].dgc_v), bits_of(ck.clients[1].dgc_v));
    EXPECT_EQ(bits_of(back.clients[1].c_local),
              bits_of(ck.clients[1].c_local));
  }
}

}  // namespace
}  // namespace adafl
