// Format-level tests for the durable server checkpoint (v2 "ADFL" sections):
// round-trip fidelity, atomic writes, and rejection of torn / corrupted /
// malformed files with actionable errors instead of a resume-from-garbage.
#include "core/server_checkpoint.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <vector>

#include "net/transport/crc32.h"
#include "tensor/check.h"

namespace adafl::core {
namespace {

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

std::vector<char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A checkpoint exercising every section, including the optional ones.
ServerCheckpoint full_checkpoint() {
  ServerCheckpoint ck;
  ck.producer = "adafl-sync";
  ck.next_round = 7;
  ck.total_rounds = 12;
  ck.seed = 0xDEADBEEF;
  ck.config_crc = 0x1234;
  ck.clock = 3.5;
  ck.global = {1.0f, -2.0f, 0.5f, 4.0f};

  ServerCheckpoint::AdaFlCoreState a;
  a.g_hat = {0.1f, 0.2f, 0.3f, 0.4f};
  a.selected_updates = 11;
  a.skipped_clients = 3;
  a.min_ratio_used = 0.05;
  a.max_ratio_used = 0.4;
  a.mean_selected_per_round = 1.8;
  a.selected_sum = 9;
  a.rounds_planned = 5;
  ck.adafl = a;

  ServerCheckpoint::AdamState adam;
  adam.m = {0.01f, 0.02f, 0.03f, 0.04f};
  adam.v = {0.1f, 0.1f, 0.1f, 0.1f};
  adam.t = 6;
  ck.adam = adam;

  ck.c_global = std::vector<float>{0.5f, 0.5f, 0.5f, 0.5f};

  tensor::Rng rng(42);
  (void)rng.normal();  // advance so the state is non-initial
  ck.server_rng = rng.state();
  tensor::Rng link(43);
  ck.link_rngs = {link.state()};
  ck.schedule = {2, 0, 1};

  ServerCheckpoint::ClientState c0;
  c0.loader_rng = tensor::Rng(44).state();
  c0.loader_cursor = 2;
  c0.loader_indices = {3, 1, 0, 2};
  c0.dgc_u = {0.0f, 0.1f, 0.0f, 0.0f};
  c0.dgc_v = {0.0f, 0.0f, 0.2f, 0.0f};
  c0.c_local = {0.1f, 0.1f, 0.1f, 0.1f};
  ck.clients = {c0};
  return ck;
}

TEST(ServerCheckpoint, RoundTripPreservesEveryField) {
  const std::string path = temp_path("srv_ckpt_rt.bin");
  const ServerCheckpoint ck = full_checkpoint();
  save_server_checkpoint(path, ck);
  const ServerCheckpoint got = load_server_checkpoint(path);

  EXPECT_EQ(got.producer, ck.producer);
  EXPECT_EQ(got.next_round, ck.next_round);
  EXPECT_EQ(got.total_rounds, ck.total_rounds);
  EXPECT_EQ(got.seed, ck.seed);
  EXPECT_EQ(got.config_crc, ck.config_crc);
  EXPECT_EQ(got.clock, ck.clock);
  EXPECT_EQ(got.global, ck.global);
  ASSERT_TRUE(got.adafl.has_value());
  EXPECT_EQ(got.adafl->g_hat, ck.adafl->g_hat);
  EXPECT_EQ(got.adafl->selected_updates, ck.adafl->selected_updates);
  EXPECT_EQ(got.adafl->skipped_clients, ck.adafl->skipped_clients);
  EXPECT_EQ(got.adafl->min_ratio_used, ck.adafl->min_ratio_used);
  EXPECT_EQ(got.adafl->max_ratio_used, ck.adafl->max_ratio_used);
  EXPECT_EQ(got.adafl->mean_selected_per_round,
            ck.adafl->mean_selected_per_round);
  EXPECT_EQ(got.adafl->selected_sum, ck.adafl->selected_sum);
  EXPECT_EQ(got.adafl->rounds_planned, ck.adafl->rounds_planned);
  ASSERT_TRUE(got.adam.has_value());
  EXPECT_EQ(got.adam->m, ck.adam->m);
  EXPECT_EQ(got.adam->v, ck.adam->v);
  EXPECT_EQ(got.adam->t, ck.adam->t);
  ASSERT_TRUE(got.c_global.has_value());
  EXPECT_EQ(*got.c_global, *ck.c_global);
  ASSERT_TRUE(got.server_rng.has_value());
  // A restored RNG continues the stream bitwise.
  tensor::Rng a(1), b(1);
  a.set_state(*ck.server_rng);
  b.set_state(*got.server_rng);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(a.normal(), b.normal());
  ASSERT_EQ(got.link_rngs.size(), 1u);
  EXPECT_EQ(got.schedule, ck.schedule);
  ASSERT_EQ(got.clients.size(), 1u);
  EXPECT_EQ(got.clients[0].loader_cursor, ck.clients[0].loader_cursor);
  EXPECT_EQ(got.clients[0].loader_indices, ck.clients[0].loader_indices);
  EXPECT_EQ(got.clients[0].dgc_u, ck.clients[0].dgc_u);
  EXPECT_EQ(got.clients[0].dgc_v, ck.clients[0].dgc_v);
  EXPECT_EQ(got.clients[0].c_local, ck.clients[0].c_local);
  std::remove(path.c_str());
}

TEST(ServerCheckpoint, RoundTripWithoutOptionalSections) {
  const std::string path = temp_path("srv_ckpt_min.bin");
  ServerCheckpoint ck;
  ck.producer = "deployed";
  ck.next_round = 2;
  ck.total_rounds = 3;
  ck.global = {1.0f, 2.0f};
  ServerCheckpoint::AdaFlCoreState a;
  a.g_hat = {0.0f, 0.0f};
  ck.adafl = a;
  save_server_checkpoint(path, ck);
  const ServerCheckpoint got = load_server_checkpoint(path);
  EXPECT_EQ(got.producer, "deployed");
  EXPECT_FALSE(got.adam.has_value());
  EXPECT_FALSE(got.c_global.has_value());
  EXPECT_FALSE(got.server_rng.has_value());
  EXPECT_TRUE(got.clients.empty());
  std::remove(path.c_str());
}

TEST(ServerCheckpoint, AtomicWriteLeavesNoTmpFile) {
  const std::string path = temp_path("srv_ckpt_atomic.bin");
  save_server_checkpoint(path, full_checkpoint());
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
  // Overwrite in place: still no residue, file still loads.
  save_server_checkpoint(path, full_checkpoint());
  std::ifstream tmp2(path + ".tmp");
  EXPECT_FALSE(tmp2.good());
  EXPECT_NO_THROW(load_server_checkpoint(path));
  std::remove(path.c_str());
}

TEST(ServerCheckpoint, TruncationAtAnyPrefixRejected) {
  const std::string path = temp_path("srv_ckpt_trunc.bin");
  save_server_checkpoint(path, full_checkpoint());
  const std::vector<char> bytes = slurp(path);
  ASSERT_GT(bytes.size(), 16u);
  // Cut inside the header, a section, and the CRC trailer.
  for (const std::size_t keep :
       {std::size_t{3}, std::size_t{9}, bytes.size() / 3, bytes.size() / 2,
        bytes.size() - 2}) {
    std::vector<char> cut(bytes.begin(),
                          bytes.begin() + static_cast<std::ptrdiff_t>(keep));
    spit(path, cut);
    EXPECT_THROW(load_server_checkpoint(path), std::runtime_error)
        << "prefix of " << keep << " bytes was accepted";
  }
  std::remove(path.c_str());
}

TEST(ServerCheckpoint, FlippedByteAnywhereRejected) {
  const std::string path = temp_path("srv_ckpt_flip.bin");
  save_server_checkpoint(path, full_checkpoint());
  const std::vector<char> bytes = slurp(path);
  // Flip a byte in a section body and the final file-CRC byte: the
  // whole-file CRC catches both before any section is parsed.
  for (const std::size_t pos : {bytes.size() / 2, bytes.size() - 1}) {
    std::vector<char> bad = bytes;
    bad[pos] = static_cast<char>(bad[pos] ^ 0xFF);
    spit(path, bad);
    EXPECT_THROW(load_server_checkpoint(path), std::runtime_error)
        << "flip at byte " << pos << " was accepted";
  }
  std::remove(path.c_str());
}

TEST(ServerCheckpoint, TrailingBytesRejected) {
  const std::string path = temp_path("srv_ckpt_trail.bin");
  save_server_checkpoint(path, full_checkpoint());
  std::vector<char> bytes = slurp(path);
  bytes.push_back('x');
  spit(path, bytes);
  EXPECT_THROW(load_server_checkpoint(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(ServerCheckpoint, WrongSectionCountRejected) {
  const std::string path = temp_path("srv_ckpt_sections.bin");
  auto sections = encode_server_checkpoint(full_checkpoint());
  sections.pop_back();  // drop "clients"
  write_checkpoint_file(path, sections);
  // The container itself is valid (CRCs match), so the low-level reader
  // accepts it; the typed decoder rejects the structure.
  EXPECT_NO_THROW(read_checkpoint_file(path));
  EXPECT_THROW(load_server_checkpoint(path), std::runtime_error);
  EXPECT_THROW(decode_server_checkpoint(sections), CheckError);
  std::remove(path.c_str());
}

TEST(ServerCheckpoint, NonFiniteWeightsRejected) {
  const std::string path = temp_path("srv_ckpt_nan.bin");
  ServerCheckpoint ck = full_checkpoint();
  ck.global[1] = std::numeric_limits<float>::quiet_NaN();
  save_server_checkpoint(path, ck);
  EXPECT_THROW(load_server_checkpoint(path), std::runtime_error);
  std::remove(path.c_str());
}

void put_u32_at(std::vector<std::uint8_t>& v, std::size_t off,
                std::uint32_t x) {
  for (int b = 0; b < 4; ++b)
    v[off + b] = static_cast<std::uint8_t>((x >> (8 * b)) & 0xFF);
}

// Counts read from an image size nothing until the bytes behind them are
// known to exist. Each image here has valid CRCs (a hostile or buggy
// producer can write those), so only the count checks stand between a
// forged 2^32 - 1 and a giant allocation: the loader must raise its own
// error, never bad_alloc.
TEST(ServerCheckpoint, ForgedCountsRejected) {
  const std::string path = temp_path("srv_ckpt_counts.bin");
  const auto good = encode_server_checkpoint(full_checkpoint());
  // rng: u8 server-rng flag + one 41-byte rng record, then the link-rng
  // count. clients: the count comes first.
  const std::pair<std::size_t, std::size_t> forged[] = {{5, 1 + 41},
                                                        {6, 0}};
  for (const auto& [section, off] : forged) {
    auto sections = good;
    put_u32_at(sections[section].data, off, 0xFFFFFFFFu);
    EXPECT_THROW(decode_server_checkpoint(sections), CheckError)
        << "section " << sections[section].name;
    write_checkpoint_file(path, sections);
    EXPECT_THROW(load_server_checkpoint(path), std::runtime_error)
        << "section " << sections[section].name;
  }

  // The container's own section count (magic, version, count), with the
  // file CRC recomputed over the forged header.
  std::vector<std::uint8_t> image = encode_checkpoint_file_bytes(good);
  put_u32_at(image, 8, 0xFFFFFFFFu);
  put_u32_at(image, image.size() - 4,
             net::transport::crc32(
                 std::span<const std::uint8_t>(image).first(image.size() - 4)));
  EXPECT_THROW(decode_checkpoint_file_bytes(image, "forged"),
               std::runtime_error);
  std::remove(path.c_str());
}

TEST(ServerCheckpoint, MissingFileHasActionableError) {
  try {
    load_server_checkpoint("/nonexistent/dir/server.ckpt");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("/nonexistent/dir/server.ckpt"),
              std::string::npos);
  }
}

TEST(ServerCheckpoint, CheckpointPathJoinsDir) {
  EXPECT_EQ(checkpoint_path("/tmp/run1"), "/tmp/run1/server.ckpt");
}

}  // namespace
}  // namespace adafl::core
