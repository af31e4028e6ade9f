// Hot-standby replication tests: REPLICATE codec, standby-side validation
// (truncated / bit-flipped / version-skewed / config-skewed images are
// rejected and the previous complete checkpoint survives), atomic install,
// publisher fan-out, and an in-process mid-run failover that must land
// bitwise identical to the clean simulator.
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <thread>

#include "core/server_checkpoint.h"
#include "deployed_test_util.h"
#include "net/replication/replication.h"
#include "net/transport/crc32.h"
#include "net/transport/loopback.h"

namespace adafl::testutil {
namespace {

using namespace net::transport;
using namespace net::replication;
using std::chrono::milliseconds;

std::string fresh_dir(const char* name) {
  const std::string dir = ::testing::TempDir() + name;
  ::mkdir(dir.c_str(), 0755);
  std::remove((dir + "/server.ckpt").c_str());
  std::remove((dir + "/server.ckpt.tmp").c_str());
  return dir;
}

/// A small but fully populated deployed-style checkpoint.
core::ServerCheckpoint make_ckpt(std::uint32_t next_round,
                                 std::uint32_t total_rounds,
                                 std::uint32_t config_crc) {
  core::ServerCheckpoint ck;
  ck.producer = "deployed";
  ck.next_round = next_round;
  ck.total_rounds = total_rounds;
  ck.seed = 7;
  ck.config_crc = config_crc;
  ck.global = {0.5f, -1.25f, 2.0f, 0.125f};
  core::ServerCheckpoint::AdaFlCoreState a;
  a.g_hat = {0.1f, 0.2f, 0.3f, 0.4f};
  a.selected_updates = 3;
  a.rounds_planned = static_cast<std::int32_t>(total_rounds);
  ck.adafl = a;
  return ck;
}

std::vector<std::uint8_t> image_of(const core::ServerCheckpoint& ck) {
  return core::encode_checkpoint_file_bytes(core::encode_server_checkpoint(ck));
}

Frame replicate_frame(std::vector<std::uint8_t> payload) {
  Frame f;
  f.type = MsgType::kReplicate;
  f.client_id = kServerId;
  f.payload = std::move(payload);
  return f;
}

// --- REPLICATE payload codec. ---------------------------------------------

TEST(ReplicateCodec, RoundTripTruncationAndTrailingBytes) {
  ReplicatePayload p;
  p.next_round = 5;
  p.image = {1, 2, 3, 4, 5, 6, 7};
  const auto enc = encode_replicate(p);
  const ReplicatePayload back = parse_replicate(enc);
  EXPECT_EQ(back.next_round, 5u);
  EXPECT_EQ(back.image, p.image);

  auto truncated = enc;
  truncated.resize(enc.size() - 3);
  EXPECT_THROW(parse_replicate(truncated), CheckError);

  auto trailing = enc;
  trailing.push_back(0xFF);
  EXPECT_THROW(parse_replicate(trailing), CheckError);
}

// --- Standby validation + fallback (ISSUE 8 satellite 4). -----------------

TEST(StandbyReplica, RejectsCorruptImagesAndKeepsPreviousCheckpoint) {
  const std::string dir = fresh_dir("standby_reject");
  constexpr std::uint32_t kCfgCrc = 0xABCD1234u;

  // Pre-queue the whole scripted conversation, then run the replica
  // synchronously: loopback delivers in order, kShutdown ends the run.
  auto pair = make_loopback_pair();
  std::unique_ptr<Transport> primary = std::move(pair.first);
  std::unique_ptr<Transport> standby_end = std::move(pair.second);

  const auto good = image_of(make_ckpt(2, 6, kCfgCrc));
  {
    ReplicatePayload p{2, good};
    ASSERT_TRUE(primary->send(replicate_frame(encode_replicate(p))));
  }
  {  // Truncated REPLICATE payload.
    ReplicatePayload p{3, image_of(make_ckpt(3, 6, kCfgCrc))};
    auto enc = encode_replicate(p);
    enc.resize(enc.size() / 2);
    ASSERT_TRUE(primary->send(replicate_frame(std::move(enc))));
  }
  {  // Bit-flipped image: the whole-file CRC must catch it.
    ReplicatePayload p{3, image_of(make_ckpt(3, 6, kCfgCrc))};
    p.image[p.image.size() / 2] ^= 0x01;
    ASSERT_TRUE(primary->send(replicate_frame(encode_replicate(p))));
  }
  {  // Version skew with a *recomputed* file CRC: the version check itself
     // must reject, not just the checksum.
    ReplicatePayload p{3, image_of(make_ckpt(3, 6, kCfgCrc))};
    p.image[4] ^= 0x03;  // version u32 little-endian low byte: 2 -> 1
    const std::uint32_t crc = crc32(std::span<const std::uint8_t>(
        p.image.data(), p.image.size() - 4));
    for (int i = 0; i < 4; ++i)
      p.image[p.image.size() - 4 + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(crc >> (8 * i));
    ASSERT_TRUE(primary->send(replicate_frame(encode_replicate(p))));
  }
  {  // Envelope/meta round disagreement.
    ReplicatePayload p{9, image_of(make_ckpt(3, 6, kCfgCrc))};
    ASSERT_TRUE(primary->send(replicate_frame(encode_replicate(p))));
  }
  {  // Config skew: a primary running a different configuration.
    ReplicatePayload p{3, image_of(make_ckpt(3, 6, kCfgCrc ^ 0xFFu))};
    ASSERT_TRUE(primary->send(replicate_frame(encode_replicate(p))));
  }
  {
    Frame f;
    f.type = MsgType::kShutdown;
    f.client_id = kServerId;
    ASSERT_TRUE(primary->send(f));
  }

  StandbyConfig scfg;
  scfg.checkpoint_dir = dir;
  scfg.lease = milliseconds(5000);
  scfg.recv_poll = milliseconds(5);
  scfg.expected_config_crc = kCfgCrc;
  bool dialed = false;
  StandbyReplica replica(scfg, [&]() -> std::unique_ptr<Transport> {
    if (dialed) return nullptr;
    dialed = true;
    return std::move(standby_end);
  });

  EXPECT_EQ(replica.run(), StandbyOutcome::kStandDown);
  EXPECT_EQ(replica.checkpoints_received(), 1u);
  EXPECT_EQ(replica.rejected_payloads(), 5u);
  EXPECT_EQ(replica.last_next_round(), 2u);

  // The first (valid) checkpoint survived every later corrupt payload...
  const auto ck = core::load_server_checkpoint(core::checkpoint_path(dir));
  EXPECT_EQ(ck.next_round, 2u);
  EXPECT_EQ(ck.config_crc, kCfgCrc);
  // ...and the install was atomic: no torn tmp file left behind.
  EXPECT_FALSE(std::filesystem::exists(core::checkpoint_path(dir) + ".tmp"));
}

TEST(StandbyReplica, PartialCheckpointFileCannotBeResumedFrom) {
  // What a NON-atomic installer would leave after a mid-write crash. The
  // loader must refuse it outright — promotion from a torn file is
  // structurally impossible, which is why install() goes through
  // write_checkpoint_bytes_atomic (tmp + rename) only after full validation.
  const std::string dir = fresh_dir("standby_partial");
  const auto img = image_of(make_ckpt(2, 6, 0));
  const std::string path = core::checkpoint_path(dir);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(img.data()),
            static_cast<std::streamsize>(img.size() / 2));
  out.close();
  EXPECT_THROW(core::load_server_checkpoint(path), std::runtime_error);
  std::remove(path.c_str());
}

// --- Lease behavior. ------------------------------------------------------

TEST(StandbyReplica, PromotesWhenThePrimaryIsSilent) {
  StandbyConfig scfg;
  scfg.checkpoint_dir = fresh_dir("standby_silent");
  scfg.lease = milliseconds(250);
  scfg.recv_poll = milliseconds(10);
  auto pair = make_loopback_pair();  // a peer that never says anything
  std::unique_ptr<Transport> standby_end = std::move(pair.second);
  StandbyReplica replica(scfg, [&]() -> std::unique_ptr<Transport> {
    return std::move(standby_end);
  });
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(replica.run(), StandbyOutcome::kPromote);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_GE(elapsed, milliseconds(240));
  EXPECT_EQ(replica.checkpoints_received(), 0u);
}

TEST(StandbyReplica, PromotesWhenThePrimaryIsUnreachable) {
  StandbyConfig scfg;
  scfg.checkpoint_dir = fresh_dir("standby_unreachable");
  scfg.lease = milliseconds(250);
  scfg.recv_poll = milliseconds(10);
  StandbyReplica replica(scfg,
                         []() -> std::unique_ptr<Transport> { return nullptr; });
  EXPECT_EQ(replica.run(), StandbyOutcome::kPromote);
}

// --- Publisher. -----------------------------------------------------------

TEST(CheckpointPublisher, SeedsLateAttachersAndAnswersPings) {
  CheckpointPublisher pub;
  const auto img = image_of(make_ckpt(3, 6, 0));
  pub.publish(3, img, 0.5);  // nobody attached yet
  EXPECT_EQ(pub.checkpoints_replicated(), 0u);

  // A standby attaching after the publish is seeded immediately.
  auto pair = make_loopback_pair();
  std::unique_ptr<Transport> standby_end = std::move(pair.second);
  pub.adopt(std::move(pair.first));
  EXPECT_EQ(pub.standby_count(), 1u);
  EXPECT_EQ(pub.checkpoints_replicated(), 1u);
  auto f = standby_end->recv(milliseconds(100));
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->type, MsgType::kReplicate);
  const ReplicatePayload p = parse_replicate(f->payload);
  EXPECT_EQ(p.next_round, 3u);
  EXPECT_EQ(p.image, img);

  // PING from the standby renews its lease via a PONG.
  Frame ping;
  ping.type = MsgType::kPing;
  ping.client_id = kServerId;
  ASSERT_TRUE(standby_end->send(ping));
  pub.service();
  auto pong = standby_end->recv(milliseconds(100));
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(pong->type, MsgType::kPong);

  // A later publish reaches the attached standby.
  pub.publish(4, image_of(make_ckpt(4, 6, 0)), 1.0);
  EXPECT_EQ(pub.checkpoints_replicated(), 2u);
  auto f2 = standby_end->recv(milliseconds(100));
  ASSERT_TRUE(f2.has_value());
  EXPECT_EQ(parse_replicate(f2->payload).next_round, 4u);

  // Graceful end of run: SHUTDOWN, not silence.
  pub.shutdown_standbys();
  EXPECT_EQ(pub.standby_count(), 0u);
  auto bye = standby_end->recv(milliseconds(100));
  ASSERT_TRUE(bye.has_value());
  EXPECT_EQ(bye->type, MsgType::kShutdown);
}

// --- Event-loop primary, TCP standby. -------------------------------------

/// Standby-side tap on the replication link: records every REPLICATE the
/// standby receives and counts the primary's PONGs (lease renewals).
class ReplicationTap final : public Transport {
 public:
  struct Log {
    std::mutex mu;
    std::vector<ReplicatePayload> images;
    std::atomic<int> pongs{0};
  };

  ReplicationTap(std::unique_ptr<Transport> inner, std::shared_ptr<Log> log)
      : inner_(std::move(inner)), log_(std::move(log)) {}

  bool send(const Frame& f) override { return inner_->send(f); }

  std::optional<Frame> recv(milliseconds timeout) override {
    auto f = inner_->recv(timeout);
    if (f && f->type == MsgType::kPong) ++log_->pongs;
    if (f && f->type == MsgType::kReplicate) {
      std::lock_guard<std::mutex> lock(log_->mu);
      log_->images.push_back(parse_replicate(f->payload));
    }
    return f;
  }

  bool closed() const override { return inner_->closed(); }
  void close() override { inner_->close(); }
  std::string peer() const override { return inner_->peer(); }

 private:
  std::unique_ptr<Transport> inner_;
  std::shared_ptr<Log> log_;
};

std::vector<std::uint8_t> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(StandbyReplica, TailsAnEventLoopPrimaryOverTcpAndStandsDown) {
  const cli::TaskSpec spec = small_task_spec();
  const fl::ClientTrainConfig client = small_client_config();
  const core::AdaFlParams params = small_params();
  const int rounds = 4;
  const std::string dir_a = fresh_dir("loop_standby_primary");
  const std::string dir_b = fresh_dir("loop_standby_replica");
  auto task = cli::build_task(spec);

  ServerSessionConfig scfg = make_server_config(spec, client, params, rounds);
  scfg.checkpoint_dir = dir_a;
  scfg.checkpoint_every = 1;
  CheckpointPublisher pub;
  scfg.publisher = &pub;
  ServerSession server(scfg, task.factory, &task.test);
  TcpListener listener(0);
  const std::uint16_t port = listener.port();
  EventLoop loop(EventLoopConfig{});
  loop.adopt_listener(listener.fd());
  server.attach_event_loop(&loop);
  fl::TrainLog log;
  std::thread server_thread([&] { log = server.run(); });

  // The standby PINGs far more often than its lease needs, so every pass of
  // the primary has lease traffic to answer.
  auto tap = std::make_shared<ReplicationTap::Log>();
  StandbyConfig stcfg;
  stcfg.checkpoint_dir = dir_b;
  stcfg.lease = milliseconds(3000);
  stcfg.ping_interval = milliseconds(20);
  stcfg.recv_poll = milliseconds(10);
  StandbyReplica replica(stcfg, [&]() -> std::unique_ptr<Transport> {
    auto t = TcpTransport::connect("127.0.0.1", port, milliseconds(1000));
    if (!t) return nullptr;
    return std::make_unique<ReplicationTap>(std::move(t), tap);
  });
  StandbyOutcome outcome{};
  std::thread standby_thread([&] { outcome = replica.run(); });

  // PONGs prove the primary adopted the standby and keeps answering its
  // lease pings; only then may round 1 start, so the standby sees every
  // round's checkpoint, not a late seed.
  const auto adopted_by = std::chrono::steady_clock::now() + milliseconds(5000);
  while (tap->pongs.load() < 2 &&
         std::chrono::steady_clock::now() < adopted_by)
    std::this_thread::sleep_for(milliseconds(5));
  ASSERT_GE(tap->pongs.load(), 2) << "primary did not answer standby PINGs";

  const int n = spec.clients;
  std::vector<std::optional<cli::TaskBundle>> bundles(
      static_cast<std::size_t>(n));
  std::vector<ClientRunStats> stats(static_cast<std::size_t>(n));
  std::vector<std::thread> threads;
  for (int id = 0; id < n; ++id) {
    threads.emplace_back([&, id] {
      ClientSession cs(
          test_client_config(id),
          [port]() -> std::unique_ptr<Transport> {
            return TcpTransport::connect("127.0.0.1", port,
                                         milliseconds(1000));
          },
          make_bootstrap(&bundles[static_cast<std::size_t>(id)]));
      stats[static_cast<std::size_t>(id)] = cs.run();
    });
  }
  for (auto& t : threads) t.join();
  server_thread.join();
  standby_thread.join();
  listener.close();

  EXPECT_FALSE(log.interrupted);
  for (const auto& st : stats) EXPECT_TRUE(st.completed);
  // The completed run's SHUTDOWN stands the standby down: no promotion.
  EXPECT_EQ(outcome, StandbyOutcome::kStandDown);

  // One REPLICATE per round, in round order, every one installed.
  const std::vector<std::uint8_t> primary = file_bytes(
      core::checkpoint_path(dir_a));
  ASSERT_FALSE(primary.empty());
  std::lock_guard<std::mutex> lock(tap->mu);
  ASSERT_EQ(tap->images.size(), static_cast<std::size_t>(rounds));
  for (int r = 1; r <= rounds; ++r) {
    const ReplicatePayload& p = tap->images[static_cast<std::size_t>(r - 1)];
    EXPECT_EQ(p.next_round, static_cast<std::uint32_t>(r + 1));
    const core::ServerCheckpoint ck = core::decode_server_checkpoint(
        core::decode_checkpoint_file_bytes(p.image, "tapped REPLICATE"));
    EXPECT_EQ(ck.next_round, static_cast<std::uint32_t>(r + 1));
  }
  EXPECT_EQ(replica.checkpoints_received(), static_cast<std::uint64_t>(rounds));
  EXPECT_EQ(replica.rejected_payloads(), 0u);
  EXPECT_EQ(replica.last_next_round(), static_cast<std::uint32_t>(rounds + 1));
  // The last image is the primary's final checkpoint file, byte for byte,
  // and the standby installed exactly those bytes.
  EXPECT_EQ(tap->images.back().image, primary);
  EXPECT_EQ(file_bytes(core::checkpoint_path(dir_b)), primary);
  const core::ServerCheckpoint final_ck =
      core::load_server_checkpoint(core::checkpoint_path(dir_b));
  EXPECT_EQ(final_ck.global, server.global());
}

// --- End-to-end failover, bitwise (ISSUE 8 tentpole). ---------------------

TEST(Failover, PromotedStandbyFinishesTheRunBitwise) {
  const cli::TaskSpec spec = small_task_spec();
  const fl::ClientTrainConfig client = small_client_config();
  const core::AdaFlParams params = small_params();
  const int rounds = 4;
  const SimResult sim = run_simulator(spec, client, params, rounds);

  const std::string dir_a = fresh_dir("failover_primary");
  const std::string dir_b = fresh_dir("failover_standby");
  auto task = cli::build_task(spec);

  ServerSessionConfig scfg = make_server_config(spec, client, params, rounds);
  scfg.retransmit_nudge = milliseconds(150);
  scfg.checkpoint_dir = dir_a;
  scfg.checkpoint_every = 1;
  CheckpointPublisher pub;
  scfg.publisher = &pub;
  ServerSession server1(scfg, task.factory, &task.test);

  // Endpoint table: slot 0 = primary, slot 1 = the promoted standby (null
  // until promotion — a dial then fails fast, like a TCP connect to an
  // unbound port, and the client rotates on).
  std::mutex mu;
  ServerSession* eps[2] = {&server1, nullptr};
  auto dial_ep = [&](std::size_t ep) -> std::unique_ptr<Transport> {
    std::lock_guard<std::mutex> lock(mu);
    if (eps[ep] == nullptr) return nullptr;
    auto pair = make_loopback_pair();
    eps[ep]->add_transport(std::move(pair.first));
    return std::move(pair.second);
  };

  // The standby tails the primary through the same endpoint table.
  StandbyConfig stcfg;
  stcfg.checkpoint_dir = dir_b;
  stcfg.lease = milliseconds(700);
  stcfg.recv_poll = milliseconds(10);
  StandbyReplica replica(stcfg, [&]() -> std::unique_ptr<Transport> {
    return dial_ep(0);
  });
  StandbyOutcome outcome{};
  std::thread standby_thread([&] { outcome = replica.run(); });

  // Client 0's first connection drops the round-3 MODEL and SIGKILLs the
  // primary: no stop-time checkpoint, endpoint 0 goes dark at once.
  auto killed = std::make_shared<std::atomic<bool>>(false);
  const int n = spec.clients;
  std::vector<std::optional<cli::TaskBundle>> bundles(
      static_cast<std::size_t>(n));
  std::vector<ClientRunStats> stats(static_cast<std::size_t>(n));
  std::vector<std::thread> threads;
  for (int id = 0; id < n; ++id) {
    threads.emplace_back([&, id] {
      ClientSessionConfig ccfg = test_client_config(id);
      ccfg.backoff.initial = milliseconds(1);
      ccfg.backoff.max = milliseconds(30);
      ccfg.backoff.max_attempts = 0;  // rotate endpoints forever
      ClientSession cs(
          ccfg,
          [&, id](std::size_t ep) -> std::unique_ptr<Transport> {
            auto t = dial_ep(ep);
            if (!t || id != 0 || killed->load()) return t;
            FaultPlan plan;
            plan.sever_on_recv(MsgType::kModel, 3);
            auto ft = std::make_unique<FaultyTransport>(std::move(t),
                                                        std::move(plan));
            ft->set_on_fault([&, killed](const FaultRule&, const Frame&) {
              killed->store(true);
              {
                std::lock_guard<std::mutex> lock(mu);
                eps[0] = nullptr;
              }
              server1.request_stop(/*write_checkpoint=*/false);
            });
            return ft;
          },
          /*endpoint_count=*/2,
          make_bootstrap(&bundles[static_cast<std::size_t>(id)]));
      stats[static_cast<std::size_t>(id)] = cs.run();
    });
  }

  const fl::TrainLog log1 = server1.run();
  EXPECT_TRUE(log1.interrupted);

  // The lease expires against the dead primary; the standby promotes and a
  // replacement session resumes from ITS OWN replicated checkpoint dir.
  standby_thread.join();
  ASSERT_EQ(outcome, StandbyOutcome::kPromote);
  ASSERT_GE(replica.checkpoints_received(), 1u);
  ASSERT_GE(replica.last_next_round(), 2u);

  ServerSessionConfig scfg2 = scfg;
  scfg2.publisher = nullptr;
  scfg2.checkpoint_dir = dir_b;
  scfg2.resume = true;
  ServerSession server2(scfg2, task.factory, &task.test);
  {
    std::lock_guard<std::mutex> lock(mu);
    eps[1] = &server2;
  }
  const fl::TrainLog log2 = server2.run();
  for (auto& t : threads) t.join();

  EXPECT_FALSE(log2.interrupted);
  EXPECT_GE(server2.resumed_from(), 2);
  EXPECT_LE(server2.resumed_from(), rounds);
  // Bitwise: the failover stitches into exactly the clean simulator run —
  // rejoin dedup means nothing is double-counted, replay is identical.
  EXPECT_EQ(server2.global(), sim.global);
  for (const auto& st : stats) {
    EXPECT_TRUE(st.completed);
    EXPECT_GE(st.endpoint_rotations, 1);
  }
}

}  // namespace
}  // namespace adafl::testutil
