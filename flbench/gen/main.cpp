// flbench_gen — the benchmark's load generator and layer probe.
//
//   flbench_gen sim      the traced sim_cnn session: runs AdaFlSyncTrainer
//                        (what flsim --algo=adafl-sync runs) in this process,
//                        then times its layers in shadow rounds
//   flbench_gen clients  N deployed clients against a running flserver, over
//                        TCP or over UDP+FEC with injected datagram loss
//   flbench_gen fleet    2 RelaySessions on 2 TCP connections to a root
//                        flserver plus the leaf clients on in-process
//                        loopback links, swept by 2 driver threads
//   flbench_gen selftest pins the byte counters and /proc readers
//   flbench_gen stamp    the machine and kernel backend a result came from
//
// Each mode prints one JSON object on its last stdout line. With --trace=1
// the client-side layer calls are timed and the server-side layers are
// measured by replaying the captured round inputs (gen/replay.h).
#include <pthread.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <iostream>
#include <thread>

#include "cli/args.h"
#include "cli/task.h"
#include "compress/wire.h"
#include "core/adafl_sync.h"
#include "core/parallel.h"
#include "core/utility.h"
#include "gen/client.h"
#include "gen/probes.h"
#include "gen/replay.h"
#include "net/link.h"
#include "net/relay/relay.h"
#include "net/transport/crc32.h"
#include "net/transport/faulty.h"
#include "net/transport/loopback.h"
#include "net/transport/tcp.h"
#include "tensor/dispatch.h"
#include "tensor/tensor.h"

using namespace flbench;
namespace cli = adafl::cli;
namespace core = adafl::core;

namespace {

constexpr const char* kHost = "127.0.0.1";
constexpr double kTimeoutS = 60;
constexpr int kRelays = 2;
constexpr int kDrivers = 2;

std::string hex32(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x", v);
  return buf;
}

Json timings_json(const Timings& t) {
  Json j;
  for (const auto& [k, v] : t) j.nums(k, v);
  return j;
}

Json stamp_json() {
  Json j;
  j.integer("nproc",
            static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  j.str("cpu_features", adafl::tensor::cpu_feature_string());
  j.str("kernel_backend", adafl::tensor::kernel_backend_name());
  return j;
}

// --- sim -------------------------------------------------------------------

int run_sim(const cli::ArgParser& args) {
  const cli::TaskSpec spec = cli::spec_from_args(args);
  const double t_build = now_s();
  const cli::TaskBundle task = cli::build_task(spec);
  const double build_s = now_s() - t_build;

  // flsim --algo=adafl-sync --network=mixed's construction; run.py gates the
  // result against flsim's weights-crc32 for the same seed.
  core::AdaFlSyncConfig cfg;
  cfg.rounds = args.get_int("rounds");
  cfg.client.batch_size = args.get_int("batch");
  cfg.client.local_steps = args.get_int("steps");
  cfg.client.lr = static_cast<float>(args.get_double("lr"));
  cfg.links = adafl::net::make_fleet(spec.clients, 0.5,
                                     adafl::net::LinkQuality::kGood,
                                     adafl::net::LinkQuality::kCongested);
  cfg.eval_every = std::max(1, cfg.rounds / 12);
  cfg.seed = spec.seed;
  cfg.params.max_selected = args.get_int("k");
  cfg.params.tau = args.get_double("tau");
  cfg.params.agg_group = args.get_int_at_least("agg-group", 0);
  const long pid = static_cast<long>(getpid());
  const double t0 = now_s();
  const double cpu0 = proc_cpu_s(pid).value_or(0.0);
  core::AdaFlSyncTrainer trainer(cfg, task.factory, &task.train, task.parts,
                                 &task.test);
  const adafl::fl::TrainLog log = trainer.run();
  const double train_s = now_s() - t0;
  const double cpu_train_s = proc_cpu_s(pid).value_or(0.0) - cpu0;

  const auto& w = trainer.global();
  const std::uint32_t crc = nt::crc32(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(w.data()), w.size() * 4));

  Json out;
  out.str("mode", "sim")
      .num("train_s", train_s)
      .integer("rounds", cfg.rounds)
      .num("final_accuracy", log.final_accuracy())
      .str("weights_crc32", hex32(crc))
      .num("cpu_train_s", cpu_train_s);

  // Shadow rounds through the public layer calls on the same task: the
  // trainer itself is one call, so its layers are timed by re-driving a
  // few rounds of its work (train, score, plan, compress, wire, apply,
  // eval, checkpoint) outside it.
  Timings t;
  t["data.build_s"].push_back(build_s);
  nt::WelcomeInfo wi;
  wi.rounds = static_cast<std::uint32_t>(std::min(cfg.rounds, 4));
  wi.param_count = static_cast<std::uint64_t>(w.size());
  wi.params = cfg.params;
  wi.config = cli::task_to_kv(spec, cfg.client);
  ServerReplay rp(wi, task, args.get("workdir") + "/ckpt", &t);
  std::vector<adafl::fl::FlClient> clients;
  std::vector<adafl::compress::DgcCompressor> comps;
  for (int i = 0; i < spec.clients; ++i) {
    clients.push_back(adafl::fl::make_client(
        task.factory, &task.train, task.parts, cfg.client, {},
        spec.seed ^ core::kAdaFlClientSeedSalt, i));
    comps.emplace_back(static_cast<std::int64_t>(w.size()), cfg.params.dgc);
  }
  std::vector<adafl::fl::FlClient::LocalResult> res(clients.size());
  nt::UpdatePayload up;
  std::vector<std::uint8_t> ser, scratch;
  for (int r = 1; r <= static_cast<int>(wi.rounds); ++r) {
    nt::ModelPayload m{rp.global(), rp.g_hat()};
    const auto model_bytes = nt::encode_model(m);
    const nt::ModelPayload mp = timed(&t["transport.model_parse_s"], [&] {
      return nt::parse_model(model_bytes);
    });
    std::vector<double> scores(clients.size());
    for (std::size_t i = 0; i < clients.size(); ++i) {
      timed(&t["fl.train_s"],
            [&] { clients[i].train_from_into(mp.global, res[i]); });
      scores[i] = timed(&t["core.score_s"], [&] {
        return core::utility_score(cfg.params.utility, res[i].delta,
                                   mp.g_hat, cfg.params.utility.bw_ref,
                                   cfg.params.utility.bw_ref);
      });
    }
    const auto& plan = rp.plan(r, scores);
    std::map<int, std::vector<std::uint8_t>> updates;
    std::vector<char> selected(clients.size(), 0);
    for (std::size_t j = 0; j < plan.sel.selected.size(); ++j) {
      const int id = plan.sel.selected[j];
      const auto i = static_cast<std::size_t>(id);
      selected[i] = 1;
      timed(&t["compress.dgc_s"], [&] {
        comps[i].compress_into(res[i].delta, plan.ratios[j], up.msg);
      });
      timed(&t["compress.serialize_s"],
            [&] { adafl::compress::serialize_into(up.msg, ser); });
      t["compress.ratio"].push_back(
          static_cast<double>(up.msg.dense_size) * 4.0 /
          static_cast<double>(std::max<std::int64_t>(1, up.msg.wire_bytes)));
      up.num_examples = res[i].num_examples;
      up.mean_loss = res[i].mean_loss;
      up.raw_delta_norm = adafl::tensor::l2_norm(res[i].delta);
      timed(&t["transport.update_encode_s"], [&] {
        nt::encode_update_into(up, updates[id], scratch);
      });
    }
    for (std::size_t i = 0; i < clients.size(); ++i)
      if (!selected[i] && cfg.params.accumulate_unselected)
        comps[i].accumulate(res[i].delta);
    rp.apply(r, updates, {});
  }
  probe_train_step(task, cfg.client, 20, &t);
  t["core.checkpoint_bytes"].push_back(
      static_cast<double>(rp.checkpoint_bytes()));
  out.obj("timings", timings_json(t));
  std::cout << out.text() << std::endl;
  return 0;
}

// --- deployed: shared reporting ---------------------------------------------

/// Samples the server process and the relay threads when the watched
/// client sees round 2 begin: the CPU spent on setup, the join and round 1,
/// which run.py subtracts from the totals it reads when the run ends.
struct CpuSampler {
  long server_pid = 0;
  std::vector<clockid_t> relay_clocks;
  double t_r2 = -1, server_cpu_r2 = 0, relay_cpu_r2 = 0;

  void at_round2() {
    t_r2 = now_s();
    server_cpu_r2 = proc_cpu_s(server_pid).value_or(0.0);
    for (clockid_t c : relay_clocks) relay_cpu_r2 += thread_cpu_s(c);
  }
};

/// Wraps client 0 so the sampler fires at its round-2 MODEL.
class SampledTransport final : public nt::Transport {
 public:
  SampledTransport(std::unique_ptr<nt::Transport> inner, CpuSampler* s)
      : inner_(std::move(inner)), s_(s) {}
  bool send(const nt::Frame& f) override { return inner_->send(f); }
  std::optional<nt::Frame> recv(std::chrono::milliseconds timeout) override {
    auto f = inner_->recv(timeout);
    if (f && f->type == nt::MsgType::kModel && f->round == 2 && s_->t_r2 < 0)
      s_->at_round2();
    return f;
  }
  bool closed() const override { return inner_->closed(); }
  void close() override { inner_->close(); }
  std::string peer() const override { return inner_->peer(); }

 private:
  std::unique_ptr<nt::Transport> inner_;
  CpuSampler* s_;
};

/// Everything both deployed modes report about their clients.
Json fleet_json(const std::vector<std::unique_ptr<BenchClient>>& clients,
                int completed, double t_start) {
  LinkTally total;
  std::vector<double> join_waits, round_samples, select_wait, model_wait;
  double last_welcome = -1, first_model = -1, last_shutdown = -1;
  int duplicates = 0, reconnects = 0, rounds = 0;
  for (const auto& c : clients) {
    total.up.merge(c->tally.up);
    total.down.merge(c->tally.down);
    total.dgram_up_bytes += c->tally.dgram_up_bytes;
    total.dgram_down_bytes += c->tally.dgram_down_bytes;
    total.parity_up_bytes += c->tally.parity_up_bytes;
    total.parity_down_bytes += c->tally.parity_down_bytes;
    if (c->welcome_s >= 0 && c->hello_s >= 0)
      join_waits.push_back(c->welcome_s - c->hello_s);
    last_welcome = std::max(last_welcome, c->welcome_s);
    last_shutdown = std::max(last_shutdown, c->shutdown_s);
    if (!c->model_s.empty() && c->model_s[0] >= 0)
      first_model = first_model < 0 ? c->model_s[0]
                                    : std::min(first_model, c->model_s[0]);
    rounds = std::max(rounds, static_cast<int>(c->model_s.size()));
    // Steady round samples: MODEL(r) -> MODEL(r+1) (or SHUTDOWN), r >= 2.
    for (std::size_t r = 1; r < c->model_s.size(); ++r) {
      const double next =
          r + 1 < c->model_s.size() ? c->model_s[r + 1] : c->shutdown_s;
      if (c->model_s[r] >= 0 && next >= 0)
        round_samples.push_back(next - c->model_s[r]);
    }
    select_wait.insert(select_wait.end(), c->select_wait.begin(),
                       c->select_wait.end());
    model_wait.insert(model_wait.end(), c->model_wait.begin(),
                      c->model_wait.end());
    duplicates += c->duplicates;
    reconnects += c->reconnects;
  }
  const auto type = [](nt::MsgType t) { return static_cast<std::size_t>(t); };
  const bool udp = total.dgram_up_bytes > 0;
  Json j;
  j.integer("clients", static_cast<std::int64_t>(clients.size()))
      .integer("completed", completed)
      .integer("rounds", rounds)
      .num("t_start", t_start)
      .num("t_last_welcome", last_welcome)
      .num("t_round1", first_model)
      .num("t_end", last_shutdown)
      .nums("join_wait_s", join_waits)
      .nums("round_samples_s", round_samples)
      .nums("select_wait_s", select_wait)
      .nums("model_wait_s", model_wait)
      .integer("up_bytes", udp ? total.dgram_up_bytes : total.up.total_bytes())
      .integer("down_bytes",
               udp ? total.dgram_down_bytes : total.down.total_bytes())
      .integer("frames_up", total.up.total_frames())
      .integer("frames_down", total.down.total_frames())
      .integer("model_frames", total.down.frames[type(nt::MsgType::kModel)])
      .integer("model_frame_bytes", total.down.bytes[type(nt::MsgType::kModel)])
      .integer("update_frames", total.up.frames[type(nt::MsgType::kUpdate)])
      .integer("update_frame_bytes", total.up.bytes[type(nt::MsgType::kUpdate)])
      .integer("parity_up_bytes", total.parity_up_bytes)
      .integer("parity_down_bytes", total.parity_down_bytes)
      .integer("duplicates", duplicates)
      .integer("reconnects", reconnects);
  return j;
}

/// Round inputs the clients captured, by round: scores (NaN = absent) and
/// UPDATE payloads by client id.
struct Captured {
  std::vector<std::vector<double>> scores;
  std::map<int, std::map<int, std::vector<std::uint8_t>>> updates;
};

Captured collect(const std::vector<std::unique_ptr<BenchClient>>& clients,
                 int rounds) {
  Captured c;
  c.scores.assign(static_cast<std::size_t>(rounds),
                  std::vector<double>(clients.size(), std::nan("")));
  for (std::size_t i = 0; i < clients.size(); ++i) {
    for (const auto& [r, s] : clients[i]->scores)
      if (r >= 1 && r <= rounds)
        c.scores[static_cast<std::size_t>(r - 1)][i] = s;
    for (const auto& [r, p] : clients[i]->updates)
      c.updates[r][static_cast<int>(i)] = p;
  }
  return c;
}

Timings client_timings(const std::vector<std::unique_ptr<BenchClient>>& cs,
                       const SharedTask& shared) {
  Timings t;
  for (const auto& c : cs) {
    merge_into(t, c->timings);
    auto& s = t["transport.send_s"];
    s.insert(s.end(), c->tally.send_s.begin(), c->tally.send_s.end());
    for (const auto& [r, p] : c->updates) {
      const nt::UpdatePayload u = nt::parse_update(p);
      t["compress.ratio"].push_back(
          static_cast<double>(u.msg.dense_size) * 4.0 /
          static_cast<double>(std::max<std::int64_t>(1, u.msg.wire_bytes)));
    }
  }
  t["data.build_s"].push_back(shared.build_s);
  return t;
}

// --- clients -----------------------------------------------------------------

int run_clients(const cli::ArgParser& args) {
  const bool trace = args.get_bool("trace");
  const int n = args.get_int_at_least("clients", 1);
  const bool udp = args.get("transport") == "udp";
  const auto port = static_cast<std::uint16_t>(args.get_int("port"));
  const nt::UdpFecConfig fec;  // flserver's defaults
  const double loss = args.get_double("dgram-loss");
  const auto loss_seed = static_cast<std::uint64_t>(args.get_int("loss-seed"));

  SharedTask shared;
  CpuSampler sampler;
  sampler.server_pid = args.get_int("server-pid");
  std::vector<std::unique_ptr<BenchClient>> clients;
  std::vector<adafl::net::transport::FaultyDatagramLink*> faulty(
      static_cast<std::size_t>(n), nullptr);
  for (int i = 0; i < n; ++i) {
    auto c = std::make_unique<BenchClient>();
    c->id = i;
    c->shared = &shared;
    c->opt.trace = trace;
    c->dial = [&, i, dials = std::uint64_t{0}](
                  BenchClient& self) mutable -> std::unique_ptr<nt::Transport> {
      std::unique_ptr<nt::Transport> t;
      if (udp) {
        std::unique_ptr<nt::DatagramLink> link =
            nt::UdpSocketLink::connect(kHost, port);
        if (!link) return nullptr;
        if (loss > 0) {
          // Seeded i.i.d. loss on what this client sends: one stream per
          // client and per dial, so every run of a seed drops the same
          // datagrams, yet a redial does not replay the loss that sank the
          // connection it replaces.
          const std::uint64_t stream =
              (loss_seed * 1000003ULL + static_cast<std::uint64_t>(i)) *
                  1009ULL +
              dials++;
          auto f = std::make_unique<nt::FaultyDatagramLink>(
              std::move(link), nt::DatagramFaultPlan::iid(loss, stream));
          faulty[static_cast<std::size_t>(i)] = f.get();
          link = std::move(f);
        }
        link = std::make_unique<CountingLink>(std::move(link), &self.tally);
        t = std::make_unique<nt::UdpTransport>(std::move(link), fec);
      } else {
        t = nt::TcpTransport::connect(kHost, port,
                                      std::chrono::milliseconds(3000));
        if (!t) return nullptr;
      }
      t = std::make_unique<CountingTransport>(std::move(t), &self.tally);
      if (i == 0)
        t = std::make_unique<SampledTransport>(std::move(t), &sampler);
      return t;
    };
    clients.push_back(std::move(c));
  }
  const double t_start = now_s();
  const int completed = drive(clients, n, kTimeoutS);

  std::int64_t dropped = 0;
  for (auto* f : faulty)
    if (f != nullptr) dropped += static_cast<std::int64_t>(f->dropped());
  Json out = fleet_json(clients, completed, t_start);
  out.str("mode", "clients")
      .num("server_cpu_r2", sampler.server_cpu_r2)
      .num("t_cpu_r2", sampler.t_r2)
      .integer("dgram_dropped", dropped);
  bool ok = completed == n;
  if (trace && ok && shared.bundle) {
    Timings t = client_timings(clients, shared);
    const int rounds = static_cast<int>(shared.welcome.rounds);
    const Captured cap = collect(clients, rounds);
    ServerReplay rp(shared.welcome, *shared.bundle,
                    args.get("workdir") + "/ckpt", &t);
    std::vector<std::vector<std::uint8_t>> update_frames;
    for (int r = 1; r <= rounds; ++r) {
      rp.plan(r, cap.scores[static_cast<std::size_t>(r - 1)]);
      const auto it = cap.updates.find(r);
      static const std::map<int, std::vector<std::uint8_t>> kNone;
      const auto& ups = it == cap.updates.end() ? kNone : it->second;
      rp.apply(r, ups, {});
      for (const auto& [id, p] : ups) {
        nt::Frame f;
        f.type = nt::MsgType::kUpdate;
        f.round = static_cast<std::uint32_t>(r);
        f.client_id = static_cast<std::uint32_t>(id);
        f.payload = p;
        update_frames.push_back(nt::encode_frame(f));
      }
    }
    const bool fec_ok =
        !udp || probe_fec(update_frames, fec.data_shards, fec.parity_shards,
                          fec.max_shard_bytes, &t);
    probe_train_step(*shared.bundle, shared.client_cfg, 20, &t);
    t["core.checkpoint_bytes"].push_back(
        static_cast<double>(rp.checkpoint_bytes()));
    Json rj;
    rj.str("weights_crc32", hex32(rp.weights_crc()))
        .num("final_accuracy", rp.final_accuracy())
        .boolean("fec_ok", fec_ok);
    out.obj("replay", rj).obj("timings", timings_json(t));
  }
  std::cout << out.text() << std::endl;
  return ok ? 0 : 3;
}

// --- fleet -------------------------------------------------------------------

int run_fleet(const cli::ArgParser& args) {
  const bool trace = args.get_bool("trace");
  const int leaves = args.get_int_at_least("clients", 1);
  const auto port = static_cast<std::uint16_t>(args.get_int("port"));

  SharedTask shared;
  CpuSampler sampler;
  sampler.server_pid = args.get_int("server-pid");
  const int per = leaves / kRelays;
  if (per * kRelays != leaves)
    throw std::runtime_error("flbench_gen: --clients must divide by 2");

  struct Relay {
    LinkTally tally;
    /// The UPDATE-AGG payload the root commits, by round and group base.
    std::map<int, std::map<int, std::vector<std::uint8_t>>> aggs;
    std::unique_ptr<adafl::net::relay::RelaySession> session;
    adafl::net::relay::RelayRunStats stats;
    double cpu_s = 0;
  };
  std::vector<std::unique_ptr<Relay>> relays;
  for (int i = 0; i < kRelays; ++i) {
    auto rl = std::make_unique<Relay>();
    adafl::net::relay::RelayConfig rc;
    rc.base = i * per;
    rc.count = per;
    Relay* raw = rl.get();
    rl->session = std::make_unique<adafl::net::relay::RelaySession>(
        rc,
        [&, raw](std::size_t) -> std::unique_ptr<nt::Transport> {
          auto t = nt::TcpTransport::connect(kHost, port,
                                             std::chrono::milliseconds(3000));
          if (!t) return nullptr;
          std::function<void(const nt::Frame&)> cap;
          if (trace)
            cap = [raw](const nt::Frame& f) {
              if (f.type != nt::MsgType::kUpdateAgg) return;
              const nt::UpdateAggPayload a = nt::parse_update_agg(f.payload);
              // The root keeps the first UPDATE-AGG per group and round and
              // replaces it only with one that lists more children: the
              // group re-shipped after a leaf the relay had counted out
              // delivered late. Resends of the same AGG change nothing.
              auto& kept = raw->aggs[static_cast<int>(f.round)]
                                    [static_cast<int>(a.base)];
              if (kept.empty() || a.children.size() >
                                      nt::parse_update_agg(kept).children.size())
                kept = f.payload;
            };
          return std::make_unique<CountingTransport>(std::move(t), &raw->tally,
                                                     std::move(cap));
        },
        1);
    relays.push_back(std::move(rl));
  }

  std::vector<std::unique_ptr<BenchClient>> clients;
  for (int i = 0; i < leaves; ++i) {
    auto c = std::make_unique<BenchClient>();
    c->id = i;
    c->shared = &shared;
    c->opt.trace = trace;
    c->opt.heartbeat_s = 0;  // in-process links never go silent
    c->opt.liveness_s = 0;
    auto* session = relays[static_cast<std::size_t>(i / per)]->session.get();
    c->dial = [session, &sampler, i](BenchClient& self)
        -> std::unique_ptr<nt::Transport> {
      auto [leaf, relay_end] = nt::make_loopback_pair();
      session->add_child_transport(std::move(relay_end));
      std::unique_ptr<nt::Transport> t =
          std::make_unique<CountingTransport>(std::move(leaf), &self.tally);
      if (i == 0)
        t = std::make_unique<SampledTransport>(std::move(t), &sampler);
      return t;
    };
    clients.push_back(std::move(c));
  }

  const double t_start = now_s();
  std::vector<std::thread> relay_threads;
  for (auto& rl : relays) {
    Relay* raw = rl.get();
    relay_threads.emplace_back([raw] {
      timespec a{}, b{};
      clock_gettime(CLOCK_THREAD_CPUTIME_ID, &a);
      raw->stats = raw->session->run();
      clock_gettime(CLOCK_THREAD_CPUTIME_ID, &b);
      raw->cpu_s = (b.tv_sec - a.tv_sec) + (b.tv_nsec - a.tv_nsec) * 1e-9;
    });
    clockid_t cid{};
    pthread_getcpuclockid(relay_threads.back().native_handle(), &cid);
    sampler.relay_clocks.push_back(cid);
  }
  const int completed = drive(clients, kDrivers, kTimeoutS);
  if (completed != leaves)
    for (auto& rl : relays) rl->session->request_stop();
  for (auto& t : relay_threads) t.join();

  Json out = fleet_json(clients, completed, t_start);
  double relay_cpu = 0;
  std::int64_t aggs = 0, agg_frames = 0, agg_bytes = 0, relay_up = 0;
  bool relays_ok = true;
  for (const auto& rl : relays) {
    relay_cpu += rl->cpu_s;
    aggs += rl->stats.aggs_sent;
    const auto i = static_cast<std::size_t>(nt::MsgType::kUpdateAgg);
    agg_frames += rl->tally.up.frames[i];
    agg_bytes += rl->tally.up.bytes[i];
    relay_up += rl->tally.up.total_bytes();
    relays_ok = relays_ok && rl->stats.completed;
  }
  out.str("mode", "fleet")
      .num("server_cpu_r2", sampler.server_cpu_r2)
      .num("t_cpu_r2", sampler.t_r2)
      .num("relay_cpu_s", relay_cpu)
      .num("relay_cpu_r2", sampler.relay_cpu_r2)
      .integer("relay_aggs", aggs)
      .integer("relay_agg_frames", agg_frames)
      .integer("relay_agg_bytes", agg_bytes)
      .integer("relay_up_bytes", relay_up)
      .boolean("relays_completed", relays_ok);
  const bool ok = completed == leaves && relays_ok;
  if (trace && ok && shared.bundle) {
    Timings t = client_timings(clients, shared);
    const int rounds = static_cast<int>(shared.welcome.rounds);
    const Captured cap = collect(clients, rounds);
    std::map<int, std::map<int, std::vector<std::uint8_t>>> all_aggs;
    for (const auto& rl : relays)
      for (const auto& [r, by_base] : rl->aggs)
        for (const auto& [b, p] : by_base) all_aggs[r].emplace(b, p);
    const bool partial_ok = check_partials(cap.updates, all_aggs, &t);
    ServerReplay rp(shared.welcome, *shared.bundle,
                    args.get("workdir") + "/ckpt", &t);
    static const std::map<int, std::vector<std::uint8_t>> kNone;
    for (int r = 1; r <= rounds; ++r) {
      rp.plan(r, cap.scores[static_cast<std::size_t>(r - 1)]);
      const auto it = all_aggs.find(r);
      rp.apply(r, {}, it == all_aggs.end() ? kNone : it->second);
    }
    probe_train_step(*shared.bundle, shared.client_cfg, 20, &t);
    t["core.checkpoint_bytes"].push_back(
        static_cast<double>(rp.checkpoint_bytes()));
    Json rj;
    rj.str("weights_crc32", hex32(rp.weights_crc()))
        .num("final_accuracy", rp.final_accuracy())
        .boolean("partial_ok", partial_ok);
    out.obj("replay", rj).obj("timings", timings_json(t));
  }
  std::cout << out.text() << std::endl;
  return ok ? 0 : 3;
}

// --- selftest ----------------------------------------------------------------

int run_selftest() {
  bool ok = true;
  Json checks;
  auto check = [&](const std::string& name, bool pass) {
    checks.boolean(name, pass);
    ok = ok && pass;
  };
  std::vector<nt::Frame> frames;
  for (std::size_t len : {0u, 1u, 8u, 1000u, 5000u, 70000u}) {
    nt::Frame f;
    f.type = len % 2 ? nt::MsgType::kUpdate : nt::MsgType::kModel;
    f.round = 3;
    f.client_id = 7;
    f.payload.assign(len, static_cast<std::uint8_t>(len & 0xff));
    frames.push_back(f);
  }
  {  // Frame counting: exact encoded sizes on both ends.
    LinkTally a, b;
    auto [x, y] = nt::make_loopback_pair();
    CountingTransport tx(std::move(x), &a), rx(std::move(y), &b);
    std::int64_t expect = 0;
    for (const auto& f : frames) {
      tx.send(f);
      expect += static_cast<std::int64_t>(nt::encode_frame(f).size());
    }
    std::int64_t models = 0;
    for (const auto& f : frames) models += f.type == nt::MsgType::kModel;
    int got = 0;
    while (rx.recv(std::chrono::milliseconds(0))) ++got;
    check("frame_bytes_up", a.up.total_bytes() == expect);
    check("frame_bytes_down", b.down.total_bytes() == expect);
    check("frame_count", got == static_cast<int>(frames.size()) &&
                             a.up.total_frames() == got &&
                             a.up.frames[static_cast<std::size_t>(
                                 nt::MsgType::kModel)] == models);
  }
  {  // Datagram counting: every datagram, header and parity included.
    nt::UdpFecConfig cfg;
    LinkTally a, b;
    auto [x, y] = nt::make_datagram_loopback_pair();
    nt::UdpTransport tx(std::make_unique<CountingLink>(std::move(x), &a), cfg);
    nt::UdpTransport rx(std::make_unique<CountingLink>(std::move(y), &b), cfg);
    nt::FrameFragmenter frag(cfg);
    std::int64_t bytes = 0, parity = 0, count = 0;
    for (const auto& f : frames) {
      tx.send(f);
      for (const auto& d : frag.fragment(f)) {
        ++count;
        bytes += static_cast<std::int64_t>(d.size());
        const auto h = nt::parse_datagram(d);
        if (h && h->shard >= h->k)
          parity += static_cast<std::int64_t>(d.size());
      }
    }
    int got = 0;
    while (rx.recv(std::chrono::milliseconds(50))) ++got;
    check("dgram_bytes",
          a.dgram_up_bytes == bytes && b.dgram_down_bytes == bytes);
    check("dgram_count", a.dgram_up == count && b.dgram_down == count);
    check("parity_bytes", parity > 0 && a.parity_up_bytes == parity &&
                              b.parity_down_bytes == parity);
    check("dgram_frames", got == static_cast<int>(frames.size()));
  }
  {  // /proc reader: CPU of this very process.
    const long pid = static_cast<long>(getpid());
    const double cpu0 = proc_cpu_s(pid).value_or(-1);
    volatile double sink = 0;
    const double t0 = now_s();
    while (now_s() - t0 < 0.3) sink = sink + std::sqrt(sink + 1.0);
    const double cpu1 = proc_cpu_s(pid).value_or(-1);
    check("proc_cpu", cpu0 >= 0 && cpu1 - cpu0 > 0.2 && cpu1 - cpu0 < 1.0);
    check("proc_gone", !proc_cpu_s(-1).has_value());
  }
  Json out;
  out.str("mode", "selftest").boolean("ok", ok).obj("checks", checks);
  std::cout << out.text() << std::endl;
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr
        << "usage: flbench_gen sim|clients|fleet|selftest|stamp "
           "[--key=value]\n";
    return 2;
  }
  const std::string mode = argv[1];
  cli::ArgParser args("flbench_gen " + mode);
  args.option("dataset", "mnist", "synthetic dataset")
      .option("model", "cnn", "model")
      .option("dist", "noniid", "partition")
      .option("alpha", "0.5", "dirichlet concentration")
      .option("clients", "10", "clients (leaves in fleet mode)")
      .option("rounds", "10", "rounds")
      .option("k", "5", "AdaFL max selected")
      .option("tau", "0.5", "AdaFL utility threshold")
      .option("agg-group", "0", "aggregation group size")
      .option("lr", "0.05", "client learning rate")
      .option("batch", "20", "client batch size")
      .option("steps", "5", "local steps")
      .option("train-samples", "1500", "training examples")
      .option("test-samples", "400", "test examples")
      .option("seed", "1", "task seed")
      .option("threads", "0", "tensor worker threads (0 = auto)")
      .option("trace", "0", "time layer calls and replay the server side")
      .option("workdir", ".", "scratch directory for replay checkpoints")
      .option("port", "4242", "server port")
      .option("server-pid", "0", "server process to sample from /proc")
      .option("transport", "tcp", "tcp|udp")
      .option("dgram-loss", "0", "UDP: i.i.d. loss on client-sent datagrams")
      .option("loss-seed", "1", "UDP: loss stream seed");
  if (!args.parse(argc - 1, argv + 1)) {
    std::cerr << "flbench_gen: " << args.error() << "\n" << args.usage();
    return 2;
  }
  try {
    core::set_num_threads(args.get_int_at_least("threads", 0));
    // The backend flsim and flserver resolve from --kernel-backend=auto, so
    // that a replay reproduces their bits.
    adafl::tensor::set_kernel_backend(
        adafl::tensor::resolve_kernel_backend("auto"));
    if (mode == "sim") return run_sim(args);
    if (mode == "clients") return run_clients(args);
    if (mode == "fleet") return run_fleet(args);
    if (mode == "selftest") return run_selftest();
    if (mode == "stamp") {
      std::cout << stamp_json().text() << std::endl;
      return 0;
    }
    std::cerr << "flbench_gen: unknown mode " << mode << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "flbench_gen: " << e.what() << "\n";
    return 1;
  }
}
