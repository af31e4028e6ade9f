#include "gen/client.h"

#include <atomic>
#include <thread>

#include "compress/wire.h"
#include "core/adafl_server.h"
#include "core/utility.h"
#include "tensor/check.h"
#include "tensor/tensor.h"

namespace flbench {

namespace fl = adafl::fl;
namespace core = adafl::core;

const adafl::cli::TaskBundle& SharedTask::ensure(const nt::WelcomeInfo& w) {
  std::lock_guard<std::mutex> lk(mu);
  if (!bundle) {
    adafl::cli::task_from_kv(w.config, &spec, &client_cfg);
    welcome = w;
    const double t0 = now_s();
    bundle.emplace(adafl::cli::build_task(spec));
    build_s = now_s() - t0;
  }
  return *bundle;
}

bool BenchClient::send(nt::MsgType type, std::uint32_t round,
                       std::vector<std::uint8_t> payload) {
  nt::Frame f;
  f.type = type;
  f.round = round;
  f.client_id = static_cast<std::uint32_t>(id);
  f.payload = std::move(payload);
  last_tx_s_ = now_s();
  return conn_->send(f);
}

void BenchClient::handle(const nt::Frame& f) {
  const int round = static_cast<int>(f.round);
  const double now = now_s();
  switch (f.type) {
    case nt::MsgType::kWelcome: {
      const nt::WelcomeInfo w = nt::parse_welcome(f.payload);
      if (welcome_s < 0) welcome_s = now;
      if (client_) break;  // a rejoin: the client keeps its state
      const auto& task = shared->ensure(w);
      params_ = w.params;
      client_.emplace(fl::make_client(task.factory, &task.train, task.parts,
                                      shared->client_cfg, {},
                                      shared->spec.seed ^
                                          core::kAdaFlClientSeedSalt,
                                      id));
      ADAFL_CHECK_MSG(static_cast<std::uint64_t>(client_->param_count()) ==
                          w.param_count,
                      "bench client: model size differs from the server's");
      comp_.emplace(static_cast<std::int64_t>(w.param_count), params_.dgc);
      break;
    }
    case nt::MsgType::kModel: {
      if (!client_) break;  // WELCOME must precede MODEL
      const nt::ModelPayload m =
          timed(t("transport.model_parse_s"),
                [&] { return nt::parse_model(f.payload); });
      ADAFL_CHECK_MSG(m.global.size() ==
                          static_cast<std::size_t>(client_->param_count()),
                      "bench client: MODEL dimension mismatch");
      if (trained_round_ != round) {  // a re-sent MODEL never retrains
        if (model_s.size() < static_cast<std::size_t>(round))
          model_s.resize(static_cast<std::size_t>(round), -1.0);
        model_s[static_cast<std::size_t>(round - 1)] = now;
        if (marker_s_ >= 0) model_wait.push_back(now - marker_s_);
        marker_s_ = -1;
        timed(t("fl.train_s"),
              [&] { client_->train_from_into(m.global, res_); });
        trained_round_ = round;
      } else {
        ++duplicates;
      }
      const double score = timed(t("core.score_s"), [&] {
        return core::utility_score(params_.utility, res_.delta, m.g_hat,
                                   params_.utility.bw_ref,
                                   params_.utility.bw_ref);
      });
      if (opt.trace) scores[round] = score;
      score_sent_s_ = now_s();
      send(nt::MsgType::kScore, f.round, nt::encode_f64(score));
      break;
    }
    case nt::MsgType::kSelect:
    case nt::MsgType::kSkip: {
      if (round != trained_round_ || !comp_) break;  // stale
      if (selected_round_ == round) {
        ++duplicates;
      } else {
        selected_round_ = round;
        if (score_sent_s_ >= 0) select_wait.push_back(now - score_sent_s_);
      }
      if (f.type == nt::MsgType::kSkip) {
        if (skipped_round_ == round) break;
        skipped_round_ = round;
        if (params_.accumulate_unselected) comp_->accumulate(res_.delta);
        marker_s_ = now;
        break;
      }
      if (uploaded_round_ != round) {
        const double ratio = nt::parse_f64(f.payload);
        timed(t("compress.dgc_s"), [&] {
          comp_->compress_into(res_.delta, ratio, update_.msg);
        });
        if (opt.trace)  // the wire codec on its own, outside the frame
          timed(t("compress.serialize_s"), [&] {
            adafl::compress::serialize_into(update_.msg, ser_scratch_);
          });
        update_.num_examples = res_.num_examples;
        update_.mean_loss = res_.mean_loss;
        update_.raw_delta_norm = adafl::tensor::l2_norm(res_.delta);
        timed(t("transport.update_encode_s"), [&] {
          nt::encode_update_into(update_, cached_update_, wire_scratch_);
        });
        uploaded_round_ = round;
        if (opt.trace) updates[round] = cached_update_;
      }
      // A duplicate SELECT re-sends the cached bytes: compressing twice
      // would corrupt the DGC residual.
      send(nt::MsgType::kUpdate, f.round, cached_update_);
      marker_s_ = now_s();
      break;
    }
    case nt::MsgType::kPing:
      send(nt::MsgType::kPong, f.round);
      break;
    case nt::MsgType::kShutdown:
      shutdown_s = now;
      if (marker_s_ >= 0) model_wait.push_back(now - marker_s_);
      done = true;
      conn_->close();
      break;
    default:
      break;  // PONG and anything unexpected
  }
}

bool BenchClient::sweep(std::chrono::milliseconds wait) {
  if (done || gave_up) return false;
  const double now = now_s();
  if (conn_ && !conn_->closed() && opt.liveness_s > 0 &&
      now - last_rx_s_ > opt.liveness_s)
    conn_->close();  // silent server: redial, as ClientSession does
  if (!conn_ || conn_->closed()) {
    if (now < next_dial_s_) return false;
    const bool had = static_cast<bool>(conn_);
    conn_.reset();
    conn_ = dial(*this);
    if (!conn_) {
      if (down_since_s_ < 0) down_since_s_ = now;
      gave_up = now - down_since_s_ > opt.give_up_s;
      next_dial_s_ = now_s() + opt.redial_s;
      return false;
    }
    down_since_s_ = -1;
    if (had) ++reconnects;
    last_rx_s_ = now_s();
    if (hello_s < 0) hello_s = last_rx_s_;
    send(nt::MsgType::kHello, 0, nt::encode_hello(nt::kProtocolVersion));
    return true;
  }
  bool progress = false;
  auto w = wait;
  while (conn_ && !conn_->closed() && !done) {
    std::optional<nt::Frame> f;
    try {
      f = conn_->recv(w);
    } catch (const adafl::CheckError&) {
      conn_->close();  // malformed stream: redial
      break;
    }
    if (!f) break;
    w = std::chrono::milliseconds(0);
    progress = true;
    last_rx_s_ = now_s();
    try {
      handle(*f);
    } catch (const adafl::CheckError&) {
      conn_->close();  // malformed payload: redial
      break;
    }
  }
  if (conn_ && !conn_->closed() && !done && opt.heartbeat_s > 0 &&
      now_s() - std::max(last_rx_s_, last_tx_s_) > opt.heartbeat_s)
    send(nt::MsgType::kPing, 0);
  return progress;
}

int drive(std::vector<std::unique_ptr<BenchClient>>& clients, int threads,
          double timeout_s) {
  const int n = static_cast<int>(clients.size());
  threads = std::max(1, std::min(threads, n));
  std::atomic<int> completed{0};
  const double deadline = now_s() + timeout_s;
  std::vector<std::thread> pool;
  for (int d = 0; d < threads; ++d) {
    pool.emplace_back([&, d] {
      // Contiguous blocks: no two threads ever touch one client.
      const int lo = d * n / threads, hi = (d + 1) * n / threads;
      const bool blocking = hi - lo == 1;
      while (now_s() < deadline) {
        bool progress = false;
        int live = 0;
        for (int i = lo; i < hi; ++i) {
          BenchClient& c = *clients[static_cast<std::size_t>(i)];
          if (c.sweep(std::chrono::milliseconds(blocking ? 50 : 0)))
            progress = true;
          if (!c.done && !c.gave_up) ++live;
        }
        if (live == 0) break;
        if (!progress)
          std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
      for (int i = lo; i < hi; ++i)
        if (clients[static_cast<std::size_t>(i)]->done) completed.fetch_add(1);
    });
  }
  for (auto& t : pool) t.join();
  return completed.load();
}

}  // namespace flbench
