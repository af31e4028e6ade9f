#include "gen/replay.h"

#include <cmath>
#include <cstring>
#include <filesystem>
#include <numeric>

#include "compress/wire.h"
#include "core/partial_agg.h"
#include "core/server_checkpoint.h"
#include "net/fec/rs.h"
#include "net/transport/crc32.h"
#include "nn/optimizer.h"

namespace flbench {

namespace core = adafl::core;
namespace compress = adafl::compress;

ServerReplay::ServerReplay(const nt::WelcomeInfo& w,
                           const adafl::cli::TaskBundle& task,
                           std::string checkpoint_dir, Timings* t)
    : welcome_(w),
      task_(task),
      checkpoint_dir_(std::move(checkpoint_dir)),
      timings_(t),
      core_(w.params, task.factory().get_flat()),
      eval_model_(task.factory()) {
  // The server's eval cadence (flserver: max(1, rounds / 12)).
  eval_every_ = std::max(1, static_cast<int>(w.rounds) / 12);
  const auto n = static_cast<std::size_t>(std::stoi(w.config.at("clients")));
  slots_.resize(n);
  delivered_.assign(n, 0);
  std::filesystem::create_directories(checkpoint_dir_);
}

const core::AdaFlRoundPlan& ServerReplay::plan(
    int r, const std::vector<double>& scores) {
  std::vector<bool> present(scores.size());
  for (std::size_t i = 0; i < scores.size(); ++i)
    present[i] = !std::isnan(scores[i]);
  timed(t("core.plan_s"),
        [&] { plan_ = core_.plan_round(scores, present, r); });
  return plan_;
}

void ServerReplay::apply(
    int r, const std::map<int, std::vector<std::uint8_t>>& updates,
    const std::map<int, std::vector<std::uint8_t>>& aggs) {
  std::fill(delivered_.begin(), delivered_.end(), 0);
  partials_.clear();
  for (const auto& [id, payload] : updates) {
    timed(t("transport.update_parse_s"),
          [&] { nt::parse_update_into(payload, parsed_); });
    compress::serialize_into(parsed_.msg, ser_);
    timed(t("compress.deserialize_s"),
          [&] { compress::deserialize_into(ser_, deser_); });
    core::AdaFlDelivery& d = slots_.at(static_cast<std::size_t>(id));
    d.msg = parsed_.msg;
    d.num_examples = parsed_.num_examples;
    d.mean_loss = parsed_.mean_loss;
    d.raw_delta_norm = parsed_.raw_delta_norm;
    d.meta_only = false;
    delivered_[static_cast<std::size_t>(id)] = 1;
  }
  const auto dense = static_cast<std::int64_t>(core_.global().size());
  for (const auto& [base, payload] : aggs) {
    nt::UpdateAggPayload a = timed(t("relay.agg_parse_s"), [&] {
      return nt::parse_update_agg(payload);
    });
    const std::vector<std::uint8_t> again = timed(
        t("relay.agg_encode_s"), [&] { return nt::encode_update_agg(a); });
    ADAFL_CHECK_MSG(again == payload,
                    "replay: UPDATE-AGG does not re-encode to its own bytes");
    // Metadata-only deliveries, as the root books a relayed group.
    for (const nt::UpdateAggChild& c : a.children) {
      core::AdaFlDelivery& d = slots_.at(c.id);
      d.msg.kind = compress::CodecKind::kTopK;
      d.msg.dense_size = dense;
      d.msg.wire_bytes = c.wire_bytes;
      d.msg.indices.clear();
      d.msg.values.clear();
      d.msg.levels.clear();
      d.num_examples = c.num_examples;
      d.mean_loss = c.mean_loss;
      d.raw_delta_norm = c.raw_delta_norm;
      d.meta_only = true;
      delivered_[c.id] = 1;
    }
    partials_[base] = std::move(a.partial);
  }
  const auto find = [this](int id) -> const core::AdaFlDelivery* {
    return delivered_[static_cast<std::size_t>(id)]
               ? &slots_[static_cast<std::size_t>(id)]
               : nullptr;
  };
  timed(t("core.apply_s"), [&] {
    if (core_.params().agg_group > 0)
      core_.apply_round(plan_, find,
                        [this](int gbase) -> const compress::EncodedGradient* {
                          const auto it = partials_.find(gbase);
                          return it == partials_.end() ? nullptr : &it->second;
                        });
    else
      core_.apply_round(plan_, find);
  });

  nt::ModelPayload m;
  m.global = core_.global();
  m.g_hat = core_.g_hat();
  timed(t("transport.model_encode_s"), [&] { (void)nt::encode_model(m); });

  if (r % eval_every_ == 0 || r == static_cast<int>(welcome_.rounds)) {
    eval_model_.set_flat(core_.global());
    if (eval_batch_.size() == 0) eval_batch_ = task_.test.all();
    accuracy_ = timed(t("nn.eval_s"),
                      [&] { return eval_model_.accuracy(eval_batch_); });
  }

  // The deployed server's checkpoint (ServerSession::write_checkpoint).
  const core::AdaFlServerCore::State s = core_.state();
  core::ServerCheckpoint ck;
  ck.producer = "deployed";
  ck.next_round = static_cast<std::uint32_t>(r + 1);
  ck.total_rounds = welcome_.rounds;
  ck.config_crc = nt::crc32(nt::encode_welcome(welcome_));
  ck.global = s.global;
  core::ServerCheckpoint::AdaFlCoreState a;
  a.g_hat = s.g_hat;
  a.selected_updates = s.stats.selected_updates;
  a.skipped_clients = s.stats.skipped_clients;
  a.min_ratio_used = s.stats.min_ratio_used;
  a.max_ratio_used = s.stats.max_ratio_used;
  a.mean_selected_per_round = s.stats.mean_selected_per_round;
  a.selected_sum = s.selected_sum;
  a.rounds_planned = s.rounds_planned;
  ck.adafl = std::move(a);
  const std::string path = core::checkpoint_path(checkpoint_dir_);
  timed(t("core.checkpoint_s"),
        [&] { core::save_server_checkpoint(path, ck); });
  checkpoint_bytes_ =
      static_cast<std::int64_t>(std::filesystem::file_size(path));
}

std::uint32_t ServerReplay::weights_crc() const {
  const auto& w = core_.global();
  return nt::crc32(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(w.data()), w.size() * 4));
}

bool check_partials(
    const std::map<int, std::map<int, std::vector<std::uint8_t>>>& leaf_updates,
    const std::map<int, std::map<int, std::vector<std::uint8_t>>>& aggs,
    Timings* t) {
  core::PartialAggregator pa;
  compress::EncodedGradient out;
  std::vector<nt::UpdatePayload> kids;
  for (const auto& [round, by_base] : aggs) {
    const auto lu = leaf_updates.find(round);
    for (const auto& [base, payload] : by_base) {
      const nt::UpdateAggPayload a = nt::parse_update_agg(payload);
      kids.clear();
      for (const nt::UpdateAggChild& c : a.children) {
        if (lu == leaf_updates.end()) return false;
        const auto it = lu->second.find(static_cast<int>(c.id));
        if (it == lu->second.end()) return false;
        // The relay's own decode of each leaf UPDATE.
        kids.push_back(timed(&(*t)["transport.update_parse_s"],
                             [&] { return nt::parse_update(it->second); }));
      }
      timed(&(*t)["core.partial_agg_s"], [&] {
        pa.reset(static_cast<std::size_t>(a.partial.dense_size));
        for (const auto& u : kids)
          pa.add(u.msg, static_cast<float>(u.num_examples));
        pa.finish(out);
      });
      if (out.indices != a.partial.indices ||
          out.values.size() != a.partial.values.size() ||
          std::memcmp(out.values.data(), a.partial.values.data(),
                      out.values.size() * sizeof(float)) != 0)
        return false;
    }
  }
  return true;
}

bool probe_fec(const std::vector<std::vector<std::uint8_t>>& frames, int k,
               int r, std::size_t shard_bytes, Timings* t) {
  if (r <= 0) return true;
  const adafl::net::fec::RsCode rs(k + r, k);
  std::vector<std::vector<std::uint8_t>> shards(
      static_cast<std::size_t>(k + r), std::vector<std::uint8_t>(shard_bytes));
  std::vector<std::uint8_t*> ptrs(shards.size());
  for (std::size_t i = 0; i < shards.size(); ++i) ptrs[i] = shards[i].data();
  std::vector<std::vector<std::uint8_t>> orig(static_cast<std::size_t>(k));
  const std::size_t gen_bytes = shard_bytes * static_cast<std::size_t>(k);
  for (const auto& f : frames) {
    for (std::size_t off = 0; off < f.size(); off += gen_bytes) {
      for (int i = 0; i < k; ++i) {
        auto& s = shards[static_cast<std::size_t>(i)];
        std::fill(s.begin(), s.end(), 0);
        const std::size_t lo = off + static_cast<std::size_t>(i) * shard_bytes;
        if (lo < f.size())
          std::memcpy(s.data(), f.data() + lo,
                      std::min(shard_bytes, f.size() - lo));
        orig[static_cast<std::size_t>(i)] = s;
      }
      timed(&(*t)["fec.encode_s"], [&] {
        rs.encode_shards(ptrs.data(), ptrs.data() + k, shard_bytes);
      });
      std::vector<bool> present(static_cast<std::size_t>(k + r), true);
      for (int i = 0; i < std::min(k, r); ++i) {
        present[static_cast<std::size_t>(i)] = false;
        std::fill(shards[static_cast<std::size_t>(i)].begin(),
                  shards[static_cast<std::size_t>(i)].end(), 0xEE);
      }
      const bool ok = timed(&(*t)["fec.reconstruct_s"], [&] {
        return rs.reconstruct_shards(ptrs.data(), present, shard_bytes);
      });
      if (!ok) return false;
      for (int i = 0; i < k; ++i)
        if (shards[static_cast<std::size_t>(i)] !=
            orig[static_cast<std::size_t>(i)])
          return false;
    }
  }
  return true;
}

void probe_train_step(const adafl::cli::TaskBundle& task,
                      const adafl::fl::ClientTrainConfig& cfg, int steps,
                      Timings* t) {
  adafl::nn::Model model = task.factory();
  adafl::nn::Sgd opt(cfg.lr, cfg.momentum);
  std::vector<std::int32_t> idx(static_cast<std::size_t>(
      std::min<std::int64_t>(cfg.batch_size, task.train.size())));
  std::iota(idx.begin(), idx.end(), 0);
  const adafl::nn::Batch batch = task.train.gather(idx);
  model.train_batch(batch, opt);  // first touch: workspace growth
  for (int i = 0; i < steps; ++i)
    timed(&(*t)["nn.train_step_s"], [&] { model.train_batch(batch, opt); });
}

}  // namespace flbench
