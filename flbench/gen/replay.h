// Server-side layer costs, measured by replaying a deployed run's round
// inputs (the scores and UPDATE / UPDATE-AGG payloads the generator
// captured) through the same public calls the server makes:
// AdaFlServerCore::plan_round/apply_round, parse_update_into,
// parse_update_agg, encode_model, nn::Model::accuracy and
// save_server_checkpoint. Reproducing the server's weights-crc32 proves the
// replay made the server's calls on the server's inputs.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/adafl_server.h"
#include "gen/client.h"
#include "nn/model.h"

namespace flbench {

class ServerReplay {
 public:
  /// `t` receives the per-call timings; must outlive the replay.
  ServerReplay(const nt::WelcomeInfo& w, const adafl::cli::TaskBundle& task,
               std::string checkpoint_dir, Timings* t);

  /// Plans round `r` from the clients' scores (NaN = did not score).
  const adafl::core::AdaFlRoundPlan& plan(int r,
                                          const std::vector<double>& scores);

  /// Aggregates round `r` from direct UPDATE payloads (id -> payload)
  /// and/or relay UPDATE-AGG payloads (group base -> payload), then does
  /// the server's round tail: MODEL encode, eval on the eval cadence and a
  /// checkpoint.
  void apply(int r, const std::map<int, std::vector<std::uint8_t>>& updates,
             const std::map<int, std::vector<std::uint8_t>>& aggs);

  const std::vector<float>& global() const { return core_.global(); }
  const std::vector<float>& g_hat() const { return core_.g_hat(); }
  std::uint32_t weights_crc() const;
  double final_accuracy() const { return accuracy_; }
  std::int64_t checkpoint_bytes() const { return checkpoint_bytes_; }

 private:
  std::vector<double>* t(const char* name) { return &(*timings_)[name]; }

  nt::WelcomeInfo welcome_;
  const adafl::cli::TaskBundle& task_;
  std::string checkpoint_dir_;
  Timings* timings_;
  adafl::core::AdaFlServerCore core_;
  adafl::core::AdaFlRoundPlan plan_;
  adafl::nn::Model eval_model_;
  adafl::nn::Batch eval_batch_;
  std::vector<adafl::core::AdaFlDelivery> slots_;
  std::vector<char> delivered_;
  std::map<int, adafl::compress::EncodedGradient> partials_;
  nt::UpdatePayload parsed_;
  std::vector<std::uint8_t> ser_;
  adafl::compress::EncodedGradient deser_;
  int eval_every_ = 1;
  double accuracy_ = 0.0;
  std::int64_t checkpoint_bytes_ = 0;
};

/// Re-sums every captured UPDATE-AGG's group from the leaves' own UPDATE
/// payloads with core::PartialAggregator (timing "core.partial_agg_s").
/// Returns false unless each recomputed partial equals the relay's bit for
/// bit.
bool check_partials(
    const std::map<int, std::map<int, std::vector<std::uint8_t>>>& leaf_updates,
    const std::map<int, std::map<int, std::vector<std::uint8_t>>>& aggs,
    Timings* t);

/// Encodes each payload into FEC generations with fec::RsCode (k data +
/// r parity shards of `shard_bytes`), erases r data shards per generation
/// and rebuilds them ("fec.encode_s", "fec.reconstruct_s" per
/// generation). Returns false unless every rebuild is exact.
bool probe_fec(const std::vector<std::vector<std::uint8_t>>& frames, int k,
               int r, std::size_t shard_bytes, Timings* t);

/// Times nn::Model::train_batch on one batch of the task ("nn.train_step_s").
void probe_train_step(const adafl::cli::TaskBundle& task,
                      const adafl::fl::ClientTrainConfig& cfg, int steps,
                      Timings* t);

}  // namespace flbench
