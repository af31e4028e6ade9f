// The benchmark's load-generating FL client: one protocol state machine per
// simulated device, driven by a few sweep threads. It follows the handlers
// of the program's ClientSession (train once per round, compress once per
// selection, re-send cached bytes on a duplicate SELECT), so the server
// cannot tell it from flclient, and records what a client sees: when each
// frame arrived, how long each wait lasted, and how long each public call
// into the fl/compress/transport layers took.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "cli/task.h"
#include "compress/dgc.h"
#include "fl/client.h"
#include "gen/probes.h"
#include "net/transport/session.h"

namespace flbench {

/// Named samples of per-call wall time (seconds), merged across threads.
using Timings = std::map<std::string, std::vector<double>>;

inline void merge_into(Timings& dst, const Timings& src) {
  for (const auto& [k, v] : src) {
    auto& d = dst[k];
    d.insert(d.end(), v.begin(), v.end());
  }
}

/// The task every client of one run shares, built once from the first
/// WELCOME (the same cli::build_task the server and flsim call).
struct SharedTask {
  std::mutex mu;
  std::optional<adafl::cli::TaskBundle> bundle;
  adafl::cli::TaskSpec spec;
  adafl::fl::ClientTrainConfig client_cfg;
  nt::WelcomeInfo welcome;
  double build_s = 0.0;  ///< wall time of cli::build_task

  /// Builds the task on first call (thread-safe); later calls return it.
  const adafl::cli::TaskBundle& ensure(const nt::WelcomeInfo& w);
};

struct ClientOptions {
  /// Send PING after this long without traffic and redial after
  /// `liveness_s` of silence (ClientSession's defaults); <= 0 disables.
  double heartbeat_s = 1.0;
  double liveness_s = 8.0;
  double redial_s = 0.1;
  double give_up_s = 5.0;  ///< stop redialing after this long unconnected
  /// Time layer calls and keep the scores and UPDATE payloads for replay.
  bool trace = false;
};

class BenchClient {
 public:
  using DialFn = std::function<std::unique_ptr<nt::Transport>(BenchClient&)>;

  BenchClient() = default;
  BenchClient(const BenchClient&) = delete;
  BenchClient& operator=(const BenchClient&) = delete;

  /// One pass: (re)dial if needed, then handle frames until none is ready
  /// within `wait`. Returns true when it made progress.
  bool sweep(std::chrono::milliseconds wait);

  int id = 0;
  DialFn dial;
  SharedTask* shared = nullptr;
  ClientOptions opt;
  LinkTally tally;
  Timings timings;

  // What the client observed (steady-clock seconds, now_s()).
  double hello_s = -1, welcome_s = -1, shutdown_s = -1;
  std::vector<double> model_s;      ///< first MODEL arrival per round
  std::vector<double> select_wait;  ///< SCORE sent -> SELECT/SKIP
  std::vector<double> model_wait;   ///< UPDATE sent / SKIP -> next MODEL
  int duplicates = 0;               ///< re-delivered MODEL/SELECT/SKIP
  int reconnects = 0;
  bool done = false;
  bool gave_up = false;  ///< could not reach the server for give_up_s

  // Replay capture: what this client told the server.
  std::map<int, double> scores;
  std::map<int, std::vector<std::uint8_t>> updates;

 private:
  void handle(const nt::Frame& f);
  bool send(nt::MsgType type, std::uint32_t round,
            std::vector<std::uint8_t> payload = {});
  std::vector<double>* t(const char* name) {
    return opt.trace ? &timings[name] : nullptr;
  }

  std::unique_ptr<nt::Transport> conn_;
  std::optional<adafl::fl::FlClient> client_;
  std::optional<adafl::compress::DgcCompressor> comp_;
  adafl::core::AdaFlParams params_;
  adafl::fl::FlClient::LocalResult res_;
  int trained_round_ = 0, uploaded_round_ = 0, skipped_round_ = 0;
  int selected_round_ = 0;  ///< last round a SELECT/SKIP was seen
  nt::UpdatePayload update_;
  std::vector<std::uint8_t> wire_scratch_, cached_update_, ser_scratch_;
  double score_sent_s_ = -1, marker_s_ = -1;
  double last_rx_s_ = 0, last_tx_s_ = 0, next_dial_s_ = 0;
  double down_since_s_ = -1;  ///< first failed dial of the current outage
};

/// Runs `clients` on `threads` sweep threads until every client reached
/// SHUTDOWN or `timeout_s` passed. With one client per thread the thread
/// blocks in recv(); otherwise it polls its block and naps when idle.
/// Returns the number of clients that completed.
int drive(std::vector<std::unique_ptr<BenchClient>>& clients, int threads,
          double timeout_s);

}  // namespace flbench
