// Deployed FL session protocol: the AdaFL round loop over a real transport.
//
// One server (ServerSession) drives AdaFL rounds against N remote clients
// (ClientSession), speaking framed messages (frame.h) whose payloads wrap
// the byte-exact compress::wire encoding. The server-side round logic is
// core::AdaFlServerCore — the same state machine the in-process simulator
// uses — so a deployed run with the same seed/config produces bitwise
// identical global weights to AdaFlSyncTrainer (asserted by
// tests/test_session.cpp and the CI loopback smoke job).
//
// Round protocol (round r):
//   server -> client  MODEL(r)    global weights + g_hat
//   client -> server  SCORE(r)    utility score (trained locally)
//   server -> client  SELECT(r)   compression ratio   (chosen clients)
//                     SKIP(r)                         (everyone else)
//   client -> server  UPDATE(r)   compressed sparse update
//
// Resilience: the server never blocks on a single peer — it polls all
// connections, finishes the score phase once a quorum has reported (waiting
// for stragglers only until the round deadline), and aggregates whatever
// updates arrive by the deadline. A client that vanishes mid-round degrades
// the round; when it redials (HELLO again) the server re-sends the in-round
// state (MODEL or SELECT) and books the overhead as retransmitted bytes.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/adafl_server.h"
#include "fl/client.h"
#include "fl/types.h"
#include "net/transport/event_loop.h"
#include "net/transport/tcp.h"
#include "net/transport/transport.h"

namespace adafl::net::replication {
class CheckpointPublisher;
}

namespace adafl::metrics {
class Registry;
class Histogram;
enum class TraceEventType : std::uint8_t;
}

namespace adafl::net::transport {

/// Protocol version carried in HELLO; bumped on incompatible changes.
constexpr std::uint32_t kProtocolVersion = 1;

/// Shared inbox between a standby connection and the Transport adapter
/// handed to the replication publisher (defined in session.cpp).
struct StandbyLink;

// --- Message payload codecs (exposed for tests and scripted peers). ------

/// WELCOME: run configuration a joining client needs.
struct WelcomeInfo {
  std::uint32_t rounds = 0;
  std::uint64_t param_count = 0;
  core::AdaFlParams params;  ///< must match the server's exactly
  /// Opaque key/value config (task spec, hyperparameters) interpreted by the
  /// client's bootstrap callback.
  std::map<std::string, std::string> config;
};

std::vector<std::uint8_t> encode_hello(std::uint32_t protocol_version);
std::uint32_t parse_hello(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> encode_welcome(const WelcomeInfo& w);
WelcomeInfo parse_welcome(std::span<const std::uint8_t> payload);

/// MODEL: the global weights and the similarity reference g_hat.
struct ModelPayload {
  std::vector<float> global;
  std::vector<float> g_hat;
};

std::vector<std::uint8_t> encode_model(const ModelPayload& m);
ModelPayload parse_model(std::span<const std::uint8_t> payload);

/// SCORE and SELECT carry one f64 (utility score / compression ratio).
std::vector<std::uint8_t> encode_f64(double v);
double parse_f64(std::span<const std::uint8_t> payload);

/// UPDATE: the compressed model update plus its aggregation metadata.
struct UpdatePayload {
  compress::EncodedGradient msg;
  std::int64_t num_examples = 0;
  float mean_loss = 0.0f;
  double raw_delta_norm = 0.0;  ///< trust-region input (L2 of the raw delta)
};

std::vector<std::uint8_t> encode_update(const UpdatePayload& u);
/// encode_update into a caller-owned buffer, staging the wire encoding in
/// `wire_scratch`; both reuse their capacity across rounds.
void encode_update_into(const UpdatePayload& u, std::vector<std::uint8_t>& out,
                        std::vector<std::uint8_t>& wire_scratch);
UpdatePayload parse_update(std::span<const std::uint8_t> payload);
/// parse_update into a reused payload (compress::deserialize_into
/// semantics: every field reset, vector capacity kept).
void parse_update_into(std::span<const std::uint8_t> payload, UpdatePayload& u);

// --- Hierarchical aggregation (mid-tier relays; src/net/relay/). ---------

/// RELAY_HELLO: a mid-tier aggregator joins its parent, claiming the leaf
/// client-id range [base, base + count). The range must be aligned to the
/// run's AdaFlParams::agg_group.
struct RelayHelloPayload {
  std::uint32_t version = 0;
  std::uint32_t base = 0;
  std::uint32_t count = 0;
};

std::vector<std::uint8_t> encode_relay_hello(const RelayHelloPayload& h);
RelayHelloPayload parse_relay_hello(std::span<const std::uint8_t> payload);

/// One leaf client's metadata inside an UPDATE-AGG (everything the root
/// needs to score, trust-clip, and trace the leaf as if it had uploaded
/// directly — the coordinates travel pre-summed in the group partial).
struct UpdateAggChild {
  std::uint32_t id = 0;
  std::int64_t num_examples = 0;
  float mean_loss = 0.0f;
  double raw_delta_norm = 0.0;
  /// Codec-level serialized size of the leaf's original update, so the
  /// root's update_delivered trace row matches a flat run byte for byte.
  std::int64_t wire_bytes = 0;
};

/// UPDATE-AGG: one aggregation group's pre-summed partial. `children` lists
/// the leaves whose updates are inside `partial`, strictly ascending, all
/// within [base, base + count).
struct UpdateAggPayload {
  std::uint32_t base = 0;
  std::uint32_t count = 0;
  std::vector<UpdateAggChild> children;
  compress::EncodedGradient partial;  ///< kTopK, lossless fp32 on the wire
};

std::vector<std::uint8_t> encode_update_agg(const UpdateAggPayload& a);
/// Structural parse + hostile-input validation (counts, ranges, ordering,
/// finiteness). Throws CheckError on anything malformed; the caller must
/// drop the sending connection.
UpdateAggPayload parse_update_agg(std::span<const std::uint8_t> payload);
/// Root-side semantic validation of a parsed UPDATE-AGG against the run
/// configuration and the sending relay's claimed range. Throws CheckError.
void validate_update_agg(const UpdateAggPayload& a, std::int64_t dense_size,
                         int agg_group, int relay_base, int relay_count);

// --- Server side. --------------------------------------------------------

struct ServerSessionConfig {
  core::AdaFlParams params;
  int rounds = 3;
  int eval_every = 1;
  /// Fleet size; client ids must be in [0, expected_clients).
  int expected_clients = 0;
  /// Scores needed before a round may proceed past its deadline
  /// (0 = expected_clients). Liveness bound: with fewer than `quorum`
  /// clients reachable the server waits for rejoins instead of training on
  /// too little data.
  int quorum = 0;
  /// Per-phase deadline: after it expires the score phase proceeds with a
  /// quorum and the update phase aggregates what has arrived.
  std::chrono::milliseconds round_deadline{60000};
  /// Whole-round cap (score + update phases combined); 0 disables. In the
  /// score phase it takes effect only once a quorum has scored (cutting
  /// below quorum would change selection semantics, not just timing). Guards
  /// against a quorum-selected client dying between the score and update
  /// phases pinning a round to the full per-phase deadline twice over: on
  /// expiry the server aggregates what arrived, emits update_lost for the
  /// rest, and moves on.
  std::chrono::milliseconds round_total_deadline{0};
  /// Longest wait between idle service passes. Event-loop activity (a
  /// frame, an accept, a watched datagram fd) ends the wait early; a polled
  /// transport's frames are seen on the next pass.
  std::chrono::milliseconds idle_poll{20};
  /// Anti-wedge retransmission: while a phase is stalled (no frame
  /// processed), periodically re-send the pending frame — MODEL to
  /// connected clients that have not scored, SELECT to selected clients
  /// that have not uploaded. Recovers from frames lost in flight without
  /// waiting for the round deadline. This is the FIRST gap only: each
  /// firing doubles the gap until the phase ends (reset at the next
  /// phase), so retransmission traffic grows logarithmically with phase
  /// length instead of linearly — a fleet that is merely slow is not
  /// spammed into a resend storm. <= 0 disables; pointless over TCP
  /// (reliable stream + rejoin catch-up), essential over lossy UDP.
  std::chrono::milliseconds retransmit_nudge{2000};
  /// Opaque config forwarded to every client in WELCOME.
  std::map<std::string, std::string> client_config;

  // --- Crash recovery (see docs/deployment.md, "Crash recovery"). ---------
  /// When non-empty, write a durable checkpoint (core::ServerCheckpoint)
  /// into this directory every `checkpoint_every` completed rounds and on a
  /// graceful request_stop().
  std::string checkpoint_dir;
  /// Checkpoint cadence in rounds. 1 (every round) makes a kill + --resume
  /// bitwise identical to an uninterrupted run; larger values trade
  /// checkpoint I/O for re-executing up to N-1 rounds after a crash.
  int checkpoint_every = 1;
  /// Resume from checkpoint_dir instead of starting at round 1. Throws if
  /// no checkpoint exists or it was written under a different config.
  bool resume = false;

  /// Optional structured tracer (metrics/trace.h). The session forwards it
  /// to the shared core::AdaFlServerCore (semantic selection/delivery
  /// events, identical to the simulator's) and additionally emits
  /// deployed-only transport events: frame_tx/frame_rx per frame,
  /// retransmit for re-sent MODEL/SELECT frames, reconnect on rejoin.
  /// `t` fields carry wall-clock seconds since run() started. Not owned;
  /// must outlive run().
  metrics::Tracer* tracer = nullptr;

  /// Optional hot-standby replication (net/replication/). When set, the
  /// session routes kStandbyHello handshakes into it, ships every
  /// checkpoint image it writes via publish(), keeps standby leases alive
  /// from the poll loop, and stands standbys down on orderly completion.
  /// Not owned; must outlive run().
  replication::CheckpointPublisher* publisher = nullptr;

  /// Optional metrics registry. When set, the session records the
  /// "server.round_latency_ms" histogram (wall time per committed round)
  /// and "server.frame_dispatch_ms" (enqueue on the event-loop thread to
  /// dispatch on the session thread, the p99 of which is the scaling health
  /// metric; frames of add_transport() peers are stamped when a service
  /// pass drains them, so they record only the in-pass delay). Not owned;
  /// must outlive run().
  metrics::Registry* registry = nullptr;
};

/// Runs the AdaFL server over every peer it is given, through one service
/// path. Peers arrive two ways:
///   * event-loop sockets: an attached EventLoop (flserver's, with the TCP
///     listener adopted) owns them; when none is attached run() starts a
///     private listener-less loop, so there always is one;
///   * polled transports: add_transport() hands over any Transport (the UDP
///     mux's peers, loopback pairs, accept-thread sockets); the session owns
///     them and sweeps each with recv(0) once per service pass.
/// Both kinds share one connection table keyed by ConnId (polled peers get
/// ids from a range the loop never allocates), one handshake
/// (HELLO / RELAY_HELLO / STANDBY_HELLO), one frame dispatch with parallel
/// UPDATE decode, and one send primitive. add_transport() may be called
/// from another thread (e.g. an accept loop) at any time before or during
/// run().
class ServerSession {
 public:
  /// `test` may be null (no evaluation; records carry accuracy 0).
  ServerSession(ServerSessionConfig cfg, nn::ModelFactory factory,
                const data::Dataset* test);

  /// Hands a freshly-connected (not yet handshaken) transport to the
  /// session. Thread-safe.
  void add_transport(std::unique_ptr<Transport> t);

  /// Serves the sockets of `loop` (configured with its listener adopted,
  /// and any watch_fd() sources, not yet started) instead of a private
  /// listener-less loop; run() starts and stops it. Call before run().
  void attach_event_loop(EventLoop* loop);

  /// Runs all configured rounds; returns the training log. Call once.
  fl::TrainLog run();

  /// Asks run() to stop at the next safe point (signal-safe: only atomic
  /// stores). With `write_checkpoint` (the SIGINT/SIGTERM path) a final
  /// checkpoint is written before returning, so --resume continues from the
  /// interrupted round; without it (SIGKILL-equivalent, used by crash
  /// tests) recovery relies on the last cadence checkpoint alone.
  void request_stop(bool write_checkpoint = true);

  /// Round the session resumed from (0 = fresh start).
  int resumed_from() const { return resumed_from_; }

  const std::vector<float>& global() const { return core_.global(); }
  const core::AdaFlStats& stats() const { return core_.stats(); }

 private:
  enum class Phase { kScore, kUpdate };
  using Bytes = std::shared_ptr<const std::vector<std::uint8_t>>;

  /// Per-round mutable state shared by the service loop.
  struct RoundCtx {
    int round = 0;
    Phase phase = Phase::kScore;
    std::vector<bool> sent_model;
    std::vector<bool> scored;
    std::vector<double> scores;
    std::map<int, double> ratio_of;  ///< selected id -> compression ratio
    std::set<int> awaiting;          ///< selected ids still owing an UPDATE
    metrics::CommLedger* ledger = nullptr;
    /// The round's MODEL frame, built lazily on first send and reused for
    /// every broadcast/nudge/rejoin (the global does not change within a
    /// round). `model_bytes` caches its encoding ONCE — the same immutable
    /// buffer goes to every connection and relay, so a 10k-client
    /// broadcast encodes the model one time. Null until built.
    Frame model_frame;
    Bytes model_bytes;
    /// Relay-delivered group partials of this round, keyed by group base
    /// (first accepted UPDATE-AGG per group wins; duplicates are ignored).
    std::map<int, compress::EncodedGradient> wire_partials;
  };

  /// What a connection handshook as. A connection without an entry in
  /// peers_ has not sent its first frame yet.
  struct Peer {
    enum class Role { kClient, kRelay, kStandby } role = Role::kClient;
    int client = -1;                       ///< kClient: the bound id
    std::shared_ptr<StandbyLink> standby;  ///< kStandby: publisher's inbox
  };

  /// The one send primitive: queues `f` on the loop for a loop socket,
  /// sends it on the transport for a polled peer. A non-null `pre` holds
  /// encode_frame(f) and is sent as is. A polled transport whose send fails
  /// is closed; the next drain reaps it. Returns false when the frame
  /// certainly did not leave (a dead loop socket surfaces later, through
  /// take_closed(), exactly like a lost datagram).
  bool send_bytes(ConnId conn, const Frame& f, const Bytes* pre);
  /// Sends `f` to client `id`: on its direct connection, else through the
  /// relay covering it (re-addressed to the leaf, so `pre` is unused
  /// there). Returns the delivered frame size (0 on failure).
  std::size_t send_to(int id, const Frame& f, const Bytes* pre = nullptr);
  void send_model(RoundCtx& rc, int id);
  /// Builds rc.model_frame and rc.model_bytes once per round; later calls
  /// are no-ops.
  void ensure_model_frame(RoundCtx& rc);
  /// Re-sends SELECT to `id` when it is selected this round and still owes
  /// its UPDATE (rejoin catch-up and nudges); books the bytes as
  /// retransmitted.
  void resend_select(RoundCtx& rc, int id);
  /// True when client `id` is reachable: a direct live connection, or a
  /// live relay route with the leaf announced alive behind it. This is the
  /// definition quorum/deadline math uses, so a relay connection counts as
  /// its N live leaves, never as 1.
  bool connected(int id) const;
  /// True only for a direct (non-relayed) live connection to `id`.
  bool direct_connected(int id) const;
  /// One service pass: drains the loop's frames and every polled
  /// transport's into frame_batch_, handles the batch, then reaps the
  /// connections found closed. Returns true if any frame was processed.
  bool service(RoundCtx& rc);
  /// Handles frame_batch_: handshakes, standby routing and every frame
  /// but UPDATE sequentially in arrival order; UPDATE payloads decode in
  /// parallel (one disjoint delivery slot per client) and commit in batch
  /// order.
  void handle_batch(RoundCtx& rc);
  /// Handles the first frame of a connection: HELLO binds a client (WELCOME
  /// + in-round catch-up), RELAY_HELLO a relay, STANDBY_HELLO hands the
  /// connection to the replication publisher; anything else closes it.
  void handle_handshake(RoundCtx& rc, const InFrame& inf);
  /// Dispatches one non-UPDATE frame from bound client `id`.
  void handle_frame(RoundCtx& rc, int id, const Frame& f);
  /// Binds a freshly-handshaken mid-tier relay, replacing any binding
  /// overlapping its range, and catches it up with the in-flight round
  /// (WELCOME + MODEL + pending SELECTs for its leaves). Throws CheckError
  /// on an invalid claim.
  void handle_relay_hello(RoundCtx& rc, const RelayHelloPayload& h,
                          ConnId conn);
  /// Dispatches one frame arriving on relay `ridx`'s connection. Frames
  /// carry the leaf id in frame.client_id; CheckError propagates to the
  /// caller, which must drop the relay.
  void handle_relay_frame(RoundCtx& rc, std::size_t ridx, const Frame& f);
  void handle_update_agg(RoundCtx& rc, std::size_t ridx, const Frame& f);
  /// Sends on relay `ridx`'s connection; returns bytes sent. A non-null
  /// `pre` holds encode_frame(f) and is sent as is.
  std::size_t send_to_relay(std::size_t ridx, const Frame& f,
                            const Bytes* pre = nullptr);
  /// Pushes the round's MODEL to relay `ridx` (once per round; re-sends
  /// book as retransmissions). The relay re-broadcasts to its children.
  void send_model_to_relay(RoundCtx& rc, std::size_t ridx);
  /// Closes connection `conn` and forgets what it was bound to: a client's
  /// binding, a relay's (drop_relay) or a standby's link. Idempotent.
  void drop_conn(ConnId conn);
  /// Index in relays_ of the relay bound to `conn` (which must be one).
  std::size_t relay_of(ConnId conn) const;
  /// Forgets relay `ridx`: clears its leaves' routes and liveness and
  /// compacts the relay table. Called by drop_conn, which closes the
  /// connection.
  void drop_relay(std::size_t ridx);
  /// Re-sends the stalled phase's pending frame (MODEL / SELECT); books the
  /// bytes as retransmitted.
  void nudge(RoundCtx& rc);
  /// Builds the durable checkpoint for a run whose next round is
  /// `next_round`, from an AdaFl core snapshot taken at a round boundary.
  void write_checkpoint(int next_round,
                        const core::AdaFlServerCore::State& snap) const;
  /// Loads + validates the checkpoint and restores the core. Returns the
  /// round to resume at.
  int resume_from_checkpoint();
  /// Abruptly closes every connection (no SHUTDOWN) and stops the loop:
  /// the stop path, and the teardown after the SHUTDOWN broadcast.
  void drop_all_connections();
  /// Wall-clock seconds since run() started (trace event timestamps).
  double trace_now() const;
  /// True when a tracer is attached and recording.
  bool tracing() const;
  /// Records a frame_tx/frame_rx event for `f`; `peer` is the client id,
  /// -1 for the server or a relay itself.
  void trace_frame(metrics::TraceEventType type, const Frame& f, int peer);
  /// Books `sent` retransmitted bytes against client `id`.
  void book_retransmit(RoundCtx& rc, int id, std::size_t sent);

  ServerSessionConfig cfg_;
  nn::ModelFactory factory_;
  const data::Dataset* test_;
  nn::Model eval_model_;
  /// Full test set, materialised on first eval and reused every round.
  nn::Batch eval_batch_;
  core::AdaFlServerCore core_;
  std::vector<std::uint8_t> welcome_payload_;
  Bytes welcome_frame_bytes_;
  std::vector<bool> ever_joined_;

  // --- The connection table. ----------------------------------------------
  static constexpr ConnId kNoConn = ~ConnId{0};
  /// Polled peers take ids from here up; loop ids count up from 0 and never
  /// get near it.
  static constexpr ConnId kPolledBase = ConnId{1} << 62;
  EventLoop* loop_ = nullptr;
  std::unique_ptr<EventLoop> own_loop_;  ///< when none was attached
  std::mutex pending_mu_;
  std::vector<std::unique_ptr<Transport>> pending_;  ///< add_transport()ed
  ConnId next_polled_ = kPolledBase;
  std::map<ConnId, std::unique_ptr<Transport>> polled_;
  std::unordered_map<ConnId, Peer> peers_;
  std::vector<ConnId> client_conn_;  ///< client id -> conn (kNoConn)

  // --- Mid-tier relay state (hierarchical aggregation). -------------------
  /// One relay connection covering leaves [base, base + count).
  struct RelayBinding {
    int base = 0;
    int count = 0;
    ConnId conn = kNoConn;
    bool sent_model = false;  ///< MODEL pushed this round
  };
  std::vector<RelayBinding> relays_;
  std::vector<int> leaf_relay_;   ///< leaf id -> relays_ index, -1 = none
  std::vector<char> child_live_;  ///< per-leaf liveness behind a relay

  // --- Per-pass scratch, reused. -------------------------------------------
  std::vector<InFrame> frame_batch_;
  struct DecodeJob {
    std::size_t batch_index = 0;
    int client = 0;
  };
  std::vector<DecodeJob> decode_jobs_;
  std::vector<char> decode_ok_;
  std::vector<char> pending_decode_;  ///< per-client in-batch dedupe
  metrics::Histogram* dispatch_hist_ = nullptr;

  /// Per-client delivery slots reused across rounds (frame decoding lands
  /// straight in the slot, so steady-state rounds reuse the same storage);
  /// delivered_ marks which slots hold the current round's update.
  std::vector<core::AdaFlDelivery> delivery_slots_;
  std::vector<char> delivered_;
  std::size_t delivered_count_ = 0;

  std::atomic<bool> stop_{false};
  std::atomic<bool> stop_save_{false};
  int resumed_from_ = 0;
  std::chrono::steady_clock::time_point trace_t0_{};
};

// --- Client side. --------------------------------------------------------

struct ClientSessionConfig {
  int client_id = 0;
  /// Send a PING after this long without traffic in either direction.
  std::chrono::milliseconds heartbeat_interval{1000};
  /// Declare the connection dead and redial after this long without
  /// hearing from the server.
  std::chrono::milliseconds liveness_timeout{8000};
  /// recv() poll granularity.
  std::chrono::milliseconds recv_poll{100};
  BackoffPolicy backoff;
  /// Optional structured tracer: client-side frame_tx/frame_rx/reconnect
  /// transport events (wall-clock `t`). Not owned; must outlive run().
  metrics::Tracer* tracer = nullptr;
};

/// Outcome of one ClientSession::run().
struct ClientRunStats {
  int reconnects = 0;
  int rounds_trained = 0;
  int updates_sent = 0;
  int skips = 0;
  /// Times the session rotated to the next endpoint in its dial list
  /// (failover to a standby shows up here).
  int endpoint_rotations = 0;
  /// True if the server said SHUTDOWN; false if the session gave up
  /// redialing (backoff exhausted).
  bool completed = false;
};

/// Runs one deployed FL client: dials the server, trains on MODEL, scores,
/// uploads when selected, and transparently reconnects (bounded exponential
/// backoff) when the connection drops. DGC residual state survives
/// reconnects, so a flaky network does not reset error feedback.
class ClientSession {
 public:
  /// Returns a connected transport or nullptr (attempt failed).
  using DialFn = std::function<std::unique_ptr<Transport>()>;
  /// Multi-endpoint dial: connects to endpoint `i` of a prioritized list
  /// (`--server=host:port,host:port`). The session dials endpoint 0 until
  /// its backoff budget is exhausted, then rotates to the next — the
  /// client-side half of hot-standby failover.
  using IndexedDialFn =
      std::function<std::unique_ptr<Transport>(std::size_t endpoint)>;
  /// Builds this client's FlClient from the server-sent config. Must derive
  /// the client seed with fl::client_seed_at(run_seed ^
  /// core::kAdaFlClientSeedSalt, id) — via fl::make_client — so the deployed
  /// client is the simulator's bitwise twin.
  using BootstrapFn = std::function<fl::FlClient(
      const std::map<std::string, std::string>& config, int client_id,
      const core::AdaFlParams& params)>;

  /// Single-endpoint session (a one-entry dial list).
  ClientSession(ClientSessionConfig cfg, DialFn dial, BootstrapFn bootstrap);

  /// Prioritized multi-endpoint session. `endpoint_count` must be >= 1;
  /// `dial` is only called with indices in [0, endpoint_count).
  ClientSession(ClientSessionConfig cfg, IndexedDialFn dial,
                std::size_t endpoint_count, BootstrapFn bootstrap);

  /// Runs until SHUTDOWN or until reconnecting is abandoned.
  ClientRunStats run();

 private:
  ClientSessionConfig cfg_;
  IndexedDialFn dial_;
  std::size_t endpoint_count_ = 1;
  BootstrapFn bootstrap_;
};

}  // namespace adafl::net::transport
