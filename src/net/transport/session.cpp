#include "net/transport/session.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <functional>
#include <set>
#include <stdexcept>
#include <thread>

#include "compress/bytes.h"
#include "compress/wire.h"
#include "core/parallel.h"
#include "core/server_checkpoint.h"
#include "core/utility.h"
#include "metrics/profile.h"
#include "metrics/registry.h"
#include "metrics/trace.h"
#include "net/replication/replication.h"
#include "net/transport/crc32.h"
#include "tensor/check.h"
#include "tensor/tensor.h"

namespace adafl::net::transport {

namespace {

using Clock = std::chrono::steady_clock;

Frame make_frame(MsgType type, std::uint32_t round, std::uint32_t client_id,
                 std::vector<std::uint8_t> payload = {}) {
  Frame f;
  f.type = type;
  f.round = round;
  f.client_id = client_id;
  f.payload = std::move(payload);
  return f;
}

}  // namespace

/// Shared inbox between the session thread (which drains a standby
/// connection and routes its frames here) and the replication publisher's
/// Transport view of that connection.
struct StandbyLink {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Frame> inbox;
  std::atomic<bool> closed{false};
  /// The session's send path for the connection; called only while open.
  std::function<bool(const Frame&)> send;
};

namespace {

/// Transport adapter over one standby connection, handed to the replication
/// publisher. recv() pops from the shared inbox the session fills; send()
/// goes out through the session's send path. close() only marks the link:
/// the session closes the connection itself (on its next frame, or at
/// teardown after the loop flushed), so a final SHUTDOWN is never cut off.
class StandbyLinkTransport final : public Transport {
 public:
  explicit StandbyLinkTransport(std::shared_ptr<StandbyLink> link)
      : link_(std::move(link)) {}

  bool send(const Frame& f) override {
    return !link_->closed.load() && link_->send(f);
  }

  std::optional<Frame> recv(std::chrono::milliseconds timeout) override {
    std::unique_lock<std::mutex> lk(link_->mu);
    if (link_->inbox.empty() && timeout.count() > 0)
      link_->cv.wait_for(lk, timeout, [&] {
        return !link_->inbox.empty() || link_->closed.load();
      });
    if (link_->inbox.empty()) return std::nullopt;
    Frame f = std::move(link_->inbox.front());
    link_->inbox.pop_front();
    return f;
  }

  bool closed() const override { return link_->closed.load(); }

  void close() override {
    link_->closed.store(true);
    link_->cv.notify_all();
  }

  std::string peer() const override { return "standby-link"; }

 private:
  std::shared_ptr<StandbyLink> link_;
};

/// Trace peer of a relay-link frame: the leaf it is addressed to or from,
/// -1 for the relay itself.
int relay_peer(const Frame& f) {
  return f.client_id == kServerId ? -1 : static_cast<int>(f.client_id);
}

}  // namespace

// --- Payload codecs. -----------------------------------------------------

std::vector<std::uint8_t> encode_hello(std::uint32_t protocol_version) {
  std::vector<std::uint8_t> out;
  bytes::put_u32(out, protocol_version);
  return out;
}

std::uint32_t parse_hello(std::span<const std::uint8_t> payload) {
  bytes::Reader r(payload);
  const std::uint32_t version = r.u32();
  ADAFL_CHECK_MSG(r.remaining() == 0, "hello: trailing bytes");
  return version;
}

std::vector<std::uint8_t> encode_welcome(const WelcomeInfo& w) {
  std::vector<std::uint8_t> out;
  bytes::put_u32(out, w.rounds);
  bytes::put_u64(out, w.param_count);
  const core::AdaFlParams& p = w.params;
  bytes::put_u8(out, static_cast<std::uint8_t>(p.utility.metric));
  bytes::put_f64(out, p.utility.w_sim);
  bytes::put_f64(out, p.utility.w_bw);
  bytes::put_f64(out, p.utility.bw_ref);
  bytes::put_f64(out, p.tau);
  bytes::put_u32(out, static_cast<std::uint32_t>(p.max_selected));
  bytes::put_f64(out, p.compression.ratio_min);
  bytes::put_f64(out, p.compression.ratio_max);
  bytes::put_u32(out, static_cast<std::uint32_t>(p.compression.warmup_rounds));
  bytes::put_f64(out, p.compression.shaping);
  bytes::put_f64(out, p.dgc.ratio);
  bytes::put_f32(out, p.dgc.momentum);
  bytes::put_f64(out, p.dgc.clip_norm);
  bytes::put_u8(out, p.dgc.momentum_correction ? 1 : 0);
  bytes::put_u8(out, p.dgc.warm_up_dense ? 1 : 0);
  bytes::put_u8(out, p.accumulate_unselected ? 1 : 0);
  bytes::put_u32(out, static_cast<std::uint32_t>(p.max_consecutive_skips));
  bytes::put_u8(out, p.server_trust_clip ? 1 : 0);
  bytes::put_u32(out, static_cast<std::uint32_t>(p.agg_group));
  bytes::put_u32(out, static_cast<std::uint32_t>(w.config.size()));
  for (const auto& [k, v] : w.config) {
    bytes::put_str(out, k);
    bytes::put_str(out, v);
  }
  return out;
}

WelcomeInfo parse_welcome(std::span<const std::uint8_t> payload) {
  bytes::Reader r(payload);
  WelcomeInfo w;
  w.rounds = r.u32();
  w.param_count = r.u64();
  const std::uint8_t metric = r.u8();
  ADAFL_CHECK_MSG(
      metric <= static_cast<std::uint8_t>(core::SimilarityMetric::kEuclideanKernel),
      "welcome: unknown similarity metric " << int(metric));
  core::AdaFlParams& p = w.params;
  p.utility.metric = static_cast<core::SimilarityMetric>(metric);
  p.utility.w_sim = r.f64();
  p.utility.w_bw = r.f64();
  p.utility.bw_ref = r.f64();
  p.tau = r.f64();
  p.max_selected = static_cast<int>(r.u32());
  p.compression.ratio_min = r.f64();
  p.compression.ratio_max = r.f64();
  p.compression.warmup_rounds = static_cast<int>(r.u32());
  p.compression.shaping = r.f64();
  p.dgc.ratio = r.f64();
  p.dgc.momentum = r.f32();
  p.dgc.clip_norm = r.f64();
  p.dgc.momentum_correction = r.u8() != 0;
  p.dgc.warm_up_dense = r.u8() != 0;
  p.accumulate_unselected = r.u8() != 0;
  p.max_consecutive_skips = static_cast<int>(r.u32());
  p.server_trust_clip = r.u8() != 0;
  p.agg_group = static_cast<int>(r.u32());
  ADAFL_CHECK_MSG(p.agg_group >= 0, "welcome: negative agg_group");
  const std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string k = r.str();
    w.config[std::move(k)] = r.str();
  }
  ADAFL_CHECK_MSG(r.remaining() == 0, "welcome: trailing bytes");
  return w;
}

std::vector<std::uint8_t> encode_model(const ModelPayload& m) {
  ADAFL_CHECK_MSG(m.global.size() == m.g_hat.size(),
                  "model: global/g_hat size mismatch");
  std::vector<std::uint8_t> out;
  out.reserve(8 + m.global.size() * 8);
  bytes::put_u64(out, m.global.size());
  bytes::put_f32s(out, m.global);
  bytes::put_f32s(out, m.g_hat);
  return out;
}

ModelPayload parse_model(std::span<const std::uint8_t> payload) {
  bytes::Reader r(payload);
  const std::uint64_t d = r.u64();
  // Bound d before the multiply: a forged d ~ 2^61 would wrap d * 8 modulo
  // 2^64 and sneak a tiny payload past the size check into resize(d).
  ADAFL_CHECK_MSG(d <= kMaxFramePayload / 8,
                  "model: dimension " << d << " exceeds frame bound");
  ADAFL_CHECK_MSG(r.remaining() == d * 8, "model: payload size mismatch");
  ModelPayload m;
  m.global.resize(d);
  m.g_hat.resize(d);
  r.f32s(m.global);
  r.f32s(m.g_hat);
  return m;
}

std::vector<std::uint8_t> encode_f64(double v) {
  std::vector<std::uint8_t> out;
  bytes::put_f64(out, v);
  return out;
}

double parse_f64(std::span<const std::uint8_t> payload) {
  bytes::Reader r(payload);
  const double v = r.f64();
  ADAFL_CHECK_MSG(r.remaining() == 0, "f64 payload: trailing bytes");
  return v;
}

std::vector<std::uint8_t> encode_update(const UpdatePayload& u) {
  std::vector<std::uint8_t> out, wire_scratch;
  encode_update_into(u, out, wire_scratch);
  return out;
}

void encode_update_into(const UpdatePayload& u, std::vector<std::uint8_t>& out,
                        std::vector<std::uint8_t>& wire_scratch) {
  out.clear();
  bytes::put_u64(out, static_cast<std::uint64_t>(u.num_examples));
  bytes::put_f32(out, u.mean_loss);
  bytes::put_f64(out, u.raw_delta_norm);
  compress::serialize_into(u.msg, wire_scratch);
  bytes::put_u32(out, static_cast<std::uint32_t>(wire_scratch.size()));
  out.insert(out.end(), wire_scratch.begin(), wire_scratch.end());
}

namespace {

/// Shared parse body: UpdatePayload and core::AdaFlDelivery carry the same
/// fields, and the server decodes straight into its per-client delivery slot.
template <typename UpdateLike>
void parse_update_fields(std::span<const std::uint8_t> payload,
                         UpdateLike& u) {
  bytes::Reader r(payload);
  u.num_examples = static_cast<std::int64_t>(r.u64());
  ADAFL_CHECK_MSG(u.num_examples > 0, "update: non-positive example count");
  u.mean_loss = r.f32();
  u.raw_delta_norm = r.f64();
  const std::uint32_t len = r.u32();
  ADAFL_CHECK_MSG(r.remaining() == len, "update: payload size mismatch");
  compress::deserialize_into(r.raw(len), u.msg);
}

}  // namespace

UpdatePayload parse_update(std::span<const std::uint8_t> payload) {
  UpdatePayload u;
  parse_update_into(payload, u);
  return u;
}

void parse_update_into(std::span<const std::uint8_t> payload,
                       UpdatePayload& u) {
  parse_update_fields(payload, u);
}

// --- Hierarchical aggregation codecs. ------------------------------------

std::vector<std::uint8_t> encode_relay_hello(const RelayHelloPayload& h) {
  std::vector<std::uint8_t> out;
  bytes::put_u32(out, h.version);
  bytes::put_u32(out, h.base);
  bytes::put_u32(out, h.count);
  return out;
}

RelayHelloPayload parse_relay_hello(std::span<const std::uint8_t> payload) {
  bytes::Reader r(payload);
  RelayHelloPayload h;
  h.version = r.u32();
  h.base = r.u32();
  h.count = r.u32();
  ADAFL_CHECK_MSG(r.remaining() == 0, "relay_hello: trailing bytes");
  ADAFL_CHECK_MSG(h.count > 0, "relay_hello: empty leaf range");
  return h;
}

std::vector<std::uint8_t> encode_update_agg(const UpdateAggPayload& a) {
  std::vector<std::uint8_t> out;
  bytes::put_u32(out, a.base);
  bytes::put_u32(out, a.count);
  bytes::put_u32(out, static_cast<std::uint32_t>(a.children.size()));
  for (const UpdateAggChild& c : a.children) {
    bytes::put_u32(out, c.id);
    bytes::put_u64(out, static_cast<std::uint64_t>(c.num_examples));
    bytes::put_f32(out, c.mean_loss);
    bytes::put_f64(out, c.raw_delta_norm);
    bytes::put_u64(out, static_cast<std::uint64_t>(c.wire_bytes));
  }
  std::vector<std::uint8_t> wire;
  compress::serialize_into(a.partial, wire);
  bytes::put_u32(out, static_cast<std::uint32_t>(wire.size()));
  out.insert(out.end(), wire.begin(), wire.end());
  return out;
}

UpdateAggPayload parse_update_agg(std::span<const std::uint8_t> payload) {
  bytes::Reader r(payload);
  UpdateAggPayload a;
  a.base = r.u32();
  a.count = r.u32();
  ADAFL_CHECK_MSG(a.count > 0, "update_agg: empty group");
  const std::uint32_t nc = r.u32();
  ADAFL_CHECK_MSG(nc >= 1 && nc <= a.count,
                  "update_agg: child count " << nc << " outside [1, "
                                             << a.count << "]");
  // Both counts come off the wire: bound nc by the bytes actually present
  // before sizing anything from it. A child record is id, num_examples,
  // mean_loss, raw_delta_norm and wire_bytes.
  constexpr std::size_t kChildBytes = 4 + 8 + 4 + 8 + 8;
  ADAFL_CHECK_MSG(nc <= r.remaining() / kChildBytes,
                  "update_agg: child count " << nc << " exceeds the payload");
  const std::uint64_t end =
      static_cast<std::uint64_t>(a.base) + a.count;
  a.children.resize(nc);
  for (std::uint32_t i = 0; i < nc; ++i) {
    UpdateAggChild& c = a.children[i];
    c.id = r.u32();
    ADAFL_CHECK_MSG(c.id >= a.base && c.id < end,
                    "update_agg: child id " << c.id << " outside group");
    ADAFL_CHECK_MSG(i == 0 || a.children[i - 1].id < c.id,
                    "update_agg: child ids not strictly ascending");
    c.num_examples = static_cast<std::int64_t>(r.u64());
    ADAFL_CHECK_MSG(c.num_examples > 0,
                    "update_agg: non-positive example count");
    c.mean_loss = r.f32();
    ADAFL_CHECK_MSG(std::isfinite(c.mean_loss),
                    "update_agg: non-finite mean loss");
    c.raw_delta_norm = r.f64();
    ADAFL_CHECK_MSG(std::isfinite(c.raw_delta_norm) && c.raw_delta_norm >= 0,
                    "update_agg: invalid raw delta norm");
    c.wire_bytes = static_cast<std::int64_t>(r.u64());
    ADAFL_CHECK_MSG(
        c.wire_bytes >= 0 &&
            c.wire_bytes <= static_cast<std::int64_t>(kMaxFramePayload),
        "update_agg: child wire size out of range");
  }
  const std::uint32_t plen = r.u32();
  ADAFL_CHECK_MSG(r.remaining() == plen, "update_agg: payload size mismatch");
  compress::deserialize_into(r.raw(plen), a.partial);
  ADAFL_CHECK_MSG(a.partial.kind == compress::CodecKind::kTopK,
                  "update_agg: partial is not top-k");
  ADAFL_CHECK_MSG(a.partial.indices.size() == a.partial.values.size(),
                  "update_agg: partial index/value count mismatch");
  for (std::size_t j = 0; j < a.partial.indices.size(); ++j) {
    ADAFL_CHECK_MSG(
        static_cast<std::int64_t>(a.partial.indices[j]) <
            a.partial.dense_size,
        "update_agg: partial index out of range");
    ADAFL_CHECK_MSG(
        j == 0 || a.partial.indices[j - 1] < a.partial.indices[j],
        "update_agg: partial indices not strictly ascending");
    ADAFL_CHECK_MSG(std::isfinite(a.partial.values[j]),
                    "update_agg: non-finite partial value");
  }
  return a;
}

void validate_update_agg(const UpdateAggPayload& a, std::int64_t dense_size,
                         int agg_group, int relay_base, int relay_count) {
  ADAFL_CHECK_MSG(agg_group > 0,
                  "update_agg: server has no aggregation grouping");
  ADAFL_CHECK_MSG(a.count == static_cast<std::uint32_t>(agg_group),
                  "update_agg: group size " << a.count << " != agg_group "
                                            << agg_group);
  ADAFL_CHECK_MSG(a.base % static_cast<std::uint32_t>(agg_group) == 0,
                  "update_agg: group base " << a.base << " not aligned");
  const auto lo = static_cast<std::int64_t>(a.base);
  const auto hi = lo + a.count;
  ADAFL_CHECK_MSG(lo >= relay_base &&
                      hi <= static_cast<std::int64_t>(relay_base) +
                                relay_count,
                  "update_agg: group outside the relay's claimed range");
  ADAFL_CHECK_MSG(a.partial.dense_size == dense_size,
                  "update_agg: partial dimension " << a.partial.dense_size
                                                   << " != " << dense_size);
}

// --- ServerSession. ------------------------------------------------------

ServerSession::ServerSession(ServerSessionConfig cfg, nn::ModelFactory factory,
                             const data::Dataset* test)
    : cfg_(std::move(cfg)),
      factory_(std::move(factory)),
      test_(test),
      eval_model_(factory_()),
      core_(cfg_.params, eval_model_.get_flat()) {
  ADAFL_CHECK_MSG(cfg_.expected_clients > 0,
                  "ServerSession: expected_clients must be positive");
  ADAFL_CHECK_MSG(cfg_.rounds > 0, "ServerSession: rounds must be positive");
  ADAFL_CHECK_MSG(cfg_.quorum >= 0 && cfg_.quorum <= cfg_.expected_clients,
                  "ServerSession: quorum out of range");
  ADAFL_CHECK_MSG(cfg_.params.agg_group >= 0,
                  "ServerSession: negative agg_group");
  const auto n = static_cast<std::size_t>(cfg_.expected_clients);
  ever_joined_.assign(n, false);
  client_conn_.assign(n, kNoConn);
  leaf_relay_.assign(n, -1);
  child_live_.assign(n, 0);
  pending_decode_.assign(n, 0);
  WelcomeInfo w;
  w.rounds = static_cast<std::uint32_t>(cfg_.rounds);
  w.param_count = core_.global().size();
  w.params = cfg_.params;
  w.config = cfg_.client_config;
  welcome_payload_ = encode_welcome(w);
  welcome_frame_bytes_ = std::make_shared<const std::vector<std::uint8_t>>(
      encode_frame(make_frame(MsgType::kWelcome, 0, kServerId,
                              welcome_payload_)));
}

void ServerSession::add_transport(std::unique_ptr<Transport> t) {
  if (!t) return;
  std::lock_guard<std::mutex> lock(pending_mu_);
  pending_.push_back(std::move(t));
}

void ServerSession::attach_event_loop(EventLoop* loop) { loop_ = loop; }

bool ServerSession::direct_connected(int id) const {
  return client_conn_[static_cast<std::size_t>(id)] != kNoConn;
}

bool ServerSession::connected(int id) const {
  if (direct_connected(id)) return true;
  // A live relay route counts a leaf as reachable only while the relay has
  // announced it alive: the relay connection covers N leaves, not 1, so the
  // quorum/deadline math never mistakes one healthy relay for one client.
  return leaf_relay_[static_cast<std::size_t>(id)] >= 0 &&
         child_live_[static_cast<std::size_t>(id)] != 0;
}

std::size_t ServerSession::relay_of(ConnId conn) const {
  std::size_t ridx = 0;
  while (relays_[ridx].conn != conn) ++ridx;
  return ridx;
}

void ServerSession::drop_conn(ConnId conn) {
  const auto it = peers_.find(conn);
  if (it != peers_.end()) {
    const Peer p = std::move(it->second);
    peers_.erase(it);
    switch (p.role) {
      case Peer::Role::kClient:
        client_conn_[static_cast<std::size_t>(p.client)] = kNoConn;
        break;
      case Peer::Role::kRelay:
        drop_relay(relay_of(conn));
        break;
      case Peer::Role::kStandby:
        p.standby->closed.store(true);
        p.standby->cv.notify_all();
        break;
    }
  }
  if (conn < kPolledBase) {
    loop_->close_conn(conn);
  } else if (const auto t = polled_.find(conn); t != polled_.end()) {
    t->second->close();
    polled_.erase(t);
  }
}

void ServerSession::request_stop(bool write_checkpoint) {
  // Only atomic stores: safe to call from a POSIX signal handler.
  if (write_checkpoint) stop_save_.store(true, std::memory_order_relaxed);
  stop_.store(true, std::memory_order_release);
}

void ServerSession::write_checkpoint(
    int next_round, const core::AdaFlServerCore::State& snap) const {
  core::ServerCheckpoint ck;
  ck.producer = "deployed";
  ck.next_round = static_cast<std::uint32_t>(next_round);
  ck.total_rounds = static_cast<std::uint32_t>(cfg_.rounds);
  ck.config_crc = crc32(welcome_payload_);
  ck.global = snap.global;
  core::ServerCheckpoint::AdaFlCoreState a;
  a.g_hat = snap.g_hat;
  a.selected_updates = snap.stats.selected_updates;
  a.skipped_clients = snap.stats.skipped_clients;
  a.min_ratio_used = snap.stats.min_ratio_used;
  a.max_ratio_used = snap.stats.max_ratio_used;
  a.mean_selected_per_round = snap.stats.mean_selected_per_round;
  a.selected_sum = snap.selected_sum;
  a.rounds_planned = snap.rounds_planned;
  ck.adafl = std::move(a);
  // Encode once: the byte image written to disk is the byte image every
  // standby receives, so wire and disk validation are the same code path.
  const std::vector<std::uint8_t> image =
      core::encode_checkpoint_file_bytes(core::encode_server_checkpoint(ck));
  core::write_checkpoint_bytes_atomic(
      core::checkpoint_path(cfg_.checkpoint_dir), image);
  if (cfg_.publisher != nullptr)
    cfg_.publisher->publish(ck.next_round, image, trace_now());
}

int ServerSession::resume_from_checkpoint() {
  const std::string path = core::checkpoint_path(cfg_.checkpoint_dir);
  core::ServerCheckpoint ck = core::load_server_checkpoint(path);
  auto reject = [&path](const std::string& why) {
    throw std::runtime_error("server checkpoint " + path + ": " + why +
                             "; delete the checkpoint or rerun without "
                             "--resume");
  };
  if (ck.producer != "deployed")
    reject("written by '" + ck.producer + "', not the deployed server");
  if (ck.config_crc != crc32(welcome_payload_))
    reject("run configuration changed since the checkpoint was written");
  if (ck.total_rounds != static_cast<std::uint32_t>(cfg_.rounds))
    reject("round count mismatch (checkpoint has " +
           std::to_string(ck.total_rounds) + ", config has " +
           std::to_string(cfg_.rounds) + ")");
  if (ck.next_round > ck.total_rounds)
    reject("run already complete (all " + std::to_string(ck.total_rounds) +
           " rounds done); nothing to resume");
  if (ck.global.size() != core_.global().size())
    reject("model dimension mismatch (checkpoint has " +
           std::to_string(ck.global.size()) + " params, model has " +
           std::to_string(core_.global().size()) + ")");
  if (!ck.adafl) reject("missing AdaFL server state");
  core::AdaFlServerCore::State st;
  st.global = std::move(ck.global);
  st.g_hat = std::move(ck.adafl->g_hat);
  st.stats.selected_updates = ck.adafl->selected_updates;
  st.stats.skipped_clients = ck.adafl->skipped_clients;
  st.stats.min_ratio_used = ck.adafl->min_ratio_used;
  st.stats.max_ratio_used = ck.adafl->max_ratio_used;
  st.stats.mean_selected_per_round = ck.adafl->mean_selected_per_round;
  st.selected_sum = ck.adafl->selected_sum;
  st.rounds_planned = ck.adafl->rounds_planned;
  core_.restore(std::move(st));
  return static_cast<int>(ck.next_round);
}

void ServerSession::drop_all_connections() {
  for (auto& [conn, p] : peers_)
    if (p.standby) {
      p.standby->closed.store(true);
      p.standby->cv.notify_all();
    }
  peers_.clear();
  for (auto& [conn, t] : polled_) t->close();  // abrupt: no SHUTDOWN
  polled_.clear();
  std::fill(client_conn_.begin(), client_conn_.end(), kNoConn);
  relays_.clear();
  std::fill(leaf_relay_.begin(), leaf_relay_.end(), -1);
  std::fill(child_live_.begin(), child_live_.end(), 0);
  loop_->stop();  // closes every loop-owned socket
  std::lock_guard<std::mutex> lock(pending_mu_);
  for (auto& t : pending_) t->close();
  pending_.clear();
}

double ServerSession::trace_now() const {
  return std::chrono::duration<double>(Clock::now() - trace_t0_).count();
}

bool ServerSession::tracing() const {
  return cfg_.tracer != nullptr && cfg_.tracer->enabled();
}

void ServerSession::trace_frame(metrics::TraceEventType type, const Frame& f,
                                int peer) {
  if (tracing())
    cfg_.tracer->record(metrics::ev_frame(
        type, static_cast<int>(f.round), peer, to_string(f.type),
        static_cast<std::int64_t>(f.wire_size()), trace_now()));
}

void ServerSession::book_retransmit(RoundCtx& rc, int id, std::size_t sent) {
  rc.ledger->record_retransmit(id, static_cast<std::int64_t>(sent));
  if (tracing())
    cfg_.tracer->record(metrics::ev_retransmit(
        rc.round, id, static_cast<std::int64_t>(sent), trace_now()));
}

bool ServerSession::send_bytes(ConnId conn, const Frame& f, const Bytes* pre) {
  if (conn < kPolledBase) {
    loop_->send(conn, pre != nullptr
                          ? *pre
                          : std::make_shared<const std::vector<std::uint8_t>>(
                                encode_frame(f)));
    return true;
  }
  const auto it = polled_.find(conn);
  if (it == polled_.end()) return false;
  Transport& t = *it->second;
  if (pre != nullptr ? t.send_encoded(f, *pre) : t.send(f)) return true;
  // Dead peer: close now, reap on the next drain (dropping it here would
  // invalidate relay indices mid-iteration in callers).
  t.close();
  return false;
}

std::size_t ServerSession::send_to(int id, const Frame& f, const Bytes* pre) {
  const ConnId conn = client_conn_[static_cast<std::size_t>(id)];
  if (conn == kNoConn) {
    // Relay-covered leaf: route via its relay with the frame addressed to
    // the leaf (client_id rewritten); the relay forwards it down.
    const int ridx = leaf_relay_[static_cast<std::size_t>(id)];
    if (ridx < 0) return 0;
    Frame rf = f;
    rf.client_id = static_cast<std::uint32_t>(id);
    return send_to_relay(static_cast<std::size_t>(ridx), rf);
  }
  if (!send_bytes(conn, f, pre)) return 0;
  trace_frame(metrics::TraceEventType::kFrameTx, f, id);
  return f.wire_size();
}

void ServerSession::ensure_model_frame(RoundCtx& rc) {
  if (rc.model_bytes) return;
  ModelPayload m;
  m.global = core_.global();
  m.g_hat = core_.g_hat();
  rc.model_frame = make_frame(MsgType::kModel,
                              static_cast<std::uint32_t>(rc.round),
                              kServerId, encode_model(m));
  // Encode the full wire frame once per round; every connection and relay
  // gets the same immutable buffer (10k-client broadcast = one encode).
  rc.model_bytes = std::make_shared<const std::vector<std::uint8_t>>(
      encode_frame(rc.model_frame));
}

void ServerSession::send_model(RoundCtx& rc, int id) {
  ensure_model_frame(rc);
  const bool retransmit = rc.sent_model[static_cast<std::size_t>(id)];
  const std::size_t sent = send_to(id, rc.model_frame, &rc.model_bytes);
  if (sent == 0) return;
  rc.sent_model[static_cast<std::size_t>(id)] = true;
  rc.ledger->record_download(id, static_cast<std::int64_t>(sent));
  if (retransmit) book_retransmit(rc, id, sent);
}

void ServerSession::resend_select(RoundCtx& rc, int id) {
  if (rc.phase != Phase::kUpdate || rc.awaiting.count(id) == 0 ||
      delivered_[static_cast<std::size_t>(id)])
    return;
  const std::size_t sent = send_to(
      id, make_frame(MsgType::kSelect, static_cast<std::uint32_t>(rc.round),
                     kServerId, encode_f64(rc.ratio_of.at(id))));
  if (sent != 0) book_retransmit(rc, id, sent);
}

std::size_t ServerSession::send_to_relay(std::size_t ridx, const Frame& f,
                                         const Bytes* pre) {
  if (!send_bytes(relays_[ridx].conn, f, pre)) return 0;
  trace_frame(metrics::TraceEventType::kFrameTx, f, relay_peer(f));
  return f.wire_size();
}

void ServerSession::send_model_to_relay(RoundCtx& rc, std::size_t ridx) {
  ensure_model_frame(rc);
  const bool retransmit = relays_[ridx].sent_model;
  const std::size_t sent =
      send_to_relay(ridx, rc.model_frame, &rc.model_bytes);
  if (sent == 0) return;
  RelayBinding& rb = relays_[ridx];
  rb.sent_model = true;
  // One MODEL feeds the whole subtree; book it against the range base.
  rc.ledger->record_download(rb.base, static_cast<std::int64_t>(sent));
  if (retransmit) book_retransmit(rc, rb.base, sent);
}

void ServerSession::drop_relay(std::size_t ridx) {
  const RelayBinding& rb = relays_[ridx];
  // Clear the leaves' routes and liveness but keep their round state
  // (scores, awaiting): a promoted standby re-binding the range can still
  // recover the round; unrecovered loss falls to the round deadline exactly
  // as a flat client crash does.
  for (int id = rb.base; id < rb.base + rb.count; ++id) {
    if (leaf_relay_[static_cast<std::size_t>(id)] ==
        static_cast<int>(ridx)) {
      leaf_relay_[static_cast<std::size_t>(id)] = -1;
      child_live_[static_cast<std::size_t>(id)] = 0;
    }
  }
  relays_.erase(relays_.begin() + static_cast<std::ptrdiff_t>(ridx));
  // Compact: bindings above ridx shifted down by one.
  for (auto& r : leaf_relay_)
    if (r > static_cast<int>(ridx)) --r;
}

void ServerSession::handle_relay_hello(RoundCtx& rc,
                                       const RelayHelloPayload& h,
                                       ConnId conn) {
  const int g = cfg_.params.agg_group;
  ADAFL_CHECK_MSG(h.version == kProtocolVersion,
                  "session: relay protocol version mismatch");
  ADAFL_CHECK_MSG(g > 0,
                  "session: relay joined but the run has agg_group == 0");
  const auto base = static_cast<std::int64_t>(h.base);
  const auto count = static_cast<std::int64_t>(h.count);
  ADAFL_CHECK_MSG(base % g == 0 && count % g == 0 &&
                      base + count <= cfg_.expected_clients,
                  "session: relay range [" << base << ", " << base + count
                                           << ") invalid for this run");
  // A rebinding (redialed relay or promoted standby) supersedes any
  // existing binding its range overlaps.
  for (std::size_t i = relays_.size(); i-- > 0;) {
    const RelayBinding& rb = relays_[i];
    if (base < rb.base + rb.count && rb.base < base + count)
      drop_conn(rb.conn);
  }
  const std::size_t ridx = relays_.size();
  relays_.push_back(RelayBinding{static_cast<int>(base),
                                 static_cast<int>(count), conn, false});
  peers_[conn] = Peer{Peer::Role::kRelay, -1, nullptr};
  for (std::int64_t id = base; id < base + count; ++id) {
    leaf_relay_[static_cast<std::size_t>(id)] = static_cast<int>(ridx);
    child_live_[static_cast<std::size_t>(id)] = 0;  // until announced
  }
  // WELCOME: the relay caches the payload verbatim and serves its children.
  send_to_relay(ridx,
                make_frame(MsgType::kWelcome, 0, kServerId, welcome_payload_),
                &welcome_frame_bytes_);
  // In-round catch-up: the current MODEL, which the relay re-broadcasts in
  // the score phase and needs in the update phase to accept this round's
  // SELECTs, then the pending SELECTs for its leaves.
  send_model_to_relay(rc, ridx);
  for (std::int64_t id = base; id < base + count; ++id)
    resend_select(rc, static_cast<int>(id));
}

void ServerSession::handle_relay_frame(RoundCtx& rc, std::size_t ridx,
                                       const Frame& f) {
  const RelayBinding& rb = relays_[ridx];
  const auto in_range = [&rb](std::uint32_t cid) {
    return cid >= static_cast<std::uint32_t>(rb.base) &&
           cid < static_cast<std::uint32_t>(rb.base) +
                     static_cast<std::uint32_t>(rb.count);
  };
  switch (f.type) {
    case MsgType::kUpdateAgg:
      handle_update_agg(rc, ridx, f);
      return;
    case MsgType::kScore: {
      ADAFL_CHECK_MSG(in_range(f.client_id),
                      "session: relayed SCORE for leaf " << f.client_id
                                                         << " out of range");
      const int id = static_cast<int>(f.client_id);
      child_live_[static_cast<std::size_t>(id)] = 1;  // proof of life
      handle_frame(rc, id, f);
      return;
    }
    case MsgType::kHello: {
      // A leaf joined (or rejoined) behind the relay. The relay serves
      // WELCOME/MODEL locally; the root only tracks liveness and re-sends
      // in-flight SELECT state through the route.
      ADAFL_CHECK_MSG(in_range(f.client_id),
                      "session: relayed HELLO for leaf " << f.client_id
                                                         << " out of range");
      const int id = static_cast<int>(f.client_id);
      const bool rejoin = ever_joined_[static_cast<std::size_t>(id)];
      ever_joined_[static_cast<std::size_t>(id)] = true;
      child_live_[static_cast<std::size_t>(id)] = 1;
      if (rejoin) {
        rc.ledger->record_reconnect(id);
        if (tracing())
          cfg_.tracer->record(
              metrics::ev_reconnect(rc.round, id, trace_now()));
      }
      resend_select(rc, id);
      return;
    }
    case MsgType::kChildGone: {
      ADAFL_CHECK_MSG(in_range(f.client_id),
                      "session: CHILD_GONE for leaf " << f.client_id
                                                      << " out of range");
      child_live_[static_cast<std::size_t>(f.client_id)] = 0;
      return;
    }
    case MsgType::kPing:
      send_to_relay(ridx, make_frame(MsgType::kPong, f.round, kServerId));
      return;
    default:
      return;  // PONG, duplicates, unexpected types: ignore
  }
}

void ServerSession::handle_update_agg(RoundCtx& rc, std::size_t ridx,
                                      const Frame& f) {
  if (rc.phase != Phase::kUpdate ||
      f.round != static_cast<std::uint32_t>(rc.round))
    return;  // stale
  const RelayBinding& rb = relays_[ridx];
  UpdateAggPayload a = parse_update_agg(f.payload);
  validate_update_agg(a, static_cast<std::int64_t>(core_.global().size()),
                      cfg_.params.agg_group, rb.base, rb.count);
  const int base = static_cast<int>(a.base);
  const bool upgrade = rc.wire_partials.count(base) != 0;
  if (upgrade) {
    // A group can be legitimately re-shipped with MORE children: the relay
    // flushed without a crashed leaf, the leaf rejoined in-round, and the
    // rebuilt AGG supersedes the committed one. The replacement must cover
    // every previously-committed child (the partial is the whole group's
    // sum) and strictly extend it; anything else is a nudge duplicate —
    // first one won.
    std::set<int> listed;
    for (const UpdateAggChild& c : a.children)
      listed.insert(static_cast<int>(c.id));
    int prev_children = 0;
    bool covers_prev = true;
    for (int id = base; id < base + cfg_.params.agg_group; ++id)
      if (delivered_[static_cast<std::size_t>(id)]) {
        ++prev_children;
        covers_prev = covers_prev && listed.count(id) != 0;
      }
    if (!covers_prev ||
        static_cast<int>(a.children.size()) <= prev_children)
      return;
  }
  for (const UpdateAggChild& c : a.children) {
    const int id = static_cast<int>(c.id);
    ADAFL_CHECK_MSG(rc.awaiting.count(id) != 0,
                    "session: UPDATE-AGG lists unselected leaf " << id);
    if (upgrade && delivered_[static_cast<std::size_t>(id)]) {
      // Re-listed child of the superseded AGG: only valid over a
      // metadata-only slot (a relay cannot claim a direct delivery).
      ADAFL_CHECK_MSG(
          delivery_slots_[static_cast<std::size_t>(id)].meta_only,
          "session: UPDATE-AGG re-lists directly-delivered leaf " << id);
      continue;
    }
    ADAFL_CHECK_MSG(!delivered_[static_cast<std::size_t>(id)],
                    "session: UPDATE-AGG lists already-delivered leaf "
                        << id);
  }
  // Commit: a metadata-only delivery per listed leaf — the coordinates
  // travel pre-summed in the group partial, which apply_round merges in the
  // identical ascending-group order a flat run with the same agg_group uses.
  for (const UpdateAggChild& c : a.children) {
    const int id = static_cast<int>(c.id);
    const bool fresh = !delivered_[static_cast<std::size_t>(id)];
    core::AdaFlDelivery& dl = delivery_slots_[static_cast<std::size_t>(id)];
    dl.msg.kind = compress::CodecKind::kTopK;
    dl.msg.dense_size = static_cast<std::int64_t>(core_.global().size());
    dl.msg.wire_bytes = c.wire_bytes;
    dl.msg.indices.clear();
    dl.msg.values.clear();
    dl.msg.levels.clear();
    dl.num_examples = c.num_examples;
    dl.mean_loss = c.mean_loss;
    dl.raw_delta_norm = c.raw_delta_norm;
    dl.meta_only = true;
    if (fresh) {
      delivered_[static_cast<std::size_t>(id)] = 1;
      ++delivered_count_;
      rc.ledger->record_upload(id, c.wire_bytes, true);
    }
    child_live_[static_cast<std::size_t>(id)] = 1;
  }
  rc.wire_partials[base] = std::move(a.partial);
}

void ServerSession::nudge(RoundCtx& rc) {
  if (rc.phase == Phase::kScore) {
    // Re-broadcast MODEL to connected clients that still owe a score: a
    // MODEL or SCORE lost in flight otherwise stalls the phase until the
    // deadline (or forever, with quorum == n). Clients never retrain a
    // round they already trained, so a redundant MODEL costs bytes only.
    for (int id = 0; id < cfg_.expected_clients; ++id) {
      if (!direct_connected(id) || rc.scored[static_cast<std::size_t>(id)])
        continue;
      send_model(rc, id);
    }
    // One MODEL per relay with any live unscored leaf; the relay re-serves
    // it locally to exactly the children that still owe a score.
    for (std::size_t ridx = 0; ridx < relays_.size(); ++ridx) {
      const RelayBinding& rb = relays_[ridx];
      bool owed = false;
      for (int id = rb.base; id < rb.base + rb.count && !owed; ++id)
        owed = child_live_[static_cast<std::size_t>(id)] != 0 &&
               !rc.scored[static_cast<std::size_t>(id)];
      if (owed) send_model_to_relay(rc, ridx);
    }
    return;
  }
  // Update phase: re-send SELECT to selected clients that have not
  // delivered. A duplicate SELECT makes the client re-send its cached
  // update bytes (it never compresses twice).
  for (int id : rc.awaiting)
    if (connected(id)) resend_select(rc, id);
}

void ServerSession::handle_frame(RoundCtx& rc, int id, const Frame& f) {
  switch (f.type) {
    case MsgType::kScore: {
      if (rc.phase != Phase::kScore ||
          f.round != static_cast<std::uint32_t>(rc.round) ||
          rc.scored[static_cast<std::size_t>(id)])
        return;  // stale or duplicate
      const double s = parse_f64(f.payload);
      ADAFL_CHECK_MSG(s >= 0.0 && s <= 1.0,
                      "session: utility score out of [0,1]");
      rc.scores[static_cast<std::size_t>(id)] = s;
      rc.scored[static_cast<std::size_t>(id)] = true;
      return;
    }
    case MsgType::kPing:
      send_to(id, make_frame(MsgType::kPong, f.round, kServerId));
      return;
    default:
      return;  // PONG, duplicate HELLO, unexpected types: ignore
  }
}

bool ServerSession::service(RoundCtx& rc) {
  // Keep standby leases alive (answer their PINGs) and reap dead ones.
  if (cfg_.publisher != nullptr) cfg_.publisher->service();

  // One drain: the loop's sockets, then every polled transport, into one
  // batch; closed or failed peers of either kind into one reap list.
  // Accepted sockets stay unbound until their first frame arrives.
  loop_->take_accepted();
  std::vector<ConnId> reap = loop_->take_closed();
  frame_batch_.clear();
  loop_->poll_all(frame_batch_);
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    for (auto& t : pending_) polled_.emplace(next_polled_++, std::move(t));
    pending_.clear();
  }
  const auto drained_at = Clock::now();
  for (auto& [conn, t] : polled_) {
    try {
      while (std::optional<Frame> f = t->recv(std::chrono::milliseconds(0)))
        frame_batch_.push_back(InFrame{conn, std::move(*f), drained_at});
      if (t->closed()) reap.push_back(conn);  // EOF noticed
    } catch (const CheckError&) {
      reap.push_back(conn);  // malformed stream
    }
  }
  handle_batch(rc);
  // Reaped after the batch: frames a peer sent before it closed still count.
  for (const ConnId conn : reap) drop_conn(conn);
  return !frame_batch_.empty();
}

void ServerSession::handle_batch(RoundCtx& rc) {
  // Pass 1 (sequential, arrival order): dispatch-latency metric, standby
  // routing, handshakes, and every non-UPDATE frame. Aggregatable UPDATE
  // frames only get collected as decode jobs — one per client at most
  // (pending_decode_), so every job owns a disjoint delivery slot.
  decode_jobs_.clear();
  const auto dispatched_at = Clock::now();
  for (std::size_t i = 0; i < frame_batch_.size(); ++i) {
    const InFrame& inf = frame_batch_[i];
    const Frame& f = inf.frame;
    if (dispatch_hist_ != nullptr)
      dispatch_hist_->observe(std::chrono::duration<double, std::milli>(
                                  dispatched_at - inf.enqueued)
                                  .count());
    const auto peer = peers_.find(inf.conn);
    if (peer == peers_.end()) {
      handle_handshake(rc, inf);
      continue;
    }
    if (peer->second.role == Peer::Role::kStandby) {
      // Replication peer: its frames belong to the publisher, delivered via
      // the shared inbox its StandbyLinkTransport recv()s from. A link the
      // publisher closed gets its connection closed here.
      StandbyLink& link = *peer->second.standby;
      if (link.closed.load()) {
        drop_conn(inf.conn);
        continue;
      }
      {
        std::lock_guard<std::mutex> lk(link.mu);
        link.inbox.push_back(f);
      }
      link.cv.notify_all();
      continue;
    }
    if (peer->second.role == Peer::Role::kRelay) {
      trace_frame(metrics::TraceEventType::kFrameRx, f, relay_peer(f));
      try {
        handle_relay_frame(rc, relay_of(inf.conn), f);
      } catch (const CheckError&) {
        drop_conn(inf.conn);  // hostile relay: drop the whole binding
      }
      continue;
    }
    const int id = peer->second.client;
    trace_frame(metrics::TraceEventType::kFrameRx, f, id);
    if (f.type == MsgType::kUpdate) {
      if (rc.phase == Phase::kUpdate &&
          f.round == static_cast<std::uint32_t>(rc.round) &&
          rc.awaiting.count(id) != 0 &&
          !delivered_[static_cast<std::size_t>(id)] &&
          !pending_decode_[static_cast<std::size_t>(id)]) {
        pending_decode_[static_cast<std::size_t>(id)] = 1;
        decode_jobs_.push_back(DecodeJob{i, id});
      }
      continue;  // stale/duplicate UPDATE: ignored
    }
    try {
      handle_frame(rc, id, f);
    } catch (const CheckError&) {
      drop_conn(inf.conn);  // bad payload: drop, round degrades
    }
  }
  if (decode_jobs_.empty()) return;

  // Pass 2 (parallel): decode every collected UPDATE into its client's
  // private delivery slot. Jobs touch disjoint slots and no shared state;
  // CheckError is captured per job — never thrown across the worker pool.
  // The slot is only marked delivered in pass 3, so a partial decode cannot
  // be aggregated.
  decode_ok_.assign(decode_jobs_.size(), 0);
  const auto jn = static_cast<std::int64_t>(decode_jobs_.size());
  core::parallel_for_blocked(0, jn, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t j = lo; j < hi; ++j) {
      const DecodeJob& job = decode_jobs_[static_cast<std::size_t>(j)];
      core::AdaFlDelivery& dl =
          delivery_slots_[static_cast<std::size_t>(job.client)];
      try {
        parse_update_fields(frame_batch_[job.batch_index].frame.payload, dl);
        dl.meta_only = false;  // reused slot may hold stale relay metadata
        // Reject protocol-valid-but-wrong updates here: the offending peer
        // is dropped and the round degrades. deserialize() already bounds
        // top-k indices by dense_size, so past these two checks apply_round
        // cannot throw on this delivery.
        ADAFL_CHECK_MSG(dl.msg.kind == compress::CodecKind::kTopK,
                        "session: UPDATE from client "
                            << job.client << " carries a non-top-k message");
        ADAFL_CHECK_MSG(
            dl.msg.dense_size ==
                static_cast<std::int64_t>(core_.global().size()),
            "session: UPDATE from client " << job.client
                                           << " dimension mismatch");
        decode_ok_[static_cast<std::size_t>(j)] = 1;
      } catch (const CheckError&) {
        // leave decode_ok_ 0; the offender is dropped below
      }
    }
  });

  // Pass 3 (sequential, batch order): commit decode results.
  for (std::size_t j = 0; j < decode_jobs_.size(); ++j) {
    const DecodeJob& job = decode_jobs_[j];
    const InFrame& inf = frame_batch_[job.batch_index];
    pending_decode_[static_cast<std::size_t>(job.client)] = 0;
    if (!decode_ok_[j]) {
      drop_conn(inf.conn);
      continue;
    }
    delivered_[static_cast<std::size_t>(job.client)] = 1;
    ++delivered_count_;
    rc.ledger->record_upload(
        job.client, static_cast<std::int64_t>(inf.frame.wire_size()), true);
  }
}

void ServerSession::handle_handshake(RoundCtx& rc, const InFrame& inf) {
  // A polled peer dropped earlier in this batch is gone: its later frames
  // must not bind it again. (A dropped loop socket comes back through
  // take_closed() on the next pass, which undoes any such binding.)
  if (inf.conn >= kPolledBase && polled_.count(inf.conn) == 0) return;
  const Frame& f = inf.frame;
  int id = -1;
  try {
    if (f.type == MsgType::kStandbyHello) {
      // A replication peer, not a client: its frames go to the publisher
      // (the connection is dropped when replication is not configured).
      ADAFL_CHECK_MSG(parse_hello(f.payload) == kProtocolVersion,
                      "session: standby protocol version mismatch");
      ADAFL_CHECK_MSG(cfg_.publisher != nullptr,
                      "session: standby but no replication publisher");
      auto link = std::make_shared<StandbyLink>();
      link->send = [this, conn = inf.conn](const Frame& out) {
        return send_bytes(conn, out, nullptr);
      };
      peers_[inf.conn] = Peer{Peer::Role::kStandby, -1, link};
      cfg_.publisher->adopt(
          std::make_unique<StandbyLinkTransport>(std::move(link)));
      return;
    }
    if (f.type == MsgType::kRelayHello) {
      // A mid-tier aggregator announcing its leaf range.
      trace_frame(metrics::TraceEventType::kFrameRx, f, -1);
      handle_relay_hello(rc, parse_relay_hello(f.payload), inf.conn);
      return;
    }
    ADAFL_CHECK_MSG(f.type == MsgType::kHello,
                    "session: expected HELLO, got " << to_string(f.type));
    ADAFL_CHECK_MSG(parse_hello(f.payload) == kProtocolVersion,
                    "session: protocol version mismatch");
    ADAFL_CHECK_MSG(
        f.client_id < static_cast<std::uint32_t>(cfg_.expected_clients),
        "session: client id " << f.client_id << " out of range");
    id = static_cast<int>(f.client_id);
  } catch (const CheckError&) {
    drop_conn(inf.conn);  // bad handshake or invalid claim: drop
    return;
  }
  const auto slot = static_cast<std::size_t>(id);
  if (client_conn_[slot] != kNoConn)
    drop_conn(client_conn_[slot]);  // a redial replaces the stale binding
  client_conn_[slot] = inf.conn;
  peers_[inf.conn] = Peer{Peer::Role::kClient, id, nullptr};
  const bool rejoin = ever_joined_[slot];
  ever_joined_[slot] = true;
  trace_frame(metrics::TraceEventType::kFrameRx, f, id);
  if (rejoin) {
    rc.ledger->record_reconnect(id);
    if (tracing())
      cfg_.tracer->record(metrics::ev_reconnect(rc.round, id, trace_now()));
  }
  send_to(id, make_frame(MsgType::kWelcome, 0, kServerId, welcome_payload_),
          &welcome_frame_bytes_);
  // Catch the joiner up with the in-flight round state.
  if (rc.phase == Phase::kScore && !rc.scored[slot])
    send_model(rc, id);
  else
    resend_select(rc, id);
}

fl::TrainLog ServerSession::run() {
  const int n = cfg_.expected_clients;
  const int quorum = cfg_.quorum > 0 ? cfg_.quorum : n;
  const std::size_t d = core_.global().size();
  const bool ckpt = !cfg_.checkpoint_dir.empty();
  const bool nudge_on = cfg_.retransmit_nudge.count() > 0;

  fl::TrainLog log;
  log.dense_update_bytes = 8 + 4 * static_cast<std::int64_t>(d);
  const auto t0 = Clock::now();
  trace_t0_ = t0;

  metrics::Tracer* const tracer = cfg_.tracer;
  const bool traced = tracer != nullptr && tracer->enabled();
  core_.set_tracer(traced ? tracer : nullptr);

  metrics::Histogram* const round_hist =
      cfg_.registry != nullptr
          ? &cfg_.registry->histogram("server.round_latency_ms")
          : nullptr;
  dispatch_hist_ = cfg_.registry != nullptr
                       ? &cfg_.registry->histogram("server.frame_dispatch_ms")
                       : nullptr;
  if (loop_ == nullptr) {
    own_loop_ = std::make_unique<EventLoop>(EventLoopConfig{});
    loop_ = own_loop_.get();
  }
  loop_->start();

  int start_round = 1;
  if (cfg_.resume) {
    ADAFL_CHECK_MSG(ckpt, "ServerSession: resume requires a checkpoint dir");
    start_round = resume_from_checkpoint();
    resumed_from_ = start_round;
    log.ledger.record_recovery();
    if (traced) {
      tracer->set_start_round(start_round);
      tracer->record(metrics::ev_resume(start_round, trace_now()));
    }
  }

  // Early-stop path (request_stop): persist the round boundary we stopped
  // at — the interrupted round replays on --resume — and drop every peer
  // abruptly, exactly as a crash would.
  auto stop_now = [&](int next_round,
                      const core::AdaFlServerCore::State& snap) {
    if (traced) tracer->flush();  // durable before the checkpoint exists
    if (ckpt && stop_save_.load(std::memory_order_relaxed))
      write_checkpoint(next_round, snap);
    log.interrupted = true;
    drop_all_connections();
    log.applied_updates = core_.stats().selected_updates;
    log.total_time = std::chrono::duration<double>(Clock::now() - t0).count();
  };

  for (int round = start_round; round <= cfg_.rounds; ++round) {
    if (stop_.load(std::memory_order_acquire)) {
      stop_now(round, core_.state());
      return log;
    }
    // Boundary snapshot: plan_round mutates selection stats before
    // apply_round commits the round, so a stop mid-round must persist the
    // state as of the round START, never a half-planned hybrid.
    const core::AdaFlServerCore::State round_start = core_.state();
    const auto round_t0 = Clock::now();

    if (traced) tracer->record(metrics::ev_round_start(round, trace_now()));

    RoundCtx rc;
    rc.round = round;
    rc.phase = Phase::kScore;
    rc.sent_model.assign(static_cast<std::size_t>(n), false);
    rc.scored.assign(static_cast<std::size_t>(n), false);
    rc.scores.assign(static_cast<std::size_t>(n), 0.0);
    rc.ledger = &log.ledger;
    delivery_slots_.resize(static_cast<std::size_t>(n));
    delivered_.assign(static_cast<std::size_t>(n), 0);
    delivered_count_ = 0;
    for (auto& rb : relays_) rb.sent_model = false;

    // Whole-round cap (both phases share it); disabled when 0. A client
    // that scores and then dies can otherwise pin the round to the full
    // per-phase deadline twice over.
    const auto round_deadline_at =
        cfg_.round_total_deadline.count() > 0
            ? Clock::now() + cfg_.round_total_deadline
            : Clock::time_point::max();

    // --- Broadcast the round's model to everyone attached: each direct
    // client gets its own MODEL; each relay gets one, which it re-serves to
    // its whole subtree.
    for (int id = 0; id < n; ++id)
      if (direct_connected(id)) send_model(rc, id);
    for (std::size_t ridx = 0; ridx < relays_.size(); ++ridx)
      send_model_to_relay(rc, ridx);

    // --- Score phase: wait until every live client scored, or the deadline
    // passed with at least a quorum. Late joiners are serviced throughout.
    auto deadline = Clock::now() + cfg_.round_deadline;
    auto nudge_gap = cfg_.retransmit_nudge;
    auto next_nudge = Clock::now() + nudge_gap;
    for (;;) {
      if (stop_.load(std::memory_order_acquire)) break;
      const bool progress = service(rc);
      const int scored = static_cast<int>(
          std::count(rc.scored.begin(), rc.scored.end(), true));
      int live = 0;
      for (int id = 0; id < n; ++id)
        if (connected(id)) ++live;
      if (scored >= quorum &&
          (scored >= live || Clock::now() >= deadline ||
           Clock::now() >= round_deadline_at))
        break;
      // The nudge interval deliberately does NOT reset on progress: a
      // steady trickle of PINGs would otherwise starve the retransmission
      // forever. It DOES back off exponentially within the phase: each
      // firing doubles the gap until the phase ends. A client that is
      // slow because it is busy (a 10k-client fleet training on few
      // cores) must not be spammed with retransmissions every interval —
      // that feedback loop melts the server — while a genuinely lost
      // frame is still recovered after at most the time already waited.
      if (nudge_on && Clock::now() >= next_nudge) {
        nudge(rc);
        nudge_gap *= 2;
        next_nudge = Clock::now() + nudge_gap;
      }
      // Block on the loop's activity signal instead of a dumb sleep: a
      // frame (or a watched datagram) landing mid-wait wakes the pass.
      if (!progress) loop_->wait_activity(cfg_.idle_poll);
    }
    if (stop_.load(std::memory_order_acquire)) {
      stop_now(round, round_start);
      return log;
    }

    // --- Selection + ratio assignment (shared AdaFL server core).
    const core::AdaFlRoundPlan plan =
        core_.plan_round(rc.scores, rc.scored, round);

    rc.phase = Phase::kUpdate;
    for (std::size_t j = 0; j < plan.sel.selected.size(); ++j) {
      const int id = plan.sel.selected[j];
      rc.ratio_of[id] = plan.ratios[j];
      rc.awaiting.insert(id);
      send_to(id, make_frame(MsgType::kSelect,
                             static_cast<std::uint32_t>(round), kServerId,
                             encode_f64(plan.ratios[j])));
    }
    for (int id = 0; id < n; ++id) {
      if (!rc.scored[static_cast<std::size_t>(id)] ||
          rc.awaiting.count(id) != 0)
        continue;
      send_to(id, make_frame(MsgType::kSkip,
                             static_cast<std::uint32_t>(round), kServerId));
    }

    // --- Update phase: aggregate what arrives by the deadline.
    deadline = Clock::now() + cfg_.round_deadline;
    nudge_gap = cfg_.retransmit_nudge;  // backoff restarts with the phase
    next_nudge = Clock::now() + nudge_gap;
    while (delivered_count_ < rc.awaiting.size() &&
           Clock::now() < deadline && Clock::now() < round_deadline_at) {
      if (stop_.load(std::memory_order_acquire)) break;
      const bool progress = service(rc);
      if (nudge_on && Clock::now() >= next_nudge) {
        nudge(rc);
        nudge_gap *= 2;
        next_nudge = Clock::now() + nudge_gap;
      }
      if (!progress) loop_->wait_activity(cfg_.idle_poll);
    }
    if (stop_.load(std::memory_order_acquire)) {
      stop_now(round, round_start);  // the interrupted round replays
      return log;
    }

    core::AdaFlRoundOutcome out;
    {
      metrics::PhaseProfiler::Scope prof("aggregate");
      const auto find = [this](int id) -> const core::AdaFlDelivery* {
        return delivered_[static_cast<std::size_t>(id)]
                   ? &delivery_slots_[static_cast<std::size_t>(id)]
                   : nullptr;
      };
      if (cfg_.params.agg_group > 0) {
        out = core_.apply_round(
            plan, find,
            [&rc](int gbase) -> const compress::EncodedGradient* {
              const auto it = rc.wire_partials.find(gbase);
              return it == rc.wire_partials.end() ? nullptr : &it->second;
            });
      } else {
        out = core_.apply_round(plan, find);
      }
    }

    const double round_mean_loss =
        out.delivered > 0 ? out.loss_sum / static_cast<double>(out.delivered)
                          : 0.0;
    const bool evaled = round % cfg_.eval_every == 0 || round == cfg_.rounds;
    double round_accuracy = 0.0;
    if (evaled) {
      metrics::PhaseProfiler::Scope prof("eval");
      fl::RoundRecord rec;
      rec.round = round;
      rec.time = std::chrono::duration<double>(Clock::now() - t0).count();
      if (test_ != nullptr) {
        eval_model_.set_flat(core_.global());
        if (eval_batch_.size() == 0) eval_batch_ = test_->all();
        rec.test_accuracy = eval_model_.accuracy(eval_batch_);
      }
      rec.mean_train_loss = round_mean_loss;
      rec.participants = out.delivered;
      round_accuracy = rec.test_accuracy;
      log.records.push_back(rec);
    }

    if (traced) {
      tracer->record(metrics::ev_round_end(round, out.delivered,
                                           round_mean_loss, evaled,
                                           round_accuracy, trace_now()));
      // Flush BEFORE the checkpoint below: the stitched crash-recovery
      // trace relies on the file always covering at least the rounds the
      // checkpoint says are done.
      tracer->flush();
    }

    if (round_hist != nullptr)
      round_hist->observe(
          std::chrono::duration<double, std::milli>(Clock::now() - round_t0)
              .count());

    // --- Durable progress: the round is committed, persist it.
    if (ckpt &&
        (round % cfg_.checkpoint_every == 0 || round == cfg_.rounds)) {
      write_checkpoint(round + 1, core_.state());
      if (traced)
        tracer->record(metrics::ev_checkpoint(
            round, core::checkpoint_path(cfg_.checkpoint_dir), trace_now()));
    }
  }

  // --- Orderly shutdown: SHUTDOWN to every client and relay (a relay
  // broadcasts it to its subtree and exits), then stand the standbys down —
  // SIGKILL never reaches this, which is exactly when promotion is wanted.
  // Loop sends are async, so drain them before closing: the final frames
  // must actually leave the box.
  const Frame sd = make_frame(MsgType::kShutdown, 0, kServerId);
  const Bytes sd_bytes =
      std::make_shared<const std::vector<std::uint8_t>>(encode_frame(sd));
  for (int id = 0; id < n; ++id)
    if (direct_connected(id)) send_to(id, sd, &sd_bytes);
  for (std::size_t ridx = 0; ridx < relays_.size(); ++ridx)
    send_to_relay(ridx, sd, &sd_bytes);
  if (cfg_.publisher != nullptr) cfg_.publisher->shutdown_standbys();
  loop_->flush(std::chrono::milliseconds(2000));
  drop_all_connections();

  if (traced) tracer->flush();
  core_.set_tracer(nullptr);
  log.applied_updates = core_.stats().selected_updates;
  log.total_time = std::chrono::duration<double>(Clock::now() - t0).count();
  return log;
}

// --- ClientSession. ------------------------------------------------------

namespace {

/// Rotation budget per endpoint when backoff retries forever
/// (max_attempts == 0): a multi-endpoint client must still fail over to
/// its standby instead of pinning a dead primary indefinitely.
constexpr int kUnboundedRotateAttempts = 4;

}  // namespace

ClientSession::ClientSession(ClientSessionConfig cfg, DialFn dial,
                             BootstrapFn bootstrap)
    : cfg_(std::move(cfg)),
      endpoint_count_(1),
      bootstrap_(std::move(bootstrap)) {
  ADAFL_CHECK_MSG(cfg_.client_id >= 0, "ClientSession: negative client id");
  ADAFL_CHECK_MSG(dial != nullptr && bootstrap_ != nullptr,
                  "ClientSession: null callback");
  dial_ = [d = std::move(dial)](std::size_t) { return d(); };
}

ClientSession::ClientSession(ClientSessionConfig cfg, IndexedDialFn dial,
                             std::size_t endpoint_count,
                             BootstrapFn bootstrap)
    : cfg_(std::move(cfg)),
      dial_(std::move(dial)),
      endpoint_count_(endpoint_count),
      bootstrap_(std::move(bootstrap)) {
  ADAFL_CHECK_MSG(cfg_.client_id >= 0, "ClientSession: negative client id");
  ADAFL_CHECK_MSG(dial_ != nullptr && bootstrap_ != nullptr,
                  "ClientSession: null callback");
  ADAFL_CHECK_MSG(endpoint_count_ >= 1,
                  "ClientSession: empty endpoint list");
}

ClientRunStats ClientSession::run() {
  ClientRunStats st;
  const auto cid = static_cast<std::uint32_t>(cfg_.client_id);

  std::unique_ptr<Transport> conn;
  bool ever_connected = false;

  std::optional<fl::FlClient> client;
  core::AdaFlParams params;
  std::optional<compress::DgcCompressor> comp;

  // Round-local training state; survives reconnects by design so a TCP drop
  // never resets DGC error feedback or retrains a round.
  fl::FlClient::LocalResult res;
  int trained_round = 0;
  int uploaded_round = 0;
  int skipped_round = 0;
  UpdatePayload update;                     ///< reused compression output
  std::vector<std::uint8_t> wire_scratch;   ///< reused wire staging buffer
  std::vector<std::uint8_t> cached_update;  ///< UPDATE payload, uploaded_round

  auto last_rx = Clock::now();
  auto last_ping = last_rx;

  // Endpoint rotation + the redial budget. `ep_attempts` counts failed
  // dials against the current endpoint and deliberately persists across
  // disconnect episodes — a connection that comes up and dies again without
  // the client finishing a round keeps draining the same budget, so a
  // flapping endpoint is eventually abandoned. Completing a round (UPDATE
  // sent or SKIP processed) resets it: periodic blips over a long healthy
  // run can never cumulatively exhaust the schedule.
  std::size_t endpoint = 0;
  int ep_attempts = 0;
  std::size_t dead_endpoints = 0;  ///< consecutive endpoints exhausted

  const auto run_t0 = Clock::now();
  metrics::Tracer* const tracer = cfg_.tracer;
  const bool traced = tracer != nullptr && tracer->enabled();
  auto tnow = [&] {
    return std::chrono::duration<double>(Clock::now() - run_t0).count();
  };
  auto send = [&](const Frame& fr) {
    if (conn->send(fr) && traced)
      tracer->record(metrics::ev_frame(
          metrics::TraceEventType::kFrameTx, static_cast<int>(fr.round),
          cfg_.client_id, to_string(fr.type),
          static_cast<std::int64_t>(fr.wire_size()), tnow()));
  };

  for (;;) {
    if (!conn || conn->closed()) {
      conn.reset();
      const int budget = cfg_.backoff.max_attempts > 0
                             ? cfg_.backoff.max_attempts
                             : kUnboundedRotateAttempts;
      for (;;) {
        if (ep_attempts >= budget) {
          // Endpoint exhausted: rotate to the next one with a fresh (fast)
          // schedule. Give up only when a bounded budget has burned through
          // the whole list with no endpoint answering in between.
          if (cfg_.backoff.max_attempts > 0 &&
              ++dead_endpoints >= endpoint_count_) {
            if (traced) tracer->flush();
            return st;  // gave up; completed stays false
          }
          endpoint = (endpoint + 1) % endpoint_count_;
          ep_attempts = 0;
          if (endpoint_count_ > 1) ++st.endpoint_rotations;
          continue;
        }
        if (ep_attempts > 0 || ever_connected)
          std::this_thread::sleep_for(cfg_.backoff.delay(ep_attempts));
        conn = dial_(endpoint);
        if (conn) {
          dead_endpoints = 0;
          break;
        }
        ++ep_attempts;
      }
      if (ever_connected) {
        ++st.reconnects;
        if (traced)
          tracer->record(
              metrics::ev_reconnect(trained_round, cfg_.client_id, tnow()));
      }
      ever_connected = true;
      send(make_frame(MsgType::kHello, 0, cid,
                      encode_hello(kProtocolVersion)));
      last_rx = Clock::now();
      continue;
    }

    std::optional<Frame> f;
    try {
      f = conn->recv(cfg_.recv_poll);
    } catch (const CheckError&) {
      conn->close();  // malformed server stream: reconnect
      continue;
    }
    const auto now = Clock::now();
    if (!f) {
      if (conn->closed()) continue;
      if (now - last_rx > cfg_.liveness_timeout) {
        conn->close();  // server unresponsive: redial
        continue;
      }
      if (now - last_rx > cfg_.heartbeat_interval &&
          now - last_ping > cfg_.heartbeat_interval) {
        send(make_frame(MsgType::kPing, 0, cid));
        last_ping = now;
      }
      continue;
    }
    last_rx = now;
    if (traced)
      tracer->record(metrics::ev_frame(
          metrics::TraceEventType::kFrameRx, static_cast<int>(f->round),
          cfg_.client_id, to_string(f->type),
          static_cast<std::int64_t>(f->wire_size()), tnow()));

    // Handler parse failures get the same treatment as framing errors:
    // close and redial. Training state is round-local and survives, so a
    // one-off corrupt payload costs a reconnect, not the session.
    try {
      switch (f->type) {
        case MsgType::kWelcome: {
          const WelcomeInfo w = parse_welcome(f->payload);
          params = w.params;
          if (!client)
            client.emplace(bootstrap_(w.config, cfg_.client_id, params));
          ADAFL_CHECK_MSG(
              static_cast<std::uint64_t>(client->param_count()) ==
                  w.param_count,
              "session: bootstrap model has " << client->param_count()
                                              << " params, server expects "
                                              << w.param_count);
          if (!comp)
            comp.emplace(static_cast<std::int64_t>(w.param_count),
                         params.dgc);
          break;
        }
        case MsgType::kModel: {
          if (!client) break;  // WELCOME must precede MODEL
          const ModelPayload m = parse_model(f->payload);
          ADAFL_CHECK_MSG(
              m.global.size() ==
                  static_cast<std::size_t>(client->param_count()),
              "session: MODEL dimension mismatch");
          const int round = static_cast<int>(f->round);
          if (trained_round != round) {  // a re-sent MODEL never retrains
            metrics::PhaseProfiler::Scope prof("client-train");
            client->train_from_into(m.global, res);
            trained_round = round;
            ++st.rounds_trained;
          }
          const double score = core::utility_score(
              params.utility, res.delta, m.g_hat, params.utility.bw_ref,
              params.utility.bw_ref);
          send(make_frame(MsgType::kScore, f->round, cid,
                          encode_f64(score)));
          break;
        }
        case MsgType::kSelect: {
          const int round = static_cast<int>(f->round);
          if (round != trained_round || !comp) break;  // stale selection
          if (uploaded_round != round) {
            metrics::PhaseProfiler::Scope prof("compress");
            const double ratio = parse_f64(f->payload);
            comp->compress_into(res.delta, ratio, update.msg);
            update.num_examples = res.num_examples;
            update.mean_loss = res.mean_loss;
            update.raw_delta_norm = tensor::l2_norm(res.delta);
            encode_update_into(update, cached_update, wire_scratch);
            uploaded_round = round;
          }
          // A duplicate SELECT (reconnect race) re-sends the cached bytes —
          // compressing twice would corrupt the DGC residual.
          send(make_frame(MsgType::kUpdate, f->round, cid, cached_update));
          ++st.updates_sent;
          ep_attempts = 0;  // round completed: refill the redial budget
          dead_endpoints = 0;
          break;
        }
        case MsgType::kSkip: {
          const int round = static_cast<int>(f->round);
          if (round != trained_round || !comp || skipped_round == round)
            break;
          skipped_round = round;
          if (params.accumulate_unselected) comp->accumulate(res.delta);
          ++st.skips;
          ep_attempts = 0;  // round completed: refill the redial budget
          dead_endpoints = 0;
          break;
        }
        case MsgType::kPing:
          send(make_frame(MsgType::kPong, f->round, cid));
          break;
        case MsgType::kShutdown:
          st.completed = true;
          conn->close();
          if (traced) tracer->flush();
          return st;
        default:
          break;  // PONG and anything unexpected: ignore
      }
    } catch (const CheckError&) {
      conn->close();  // malformed server payload: reconnect and resync
    }
  }
}

}  // namespace adafl::net::transport
