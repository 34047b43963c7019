#include "net/routing_client.hpp"

#include <algorithm>
#include <thread>
#include <utility>

namespace wbsn::net {

namespace {
constexpr std::size_t kRecvChunk = 64 * 1024;

void accumulate(SnapshotPayload& into, const SnapshotPayload& s) {
  into.submitted += s.submitted;
  into.completed += s.completed;
  into.retrieved += s.retrieved;
  into.shed_routine += s.shed_routine;
  into.shed_urgent += s.shed_urgent;
  into.rejected += s.rejected;
  into.deadline_violations += s.deadline_violations;
  into.unsolved += s.unsolved;
  into.ready += s.ready;
  into.lost += s.lost;
}
}  // namespace

RoutingClient::RoutingClient(RoutingClientConfig cfg) : cfg_(std::move(cfg)) {}

RoutingClient::~RoutingClient() { shutdown(false); }

bool RoutingClient::connect(std::vector<ShardEndpoint> shards) {
  shutdown(false);
  conns_.clear();
  topology_.reset();
  pending_.clear();
  retired_ = {};
  pipeline_submits_.clear();
  cr_hints_.clear();
  shard_advisory_.clear();
  hints_epoch_ = ~std::uint64_t{0};
  if (shards.empty()) return false;
  // All or nothing: a partly filled table would route into missing slots.
  std::vector<std::unique_ptr<Conn>> conns;
  for (auto& ep : shards) {
    auto conn = std::make_unique<Conn>();
    conn->endpoint = std::move(ep);
    conn->index = conns.size();
    if (!ensure_connected(*conn)) return false;
    conns.push_back(std::move(conn));
  }
  conns_ = std::move(conns);
  topology_.emplace(conns_.size());
  return true;
}

bool RoutingClient::fail_shard(std::size_t shard) {
  if (!topology_ || !topology_->fail(shard)) return false;  // No handshake: the peer is gone.
  Conn& conn = *conns_[shard];
  // Unacked pipelined windows resolve to nullopt at the next
  // flush_submits() and are never retried: the dead shard may have
  // admitted them, and a resubmit elsewhere could double-count.
  fail_pipeline(conn);
  // The dead shard cannot surrender a final snapshot; the client's own
  // mirrors stand in.  (Windows the shard shed before dying are
  // indistinguishable from lost windows out here, and are counted lost.)
  // Its latency histograms and per-patient SLO history die with it.
  host::CrashLedger tally;
  tally.submitted = conn.acked_submits;
  tally.completed = conn.retrieved;
  tally.rejected = conn.rejected_seen;
  topology_->fold_crash(tally);
  conns_[shard].reset();  // Closes the socket; never reconnected.
  return true;
}

bool RoutingClient::probe_health(std::size_t shard) {
  if (shard >= conns_.size() || !conns_[shard]) return false;
  Conn& conn = *conns_[shard];
  if (!sync_pipeline(conn)) return false;
  std::vector<std::uint8_t> buf;
  const std::uint64_t nonce = ++conn.health_nonce;
  if (conn.version >= 2) {
    encode_health(buf, nonce);
  } else {
    // v1 shard: no HEALTH verb; a snapshot round trip carries the same
    // liveness signal at slightly higher cost.
    encode_snapshot_request(buf);
  }
  if (!send_request(conn, buf, /*may_retry=*/true)) return false;
  // Tighten the receive deadline for the probe itself: io_timeout_ms is
  // sized for verbs that legitimately wait (drains); "dead or deadlined"
  // must be decidable much faster.
  const bool tighten = cfg_.health_probe_timeout_ms > 0;
  if (tighten) (void)set_recv_timeout(conn.fd.get(), cfg_.health_probe_timeout_ms);
  std::vector<std::uint8_t> frame;
  FrameView view;
  const bool got_frame = read_frame(conn, frame, view);
  if (tighten && conn.fd.valid()) (void)set_recv_timeout(conn.fd.get(), cfg_.io_timeout_ms);
  if (!got_frame) return false;
  bool answered = false;
  if (conn.version >= 2) {
    HealthAckPayload ack;
    answered = view.type == FrameType::kHealthAck && decode_health_ack(view.payload, ack) &&
               ack.nonce == nonce;
  } else {
    SnapshotPayload snap;
    answered = view.type == FrameType::kSnapshot && decode_snapshot(view.payload, snap);
  }
  if (!answered) conn.fd.reset();  // Wrong answer or a stale echo: desynchronized.
  return answered;
}

std::vector<std::size_t> RoutingClient::check_health() {
  std::vector<std::size_t> dead;
  for (std::size_t shard = 0; shard < conns_.size(); ++shard) {
    if (!conns_[shard]) continue;
    if (probe_health(shard)) continue;
    dead.push_back(shard);
    if (cfg_.auto_failover) (void)fail_shard(shard);
  }
  return dead;
}

bool RoutingClient::ensure_connected(Conn& conn) {
  if (conn.fd.valid()) return true;
  return reconnect(conn);
}

int RoutingClient::backoff_delay_ms(int attempt, int base_ms, int max_ms,
                                    std::uint64_t seed) {
  if (attempt <= 0 || base_ms <= 0) return 0;
  if (max_ms < base_ms) max_ms = base_ms;
  // Saturating doubling: base·2^(attempt-1), clamped at the cap *inside*
  // the loop so the product can never overflow int however large
  // reconnect_attempts is (the original bug: unbounded `backoff_ms *= 2`).
  std::int64_t delay = base_ms;
  for (int i = 1; i < attempt && delay < max_ms; ++i) delay *= 2;
  delay = std::min<std::int64_t>(delay, max_ms);
  // Deterministic jitter, up to +25%: a fleet of coordinators retrying one
  // recovering shard de-synchronizes (no thundering herd), yet any given
  // (seed, attempt) schedule replays exactly — what the unit test pins.
  const std::uint64_t h = host::splitmix64(seed ^ static_cast<std::uint64_t>(attempt));
  delay += static_cast<std::int64_t>(h % (static_cast<std::uint64_t>(delay) / 4 + 1));
  return static_cast<int>(delay);
}

bool RoutingClient::reconnect(Conn& conn) {
  conn.fd.reset();
  conn.rx.clear();
  // Pipelined submits whose ACK was outstanding on the dead connection
  // are lost, never retried (a retry could double-submit): their tickets
  // resolve to nullopt at the next flush_submits().
  fail_pipeline(conn);
  // Jitter seed: stable per (shard slot, endpoint), distinct across a
  // fleet of clients pointed at different shards.
  const std::uint64_t seed = host::splitmix64(
      (static_cast<std::uint64_t>(conn.index) << 16) ^ conn.endpoint.port);
  for (int attempt = 0; attempt <= cfg_.reconnect_attempts; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_delay_ms(
          attempt, cfg_.reconnect_backoff_ms, cfg_.reconnect_backoff_max_ms, seed)));
    }
    Fd fd = tcp_connect(conn.endpoint.host, conn.endpoint.port, cfg_.connect_timeout_ms,
                        cfg_.io_timeout_ms);
    if (!fd.valid()) continue;
    conn.fd = std::move(fd);
    // Version negotiation before anything else on the connection: offer
    // the full window, accept whatever mutual ceiling the shard picks.
    std::vector<std::uint8_t> buf;
    encode_hello(buf, HelloPayload{kWireVersionMin, cfg_.max_wire_version});
    if (!send_all(conn.fd.get(), buf.data(), buf.size())) {
      conn.fd.reset();
      continue;
    }
    std::vector<std::uint8_t> frame;
    FrameView view;
    std::uint8_t version = 0;
    if (!read_frame(conn, frame, view) || view.type != FrameType::kHelloAck ||
        !decode_hello_ack(view.payload, version) || version < kWireVersionMin ||
        version > cfg_.max_wire_version) {
      conn.fd.reset();
      continue;
    }
    conn.version = version;
    return true;
  }
  return false;
}

bool RoutingClient::send_request(Conn& conn, const std::vector<std::uint8_t>& buf,
                                 bool may_retry) {
  if (!ensure_connected(conn)) return false;
  // Scripted teardown at this exact frame boundary (tests only): the
  // connection dies before the frame reaches the wire, driving the same
  // failure paths a real mid-stream crash does — deterministically.
  if (cfg_.fault_inject && cfg_.fault_inject(conn.index, conn.frames_sent)) {
    conn.fd.reset();
  }
  ++conn.frames_sent;
  if (conn.fd.valid() && send_all(conn.fd.get(), buf.data(), buf.size())) return true;
  if (!may_retry) {
    conn.fd.reset();
    return false;
  }
  return reconnect(conn) && send_all(conn.fd.get(), buf.data(), buf.size());
}

bool RoutingClient::read_frame(Conn& conn, std::vector<std::uint8_t>& frame,
                               FrameView& view) {
  if (!conn.fd.valid()) return false;
  for (;;) {
    FrameView peek;
    const auto status = peek_frame(conn.rx, peek);
    if (status == FrameStatus::kOk) {
      frame.assign(conn.rx.begin(), conn.rx.begin() + peek.frame_bytes);
      conn.rx.erase(conn.rx.begin(), conn.rx.begin() + peek.frame_bytes);
      // Re-peek against the stable copy so the view outlives conn.rx.
      return peek_frame(frame, view) == FrameStatus::kOk;
    }
    if (status != FrameStatus::kNeedMore) {
      conn.fd.reset();  // Corrupt or desynchronized stream; resync via reconnect.
      return false;
    }
    std::uint8_t chunk[kRecvChunk];
    const long n = recv_some(conn.fd.get(), chunk, sizeof(chunk));
    if (n <= 0) {
      conn.fd.reset();
      return false;
    }
    conn.rx.insert(conn.rx.end(), chunk, chunk + n);
  }
}

void RoutingClient::fail_pipeline(Conn& conn) {
  while (!conn.pending_submits.empty()) {
    auto& record = pipeline_submits_[conn.pending_submits.front()];
    conn.pending_submits.pop_front();
    record.resolved = true;
    record.ticket = std::nullopt;
  }
  conn.staged_bodies.clear();
  conn.staged_count = 0;
  conn.outstanding_counts.clear();
}

bool RoutingClient::harvest_ack(Conn& conn) {
  if (conn.outstanding_counts.empty()) return true;
  std::vector<std::uint8_t> frame;
  FrameView view;
  std::vector<SubmitBatchAckEntry> entries;
  if (!read_frame(conn, frame, view) || view.type != FrameType::kSubmitBatchAck ||
      !decode_submit_batch_ack(view.payload, entries) ||
      entries.size() != conn.outstanding_counts.front() ||
      entries.size() > conn.pending_submits.size()) {
    conn.fd.reset();
    fail_pipeline(conn);
    return false;
  }
  conn.outstanding_counts.pop_front();
  for (const auto& entry : entries) {
    // FIFO pairing: ACK entries arrive in submit order, exactly the order
    // pending_submits was filled — composition deferred until right here.
    auto& record = pipeline_submits_[conn.pending_submits.front()];
    conn.pending_submits.pop_front();
    record.resolved = true;
    if (entry.accepted) {
      ++conn.acked_submits;
      record.ticket = host::Topology::compose_ticket(record.epoch, record.shard,
                                                     entry.local_ticket);
    } else {
      ++conn.rejected_seen;
    }
  }
  return true;
}

bool RoutingClient::seal_batch(Conn& conn) {
  if (conn.staged_count == 0) return true;
  if (!conn.fd.valid()) {
    fail_pipeline(conn);
    return false;
  }
  // Scatter-gather seal: the frame header + count prefix (final length —
  // known now), the staged bodies untouched, and the streaming-CRC
  // trailer go out in one sendmsg; the bodies are never re-assembled into
  // a contiguous frame.  thread_local staging keeps the steady state
  // allocation-free (the client is single-coordinator by contract).
  static thread_local std::vector<std::uint8_t> prefix;
  static thread_local std::vector<std::uint8_t> trailer;
  prefix.clear();
  trailer.clear();
  encode_submit_batch_prefix(prefix, kSubmitFlagBlocking, conn.staged_count,
                             conn.staged_bodies.size());
  encode_submit_batch_trailer(trailer, prefix, conn.staged_bodies);
  const ConstBuf bufs[3] = {{prefix.data(), prefix.size()},
                            {conn.staged_bodies.data(), conn.staged_bodies.size()},
                            {trailer.data(), trailer.size()}};
  // The sealed batch is one frame on the wire: one fault-hook boundary.
  if (cfg_.fault_inject && cfg_.fault_inject(conn.index, conn.frames_sent)) {
    conn.fd.reset();
  }
  ++conn.frames_sent;
  const bool sent = conn.fd.valid() && send_all_vec(conn.fd.get(), bufs, 3);
  conn.staged_bodies.clear();
  const auto frame_windows = static_cast<std::size_t>(conn.staged_count);
  conn.staged_count = 0;
  if (!sent) {
    conn.fd.reset();
    fail_pipeline(conn);
    return false;
  }
  conn.outstanding_counts.push_back(frame_windows);
  // Bounded outgoing window: at most pipeline_depth unacknowledged frames
  // ride the wire; beyond that the submitter absorbs the shard's pace.
  while (conn.outstanding_counts.size() > cfg_.pipeline_depth) {
    if (!harvest_ack(conn)) return false;
  }
  return true;
}

bool RoutingClient::sync_pipeline(Conn& conn) {
  if (!seal_batch(conn)) return false;
  while (!conn.outstanding_counts.empty()) {
    if (!harvest_ack(conn)) return false;
  }
  return true;
}

bool RoutingClient::submit_pipelined(host::CompressedWindow&& window) {
  for (std::size_t hop = 0; topology_ && hop <= conns_.size(); ++hop) {
    const std::uint32_t epoch = topology_->epoch();
    const std::size_t shard = topology_->owner(window.patient_id);
    Conn& conn = *conns_[shard];
    if (conn.version < 2 || cfg_.pipeline_depth == 0) {
      // v1 shard (or pipelining off): same blocking-admission semantics,
      // one round trip per window — the transparent fallback path.
      auto ticket = submit_window(window, /*blocking=*/true);
      pipeline_submits_.push_back({epoch, shard, true, ticket});
      return ticket.has_value();
    }
    if (!ensure_connected(conn)) {
      // Unreachable after retries.  This window is still in hand (never
      // staged), so after a failover it re-routes loss-free; staged or
      // on-the-wire windows stay failed per the no-resubmit rule.
      if (cfg_.auto_failover && fail_shard(shard)) continue;
      pipeline_submits_.push_back({epoch, shard, true, std::nullopt});
      return false;
    }
    window.route_tag = epoch;
    topology_->note_patient(window.patient_id);
    encode_submit_batch_entry(conn.staged_bodies, window, cfg_.wire);
    if (cfg_.payload_pool) cfg_.payload_pool->recycle(std::move(window));
    ++conn.staged_count;
    conn.pending_submits.push_back(pipeline_submits_.size());
    pipeline_submits_.push_back({epoch, shard, false, std::nullopt});
    if (conn.staged_count >= cfg_.windows_per_submit_frame) return seal_batch(conn);
    return true;
  }
  // No topology open: still one (failed) entry for this call.
  if (!topology_) pipeline_submits_.push_back({0, 0, true, std::nullopt});
  return false;
}

std::vector<std::optional<std::uint64_t>> RoutingClient::flush_submits() {
  for (auto& conn : conns_) {
    if (conn) (void)sync_pipeline(*conn);
  }
  std::vector<std::optional<std::uint64_t>> out;
  out.reserve(pipeline_submits_.size());
  for (const auto& record : pipeline_submits_) {
    out.push_back(record.resolved ? record.ticket : std::nullopt);
  }
  pipeline_submits_.clear();
  return out;
}

std::uint8_t RoutingClient::shard_wire_version(std::size_t shard) const {
  return shard < conns_.size() && conns_[shard] ? conns_[shard]->version : 0;
}

std::optional<std::uint64_t> RoutingClient::try_submit(host::CompressedWindow&& window) {
  return submit_window(window, /*blocking=*/false);
}

std::optional<std::uint64_t> RoutingClient::submit(host::CompressedWindow window) {
  return submit_window(window, /*blocking=*/true);
}

std::optional<std::uint64_t> RoutingClient::submit_window(host::CompressedWindow& window,
                                                          bool blocking) {
  // The loop re-routes after a failover (at most once per shard that can
  // die); without auto_failover it runs exactly one iteration.
  for (std::size_t hop = 0; topology_ && hop <= conns_.size(); ++hop) {
    const std::uint32_t epoch = topology_->epoch();
    const std::size_t shard = topology_->owner(window.patient_id);
    Conn& conn = *conns_[shard];
    (void)sync_pipeline(conn);  // Responses are per-connection ordered.
    window.route_tag = epoch;
    std::vector<std::uint8_t> buf;
    encode_submit_window(buf, window, blocking ? kSubmitFlagBlocking : 0, cfg_.wire);
    std::vector<std::uint8_t> frame;
    FrameView view;
    if (send_request(conn, buf, /*may_retry=*/false) && read_frame(conn, frame, view)) {
      if (view.type == FrameType::kSubmitReject) {
        ++conn.rejected_seen;  // Alive and pushing back — not a failure.
        return std::nullopt;
      }
      std::uint64_t local = 0;
      if (view.type == FrameType::kSubmitAck && decode_submit_ack(view.payload, local)) {
        ++conn.acked_submits;
        topology_->note_patient(window.patient_id);
        if (cfg_.payload_pool) cfg_.payload_pool->recycle(std::move(window));
        return host::Topology::compose_ticket(epoch, shard, local);
      }
    }
    conn.fd.reset();
    // No ACK arrived, so this window never entered the shard's mirror:
    // re-routing it to the survivor that now owns the patient cannot
    // double-count, and the dead shard can never answer for it again.
    if (!cfg_.auto_failover || !fail_shard(shard)) return std::nullopt;
  }
  return std::nullopt;
}

void RoutingClient::accept_result(Conn& conn, host::WindowResult&& result) {
  result.ticket = topology_->result_ticket(result);
  pending_.push_back(std::move(result));
  ++conn.retrieved;
}

bool RoutingClient::read_poll_results(Conn& conn) {
  for (;;) {
    std::vector<std::uint8_t> frame;
    FrameView view;
    if (!read_frame(conn, frame, view)) return false;
    if (view.type == FrameType::kPollEnd) {
      std::uint32_t count = 0;
      return decode_poll_end(view.payload, count);
    }
    if (view.type != FrameType::kResult) {
      conn.fd.reset();
      return false;
    }
    host::WindowResult result;
    if (!decode_result(view.payload, result, cfg_.payload_pool.get())) {
      conn.fd.reset();
      return false;
    }
    accept_result(conn, std::move(result));
  }
}

bool RoutingClient::sweep_shard(Conn& conn, bool may_retry) {
  (void)sync_pipeline(conn);
  std::vector<std::uint8_t> buf;
  if (conn.version >= 2) {
    // One POLL_MANY, one RESULT_BATCH — K results per round trip.
    encode_poll_many(buf, kPollBatch);
    if (!send_request(conn, buf, may_retry)) return false;
    std::vector<std::uint8_t> frame;
    FrameView view;
    std::vector<host::WindowResult> results;
    if (!read_frame(conn, frame, view) || view.type != FrameType::kResultBatch ||
        !decode_result_batch(view.payload, results, cfg_.payload_pool.get())) {
      conn.fd.reset();
      return false;
    }
    for (auto& result : results) accept_result(conn, std::move(result));
    return true;
  }
  encode_poll(buf, kPollBatch);
  if (!send_request(conn, buf, may_retry)) return false;
  return read_poll_results(conn);
}

void RoutingClient::sweep_all() {
  for (std::size_t shard = 0; shard < conns_.size(); ++shard) {
    if (!conns_[shard]) continue;
    if (!sweep_shard(*conns_[shard], /*may_retry=*/true) && cfg_.auto_failover) {
      (void)fail_shard(shard);
    }
  }
}

std::optional<host::WindowResult> RoutingClient::poll() {
  if (pending_.empty()) sweep_all();
  if (pending_.empty()) return std::nullopt;
  auto result = std::move(pending_.front());
  pending_.pop_front();
  return result;
}

std::vector<host::WindowResult> RoutingClient::drain() {
  std::vector<host::WindowResult> all;
  for (;;) {
    // Sweep every live shard, then check fleet-wide quiescence.
    sweep_all();
    while (!pending_.empty()) {
      all.push_back(std::move(pending_.front()));
      pending_.pop_front();
    }
    bool quiesced = true;
    for (std::size_t shard = 0; shard < conns_.size(); ++shard) {
      if (!conns_[shard]) continue;
      SnapshotPayload snap;
      if (!fetch_snapshot(*conns_[shard], snap)) {
        if (cfg_.auto_failover) (void)fail_shard(shard);
        continue;  // Unreachable: nothing left to wait on there.
      }
      if (snap.unsolved > 0 || snap.ready > 0) {
        quiesced = false;
        break;
      }
    }
    if (quiesced) return all;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

bool RoutingClient::fetch_snapshot(Conn& conn, SnapshotPayload& out) {
  (void)sync_pipeline(conn);
  std::vector<std::uint8_t> buf;
  encode_snapshot_request(buf);
  if (!send_request(conn, buf, /*may_retry=*/true)) return false;
  std::vector<std::uint8_t> frame;
  FrameView view;
  return read_frame(conn, frame, view) && view.type == FrameType::kSnapshot &&
         decode_snapshot(view.payload, out);
}

SnapshotPayload RoutingClient::aggregate_snapshot() {
  // retired_ carries orderly retirements (their exact final snapshots);
  // the topology's crash ledger carries failovers (the client-side
  // mirrors, with the unpollable remainder under .lost).
  SnapshotPayload sum = retired_;
  if (topology_) {
    const host::CrashLedger& crashed = topology_->crashed();
    sum.submitted += crashed.submitted;
    sum.completed += crashed.completed;
    sum.retrieved += crashed.completed;
    sum.rejected += crashed.rejected;
    sum.lost += crashed.lost;
  }
  for (auto& conn : conns_) {
    if (!conn) continue;
    SnapshotPayload snap;
    if (fetch_snapshot(*conn, snap)) accumulate(sum, snap);
  }
  return sum;
}

bool RoutingClient::refresh_cr_hints(std::uint32_t max_entries_per_shard) {
  cr_hints_.clear();
  shard_advisory_.assign(conns_.size(), 0.0);
  const std::uint32_t epoch = this->epoch();
  hints_epoch_ = epoch;
  bool ok = true;
  for (std::size_t shard = 0; shard < conns_.size(); ++shard) {
    if (!conns_[shard]) continue;
    Conn& conn = *conns_[shard];
    // v1 shards don't speak the verb; no hint just means full fidelity.
    if (conn.version < 2) continue;
    (void)sync_pipeline(conn);  // Responses are per-connection ordered.
    std::vector<std::uint8_t> buf;
    encode_cr_hint(buf, epoch, max_entries_per_shard);
    if (!send_request(conn, buf, /*may_retry=*/true)) {
      ok = false;
      continue;
    }
    std::vector<std::uint8_t> frame;
    FrameView view;
    CrHintAckPayload ack;
    if (!read_frame(conn, frame, view) || view.type != FrameType::kCrHintAck ||
        !decode_cr_hint_ack(view.payload, ack)) {
      conn.fd.reset();
      ok = false;
      continue;
    }
    if (ack.epoch != epoch) {
      // Answered for an epoch we no longer route by: drop it rather than
      // risk steering a node through the wrong owner.
      ok = false;
      continue;
    }
    shard_advisory_[shard] = ack.advisory_cr_centi / 100.0;
    for (const auto& entry : ack.entries) {
      cr_hints_[entry.patient_id] = entry.cr_centi / 100.0;
    }
  }
  return ok;
}

std::optional<double> RoutingClient::cr_hint(std::uint32_t patient_id) const {
  if (!topology_ || hints_epoch_ != topology_->epoch()) return std::nullopt;
  if (auto it = cr_hints_.find(patient_id);
      it != cr_hints_.end() && it->second > 0.0) {
    return it->second;
  }
  const double advisory = shard_advisory_[owner(patient_id)];
  if (advisory > 0.0) return advisory;
  return std::nullopt;
}

std::optional<host::SloTrackerState> RoutingClient::patient_slo_state(
    std::uint32_t patient_id) {
  if (!topology_) return std::nullopt;
  Conn& conn = *conns_[topology_->owner(patient_id)];
  (void)sync_pipeline(conn);
  // Hand the history straight back so the shard's breakdown keeps it; the
  // caller gets a copy.
  const auto slo = move_slo(patient_id, conn, conn);
  return slo && slo->present ? std::optional(slo->state) : std::nullopt;
}

bool RoutingClient::drain_and_move_patient(std::uint32_t patient_id, Conn& from, Conn& to) {
  // Quiesce the patient on the old owner (the epoch already flipped, so no
  // new windows can race in behind the drain), then move its SLO history.
  std::vector<std::uint8_t> buf;
  encode_patient_frame(buf, FrameType::kDrainPatient, patient_id);
  if (!send_request(from, buf, /*may_retry=*/false)) return false;
  std::vector<std::uint8_t> frame;
  FrameView view;
  std::uint32_t echoed = 0;
  return read_frame(from, frame, view) && view.type == FrameType::kDrainDone &&
         decode_patient_frame(view.payload, echoed) && echoed == patient_id &&
         move_slo(patient_id, from, to).has_value();
}

std::optional<SloStatePayload> RoutingClient::move_slo(std::uint32_t patient_id, Conn& from,
                                                       Conn& to) {
  // EXTRACT_SLO is an exchange(0) on `from`; ADOPT_SLO folds it into `to`.
  std::vector<std::uint8_t> buf;
  encode_patient_frame(buf, FrameType::kExtractSlo, patient_id);
  if (!send_request(from, buf, /*may_retry=*/false)) return std::nullopt;
  std::vector<std::uint8_t> frame;
  FrameView view;
  SloStatePayload slo;
  if (!read_frame(from, frame, view) || view.type != FrameType::kSloState ||
      !decode_slo_state(view.payload, slo)) {
    return std::nullopt;
  }
  if (!slo.present) return slo;  // Never tracked: nothing to carry over.
  buf.clear();
  encode_slo_state(buf, FrameType::kAdoptSlo, slo);
  bool adopted = false;
  if (!send_request(to, buf, /*may_retry=*/false) || !read_frame(to, frame, view) ||
      view.type != FrameType::kAdoptAck || !decode_adopt_ack(view.payload, adopted)) {
    return std::nullopt;
  }
  return slo;
}

bool RoutingClient::retire(Conn& conn) {
  // Pull out every result still parked on the shard (all its patients were
  // just drained, so only the completion list can be non-empty), fold its
  // final counters into the retired accumulator, and dismiss it.
  for (;;) {
    SnapshotPayload snap;
    if (!fetch_snapshot(conn, snap)) return false;
    if (snap.unsolved == 0 && snap.ready == 0) {
      accumulate(retired_, snap);
      break;
    }
    if (!sweep_shard(conn, /*may_retry=*/false)) return false;
  }
  std::vector<std::uint8_t> buf;
  encode_bye(buf);
  if (send_request(conn, buf, /*may_retry=*/false)) {
    std::vector<std::uint8_t> frame;
    FrameView view;
    (void)read_frame(conn, frame, view);  // BYE_ACK (best effort).
  }
  conn.fd.reset();
  return true;
}

bool RoutingClient::set_topology(std::vector<ShardEndpoint> shards) {
  if (!topology_ || shards.empty()) return false;
  // Outstanding pipelined submits belong to the closing epoch: settle
  // every ACK before the flip so their tickets compose against it.
  for (auto& conn : conns_) {
    if (conn) (void)sync_pipeline(*conn);
  }
  // The previous epoch's index -> connection table, captured before the
  // container shuffle below (the Conn objects themselves don't move, so
  // raw pointers stay valid while unique_ptrs change vectors).
  std::vector<Conn*> old_table;
  old_table.reserve(conns_.size());
  for (auto& c : conns_) old_table.push_back(c.get());

  // Surviving endpoints (matched by host:port) keep their connections, so
  // their engines keep their backlogs.  A failed slot is a null hole and
  // never matches: a restarted crashed endpoint is a brand-new shard.  New
  // endpoints connect before anything moves, so an unreachable one leaves
  // the topology untouched.
  std::vector<std::unique_ptr<Conn>> next(shards.size());
  std::vector<std::unique_ptr<Conn>*> kept(shards.size(), nullptr);
  for (std::size_t i = 0; i < shards.size(); ++i) {
    auto it = std::find_if(conns_.begin(), conns_.end(), [&](const auto& c) {
      return c && c->endpoint == shards[i] && std::find(kept.begin(), kept.end(), &c) == kept.end();
    });
    if (it != conns_.end()) {
      kept[i] = &*it;
      continue;
    }
    next[i] = std::make_unique<Conn>();
    next[i]->endpoint = shards[i];
    if (!ensure_connected(*next[i])) return false;
  }
  for (std::size_t i = 0; i < shards.size(); ++i) {
    if (kept[i]) next[i] = std::move(*kept[i]);
  }
  // Failed slots are dropped silently (already fully accounted); only
  // live leavers go through the synchronous retirement protocol.
  std::vector<std::unique_ptr<Conn>> leaving;
  for (auto& c : conns_) {
    if (c) leaving.push_back(std::move(c));
  }

  // Flip the routing epoch first — same ordering as the in-process
  // fabric's resize(): from here on nothing routes to a leaving shard and
  // every new submission is tagged with the new epoch, so each window's
  // route is decided by exactly one epoch.
  conns_ = std::move(next);
  for (std::size_t i = 0; i < conns_.size(); ++i) conns_[i]->index = i;
  const std::uint32_t from = topology_->epoch();
  topology_->resize(conns_.size());

  // Migrate every patient whose owning *endpoint* changed: quiesce it on
  // the old owner, then move its SLO history.  An index shift that keeps
  // the endpoint needs no migration — the connection is the identity.
  bool ok = true;
  const auto moved = topology_->movers(from, [&](std::size_t old_slot, std::size_t new_slot) {
    return old_table[old_slot] == conns_[new_slot].get();
  });
  for (const std::uint32_t patient : moved) {
    Conn& source = *old_table[topology_->owner_at(from, patient)];
    if (!drain_and_move_patient(patient, source, *conns_[topology_->owner(patient)])) ok = false;
  }
  // Leaving shards are now empty of routed patients: pull their parked
  // results, fold their counters, dismiss them.
  for (auto& conn : leaving) {
    if (!retire(*conn)) ok = false;
  }
  return ok;
}

void RoutingClient::shutdown(bool send_bye) {
  for (auto& conn : conns_) {
    if (conn && conn->fd.valid()) (void)sync_pipeline(*conn);
  }
  if (send_bye) {
    std::vector<std::uint8_t> buf;
    encode_bye(buf);
    for (auto& conn : conns_) {
      if (!conn || !conn->fd.valid()) continue;
      if (send_all(conn->fd.get(), buf.data(), buf.size())) {
        std::vector<std::uint8_t> frame;
        FrameView view;
        (void)read_frame(*conn, frame, view);
      }
    }
  }
  for (auto& conn : conns_) {
    if (conn) conn->fd.reset();
  }
}

}  // namespace wbsn::net
