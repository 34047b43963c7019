// RoutingClient — the coordinator half of the cross-machine fabric.
//
// Speaks wbsn-wire (v1, and v2 where the shard negotiates it) to a fleet
// of ShardServer processes and presents the same submit/poll/drain
// surface as host::ReconstructionFabric, with the same placement
// guarantees proven for the in-process fabric (PR 5):
//
//   * Every routing decision — ring, epochs, tickets, movers, the
//     failover flip, the crash fold — comes from host::Topology, the
//     same core the in-process fabric uses.  The ring is rebuilt locally
//     from the shard count and host::Topology::kVnodesPerShard, so client
//     and any audit tool agree on placement without a metadata service.
//   * set_topology() is ReconstructionFabric::resize() over sockets: the
//     epoch flips first, then every mover is drained on its old shard
//     (DRAIN_PATIENT) and its SLO history moves (EXTRACT_SLO, ADOPT_SLO;
//     extract_state() is an exchange(0), so counts are conserved).
//   * Tickets are the composite epoch | shard | local form.  The
//     submission epoch rides in CompressedWindow::route_tag and comes
//     back in the result, whose ticket composes against that epoch's ring
//     — the exact ticket its submit() returned, after any reshards.
//   * Shards leaving the topology are retired synchronously: their
//     remaining results are polled out, their final counter snapshot is
//     folded into the client's retired accumulator (so
//     aggregate_snapshot() conserves submitted == completed + shed and
//     attempts == submitted + rejected across the whole topology
//     history), and they are dismissed with BYE — which stops a
//     stop_on_bye daemon.
//   * Shards that *crash* can't be retired — they will never answer the
//     drain/extract handshake.  fail_shard() (manual, or automatic under
//     cfg.auto_failover when I/O or a health probe fails) opens a
//     failover epoch instead, and the client's own submit/poll mirrors
//     replace the unavailable final snapshot, so the audit identity
//     submitted == completed + shed + rejected + lost holds across crashes.
//   * Pipelined submits (v2 shards, pipeline_depth > 0): submit_pipelined
//     stages windows into per-shard SUBMIT_BATCH frames (one frame per
//     windows_per_submit_frame windows, sealed scatter-gather — prefix, the
//     staged bodies, CRC trailer — in one sendmsg), keeps up to
//     pipeline_depth unacknowledged frames on the wire per shard, and
//     defers ticket composition until the SUBMIT_BATCH_ACK arrives.
//     flush_submits() is the sync point: it seals the tail, harvests
//     every outstanding ACK, and returns the composite tickets in
//     submission order.  Any other verb on a shard syncs its pipeline
//     first (responses are per-connection ordered).  On a v1 shard
//     submit_pipelined transparently falls back to a per-window blocking
//     SUBMIT — same tickets, one round trip per window.
//
// Threading: single-coordinator by design, like the reshard protocol
// itself — one thread owns the client; it is not thread-safe.  Sockets
// are blocking with I/O timeouts; a failed connection is retried with
// exponential backoff (reconnect_* knobs).  Verbs that carry no
// server-side state transition are retried across a reconnect; SUBMIT is
// not (a retry could double-submit), it reports failure instead.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "host/reconstruction_engine.hpp"
#include "host/topology.hpp"
#include "net/socket.hpp"
#include "net/wire_format.hpp"

namespace wbsn::net {

struct ShardEndpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;

  bool operator==(const ShardEndpoint&) const = default;
};

struct RoutingClientConfig {
  int connect_timeout_ms = 5000;
  /// Per-operation socket send/recv timeout.  Generous by default: a
  /// DRAIN_PATIENT response legitimately waits out a backlog.
  int io_timeout_ms = 60000;
  int reconnect_attempts = 5;
  int reconnect_backoff_ms = 10;  ///< Doubles per attempt up to the cap.
  /// Ceiling on one backoff sleep.  The schedule is base·2^(k-1) clamped
  /// here, plus deterministic jitter up to +25% (see backoff_delay_ms) —
  /// uncapped doubling overflowed int at high reconnect_attempts.
  int reconnect_backoff_max_ms = 2000;
  /// Socket receive deadline for a HEALTH probe response, separate from
  /// io_timeout_ms (which is sized for verbs that legitimately wait, like
  /// DRAIN_PATIENT).  A shard that cannot echo a nonce within this window
  /// is treated as dead by check_health().  <= 0: use io_timeout_ms.
  int health_probe_timeout_ms = 1000;
  /// Crash failover: when a shard stops answering (send/recv error after
  /// reconnect retries, or a health-probe timeout), fail it automatically
  /// — fail_shard() semantics — and re-route the in-hand window to the
  /// survivor that now owns its patient.  Off by default: without it a
  /// dead shard surfaces as submit/poll failures, exactly as before.
  bool auto_failover = false;
  /// Deterministic fault hook for tests: called before every frame send
  /// with (shard index, frames already sent on that connection); returning
  /// true tears the connection down at that exact frame boundary, so a
  /// mid-stream crash can be scripted and replayed bit-for-bit.  Unset in
  /// production.
  std::function<bool(std::size_t, std::uint64_t)> fault_inject;
  /// Highest wire version offered in HELLO.  Default: everything this
  /// build speaks.  Set 1 to force v1 framing fleet-wide (staged
  /// rollouts, mixed-version tests); negotiation still lands on the
  /// shard's ceiling when it is lower.
  std::uint8_t max_wire_version = kWireVersionMax;
  /// Pipelined submit window: maximum unacknowledged SUBMIT_BATCH frames
  /// per shard before submit_pipelined harvests an ACK.  0 (default)
  /// disables pipelining — submit_pipelined degrades to a per-window
  /// blocking submit even on v2 shards.
  std::size_t pipeline_depth = 0;
  /// Windows packed into one SUBMIT_BATCH frame in pipelined mode.
  std::size_t windows_per_submit_frame = 16;
  WireEncodeOptions wire{};
  /// Decode result signals into pooled buffers; recycle submitted windows'
  /// payloads after the shard acknowledges them.  Same zero-copy contract
  /// as EngineConfig::payload_pool.
  std::shared_ptr<host::PayloadPool> payload_pool;
};

class RoutingClient {
 public:
  /// Results requested per POLL / POLL_MANY sweep of one shard.
  static constexpr std::uint32_t kPollBatch = 64;

  explicit RoutingClient(RoutingClientConfig cfg = {});
  ~RoutingClient();

  RoutingClient(const RoutingClient&) = delete;
  RoutingClient& operator=(const RoutingClient&) = delete;

  /// Connects and version-negotiates with every endpoint; epoch 0 opens on
  /// success.  All or nothing: false — with no topology open and no
  /// connection kept — when the list is empty or any endpoint stays
  /// unreachable after retries.  Until a connect succeeds, every submit
  /// and patient_slo_state call fails instead of routing.
  bool connect(std::vector<ShardEndpoint> shards);

  /// Topology slots, failed ones included — index identity is what keeps
  /// composite tickets stable across failovers.
  std::size_t shard_count() const { return conns_.size(); }
  std::size_t live_shard_count() const { return topology_ ? topology_->live_count() : 0; }
  bool shard_failed(std::size_t shard) const { return shard < conns_.size() && !conns_[shard]; }
  std::uint32_t epoch() const { return topology_ ? topology_->epoch() : 0; }

  /// The shard index that owns `patient_id` under the current epoch (0
  /// while no topology is open).
  std::size_t owner(std::uint32_t patient_id) const {
    return topology_ ? topology_->owner(patient_id) : 0;
  }

  /// Reshards to a new endpoint set under a fresh epoch (see file
  /// comment).  Endpoints are matched by host:port, so surviving shards
  /// keep their connections (and their engines keep their backlogs) even
  /// when their index shifts.  False when no topology is open, the list
  /// is empty, or a new endpoint is unreachable (nothing changes), or
  /// when a migration verb fails; that epoch flip is not rolled back —
  /// resolve connectivity and call again.
  bool set_topology(std::vector<ShardEndpoint> shards);

  /// Routes one window to its owner shard.  Returns the composite ticket,
  /// or nullopt on shard backpressure (SUBMIT_REJECT), a dead shard, or no
  /// open topology.  `window` keeps its payload on rejection.
  std::optional<std::uint64_t> try_submit(host::CompressedWindow&& window);

  /// Blocking submit: the shard waits out its backpressure server-side
  /// (never sheds, never counts a rejection).  nullopt only on a dead
  /// connection or no open topology.
  std::optional<std::uint64_t> submit(host::CompressedWindow window);

  /// Pipelined submit (see file comment): stages the window toward its
  /// owner shard and returns immediately — the ticket arrives with the
  /// batch ACK and is surfaced by the next flush_submits().  Blocking
  /// admission semantics on the shard (never sheds, never counts a
  /// rejection), like submit().  False only on a dead connection or no
  /// open topology (the window is then dropped, consistent with the
  /// no-retry SUBMIT rule).
  bool submit_pipelined(host::CompressedWindow&& window);

  /// Seals every staged batch, harvests every outstanding ACK, and
  /// returns one entry per submit_pipelined() since the last flush, in
  /// submission order: the composite ticket, or nullopt when the window
  /// was rejected or its connection died with the ACK outstanding (such
  /// windows are NOT retried — a retry could double-submit).
  std::vector<std::optional<std::uint64_t>> flush_submits();

  /// Wire version negotiated with shard `shard` (1 or 2; 0 for a failed
  /// or unknown slot).
  std::uint8_t shard_wire_version(std::size_t shard) const;

  /// One completed result in arrival order across shards, or nullopt when
  /// none is ready anywhere right now.
  std::optional<host::WindowResult> poll();

  /// Polls until every shard reports quiescence (nothing unsolved, nothing
  /// ready) and returns everything retrieved.
  std::vector<host::WindowResult> drain();

  /// Sum of every live shard's counter snapshot plus the retired
  /// accumulator — the conservation audit surface.  Exact when quiesced.
  SnapshotPayload aggregate_snapshot();

  /// Polls every v2 shard with CR_HINT and caches the answers: the
  /// shard-wide advisory CR and any per-patient entries, all tagged with
  /// the current routing epoch (a reshard invalidates them — stale hints
  /// must never steer a node via the wrong owner).  v1 shards are skipped
  /// silently (the verb does not exist there; absence of a hint just means
  /// full-fidelity encoding).  False when any v2 shard was unreachable or
  /// answered for a different epoch; the hints that did land are kept.
  bool refresh_cr_hints(std::uint32_t max_entries_per_shard = 64);

  /// The advisory CR (percent) the fleet wants `patient_id`'s node to
  /// encode at, from the last refresh_cr_hints(): the per-patient entry if
  /// the shard sent one, else its owner shard's advisory.  nullopt when no
  /// pressure was reported or the hints predate the current epoch — the
  /// node then encodes at its configured fidelity.  Advisory by contract:
  /// ignoring it is always correct, just slower under overload.
  std::optional<double> cr_hint(std::uint32_t patient_id) const;

  /// Declares shard `shard` dead and recovers without its cooperation:
  /// the connection drops, unacked pipelined windows resolve to nullopt,
  /// and a failover epoch (host::Topology::fail) re-homes only its
  /// patients — no DRAIN_PATIENT/EXTRACT_SLO handshake, the peer is gone.
  /// The client's own submit/poll mirrors stand in for the unavailable
  /// final snapshot in the crash fold: `lost` counts every acknowledged
  /// window never polled back, including any it shed before dying (those
  /// are indistinguishable from here).  Its per-patient SLO history dies
  /// with it.  False when the shard is already failed, out of range, the
  /// last one standing, or no topology is open.
  bool fail_shard(std::size_t shard);

  /// One liveness round trip to shard `shard`: HEALTH (nonce echoed) on
  /// v2 connections, SNAPSHOT_REQUEST on v1, answered within
  /// health_probe_timeout_ms.  False means dead-or-deadlined — the
  /// caller's (or check_health's) cue to fail over.
  bool probe_health(std::size_t shard);

  /// Probes every live shard; with cfg.auto_failover, dead ones are
  /// failed over on the spot.  Returns the indices that failed the probe.
  std::vector<std::size_t> check_health();

  /// The capped-and-jittered reconnect schedule: attempt k (1-based)
  /// sleeps base·2^(k-1) ms, clamped to max_ms, plus a deterministic
  /// jitter of up to +25% derived from (seed, attempt).  Pure — exposed
  /// so tests can pin the schedule byte-for-byte.
  static int backoff_delay_ms(int attempt, int base_ms, int max_ms, std::uint64_t seed);

  /// Per-patient SLO state fetched from the patient's current owner
  /// (EXTRACT_SLO + immediate ADOPT_SLO back, so the history stays on the
  /// shard).  nullopt when the patient has no history there, the shard is
  /// unreachable, or no topology is open.
  std::optional<host::SloTrackerState> patient_slo_state(std::uint32_t patient_id);

  /// Closes every connection; with `send_bye`, dismisses the shards first
  /// (stops stop_on_bye daemons).  Idempotent; the destructor calls
  /// shutdown(false).
  void shutdown(bool send_bye);

 private:
  /// One submit_pipelined() call awaiting its ticket.
  struct PipelinedSubmit {
    std::uint32_t epoch = 0;
    std::size_t shard = 0;
    bool resolved = false;
    std::optional<std::uint64_t> ticket;  ///< Composite; set when resolved.
  };

  struct Conn {
    ShardEndpoint endpoint;
    Fd fd;
    std::vector<std::uint8_t> rx;
    std::uint8_t version = kWireVersion;  ///< Negotiated on (re)connect.
    std::size_t index = 0;  ///< Shard index (== this conn's slot in conns_).
    // Client-side mirrors of the shard's counters, maintained from the
    // frames this client exchanged with it.  They are exact for exactly
    // the quantities a crash makes unknowable server-side, which is what
    // lets fail_shard() conserve counts without a final snapshot.
    std::uint64_t acked_submits = 0;  ///< Windows the shard acknowledged.
    std::uint64_t retrieved = 0;      ///< Results polled back from it.
    std::uint64_t rejected_seen = 0;  ///< SUBMIT_REJECTs it answered.
    std::uint64_t frames_sent = 0;    ///< Sends attempted (fault-hook clock).
    std::uint64_t health_nonce = 0;   ///< Last probe nonce issued.
    // Pipelined-submit state (v2 connections).  staged_bodies holds
    // encoded window bodies not yet sealed into a frame; pending_submits
    // indexes pipeline_submits_ in per-shard FIFO order (ACK entries
    // resolve from the front); outstanding_counts tracks the window count
    // of each unacknowledged SUBMIT_BATCH on the wire.
    std::vector<std::uint8_t> staged_bodies;
    std::uint64_t staged_count = 0;
    std::deque<std::size_t> pending_submits;
    std::deque<std::size_t> outstanding_counts;
  };

  /// The one SUBMIT_WINDOW round trip behind submit() (blocking) and
  /// try_submit(): route, ACK or REJECT, mirror update, and the failover
  /// re-route of a window that was never acknowledged.
  std::optional<std::uint64_t> submit_window(host::CompressedWindow& window, bool blocking);
  bool ensure_connected(Conn& conn);
  bool reconnect(Conn& conn);
  /// Sends `buf`; one reconnect-and-resend on failure when `may_retry`.
  bool send_request(Conn& conn, const std::vector<std::uint8_t>& buf, bool may_retry);
  /// Blocks until one complete frame is buffered; fills `frame` (a copy,
  /// stable against further reads) and parses it into `view`.
  bool read_frame(Conn& conn, std::vector<std::uint8_t>& frame, FrameView& view);
  /// Reads result frames into pending_ until POLL_END.
  bool read_poll_results(Conn& conn);
  /// One POLL/POLL_MANY round trip pulling results into pending_: one
  /// RESULT_BATCH on v2, RESULT frames up to POLL_END on v1.  `may_retry`
  /// as for send_request.
  bool sweep_shard(Conn& conn, bool may_retry);
  /// sweep_shard on every live shard, failing over dead ones under
  /// cfg.auto_failover.
  void sweep_all();
  /// Seals staged_bodies into one SUBMIT_BATCH on the wire (scatter-
  /// gather) and enforces the pipeline depth by harvesting ACKs.
  bool seal_batch(Conn& conn);
  /// Blocks for one SUBMIT_BATCH_ACK and resolves its windows' tickets.
  bool harvest_ack(Conn& conn);
  /// seal + harvest everything outstanding; called before any other verb
  /// uses the connection (responses are per-connection ordered).
  bool sync_pipeline(Conn& conn);
  /// Marks every unresolved pipelined window of this conn as lost
  /// (nullopt ticket) — the connection died with ACKs outstanding.
  void fail_pipeline(Conn& conn);
  /// Composes the fleet ticket and queues the result for poll().
  void accept_result(Conn& conn, host::WindowResult&& result);
  bool drain_and_move_patient(std::uint32_t patient_id, Conn& from, Conn& to);
  /// EXTRACT_SLO from `from`, ADOPT_SLO into `to` (the same shard hands
  /// the history back); the extracted state, or nullopt on a failure.
  std::optional<SloStatePayload> move_slo(std::uint32_t patient_id, Conn& from, Conn& to);
  bool retire(Conn& conn);
  bool fetch_snapshot(Conn& conn, SnapshotPayload& out);

  RoutingClientConfig cfg_;
  /// Index == shard index; a crash-failed slot is a null hole.
  std::vector<std::unique_ptr<Conn>> conns_;
  std::optional<host::Topology> topology_;  ///< Open from a successful connect().
  std::deque<host::WindowResult> pending_;  ///< Polled, not yet returned.
  SnapshotPayload retired_;  ///< Folded final snapshots of dismissed shards.
  /// submit_pipelined() calls since the last flush_submits(), in global
  /// submission order; conns' pending_submits index into this.
  std::vector<PipelinedSubmit> pipeline_submits_;
  /// CR-hint cache from the last refresh_cr_hints().  Valid only while
  /// hints_epoch_ == epoch() (set_topology opens a new epoch and thereby
  /// invalidates every cached hint).  0.0 entries mean "no advisory".
  std::unordered_map<std::uint32_t, double> cr_hints_;  ///< patient -> CR %.
  std::vector<double> shard_advisory_;                  ///< shard -> CR %.
  std::uint64_t hints_epoch_ = ~std::uint64_t{0};       ///< Sentinel: none yet.
};

}  // namespace wbsn::net
