// RoutingClient <-> ShardServer integration over real loopback sockets
// (servers run in-process on their own threads; the fork/exec variant
// lives in multiprocess_reshard_test.cpp).  Verifies the fabric's
// guarantees survive the wire: bit-identical reconstructions vs the
// serial in-process reference, composite-ticket round trips, SLO history
// migration across a live reshard, counter conservation across retired
// shards, and the protocol-level rejection paths (unknown version,
// talking before HELLO).

#include "net/routing_client.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "cs/pipeline.hpp"
#include "host/payload_pool.hpp"
#include "host/reconstruction_fabric.hpp"
#include "net/crc32c.hpp"
#include "net/shard_server.hpp"
#include "net/socket.hpp"
#include "sig/ecg_synth.hpp"
#include "sig/rng.hpp"

namespace wbsn::net {
namespace {

using host::CompressedWindow;
using host::EngineConfig;
using host::ReconstructionEngine;
using host::WindowResult;
using WindowKey = std::pair<std::uint32_t, std::uint32_t>;

bool bit_identical(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

EngineConfig fast_engine(int threads) {
  EngineConfig cfg;
  cfg.threads = threads;
  cfg.fista.max_iterations = 25;
  cfg.fista.debias_iterations = 5;
  return cfg;
}

std::vector<CompressedWindow> fleet_traffic(int patients, int beats_per_patient) {
  std::vector<CompressedWindow> traffic;
  for (int p = 0; p < patients; ++p) {
    sig::SynthConfig synth;
    synth.num_leads = 1;
    synth.episodes = {{sig::RhythmEpisode::Kind::kSinus, beats_per_patient}};
    sig::Rng rng(0x4E7A11ULL + static_cast<std::uint64_t>(p));
    const auto record = synthesize_ecg(synth, rng);

    host::RecordCompressionConfig compression;
    compression.window_samples = 128;
    compression.cr_percent = 50.0;
    auto windows = host::compress_record(record, static_cast<std::uint32_t>(p), compression);
    traffic.insert(traffic.end(), std::make_move_iterator(windows.begin()),
                   std::make_move_iterator(windows.end()));
  }
  for (std::size_t i = 0; i < traffic.size(); ++i) {
    if (i % 3 == 0) traffic[i].priority = cs::WindowPriority::kUrgent;
  }
  return traffic;
}

/// One in-process shard: a ShardServer running its event loop on a thread.
struct LocalShard {
  std::unique_ptr<ShardServer> server;
  std::thread loop;

  explicit LocalShard(ShardServerConfig cfg) {
    server = std::make_unique<ShardServer>(std::move(cfg));
    EXPECT_TRUE(server->start());
    loop = std::thread([s = server.get()] { s->run(); });
  }

  explicit LocalShard(int threads, std::uint8_t max_version = kWireVersionMax,
                      double hint_cr = 0.0)
      : LocalShard([&] {
          ShardServerConfig cfg;
          cfg.engine = fast_engine(threads);
          // The node path emits exact fixed-point multiples; advertising the
          // scale exercises the compact coding end to end.
          cfg.wire.fixed_scale = cs::measurement_scale_mv(sig::AdcConfig{});
          cfg.max_wire_version = max_version;
          // Tests that opt into CR hints want determinism, not a race with
          // the backlog: advertise unconditionally.
          cfg.hint_cr_percent = hint_cr;
          cfg.hint_backlog_deadlines = 0.0;
          return cfg;
        }()) {}

  ~LocalShard() { kill(); }

  /// Stops the server loop and joins it — the in-process stand-in for a
  /// shard crash (the engine and its backlog are simply gone to the
  /// client; only the listening port stops answering).
  void kill() {
    server->stop();
    if (loop.joinable()) loop.join();
  }

  ShardEndpoint endpoint() const { return {"127.0.0.1", server->port()}; }
};

RoutingClientConfig client_config() {
  RoutingClientConfig cfg;
  cfg.wire.fixed_scale = cs::measurement_scale_mv(sig::AdcConfig{});
  return cfg;
}

std::map<WindowKey, WindowResult> serial_reference(
    const std::vector<CompressedWindow>& traffic) {
  std::map<WindowKey, WindowResult> reference;
  ReconstructionEngine serial(fast_engine(0));
  for (const auto& window : traffic) {
    CompressedWindow copy = window;
    serial.submit(std::move(copy));
  }
  for (auto& result : serial.drain()) {
    reference.emplace(WindowKey{result.patient_id, result.window_index}, std::move(result));
  }
  return reference;
}

TEST(RoutingClient, RoundTripMatchesSerialReferenceBitForBit) {
  const auto traffic = fleet_traffic(/*patients=*/6, /*beats_per_patient=*/3);
  const auto reference = serial_reference(traffic);

  LocalShard a(2), b(2);
  RoutingClient client(client_config());
  ASSERT_TRUE(client.connect({a.endpoint(), b.endpoint()}));

  std::set<std::uint64_t> submit_tickets;
  for (const auto& window : traffic) {
    CompressedWindow copy = window;
    const auto ticket = client.submit(std::move(copy));
    ASSERT_TRUE(ticket.has_value());
    EXPECT_TRUE(submit_tickets.insert(*ticket).second) << "tickets must be unique";
    // Composite form: epoch 0, the owner shard of the patient.
    EXPECT_EQ(host::Topology::ticket_epoch(*ticket), 0u);
    EXPECT_EQ(host::Topology::ticket_shard(*ticket),
              client.owner(window.patient_id));
  }

  auto results = client.drain();
  ASSERT_EQ(results.size(), traffic.size());
  std::set<std::uint64_t> result_tickets;
  for (const auto& result : results) {
    result_tickets.insert(result.ticket);
    const auto ref = reference.find({result.patient_id, result.window_index});
    ASSERT_NE(ref, reference.end());
    EXPECT_TRUE(bit_identical(result.signal, ref->second.signal))
        << "patient " << result.patient_id << " window " << result.window_index
        << " diverged across the wire";
    EXPECT_EQ(result.iterations, ref->second.iterations);
    EXPECT_EQ(result.snr_db, ref->second.snr_db);
  }
  EXPECT_EQ(result_tickets, submit_tickets)
      << "every result must carry the composite ticket its submit returned";

  const auto agg = client.aggregate_snapshot();
  EXPECT_EQ(agg.submitted, traffic.size());
  EXPECT_EQ(agg.completed, traffic.size());
  EXPECT_EQ(agg.retrieved, traffic.size());
  EXPECT_EQ(agg.unsolved, 0u);
  EXPECT_EQ(agg.ready, 0u);
  client.shutdown(/*send_bye=*/false);
}

TEST(RoutingClient, NoTopologyMeansEveryRoutingCallFailsCleanly) {
  // A client that never connected, and one whose connect() failed partway,
  // own no topology: routing calls fail instead of indexing a ring or a
  // connection table that is not there (the ASan lane would catch a read
  // past either).
  const auto traffic = fleet_traffic(/*patients=*/1, /*beats_per_patient=*/2);
  auto cfg = client_config();
  cfg.reconnect_attempts = 0;  // A dead port fails fast, not after backoff.
  cfg.pipeline_depth = 2;
  const auto expect_refused = [&](RoutingClient& client) {
    EXPECT_EQ(client.shard_count(), 0u);
    EXPECT_EQ(client.live_shard_count(), 0u);
    EXPECT_EQ(client.epoch(), 0u);
    CompressedWindow blocking = traffic[0];
    CompressedWindow bounded = traffic[0];
    CompressedWindow pipelined = traffic[0];
    EXPECT_FALSE(client.submit(std::move(blocking)).has_value());
    EXPECT_FALSE(client.try_submit(std::move(bounded)).has_value());
    EXPECT_FALSE(client.submit_pipelined(std::move(pipelined)));
    const auto flushed = client.flush_submits();
    ASSERT_EQ(flushed.size(), 1u) << "one entry per submit_pipelined call";
    EXPECT_FALSE(flushed[0].has_value());
    EXPECT_FALSE(client.patient_slo_state(traffic[0].patient_id).has_value());
    EXPECT_FALSE(client.cr_hint(traffic[0].patient_id).has_value());
    EXPECT_FALSE(client.poll().has_value());
    EXPECT_FALSE(client.fail_shard(0));
    EXPECT_FALSE(client.set_topology({{"127.0.0.1", 1}}));
  };

  RoutingClient never_connected(cfg);
  expect_refused(never_connected);

  LocalShard live(1), dead(1);
  dead.kill();  // Its port now refuses connections.
  RoutingClient partial(cfg);
  EXPECT_FALSE(partial.connect({live.endpoint(), dead.endpoint()}));
  expect_refused(partial);
  EXPECT_FALSE(partial.connect({})) << "an empty fleet has nowhere to route";
  expect_refused(partial);

  // A later complete connect opens epoch 0 as usual.
  ASSERT_TRUE(partial.connect({live.endpoint()}));
  CompressedWindow window = traffic[0];
  EXPECT_TRUE(partial.submit(std::move(window)).has_value());
  EXPECT_EQ(partial.drain().size(), 1u);
  partial.shutdown(/*send_bye=*/false);
}

TEST(RoutingClient, LiveGrowAndShrinkConserveEverything) {
  const auto traffic = fleet_traffic(/*patients=*/6, /*beats_per_patient=*/3);
  const auto reference = serial_reference(traffic);

  // Once per wire version: retiring a shard sweeps it with POLL on v1 and
  // POLL_MANY -> RESULT_BATCH on v2.
  for (const std::uint8_t version : {std::uint8_t{1}, kWireVersionMax}) {
    SCOPED_TRACE(testing::Message() << "max_wire_version=" << int{version});
    LocalShard a(1), b(1), c(1);
    RoutingClientConfig cfg = client_config();
    cfg.max_wire_version = version;
    RoutingClient client(cfg);
    ASSERT_TRUE(client.connect({a.endpoint(), b.endpoint()}));

    std::map<WindowKey, WindowResult> results;
    const auto keep = [&](WindowResult&& r) {
      const WindowKey key{r.patient_id, r.window_index};
      EXPECT_TRUE(results.emplace(key, std::move(r)).second) << "duplicate result";
    };

    const std::size_t third = traffic.size() / 3;
    std::size_t i = 0;
    for (; i < third; ++i) {
      CompressedWindow copy = traffic[i];
      ASSERT_TRUE(client.submit(std::move(copy)).has_value());
      if (auto r = client.poll()) keep(std::move(*r));
    }

    // Live grow 2 -> 3 with traffic in flight.
    ASSERT_TRUE(client.set_topology({a.endpoint(), b.endpoint(), c.endpoint()}));
    EXPECT_EQ(client.epoch(), 1u);
    EXPECT_EQ(client.shard_count(), 3u);
    for (; i < 2 * third; ++i) {
      CompressedWindow copy = traffic[i];
      ASSERT_TRUE(client.submit(std::move(copy)).has_value());
      if (auto r = client.poll()) keep(std::move(*r));
    }

    // Live shrink 3 -> 1: shards a and c retire, their parked results and
    // counters fold into the client.
    ASSERT_TRUE(client.set_topology({b.endpoint()}));
    EXPECT_EQ(client.epoch(), 2u);
    EXPECT_EQ(client.shard_count(), 1u);
    for (; i < traffic.size(); ++i) {
      CompressedWindow copy = traffic[i];
      ASSERT_TRUE(client.submit(std::move(copy)).has_value());
    }

    for (auto&& r : client.drain()) keep(std::move(r));
    ASSERT_EQ(results.size(), traffic.size());
    for (const auto& [key, expected] : reference) {
      const auto found = results.find(key);
      ASSERT_NE(found, results.end());
      EXPECT_TRUE(bit_identical(found->second.signal, expected.signal))
          << "patient " << key.first << " window " << key.second
          << " diverged across reshard";
      EXPECT_EQ(found->second.iterations, expected.iterations);
    }

    // Counter conservation across the whole topology history, including the
    // two retired shards' folded snapshots.
    const auto agg = client.aggregate_snapshot();
    EXPECT_EQ(agg.submitted, traffic.size());
    EXPECT_EQ(agg.completed, traffic.size());
    EXPECT_EQ(agg.retrieved, traffic.size());
    EXPECT_EQ(agg.rejected, 0u);
    EXPECT_EQ(agg.shed_routine + agg.shed_urgent, 0u);
    EXPECT_EQ(agg.unsolved, 0u);
    EXPECT_EQ(agg.ready, 0u);
    client.shutdown(/*send_bye=*/false);
  }
}

TEST(RoutingClient, SloHistoryFollowsThePatientAcrossShards) {
  const auto traffic = fleet_traffic(/*patients=*/4, /*beats_per_patient=*/3);
  LocalShard a(1), b(1), c(1);
  RoutingClient client(client_config());
  ASSERT_TRUE(client.connect({a.endpoint(), b.endpoint()}));

  std::map<std::uint32_t, std::uint64_t> per_patient_submitted;
  for (const auto& window : traffic) {
    CompressedWindow copy = window;
    ASSERT_TRUE(client.submit(std::move(copy)).has_value());
    ++per_patient_submitted[window.patient_id];
  }
  (void)client.drain();

  // Two reshards: every patient's tracked history must survive wherever
  // consistent hashing lands them.
  ASSERT_TRUE(client.set_topology({b.endpoint(), c.endpoint(), a.endpoint()}));
  ASSERT_TRUE(client.set_topology({c.endpoint(), a.endpoint()}));

  for (const auto& [patient, submitted] : per_patient_submitted) {
    const auto state = client.patient_slo_state(patient);
    ASSERT_TRUE(state.has_value()) << "patient " << patient << " lost their tracker";
    EXPECT_EQ(state->submitted, submitted) << "patient " << patient;
    EXPECT_EQ(state->completed, submitted) << "patient " << patient;
    EXPECT_EQ(state->retrieved, submitted) << "patient " << patient;
  }
  client.shutdown(/*send_bye=*/false);
}

/// Pipelined submit path shared by the tests below: every window goes
/// through submit_pipelined, flush_submits() resolves the tickets, drain()
/// retrieves everything; returns the flush tickets in submission order.
std::vector<std::uint64_t> run_pipelined(RoutingClient& client,
                                         const std::vector<CompressedWindow>& traffic,
                                         std::map<WindowKey, WindowResult>& results) {
  for (const auto& window : traffic) {
    CompressedWindow copy = window;
    EXPECT_TRUE(client.submit_pipelined(std::move(copy)));
  }
  const auto tickets = client.flush_submits();
  EXPECT_EQ(tickets.size(), traffic.size());
  std::vector<std::uint64_t> resolved;
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    EXPECT_TRUE(tickets[i].has_value()) << "window " << i << " lost its ticket";
    if (tickets[i].has_value()) resolved.push_back(*tickets[i]);
  }
  for (auto&& r : client.drain()) {
    const WindowKey key{r.patient_id, r.window_index};
    EXPECT_TRUE(results.emplace(key, std::move(r)).second) << "duplicate result";
  }
  return resolved;
}

void expect_matches_reference(const std::map<WindowKey, WindowResult>& results,
                              const std::map<WindowKey, WindowResult>& reference) {
  ASSERT_EQ(results.size(), reference.size());
  for (const auto& [key, expected] : reference) {
    const auto found = results.find(key);
    ASSERT_NE(found, results.end());
    EXPECT_TRUE(bit_identical(found->second.signal, expected.signal))
        << "patient " << key.first << " window " << key.second
        << " diverged under pipelining";
    EXPECT_EQ(found->second.iterations, expected.iterations);
  }
}

TEST(RoutingClient, PipelinedSubmitsMatchSerialReferenceBitForBit) {
  const auto traffic = fleet_traffic(/*patients=*/6, /*beats_per_patient=*/3);
  const auto reference = serial_reference(traffic);

  LocalShard a(2), b(2);
  auto cfg = client_config();
  cfg.pipeline_depth = 2;
  cfg.windows_per_submit_frame = 4;
  RoutingClient client(cfg);
  ASSERT_TRUE(client.connect({a.endpoint(), b.endpoint()}));
  EXPECT_EQ(client.shard_wire_version(0), 2);
  EXPECT_EQ(client.shard_wire_version(1), 2);

  std::map<WindowKey, WindowResult> results;
  const auto tickets = run_pipelined(client, traffic, results);
  expect_matches_reference(results, reference);

  // The deferred tickets carry the same composite form a blocking submit
  // returns, stay unique, and every result echoes one of them.
  ASSERT_EQ(tickets.size(), traffic.size());
  std::set<std::uint64_t> unique(tickets.begin(), tickets.end());
  EXPECT_EQ(unique.size(), traffic.size()) << "tickets must be unique";
  for (std::size_t i = 0; i < traffic.size(); ++i) {
    EXPECT_EQ(host::Topology::ticket_epoch(tickets[i]), 0u);
    EXPECT_EQ(host::Topology::ticket_shard(tickets[i]),
              client.owner(traffic[i].patient_id))
        << "window " << i;
  }
  std::set<std::uint64_t> result_tickets;
  for (const auto& [key, result] : results) result_tickets.insert(result.ticket);
  EXPECT_EQ(result_tickets, unique);

  const auto agg = client.aggregate_snapshot();
  EXPECT_EQ(agg.submitted, traffic.size());
  EXPECT_EQ(agg.completed, traffic.size());
  EXPECT_EQ(agg.retrieved, traffic.size());
  EXPECT_EQ(agg.rejected, 0u);
  EXPECT_EQ(agg.shed_routine + agg.shed_urgent, 0u);
  client.shutdown(/*send_bye=*/false);
}

TEST(RoutingClient, PipelinedSubmitsFallBackPerWindowOnAV1Fleet) {
  // Shards capped at v1: submit_pipelined degrades to the blocking
  // per-window SUBMIT with identical tickets and results — the caller
  // never has to know which version the fleet negotiated.
  const auto traffic = fleet_traffic(/*patients=*/4, /*beats_per_patient=*/2);
  const auto reference = serial_reference(traffic);

  LocalShard a(1, /*max_version=*/1), b(1, /*max_version=*/1);
  auto cfg = client_config();
  cfg.pipeline_depth = 2;
  cfg.windows_per_submit_frame = 4;
  RoutingClient client(cfg);
  ASSERT_TRUE(client.connect({a.endpoint(), b.endpoint()}));
  EXPECT_EQ(client.shard_wire_version(0), 1);
  EXPECT_EQ(client.shard_wire_version(1), 1);

  std::map<WindowKey, WindowResult> results;
  const auto tickets = run_pipelined(client, traffic, results);
  expect_matches_reference(results, reference);
  EXPECT_EQ(std::set<std::uint64_t>(tickets.begin(), tickets.end()).size(), traffic.size());
  client.shutdown(/*send_bye=*/false);
}

TEST(RoutingClient, MixedVersionFleetNegotiatesPerShard) {
  // One v1-capped shard and one v2 shard in the same topology: the client
  // pipelines to the v2 shard, falls back per-window on the v1 shard, and
  // the merged result set stays bit-exact and conserved.
  const auto traffic = fleet_traffic(/*patients=*/6, /*beats_per_patient=*/2);
  const auto reference = serial_reference(traffic);

  LocalShard old_shard(1, /*max_version=*/1), new_shard(1);
  auto cfg = client_config();
  cfg.pipeline_depth = 2;
  cfg.windows_per_submit_frame = 4;
  RoutingClient client(cfg);
  ASSERT_TRUE(client.connect({old_shard.endpoint(), new_shard.endpoint()}));
  EXPECT_EQ(client.shard_wire_version(0), 1);
  EXPECT_EQ(client.shard_wire_version(1), 2);

  std::map<WindowKey, WindowResult> results;
  (void)run_pipelined(client, traffic, results);
  expect_matches_reference(results, reference);

  const auto agg = client.aggregate_snapshot();
  EXPECT_EQ(agg.submitted, traffic.size());
  EXPECT_EQ(agg.completed, traffic.size());
  EXPECT_EQ(agg.retrieved, traffic.size());
  client.shutdown(/*send_bye=*/false);
}

TEST(RoutingClient, ClientVersionCapForcesV1OnACapableServer) {
  // The staged-rollout knob: a v2-capable server negotiated down to v1 by
  // the client's own ceiling.  Everything still works, just per-window.
  const auto traffic = fleet_traffic(/*patients=*/2, /*beats_per_patient=*/2);
  const auto reference = serial_reference(traffic);

  LocalShard shard(1);
  auto cfg = client_config();
  cfg.max_wire_version = 1;
  cfg.pipeline_depth = 4;
  RoutingClient client(cfg);
  ASSERT_TRUE(client.connect({shard.endpoint()}));
  EXPECT_EQ(client.shard_wire_version(0), 1);

  std::map<WindowKey, WindowResult> results;
  (void)run_pipelined(client, traffic, results);
  expect_matches_reference(results, reference);
  client.shutdown(/*send_bye=*/false);
}

TEST(CrHints, AdvisoryFollowsOwnerShardAndReshardInvalidates) {
  LocalShard hinted(1, kWireVersionMax, /*hint_cr=*/70.0);
  LocalShard plain(1);
  RoutingClient client(client_config());
  ASSERT_TRUE(client.connect({hinted.endpoint()}));

  // No sweep yet: the client refuses to guess.
  EXPECT_FALSE(client.cr_hint(3).has_value());

  ASSERT_TRUE(client.refresh_cr_hints());
  const auto hint = client.cr_hint(3);
  ASSERT_TRUE(hint.has_value());
  EXPECT_DOUBLE_EQ(*hint, 70.0);

  // Reshard: a new routing epoch invalidates the cached sweep outright —
  // a stale hint routed to the wrong shard is worse than no hint.
  ASSERT_TRUE(client.set_topology({hinted.endpoint(), plain.endpoint()}));
  EXPECT_FALSE(client.cr_hint(3).has_value());

  // The next sweep is per-owner: patients on the hinted shard see the
  // advisory, patients on the quiet shard see nothing.
  ASSERT_TRUE(client.refresh_cr_hints());
  for (std::uint32_t patient = 0; patient < 16; ++patient) {
    const auto per_patient = client.cr_hint(patient);
    if (client.owner(patient) == 0) {
      ASSERT_TRUE(per_patient.has_value()) << "patient " << patient;
      EXPECT_DOUBLE_EQ(*per_patient, 70.0);
    } else {
      EXPECT_FALSE(per_patient.has_value()) << "patient " << patient;
    }
  }
  client.shutdown(/*send_bye=*/false);
}

TEST(CrHints, V1ShardsAreSkippedSilently) {
  // A v1 fleet predates the verb: the sweep must succeed as a no-op, not
  // poison the connection with a frame the server will refuse.
  const auto traffic = fleet_traffic(/*patients=*/2, /*beats_per_patient=*/1);
  LocalShard old_shard(1, /*max_version=*/1, /*hint_cr=*/70.0);
  RoutingClient client(client_config());
  ASSERT_TRUE(client.connect({old_shard.endpoint()}));
  EXPECT_EQ(client.shard_wire_version(0), 1);

  EXPECT_TRUE(client.refresh_cr_hints());
  EXPECT_FALSE(client.cr_hint(0).has_value());

  // The connection still works after the sweep.
  for (const auto& window : traffic) {
    CompressedWindow copy = window;
    ASSERT_TRUE(client.submit(std::move(copy)).has_value());
  }
  EXPECT_EQ(client.drain().size(), traffic.size());
  client.shutdown(/*send_bye=*/false);
}

TEST(CrHints, PressureGateOpensUnderBacklogAndClosesAfterDrain) {
  // The production configuration: advisory only while the priced backlog
  // overshoots the deadline budget.  A serial (threads = 0) server engine
  // holds submitted windows queued until POLL, so the test controls the
  // backlog exactly; the pinned 10 ms estimate against a 10 ms deadline
  // means three queued windows price at 30 ms — well past the budget.
  ShardServerConfig cfg;
  cfg.engine = fast_engine(0);
  cfg.engine.slo.deadline_ms = 10.0;
  cfg.engine.shed_solve_estimate_ms = 10.0;
  cfg.wire.fixed_scale = cs::measurement_scale_mv(sig::AdcConfig{});
  cfg.hint_cr_percent = 70.0;
  cfg.hint_backlog_deadlines = 1.0;
  LocalShard shard(std::move(cfg));
  RoutingClient client(client_config());
  ASSERT_TRUE(client.connect({shard.endpoint()}));

  // Idle shard: the sweep answers, but with no advisory.
  ASSERT_TRUE(client.refresh_cr_hints());
  EXPECT_FALSE(client.cr_hint(0).has_value());

  auto traffic = fleet_traffic(/*patients=*/1, /*beats_per_patient=*/2);
  ASSERT_GE(traffic.size(), 3u);
  traffic.resize(3);
  for (auto& window : traffic) {
    ASSERT_TRUE(client.submit(std::move(window)).has_value());
  }

  // Backlog priced past the budget: the gate opens, and the ack names the
  // patient with queued work as well as the shard-wide advisory.
  ASSERT_TRUE(client.refresh_cr_hints());
  const auto pressured = client.cr_hint(0);
  ASSERT_TRUE(pressured.has_value());
  EXPECT_DOUBLE_EQ(*pressured, 70.0);
  const auto advisory_only = client.cr_hint(999);  // No queued windows.
  ASSERT_TRUE(advisory_only.has_value()) << "shard-wide advisory covers every patient";
  EXPECT_DOUBLE_EQ(*advisory_only, 70.0);

  // Draining the backlog closes the gate again.
  EXPECT_EQ(client.drain().size(), 3u);
  ASSERT_TRUE(client.refresh_cr_hints());
  EXPECT_FALSE(client.cr_hint(0).has_value());
  client.shutdown(/*send_bye=*/false);
}

// --- Crash failover and connection-loss accounting ---------------------------

TEST(Backoff, ScheduleIsCappedJitteredAndDeterministic) {
  // Degenerate inputs never sleep.
  EXPECT_EQ(RoutingClient::backoff_delay_ms(0, 10, 2000, 1), 0);
  EXPECT_EQ(RoutingClient::backoff_delay_ms(-3, 10, 2000, 1), 0);
  EXPECT_EQ(RoutingClient::backoff_delay_ms(3, 0, 2000, 1), 0);

  const std::uint64_t seed = 0xABCD;
  for (int attempt = 1; attempt <= 40; ++attempt) {
    const int a = RoutingClient::backoff_delay_ms(attempt, 10, 2000, seed);
    // Deterministic: the same (seed, attempt) replays the same delay.
    EXPECT_EQ(a, RoutingClient::backoff_delay_ms(attempt, 10, 2000, seed));
    // Envelope: base·2^(k-1) clamped to the cap, plus at most +25% jitter.
    const std::int64_t nominal =
        std::min<std::int64_t>(2000, std::int64_t{10} << std::min(attempt - 1, 40));
    EXPECT_GE(a, nominal) << "attempt " << attempt;
    EXPECT_LE(a, nominal + nominal / 4) << "attempt " << attempt;
  }

  // The regression this schedule fixes: attempt counts whose uncapped
  // doubling overflowed int now saturate at the cap (+ jitter) instead.
  for (int attempt : {31, 32, 63, 64, 1000, std::numeric_limits<int>::max()}) {
    const int d = RoutingClient::backoff_delay_ms(attempt, 10, 2000, seed);
    EXPECT_GE(d, 2000) << "attempt " << attempt;
    EXPECT_LE(d, 2500) << "attempt " << attempt;
  }

  // The jitter actually varies with the seed (no thundering herd).
  bool differs = false;
  for (std::uint64_t s = 0; s < 32 && !differs; ++s) {
    differs = RoutingClient::backoff_delay_ms(8, 10, 2000, s) !=
              RoutingClient::backoff_delay_ms(8, 10, 2000, s + 1);
  }
  EXPECT_TRUE(differs);

  // A cap below the base degenerates to the base, never to zero.
  EXPECT_GE(RoutingClient::backoff_delay_ms(5, 100, 10, 7), 100);
  EXPECT_LE(RoutingClient::backoff_delay_ms(5, 100, 10, 7), 125);
}

TEST(Failover, MidStreamDisconnectResolvesTicketsOnceAndNeverDoubleSubmits) {
  // Scripted teardown at an exact frame boundary: frames 0-1 are the two
  // acknowledged SUBMIT_BATCHes of the first flush (a fully synced
  // boundary, so nothing is ambiguously on the wire), frame 2 is the next
  // batch — it dies before reaching the socket.  Its two windows must
  // resolve to nullopt exactly once (the no-resubmit rule), while the
  // four delivered windows are solved, retrieved, and never submitted
  // twice across the reconnect.
  auto traffic = fleet_traffic(/*patients=*/2, /*beats_per_patient=*/3);
  ASSERT_GE(traffic.size(), 8u);

  LocalShard shard(1);
  auto cfg = client_config();
  cfg.pipeline_depth = 2;
  cfg.windows_per_submit_frame = 2;
  cfg.payload_pool = std::make_shared<host::PayloadPool>();
  cfg.fault_inject = [](std::size_t, std::uint64_t frame) { return frame == 2; };
  RoutingClient client(cfg);
  ASSERT_TRUE(client.connect({shard.endpoint()}));

  // First flush: two batches, fully acknowledged.
  for (std::size_t i = 0; i < 4; ++i) {
    CompressedWindow copy = traffic[i];
    EXPECT_TRUE(client.submit_pipelined(std::move(copy)));
  }
  const auto acked = client.flush_submits();
  ASSERT_EQ(acked.size(), 4u);
  for (std::size_t i = 0; i < acked.size(); ++i) {
    EXPECT_TRUE(acked[i].has_value()) << "window " << i;
  }

  // Second round: the sealed batch dies at the scripted frame boundary.
  for (std::size_t i = 4; i < 6; ++i) {
    CompressedWindow copy = traffic[i];
    (void)client.submit_pipelined(std::move(copy));
  }
  const auto tickets = client.flush_submits();
  ASSERT_EQ(tickets.size(), 2u);
  EXPECT_FALSE(tickets[0].has_value()) << "died with the connection";
  EXPECT_FALSE(tickets[1].has_value()) << "died with the connection";
  // Exactly once: a second flush has nothing left to resolve.
  EXPECT_TRUE(client.flush_submits().empty());

  // The next verb reconnects; the four delivered windows surface, each
  // exactly once, and the shard's own counters prove no double-submit.
  const auto results = client.drain();
  EXPECT_EQ(results.size(), 4u);
  std::set<WindowKey> keys;
  for (const auto& r : results) {
    EXPECT_TRUE(keys.insert({r.patient_id, r.window_index}).second)
        << "duplicate result after reconnect";
  }
  auto agg = client.aggregate_snapshot();
  EXPECT_EQ(agg.submitted, 4u) << "a resubmit after reconnect would double-count";
  EXPECT_EQ(agg.completed, 4u);
  EXPECT_EQ(agg.retrieved, 4u);
  EXPECT_EQ(agg.lost, 0u) << "the shard never died; nothing is lost";

  // Post-reconnect submits work and keep counting from four.
  for (std::size_t i = 6; i < 8; ++i) {
    CompressedWindow copy = traffic[i];
    ASSERT_TRUE(client.submit(std::move(copy)).has_value());
  }
  EXPECT_EQ(client.drain().size(), 2u);
  agg = client.aggregate_snapshot();
  EXPECT_EQ(agg.submitted, 6u);

  // No payload leak: every window handed to the client returned its
  // buffers to the pool at stage time — including the six whose tickets
  // died — and nothing was dropped on the floor.
  const auto stats = cfg.payload_pool->stats();
  EXPECT_GE(stats.recycled, 8u);
  EXPECT_EQ(stats.dropped, 0u);
  client.shutdown(/*send_bye=*/false);
}

TEST(Failover, FailShardOpensFailoverEpochAndConservesWithLost) {
  const auto traffic = fleet_traffic(/*patients=*/6, /*beats_per_patient=*/3);
  const auto reference = serial_reference(traffic);

  LocalShard a(1), b(1);
  auto cfg = client_config();
  cfg.reconnect_attempts = 0;  // A dead port fails fast, not after backoff.
  cfg.health_probe_timeout_ms = 500;
  RoutingClient client(cfg);
  ASSERT_TRUE(client.connect({a.endpoint(), b.endpoint()}));

  // Phase 1: a full round trip — everything submitted, solved, retrieved.
  std::map<WindowKey, WindowResult> results;
  for (const auto& window : traffic) {
    CompressedWindow copy = window;
    ASSERT_TRUE(client.submit(std::move(copy)).has_value());
  }
  for (auto&& r : client.drain()) {
    results.emplace(WindowKey{r.patient_id, r.window_index}, std::move(r));
  }
  ASSERT_EQ(results.size(), traffic.size());

  // Phase 2: resubmit the same signals but crash shard 0 before polling:
  // its acknowledged windows are unrecoverable.
  std::uint64_t acked_to_dead = 0;
  std::optional<std::uint32_t> dead_owned_patient;
  for (const auto& window : traffic) {
    CompressedWindow copy = window;
    ASSERT_TRUE(client.submit(std::move(copy)).has_value());
    if (client.owner(window.patient_id) == 0) {
      ++acked_to_dead;
      dead_owned_patient = window.patient_id;
    }
  }
  ASSERT_GT(acked_to_dead, 0u) << "test needs patients on the shard that dies";
  a.kill();

  // Liveness: the survivor answers its probe, the corpse does not.
  EXPECT_TRUE(client.probe_health(1));
  EXPECT_FALSE(client.probe_health(0));
  EXPECT_EQ(client.check_health(), std::vector<std::size_t>{0});
  EXPECT_FALSE(client.shard_failed(0)) << "without auto_failover, detection only";

  // Manual failover: epoch flips, survivors keep their indices, every
  // patient re-homes onto shard 1, and the slot can't fail twice.
  ASSERT_TRUE(client.fail_shard(0));
  EXPECT_EQ(client.epoch(), 1u);
  EXPECT_EQ(client.shard_count(), 2u);
  EXPECT_EQ(client.live_shard_count(), 1u);
  EXPECT_TRUE(client.shard_failed(0));
  EXPECT_FALSE(client.fail_shard(0)) << "already failed";
  EXPECT_FALSE(client.fail_shard(1)) << "the last survivor has nowhere to re-home";
  for (const auto& window : traffic) {
    EXPECT_EQ(client.owner(window.patient_id), 1u);
  }

  // The survivor's phase-2 results still arrive, bit-identical.
  std::size_t survivor_results = 0;
  for (auto&& r : client.drain()) {
    const auto ref = reference.find({r.patient_id, r.window_index});
    ASSERT_NE(ref, reference.end());
    EXPECT_TRUE(bit_identical(r.signal, ref->second.signal))
        << "patient " << r.patient_id << " window " << r.window_index
        << " diverged across the failover";
    ++survivor_results;
  }
  EXPECT_EQ(survivor_results, traffic.size() - acked_to_dead);

  // Crash-proof conservation: the client's own mirrors stand in for the
  // snapshot the dead shard can never surrender.
  const auto agg = client.aggregate_snapshot();
  EXPECT_EQ(agg.lost, acked_to_dead);
  EXPECT_EQ(agg.submitted, 2 * traffic.size());
  EXPECT_EQ(agg.submitted, agg.completed + agg.shed_routine + agg.shed_urgent +
                               agg.rejected + agg.lost)
      << "submitted == completed + shed + rejected + lost must survive a crash";

  // Post-failover service: a window the dead shard would have owned now
  // submits to the survivor under the failover epoch, and the result
  // still matches the serial reference bit for bit.
  ASSERT_TRUE(dead_owned_patient.has_value());
  std::optional<CompressedWindow> rehomed;
  for (const auto& window : traffic) {
    if (window.patient_id == *dead_owned_patient) {
      rehomed = window;
      break;
    }
  }
  ASSERT_TRUE(rehomed.has_value());
  const WindowKey rehomed_key{rehomed->patient_id, rehomed->window_index};
  const auto ticket = client.submit(std::move(*rehomed));
  ASSERT_TRUE(ticket.has_value());
  EXPECT_EQ(host::Topology::ticket_epoch(*ticket), 1u);
  EXPECT_EQ(host::Topology::ticket_shard(*ticket), 1u);
  auto post = client.drain();
  ASSERT_EQ(post.size(), 1u);
  EXPECT_TRUE(bit_identical(post.front().signal, reference.at(rehomed_key).signal));
  client.shutdown(/*send_bye=*/false);
}

TEST(Failover, AutoFailoverReroutesAndKeepsServing) {
  // The full automatic path: a shard dies mid-deployment, the next submit
  // touching it detects the death, fails it over, and lands the in-hand
  // window on the survivor — no manual intervention, counts conserved.
  const auto traffic = fleet_traffic(/*patients=*/6, /*beats_per_patient=*/2);
  const auto reference = serial_reference(traffic);

  LocalShard a(1), b(1);
  auto cfg = client_config();
  cfg.auto_failover = true;
  cfg.reconnect_attempts = 0;
  cfg.health_probe_timeout_ms = 500;
  RoutingClient client(cfg);
  ASSERT_TRUE(client.connect({a.endpoint(), b.endpoint()}));

  // Load both shards, retrieve nothing, then crash shard 0: everything it
  // acknowledged is lost.
  std::uint64_t acked_to_dead = 0;
  for (const auto& window : traffic) {
    CompressedWindow copy = window;
    ASSERT_TRUE(client.submit(std::move(copy)).has_value());
    if (client.owner(window.patient_id) == 0) ++acked_to_dead;
  }
  ASSERT_GT(acked_to_dead, 0u);
  a.kill();

  // Every submit keeps succeeding: the first one to touch the corpse
  // pays for the detection, fails the shard over, and re-routes.
  for (const auto& window : traffic) {
    CompressedWindow copy = window;
    const auto ticket = client.submit(std::move(copy));
    ASSERT_TRUE(ticket.has_value()) << "auto-failover must keep the fleet serving";
    EXPECT_EQ(host::Topology::ticket_shard(*ticket), 1u)
        << "post-failover submits land on the survivor";
  }
  EXPECT_TRUE(client.shard_failed(0));
  EXPECT_EQ(client.epoch(), 1u);
  EXPECT_EQ(client.live_shard_count(), 1u);

  // The survivor serves the re-submitted round bit-identically.
  std::size_t matched = 0;
  for (auto&& r : client.drain()) {
    const auto ref = reference.find({r.patient_id, r.window_index});
    ASSERT_NE(ref, reference.end());
    EXPECT_TRUE(bit_identical(r.signal, ref->second.signal));
    ++matched;
  }
  // Round 1's survivor-shard windows + all of round 2.
  EXPECT_EQ(matched, (traffic.size() - acked_to_dead) + traffic.size());

  const auto agg = client.aggregate_snapshot();
  EXPECT_EQ(agg.lost, acked_to_dead);
  EXPECT_EQ(agg.submitted, 2 * traffic.size());
  EXPECT_EQ(agg.submitted, agg.completed + agg.shed_routine + agg.shed_urgent +
                               agg.rejected + agg.lost);
  client.shutdown(/*send_bye=*/false);
}

TEST(Failover, CheckHealthAutoFailsDeadShardsAndV1ProbesFallBack) {
  // Mixed fleet: the v1 shard is probed via SNAPSHOT_REQUEST (HEALTH does
  // not exist there), the v2 shard via HEALTH.  Killing the v2 shard and
  // sweeping with auto_failover fails exactly it.
  LocalShard old_shard(1, /*max_version=*/1), new_shard(1);
  auto cfg = client_config();
  cfg.auto_failover = true;
  cfg.reconnect_attempts = 0;
  cfg.health_probe_timeout_ms = 500;
  RoutingClient client(cfg);
  ASSERT_TRUE(client.connect({old_shard.endpoint(), new_shard.endpoint()}));
  ASSERT_EQ(client.shard_wire_version(0), 1);
  ASSERT_EQ(client.shard_wire_version(1), 2);

  // Both alive: both probe healthy, whatever verb carries the probe.
  EXPECT_TRUE(client.probe_health(0));
  EXPECT_TRUE(client.probe_health(1));
  EXPECT_TRUE(client.check_health().empty());

  new_shard.kill();
  const auto dead = client.check_health();
  ASSERT_EQ(dead, std::vector<std::size_t>{1});
  EXPECT_TRUE(client.shard_failed(1));
  EXPECT_FALSE(client.shard_failed(0));
  EXPECT_EQ(client.epoch(), 1u);

  // A failed slot probes false forever — never resurrected in place.
  EXPECT_FALSE(client.probe_health(1));
  client.shutdown(/*send_bye=*/false);
}

TEST(Protocol, HealthEchoesNonceAndV1ConnectionsRefuseIt) {
  LocalShard shard(0);
  const auto read_one = [](Fd& fd, std::vector<std::uint8_t>& rx,
                           std::vector<std::uint8_t>& acc, FrameView& view) {
    acc.clear();
    for (;;) {
      const long n = recv_some(fd.get(), rx.data(), rx.size());
      ASSERT_GT(n, 0) << "server closed the connection";
      acc.insert(acc.end(), rx.begin(), rx.begin() + n);
      if (peek_frame(acc, view) == FrameStatus::kOk) break;
    }
  };

  {
    // v2 connection: HEALTH answers HEALTH_ACK with the nonce echoed and
    // the engine's live queue depths (an idle shard reports 0/0).
    Fd fd = tcp_connect("127.0.0.1", shard.server->port(), 2000, 2000);
    ASSERT_TRUE(fd.valid());
    std::vector<std::uint8_t> buf, rx(4096), acc;
    FrameView view;
    encode_hello(buf, HelloPayload{1, 2});
    ASSERT_TRUE(send_all(fd.get(), buf.data(), buf.size()));
    read_one(fd, rx, acc, view);
    ASSERT_EQ(view.type, FrameType::kHelloAck);

    buf.clear();
    encode_health(buf, /*nonce=*/0xFACE5EED);
    ASSERT_TRUE(send_all(fd.get(), buf.data(), buf.size()));
    read_one(fd, rx, acc, view);
    ASSERT_EQ(view.type, FrameType::kHealthAck);
    HealthAckPayload ack;
    ASSERT_TRUE(decode_health_ack(view.payload, ack));
    EXPECT_EQ(ack.nonce, 0xFACE5EEDu);
    EXPECT_EQ(ack.unsolved, 0u);
    EXPECT_EQ(ack.ready, 0u);
  }
  {
    // v1-negotiated connection: HEALTH is a v2 frame above the ceiling.
    Fd fd = tcp_connect("127.0.0.1", shard.server->port(), 2000, 2000);
    ASSERT_TRUE(fd.valid());
    std::vector<std::uint8_t> buf, rx(4096), acc;
    FrameView view;
    encode_hello(buf, HelloPayload{1, 1});
    ASSERT_TRUE(send_all(fd.get(), buf.data(), buf.size()));
    read_one(fd, rx, acc, view);
    ASSERT_EQ(view.type, FrameType::kHelloAck);

    buf.clear();
    encode_health(buf, 1);
    ASSERT_TRUE(send_all(fd.get(), buf.data(), buf.size()));
    read_one(fd, rx, acc, view);
    ASSERT_EQ(view.type, FrameType::kError);
    ErrorPayload error;
    ASSERT_TRUE(decode_error(view.payload, error));
    EXPECT_EQ(error.code, ErrorCode::kUnsupportedVersion);
  }
}

TEST(Protocol, TalkingBeforeHelloIsRefused) {
  LocalShard shard(0);
  Fd fd = tcp_connect("127.0.0.1", shard.server->port(), 2000, 2000);
  ASSERT_TRUE(fd.valid());
  std::vector<std::uint8_t> buf;
  encode_poll(buf, 1);  // POLL before HELLO.
  ASSERT_TRUE(send_all(fd.get(), buf.data(), buf.size()));

  std::vector<std::uint8_t> rx(4096);
  std::vector<std::uint8_t> acc;
  FrameView view;
  for (;;) {
    const long n = recv_some(fd.get(), rx.data(), rx.size());
    ASSERT_GT(n, 0) << "server closed without an ERROR frame";
    acc.insert(acc.end(), rx.begin(), rx.begin() + n);
    const auto status = peek_frame(acc, view);
    if (status == FrameStatus::kOk) break;
    ASSERT_EQ(status, FrameStatus::kNeedMore);
  }
  ASSERT_EQ(view.type, FrameType::kError);
  ErrorPayload error;
  ASSERT_TRUE(decode_error(view.payload, error));
  EXPECT_EQ(error.code, ErrorCode::kNotNegotiated);
}

TEST(Protocol, UnknownVersionGetsErrorNotGuesswork) {
  LocalShard shard(0);
  Fd fd = tcp_connect("127.0.0.1", shard.server->port(), 2000, 2000);
  ASSERT_TRUE(fd.valid());

  // A well-formed frame stamped with a future version (CRC valid).
  std::vector<std::uint8_t> buf;
  encode_poll(buf, 1);
  buf[2] = 7;
  const std::uint32_t crc = crc32c(buf.data(), buf.size() - kFrameTrailerBytes);
  buf[buf.size() - 4] = static_cast<std::uint8_t>(crc);
  buf[buf.size() - 3] = static_cast<std::uint8_t>(crc >> 8);
  buf[buf.size() - 2] = static_cast<std::uint8_t>(crc >> 16);
  buf[buf.size() - 1] = static_cast<std::uint8_t>(crc >> 24);
  ASSERT_TRUE(send_all(fd.get(), buf.data(), buf.size()));

  std::vector<std::uint8_t> rx(4096);
  std::vector<std::uint8_t> acc;
  FrameView view;
  for (;;) {
    const long n = recv_some(fd.get(), rx.data(), rx.size());
    ASSERT_GT(n, 0) << "server closed without an ERROR frame";
    acc.insert(acc.end(), rx.begin(), rx.begin() + n);
    const auto status = peek_frame(acc, view);
    if (status == FrameStatus::kOk) break;
    ASSERT_EQ(status, FrameStatus::kNeedMore);
  }
  ASSERT_EQ(view.type, FrameType::kError);
  ErrorPayload error;
  ASSERT_TRUE(decode_error(view.payload, error));
  EXPECT_EQ(error.code, ErrorCode::kUnsupportedVersion);
}

TEST(Protocol, VersionNegotiationPicksMutualVersion) {
  LocalShard shard(0);
  Fd fd = tcp_connect("127.0.0.1", shard.server->port(), 2000, 2000);
  ASSERT_TRUE(fd.valid());
  // Offer a range spanning far beyond what this build speaks: the server
  // picks the highest version both sides share, which today is v2.
  std::vector<std::uint8_t> buf;
  encode_hello(buf, HelloPayload{1, 200});
  ASSERT_TRUE(send_all(fd.get(), buf.data(), buf.size()));

  std::vector<std::uint8_t> rx(4096);
  std::vector<std::uint8_t> acc;
  FrameView view;
  for (;;) {
    const long n = recv_some(fd.get(), rx.data(), rx.size());
    ASSERT_GT(n, 0);
    acc.insert(acc.end(), rx.begin(), rx.begin() + n);
    if (peek_frame(acc, view) == FrameStatus::kOk) break;
  }
  ASSERT_EQ(view.type, FrameType::kHelloAck);
  std::uint8_t version = 0;
  ASSERT_TRUE(decode_hello_ack(view.payload, version));
  EXPECT_EQ(version, kWireVersionMax);

  // An offer entirely above our ceiling is refused.
  Fd fd2 = tcp_connect("127.0.0.1", shard.server->port(), 2000, 2000);
  ASSERT_TRUE(fd2.valid());
  buf.clear();
  encode_hello(buf, HelloPayload{5, 9});
  ASSERT_TRUE(send_all(fd2.get(), buf.data(), buf.size()));
  acc.clear();
  for (;;) {
    const long n = recv_some(fd2.get(), rx.data(), rx.size());
    ASSERT_GT(n, 0);
    acc.insert(acc.end(), rx.begin(), rx.begin() + n);
    if (peek_frame(acc, view) == FrameStatus::kOk) break;
  }
  ASSERT_EQ(view.type, FrameType::kError);
  ErrorPayload error;
  ASSERT_TRUE(decode_error(view.payload, error));
  EXPECT_EQ(error.code, ErrorCode::kUnsupportedVersion);
}

TEST(Protocol, V2FrameAboveTheNegotiatedVersionIsRefused) {
  // Negotiate v1 explicitly, then send a SUBMIT_BATCH (a v2-layout frame,
  // header version 2).  The server must answer ERROR(UNSUPPORTED_VERSION)
  // — the negotiated ceiling governs frame types, not just the handshake.
  LocalShard shard(0);
  Fd fd = tcp_connect("127.0.0.1", shard.server->port(), 2000, 2000);
  ASSERT_TRUE(fd.valid());

  std::vector<std::uint8_t> buf;
  encode_hello(buf, HelloPayload{1, 1});
  ASSERT_TRUE(send_all(fd.get(), buf.data(), buf.size()));

  std::vector<std::uint8_t> rx(4096);
  std::vector<std::uint8_t> acc;
  FrameView view;
  const auto read_one = [&]() {
    acc.clear();
    for (;;) {
      const long n = recv_some(fd.get(), rx.data(), rx.size());
      ASSERT_GT(n, 0) << "server closed the connection";
      acc.insert(acc.end(), rx.begin(), rx.begin() + n);
      if (peek_frame(acc, view) == FrameStatus::kOk) break;
    }
  };
  read_one();
  ASSERT_EQ(view.type, FrameType::kHelloAck);
  std::uint8_t version = 0;
  ASSERT_TRUE(decode_hello_ack(view.payload, version));
  ASSERT_EQ(version, 1);

  buf.clear();
  std::vector<CompressedWindow> one;
  one.push_back(fleet_traffic(/*patients=*/1, /*beats_per_patient=*/1).front());
  encode_submit_batch(buf, one, kSubmitFlagBlocking, WireEncodeOptions{});
  ASSERT_TRUE(send_all(fd.get(), buf.data(), buf.size()));
  read_one();
  ASSERT_EQ(view.type, FrameType::kError);
  ErrorPayload error;
  ASSERT_TRUE(decode_error(view.payload, error));
  EXPECT_EQ(error.code, ErrorCode::kUnsupportedVersion);
}

}  // namespace
}  // namespace wbsn::net
