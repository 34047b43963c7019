// The ISSUE 7 acceptance test: the fabric's PR 5 guarantees must survive
// real process boundaries.  Each shard here is a fork/exec'd shard_serverd
// daemon (path injected at build time via WBSN_SHARD_SERVERD_PATH), the
// client talks to it over loopback TCP, and the topology is grown and
// shrunk live with traffic in flight.  Assertions: bit-identical
// reconstructed signals vs a serial in-process reference, unique composite
// tickets round-tripping through reshards, and counter conservation
// (submitted == completed + shed, attempts == submitted + rejected) across
// the whole topology history including retired daemons.
//
// Daemon lifecycle: shard_serverd prints `PORT <n>` once listening (the
// readiness handshake) and runs stop_on_bye, so RoutingClient::retire()'s
// BYE — and shutdown(send_bye=true) at the end — are also the daemons'
// shutdown signal.  Every child is waitpid()ed and must exit 0.

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cs/pipeline.hpp"
#include "host/reconstruction_fabric.hpp"
#include "net/routing_client.hpp"
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

std::map<WindowKey, WindowResult> serial_reference(
    const std::vector<CompressedWindow>& traffic) {
  // Default engine config: the daemons solve with stock FISTA settings
  // (the CLI exposes capacity/deadline knobs, not solver internals), so
  // the reference must too.
  EngineConfig cfg;
  cfg.threads = 0;
  std::map<WindowKey, WindowResult> reference;
  ReconstructionEngine serial(cfg);
  for (const auto& window : traffic) {
    CompressedWindow copy = window;
    serial.submit(std::move(copy));
  }
  for (auto& result : serial.drain()) {
    reference.emplace(WindowKey{result.patient_id, result.window_index}, std::move(result));
  }
  return reference;
}

/// One shard_serverd child process.  Spawns the daemon with its stdout on
/// a pipe, blocks until the `PORT <n>` readiness line arrives, and insists
/// on a clean exit (the BYE path) in reap().
class ShardDaemon {
 public:
  ShardDaemon() { spawn(); }

 private:
  // gtest fatal assertions need a void function; the constructor defers here.
  void spawn() {
    int out[2] = {-1, -1};
    EXPECT_EQ(::pipe(out), 0);
    pid_ = ::fork();
    ASSERT_NE(pid_, -1);
    if (pid_ == 0) {
      // Child: stdout -> pipe, then become the daemon.
      ::dup2(out[1], STDOUT_FILENO);
      ::close(out[0]);
      ::close(out[1]);
      const std::string scale = std::to_string(cs::measurement_scale_mv(sig::AdcConfig{}));
      ::execl(WBSN_SHARD_SERVERD_PATH, "shard_serverd", "--threads", "1",
              "--fixed-scale", scale.c_str(), static_cast<char*>(nullptr));
      std::perror("execl shard_serverd");
      ::_exit(127);
    }
    ::close(out[1]);

    // Read the readiness line: "PORT <n>\n".
    std::string line;
    char ch = 0;
    while (::read(out[0], &ch, 1) == 1 && ch != '\n') line.push_back(ch);
    ::close(out[0]);
    unsigned port = 0;
    ASSERT_EQ(std::sscanf(line.c_str(), "PORT %u", &port), 1)
        << "daemon readiness line was: '" << line << "'";
    port_ = static_cast<std::uint16_t>(port);
  }

 public:
  ~ShardDaemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
  }

  /// Waits for the daemon to exit on its own (after BYE) and asserts a
  /// clean status.  After this the destructor has nothing to do.
  void reap() {
    ASSERT_GT(pid_, 0);
    int status = 0;
    ASSERT_EQ(::waitpid(pid_, &status, 0), pid_);
    EXPECT_TRUE(WIFEXITED(status)) << "daemon killed by signal " << WTERMSIG(status);
    if (WIFEXITED(status)) {
      EXPECT_EQ(WEXITSTATUS(status), 0);
    }
    pid_ = -1;
  }

  ShardEndpoint endpoint() const { return {"127.0.0.1", port_}; }

 private:
  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
};

TEST(MultiProcessReshard, LiveGrowAndShrinkAcrossProcessBoundaries) {
  const auto traffic = fleet_traffic(/*patients=*/6, /*beats_per_patient=*/3);
  const auto reference = serial_reference(traffic);

  // Four real daemon processes; the topology never has fewer than two live.
  ShardDaemon d0, d1, d2, d3;

  RoutingClientConfig client_cfg;
  client_cfg.wire.fixed_scale = cs::measurement_scale_mv(sig::AdcConfig{});
  RoutingClient client(client_cfg);
  ASSERT_TRUE(client.connect({d0.endpoint(), d1.endpoint()}));
  ASSERT_EQ(client.shard_count(), 2u);

  std::map<WindowKey, WindowResult> results;
  std::set<std::uint64_t> tickets;
  const auto keep = [&](WindowResult&& r) {
    const WindowKey key{r.patient_id, r.window_index};
    EXPECT_TRUE(tickets.insert(r.ticket).second) << "duplicate ticket";
    EXPECT_TRUE(results.emplace(key, std::move(r)).second) << "duplicate result";
  };
  const auto pump = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      CompressedWindow copy = traffic[i];
      const auto ticket = client.submit(std::move(copy));
      ASSERT_TRUE(ticket.has_value());
      EXPECT_EQ(host::Topology::ticket_epoch(*ticket), client.epoch());
      if (auto r = client.poll()) keep(std::move(*r));
    }
  };

  const std::size_t third = traffic.size() / 3;
  pump(0, third);

  // Live grow 2 -> 4 with traffic in flight.
  ASSERT_TRUE(client.set_topology(
      {d0.endpoint(), d1.endpoint(), d2.endpoint(), d3.endpoint()}));
  EXPECT_EQ(client.epoch(), 1u);
  EXPECT_EQ(client.shard_count(), 4u);
  pump(third, 2 * third);

  // Live shrink 4 -> 2: d0 and d2 retire mid-stream.  retire() dismisses
  // them with BYE, which is also their process-exit signal.
  ASSERT_TRUE(client.set_topology({d1.endpoint(), d3.endpoint()}));
  EXPECT_EQ(client.epoch(), 2u);
  EXPECT_EQ(client.shard_count(), 2u);
  d0.reap();
  d2.reap();
  pump(2 * third, traffic.size());

  for (auto&& r : client.drain()) keep(std::move(r));
  ASSERT_EQ(results.size(), traffic.size());
  for (const auto& [key, expected] : reference) {
    const auto found = results.find(key);
    ASSERT_NE(found, results.end());
    EXPECT_TRUE(bit_identical(found->second.signal, expected.signal))
        << "patient " << key.first << " window " << key.second
        << " diverged across process boundaries";
    EXPECT_EQ(found->second.iterations, expected.iterations);
    EXPECT_EQ(found->second.snr_db, expected.snr_db);
  }

  // Conservation across the whole topology history: the two retired
  // daemons' final snapshots are folded into the aggregate.
  const auto agg = client.aggregate_snapshot();
  EXPECT_EQ(agg.submitted, traffic.size());
  EXPECT_EQ(agg.completed, traffic.size());
  EXPECT_EQ(agg.retrieved, traffic.size());
  EXPECT_EQ(agg.rejected, 0u);
  EXPECT_EQ(agg.shed_routine + agg.shed_urgent, 0u);
  EXPECT_EQ(agg.submitted, agg.completed + agg.shed_routine + agg.shed_urgent);
  EXPECT_EQ(agg.unsolved, 0u);
  EXPECT_EQ(agg.ready, 0u);

  // Dismiss the two survivors and verify they exit cleanly too.
  client.shutdown(/*send_bye=*/true);
  d1.reap();
  d3.reap();
}

TEST(MultiProcessReshard, PipelinedSubmitsConserveAcrossALiveReshard) {
  // The ISSUE 8 acceptance variant: same process-boundary conservation
  // contract, but every window goes through the v2 pipelined submit path
  // (batched frames, deferred tickets).  A live grow lands mid-stream
  // with batches still unflushed — set_topology must sync the pipelines
  // before the epoch flips, and the deferred tickets must still compose
  // with their *submission* epoch.
  const auto traffic = fleet_traffic(/*patients=*/6, /*beats_per_patient=*/2);
  const auto reference = serial_reference(traffic);

  ShardDaemon d0, d1, d2;
  RoutingClientConfig client_cfg;
  client_cfg.wire.fixed_scale = cs::measurement_scale_mv(sig::AdcConfig{});
  client_cfg.pipeline_depth = 2;
  client_cfg.windows_per_submit_frame = 4;
  RoutingClient client(client_cfg);
  ASSERT_TRUE(client.connect({d0.endpoint(), d1.endpoint()}));
  ASSERT_EQ(client.shard_wire_version(0), 2u) << "daemons must negotiate v2 by default";

  const std::size_t half = traffic.size() / 2;
  std::vector<std::size_t> expected_owner(traffic.size());
  for (std::size_t i = 0; i < half; ++i) {
    CompressedWindow copy = traffic[i];
    expected_owner[i] = client.owner(copy.patient_id);
    ASSERT_TRUE(client.submit_pipelined(std::move(copy)));
  }

  // Live grow 2 -> 3 with batches staged and ACKs outstanding.
  ASSERT_TRUE(client.set_topology({d0.endpoint(), d1.endpoint(), d2.endpoint()}));
  EXPECT_EQ(client.epoch(), 1u);
  for (std::size_t i = half; i < traffic.size(); ++i) {
    CompressedWindow copy = traffic[i];
    expected_owner[i] = client.owner(copy.patient_id);
    ASSERT_TRUE(client.submit_pipelined(std::move(copy)));
  }

  const auto tickets = client.flush_submits();
  ASSERT_EQ(tickets.size(), traffic.size());
  std::set<std::uint64_t> unique;
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    ASSERT_TRUE(tickets[i].has_value()) << "window " << i << " lost its ticket";
    EXPECT_TRUE(unique.insert(*tickets[i]).second) << "duplicate ticket";
    EXPECT_EQ(host::Topology::ticket_epoch(*tickets[i]), i < half ? 0u : 1u)
        << "window " << i << " must compose with its submission epoch";
    EXPECT_EQ(host::Topology::ticket_shard(*tickets[i]), expected_owner[i])
        << "window " << i;
  }

  std::map<WindowKey, WindowResult> results;
  std::set<std::uint64_t> result_tickets;
  for (auto&& r : client.drain()) {
    const WindowKey key{r.patient_id, r.window_index};
    EXPECT_TRUE(result_tickets.insert(r.ticket).second) << "duplicate ticket";
    EXPECT_TRUE(results.emplace(key, std::move(r)).second) << "duplicate result";
  }
  ASSERT_EQ(results.size(), traffic.size());
  EXPECT_EQ(result_tickets, unique)
      << "every result must echo the composite ticket its flush returned";
  for (const auto& [key, expected] : reference) {
    const auto found = results.find(key);
    ASSERT_NE(found, results.end());
    EXPECT_TRUE(bit_identical(found->second.signal, expected.signal))
        << "patient " << key.first << " window " << key.second
        << " diverged under pipelining across process boundaries";
    EXPECT_EQ(found->second.iterations, expected.iterations);
  }

  const auto agg = client.aggregate_snapshot();
  EXPECT_EQ(agg.submitted, traffic.size());
  EXPECT_EQ(agg.completed, traffic.size());
  EXPECT_EQ(agg.retrieved, traffic.size());
  EXPECT_EQ(agg.rejected, 0u);
  EXPECT_EQ(agg.shed_routine + agg.shed_urgent, 0u);
  EXPECT_EQ(agg.unsolved, 0u);
  EXPECT_EQ(agg.ready, 0u);

  client.shutdown(/*send_bye=*/true);
  d0.reap();
  d1.reap();
  d2.reap();
}

TEST(MultiProcessReshard, SloHistorySurvivesDaemonMigration) {
  const auto traffic = fleet_traffic(/*patients=*/4, /*beats_per_patient=*/2);

  ShardDaemon d0, d1, d2;
  RoutingClientConfig client_cfg;
  client_cfg.wire.fixed_scale = cs::measurement_scale_mv(sig::AdcConfig{});
  RoutingClient client(client_cfg);
  ASSERT_TRUE(client.connect({d0.endpoint(), d1.endpoint()}));

  std::map<std::uint32_t, std::uint64_t> per_patient_submitted;
  for (const auto& window : traffic) {
    CompressedWindow copy = window;
    ASSERT_TRUE(client.submit(std::move(copy)).has_value());
    ++per_patient_submitted[window.patient_id];
  }
  (void)client.drain();

  // Rotate the fleet twice: d0 retires, then d1 retires.  Every patient's
  // SLO history must follow them through both migrations.
  ASSERT_TRUE(client.set_topology({d1.endpoint(), d2.endpoint()}));
  d0.reap();
  ASSERT_TRUE(client.set_topology({d2.endpoint()}));
  d1.reap();

  for (const auto& [patient, submitted] : per_patient_submitted) {
    const auto state = client.patient_slo_state(patient);
    ASSERT_TRUE(state.has_value()) << "patient " << patient << " lost their tracker";
    EXPECT_EQ(state->submitted, submitted) << "patient " << patient;
    EXPECT_EQ(state->completed, submitted) << "patient " << patient;
    EXPECT_EQ(state->retrieved, submitted) << "patient " << patient;
  }

  client.shutdown(/*send_bye=*/true);
  d2.reap();
}

}  // namespace
}  // namespace wbsn::net
