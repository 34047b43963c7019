// Cross-transport parity: the in-process ReconstructionFabric and the
// socket RoutingClient route through the same host::Topology.  The same
// patients taken through the same schedule of grow, shrink and fail_shard
// must see identical epochs, owners, submit tickets, mover counts,
// per-patient SLO handoffs and crash losses on both — and, through all of
// it, bit-identical reconstructions.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "cs/pipeline.hpp"
#include "host/reconstruction_fabric.hpp"
#include "host/topology.hpp"
#include "net/routing_client.hpp"
#include "net/shard_server.hpp"
#include "sig/ecg_synth.hpp"
#include "sig/rng.hpp"

namespace wbsn::net {
namespace {

using host::CompressedWindow;
using host::Topology;
using host::WindowResult;
using WindowKey = std::pair<std::uint32_t, std::uint32_t>;

constexpr std::uint32_t kPatients = 24;
constexpr std::size_t kRounds = 6;

host::EngineConfig fast_engine() {
  host::EngineConfig cfg;
  cfg.threads = 1;
  cfg.fista.max_iterations = 25;
  cfg.fista.debias_iterations = 5;
  return cfg;
}

/// rounds[r] holds every patient's r-th window.
std::vector<std::vector<CompressedWindow>> traffic_rounds() {
  std::vector<std::vector<CompressedWindow>> rounds(kRounds);
  for (std::uint32_t p = 0; p < kPatients; ++p) {
    sig::SynthConfig synth;
    synth.num_leads = 1;
    synth.episodes = {{sig::RhythmEpisode::Kind::kSinus, 8}};
    sig::Rng rng(0x9A41700ULL + p);
    host::RecordCompressionConfig compression;
    compression.window_samples = 128;
    compression.cr_percent = 50.0;
    auto windows = host::compress_record(synthesize_ecg(synth, rng), p, compression);
    EXPECT_GE(windows.size(), kRounds);
    for (std::size_t r = 0; r < kRounds && r < windows.size(); ++r) {
      if (p % 4 == 0) windows[r].priority = cs::WindowPriority::kUrgent;
      rounds[r].push_back(std::move(windows[r]));
    }
  }
  return rounds;
}

/// A ShardServer running its event loop on a thread.
struct LocalShard {
  std::unique_ptr<ShardServer> server;
  std::thread loop;

  LocalShard() {
    ShardServerConfig cfg;
    cfg.engine = fast_engine();
    server = std::make_unique<ShardServer>(std::move(cfg));
    EXPECT_TRUE(server->start());
    loop = std::thread([s = server.get()] { s->run(); });
  }
  ~LocalShard() {
    server->stop();
    loop.join();
  }

  ShardEndpoint endpoint() const { return {"127.0.0.1", server->port()}; }
};

bool bit_identical(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

host::FabricConfig two_shard_fabric() {
  host::FabricConfig cfg;
  cfg.shards = 2;
  cfg.engine = fast_engine();
  return cfg;
}

class TransportParity : public ::testing::Test {
 protected:
  TransportParity() : fabric_(two_shard_fabric()) {}

  void SetUp() override {
    slots_ = {fresh_endpoint(), fresh_endpoint()};
    ASSERT_TRUE(client_.connect(slots_));
  }

  ShardEndpoint fresh_endpoint() {
    servers_.push_back(std::make_unique<LocalShard>());
    return servers_.back()->endpoint();
  }

  std::vector<std::size_t> client_owners() const {
    std::vector<std::size_t> out;
    for (std::uint32_t p = 0; p < kPatients; ++p) out.push_back(client_.owner(p));
    return out;
  }

  static std::size_t changed(const std::vector<std::size_t>& before,
                             const std::vector<std::size_t>& after) {
    std::size_t moved = 0;
    for (std::size_t p = 0; p < before.size(); ++p) moved += before[p] != after[p] ? 1 : 0;
    return moved;
  }

  /// Submits one round on both front ends; every submit must get the same
  /// composite ticket (epoch, owner slot, and shard-local sequence).
  void submit_round(const std::vector<CompressedWindow>& round) {
    for (const auto& window : round) {
      CompressedWindow for_fabric = window;
      CompressedWindow for_client = window;
      const std::uint64_t fabric_ticket = fabric_.submit(std::move(for_fabric));
      const auto client_ticket = client_.submit(std::move(for_client));
      ASSERT_TRUE(client_ticket.has_value());
      EXPECT_EQ(Topology::ticket_epoch(fabric_ticket), Topology::ticket_epoch(*client_ticket));
      EXPECT_EQ(Topology::ticket_shard(fabric_ticket), Topology::ticket_shard(*client_ticket));
      EXPECT_EQ(fabric_ticket, *client_ticket) << "patient " << window.patient_id;
      EXPECT_EQ(Topology::ticket_epoch(fabric_ticket), fabric_.epoch());
    }
  }

  /// Same epoch, slots and owners; the same per-patient SLO history on the
  /// owning shard (reshard handoffs carry it, crashes destroy it).
  void expect_same_routing() {
    EXPECT_EQ(fabric_.epoch(), client_.epoch());
    EXPECT_EQ(fabric_.shard_count(), client_.shard_count());
    EXPECT_EQ(fabric_.live_shard_count(), client_.live_shard_count());
    std::map<std::uint32_t, host::SloSnapshot> fabric_history;
    for (const auto& patient : fabric_.patient_slo_snapshots()) {
      fabric_history.emplace(patient.patient_id, patient.slo);
    }
    for (std::uint32_t p = 0; p < kPatients; ++p) {
      EXPECT_EQ(fabric_.shard_of(p), client_.owner(p)) << "patient " << p;
      // No history at all (it died with a crashed shard) reads as zero on
      // both.  Completions race the solver, so only submissions compare.
      const auto state = client_.patient_slo_state(p).value_or(host::SloTrackerState{});
      EXPECT_EQ(fabric_history[p].submitted, state.submitted) << "patient " << p;
    }
  }

  host::ReconstructionFabric fabric_;
  std::vector<std::unique_ptr<LocalShard>> servers_;  ///< Every shard ever started.
  std::vector<ShardEndpoint> slots_;                  ///< The client's endpoint per slot.
  RoutingClient client_;
};

TEST_F(TransportParity, GrowFailShrinkScheduleRoutesIdentically) {
  const auto rounds = traffic_rounds();
  std::size_t round = 0;
  submit_round(rounds[round++]);
  expect_same_routing();

  // Grow 2 -> 4.
  auto before = client_owners();
  const auto grown = fabric_.resize(4);
  slots_.push_back(fresh_endpoint());
  slots_.push_back(fresh_endpoint());
  ASSERT_TRUE(client_.set_topology(slots_));
  EXPECT_GT(grown.moved_patients, 0u);
  EXPECT_EQ(grown.moved_patients, changed(before, client_owners()));
  expect_same_routing();
  submit_round(rounds[round++]);

  // Crash slot 1 with its windows unretrieved: both front ends lose them.
  before = client_owners();
  const auto failed = fabric_.fail_shard(1);
  ASSERT_TRUE(client_.fail_shard(1));
  EXPECT_GT(failed.lost_windows, 0u);
  EXPECT_EQ(failed.moved_patients, changed(before, client_owners()));
  EXPECT_EQ(fabric_.slo_snapshot().lost, client_.aggregate_snapshot().lost);
  expect_same_routing();
  submit_round(rounds[round++]);

  // Shrink to 3: slot 1 is re-provisioned with a fresh shard, slot 3
  // retires.
  before = client_owners();
  const auto shrunk = fabric_.resize(3);
  slots_[1] = fresh_endpoint();
  slots_.pop_back();
  ASSERT_TRUE(client_.set_topology(slots_));
  EXPECT_EQ(shrunk.moved_patients, changed(before, client_owners()));
  expect_same_routing();
  submit_round(rounds[round++]);

  // Crash slot 0, then shrink to 2 (re-provisioning slot 0, retiring 2).
  before = client_owners();
  const auto failed_again = fabric_.fail_shard(0);
  ASSERT_TRUE(client_.fail_shard(0));
  EXPECT_EQ(failed_again.moved_patients, changed(before, client_owners()));
  expect_same_routing();
  submit_round(rounds[round++]);

  before = client_owners();
  const auto last = fabric_.resize(2);
  slots_[0] = fresh_endpoint();
  slots_.pop_back();
  ASSERT_TRUE(client_.set_topology(slots_));
  EXPECT_EQ(last.moved_patients, changed(before, client_owners()));
  expect_same_routing();
  submit_round(rounds[round++]);
  EXPECT_EQ(fabric_.epoch(), 5u);

  // The same windows survive on both, bit-identical, with the same
  // composite tickets; both ledgers conserve with the same losses.
  std::map<WindowKey, WindowResult> from_fabric;
  for (auto&& r : fabric_.drain()) {
    from_fabric.emplace(WindowKey{r.patient_id, r.window_index}, std::move(r));
  }
  std::size_t matched = 0;
  for (const auto& r : client_.drain()) {
    const auto twin = from_fabric.find({r.patient_id, r.window_index});
    ASSERT_NE(twin, from_fabric.end()) << "patient " << r.patient_id;
    EXPECT_EQ(twin->second.ticket, r.ticket);
    EXPECT_TRUE(bit_identical(twin->second.signal, r.signal));
    ++matched;
  }
  EXPECT_EQ(matched, from_fabric.size());

  const auto fabric_slo = fabric_.slo_snapshot();
  const auto client_slo = client_.aggregate_snapshot();
  EXPECT_EQ(fabric_slo.submitted, kPatients * kRounds);
  EXPECT_EQ(client_slo.submitted, fabric_slo.submitted);
  EXPECT_EQ(client_slo.completed, fabric_slo.completed);
  EXPECT_EQ(client_slo.lost, fabric_slo.lost);
  EXPECT_EQ(fabric_slo.submitted, fabric_slo.completed + fabric_slo.shed_routine +
                                      fabric_slo.shed_urgent + fabric_slo.lost);
  EXPECT_EQ(client_slo.submitted, client_slo.completed + client_slo.shed_routine +
                                      client_slo.shed_urgent + client_slo.rejected +
                                      client_slo.lost);
  client_.shutdown(/*send_bye=*/false);
}

}  // namespace
}  // namespace wbsn::net
