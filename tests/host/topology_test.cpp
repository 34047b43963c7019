// host::Topology — the routing core under both the in-process fabric and
// the wire RoutingClient: the ticket layout, the per-epoch rings, mover
// scans under a caller's shard-identity test, the failover flip, and the
// crash fold.
#include "host/topology.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <thread>
#include <vector>

#include "host/reconstruction_engine.hpp"

namespace wbsn::host {
namespace {

constexpr std::uint32_t kPatients = 2000;

bool same_slot(std::size_t old_slot, std::size_t new_slot) { return old_slot == new_slot; }

void note_all(Topology& topology) {
  for (std::uint32_t p = 0; p < kPatients; ++p) topology.note_patient(p);
}

TEST(Topology, TicketFieldsRoundTripAndTileAllBits) {
  // Epoch | shard | local bit fields round-trip independently, including
  // at each field's maximum value.
  const auto ticket = Topology::compose_ticket(5, 3, 41);
  EXPECT_EQ(Topology::ticket_epoch(ticket), 5u);
  EXPECT_EQ(Topology::ticket_shard(ticket), 3u);
  EXPECT_EQ(Topology::ticket_local(ticket), 41u);

  constexpr std::uint32_t kMaxEpoch = (1u << Topology::kEpochBits) - 1;
  constexpr std::size_t kMaxShard = (std::size_t{1} << Topology::kShardBits) - 1;
  constexpr std::uint64_t kMaxLocal = (std::uint64_t{1} << Topology::kLocalTicketBits) - 1;
  const auto max_ticket = Topology::compose_ticket(kMaxEpoch, kMaxShard, kMaxLocal);
  EXPECT_EQ(Topology::ticket_epoch(max_ticket), kMaxEpoch);
  EXPECT_EQ(Topology::ticket_shard(max_ticket), kMaxShard);
  EXPECT_EQ(Topology::ticket_local(max_ticket), kMaxLocal);
  EXPECT_EQ(max_ticket, ~std::uint64_t{0}) << "the three fields must tile all 64 bits";
}

TEST(Topology, EveryEpochKeepsItsRingForResultTickets) {
  Topology topology(3);
  EXPECT_EQ(topology.epoch(), 0u);
  EXPECT_EQ(topology.slots(), 3u);
  EXPECT_EQ(topology.live_count(), 3u);

  const HashRing ring3(3, Topology::kVnodesPerShard);
  const HashRing ring5(5, Topology::kVnodesPerShard);
  EXPECT_EQ(topology.resize(5), 1u);
  EXPECT_EQ(topology.slots(), 5u);
  for (std::uint32_t p = 0; p < kPatients; ++p) {
    EXPECT_EQ(topology.owner(p), ring5.owner(p));
    EXPECT_EQ(topology.owner_at(0, p), ring3.owner(p));
    EXPECT_EQ(topology.owner_at(1, p), ring5.owner(p));
  }

  // A result composes with the slot of its submission epoch, whatever the
  // topology is now.
  WindowResult result;
  result.patient_id = 7;
  result.route_tag = 0;
  result.ticket = 12;
  const auto ticket = topology.result_ticket(result);
  EXPECT_EQ(Topology::ticket_epoch(ticket), 0u);
  EXPECT_EQ(Topology::ticket_shard(ticket), ring3.owner(7));
  EXPECT_EQ(Topology::ticket_local(ticket), 12u);
  EXPECT_EQ(topology.owner_at(99, 7), 0u) << "an epoch never opened names slot 0";

  // A zero-shard request still routes somewhere.
  EXPECT_EQ(topology.resize(0), 2u);
  EXPECT_EQ(topology.slots(), 1u);
  EXPECT_EQ(topology.owner(123), 0u);
}

TEST(Topology, MoversFollowTheCallersShardIdentity) {
  Topology topology(4);
  note_all(topology);
  EXPECT_EQ(topology.known_patients(), kPatients);

  // Growing 4 -> 5 by slot identity: exactly the patients whose owning
  // slot changed, sorted, and every one of them lands on the new slot.
  topology.resize(5);
  const auto grown = topology.movers(0, same_slot);
  EXPECT_TRUE(std::is_sorted(grown.begin(), grown.end()));
  std::size_t expected = 0;
  for (std::uint32_t p = 0; p < kPatients; ++p) {
    if (topology.owner_at(0, p) != topology.owner(p)) ++expected;
  }
  EXPECT_EQ(grown.size(), expected);
  EXPECT_GT(grown.size(), 0u);
  for (const std::uint32_t p : grown) EXPECT_EQ(topology.owner(p), 4u);

  // The same flip under an identity that calls every old slot the same
  // shard as every new one (an index shift that keeps the endpoint) moves
  // nobody.
  EXPECT_TRUE(topology.movers(0, [](std::size_t, std::size_t) { return true; }).empty());

  // Shrinking 5 -> 4 moves exactly slot 4's patients back.
  topology.resize(4);
  const auto shrunk = topology.movers(1, same_slot);
  EXPECT_EQ(shrunk, grown);
}

TEST(Topology, FailoverRehomesOnlyTheDeadSlotAndKeepsTheLastSurvivor) {
  Topology topology(3);
  note_all(topology);
  EXPECT_FALSE(topology.fail(3)) << "not a slot";

  ASSERT_TRUE(topology.fail(1));
  EXPECT_EQ(topology.epoch(), 1u);
  EXPECT_EQ(topology.slots(), 3u) << "the hole keeps survivor indices stable";
  EXPECT_FALSE(topology.live(1));
  EXPECT_EQ(topology.live_count(), 2u);
  EXPECT_FALSE(topology.fail(1)) << "already failed";

  const auto moved = topology.movers(0, same_slot);
  ASSERT_FALSE(moved.empty());
  for (const std::uint32_t p : moved) {
    EXPECT_EQ(topology.owner_at(0, p), 1u);
    EXPECT_NE(topology.owner(p), 1u);
  }
  for (std::uint32_t p = 0; p < kPatients; ++p) {
    EXPECT_NE(topology.owner(p), 1u);
    if (topology.owner_at(0, p) != 1u) {
      EXPECT_EQ(topology.owner(p), topology.owner_at(0, p));
    }
  }

  ASSERT_TRUE(topology.fail(0));
  EXPECT_FALSE(topology.fail(2)) << "the last survivor has nowhere to re-home";
  EXPECT_EQ(topology.epoch(), 2u);
  EXPECT_EQ(topology.live_count(), 1u);

  // A resize makes every slot in range live again.
  topology.resize(3);
  EXPECT_EQ(topology.live_count(), 3u);
}

TEST(Topology, CrashFoldConservesEveryAdmittedWindow) {
  Topology topology(2);
  CrashLedger tally;
  tally.submitted = 10;
  tally.completed = 4;
  tally.shed_routine = 1;
  tally.shed_urgent = 2;
  tally.rejected = 5;
  tally.deadline_violations = 3;
  EXPECT_EQ(topology.fold_crash(tally), 3u);

  // A tally read while workers still shed cannot push lost below zero.
  CrashLedger racy;
  racy.submitted = 2;
  racy.completed = 1;
  racy.shed_routine = 3;
  EXPECT_EQ(topology.fold_crash(racy), 0u);

  const CrashLedger& crashed = topology.crashed();
  EXPECT_EQ(crashed.submitted, 12u);
  EXPECT_EQ(crashed.completed, 5u);
  EXPECT_EQ(crashed.shed_routine, 4u);
  EXPECT_EQ(crashed.shed_urgent, 2u);
  EXPECT_EQ(crashed.rejected, 5u);
  EXPECT_EQ(crashed.deadline_violations, 3u);
  EXPECT_EQ(crashed.lost, 3u);
}

TEST(Topology, ConcurrentNotesAreAllRecorded) {
  Topology topology(2);
  std::vector<std::thread> writers;
  for (std::uint32_t t = 0; t < 4; ++t) {
    writers.emplace_back([&topology, t] {
      for (std::uint32_t p = t; p < kPatients; p += 2) topology.note_patient(p);
    });
  }
  for (auto& writer : writers) writer.join();
  EXPECT_EQ(topology.known_patients(), kPatients);
}

}  // namespace
}  // namespace wbsn::host
