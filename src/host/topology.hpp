// The routing core under both front ends that place windows on shards,
// the in-process ReconstructionFabric and the socket net::RoutingClient:
// epochs and the ring of every epoch, the ticket layout, the patient
// registry and resize movers, the failover flip, and the crash fold.
//
// The patient registry is thread-safe.  Callers serialize resize(), fail()
// and fold_crash() against every other call (the fabric under its topology
// lock, the client by being single-threaded); past epochs' rings never
// change.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <unordered_set>
#include <vector>

#include "host/hash_ring.hpp"

namespace wbsn::host {

struct WindowResult;

/// Counters of crash-failed shards.  Engine-wide only: a dead shard's
/// lane split below the shed/lost line is unknowable.
struct CrashLedger {
  std::uint64_t submitted = 0;  ///< Windows the shard acknowledged.
  std::uint64_t completed = 0;  ///< Results retrieved before the crash.
  std::uint64_t shed_routine = 0;
  std::uint64_t shed_urgent = 0;
  std::uint64_t rejected = 0;
  std::uint64_t deadline_violations = 0;
  std::uint64_t lost = 0;
};

class Topology {
 public:
  /// Composite tickets pack epoch | shard | shard-local ticket: local
  /// tickets in the low 40 bits (34 years at 1k windows/s/shard), the
  /// owning slot in the next 12, the submission epoch in the top 12.  An
  /// engine is only ever created under a fresh epoch, so tickets are
  /// unique across any sequence of resizes until the epoch wraps at 4096.
  static constexpr unsigned kLocalTicketBits = 40;
  static constexpr unsigned kShardBits = 12;
  static constexpr unsigned kEpochBits = 12;
  static std::uint64_t compose_ticket(std::uint32_t epoch, std::size_t shard,
                                      std::uint64_t local) {
    return (static_cast<std::uint64_t>(epoch & ((1u << kEpochBits) - 1))
            << (kLocalTicketBits + kShardBits)) |
           (static_cast<std::uint64_t>(shard) << kLocalTicketBits) | local;
  }
  static std::uint32_t ticket_epoch(std::uint64_t ticket) {
    return static_cast<std::uint32_t>(ticket >> (kLocalTicketBits + kShardBits)) &
           ((1u << kEpochBits) - 1);
  }
  static std::size_t ticket_shard(std::uint64_t ticket) {
    return static_cast<std::size_t>(ticket >> kLocalTicketBits) & ((1u << kShardBits) - 1);
  }
  static std::uint64_t ticket_local(std::uint64_t ticket) {
    return ticket & ((std::uint64_t{1} << kLocalTicketBits) - 1);
  }

  /// Ring points per shard, in every epoch, for both front ends: more
  /// points smooth the load split and the per-resize move fraction toward
  /// the ideal 1/N at the cost of a slightly larger routing table.
  /// Placement is a pure function of (patient_id, shard set, this), so it
  /// is a fleet-wide constant rather than a per-front-end setting.
  static constexpr std::size_t kVnodesPerShard = 64;

  /// Epoch 0: `shards` live slots (clamped to >= 1).
  explicit Topology(std::size_t shards);

  std::uint32_t epoch() const { return static_cast<std::uint32_t>(rings_.size() - 1); }

  /// Slots of the current epoch, crash-failed holes included (index
  /// identity keeps composite tickets stable across failovers).
  std::size_t slots() const { return live_.size(); }
  bool live(std::size_t slot) const { return slot < live_.size() && live_[slot]; }
  std::size_t live_count() const;

  /// The slot owning `patient_id` under the current epoch.
  std::size_t owner(std::uint32_t patient_id) const { return rings_.back().owner(patient_id); }

  /// The slot that owned `patient_id` under `epoch` (0 for an epoch never
  /// opened) — where a window submitted then was admitted.
  std::size_t owner_at(std::uint32_t epoch, std::uint32_t patient_id) const;

  /// A polled result's composite ticket: route_tag carries its submission
  /// epoch, whose ring names the admitting slot; result.ticket is local.
  std::uint64_t result_ticket(const WindowResult& result) const;

  /// Records a routed patient for later mover scans.  Thread-safe.
  void note_patient(std::uint32_t patient_id);
  std::size_t known_patients() const;

  /// Opens a resize epoch over `shards` contiguous live slots (clamped to
  /// >= 1; crash-failed holes in range are live again).  Returns it.
  std::uint32_t resize(std::size_t shards);

  /// Opens a failover epoch with `slot` dead: the ring minus its points,
  /// so only its patients move and every survivor keeps its index.  False
  /// (nothing changes) when `slot` is not live or is the last live slot.
  bool fail(std::size_t slot);

  /// Is `old_slot` (under an earlier epoch) the same shard as `new_slot`
  /// (under the current one)?  Unset compares indices (the fabric); the
  /// client compares connections, so an index shift that keeps an endpoint
  /// moves nobody.
  using SameShard = std::function<bool(std::size_t old_slot, std::size_t new_slot)>;

  /// Every noted patient whose owner under epoch `from` is not the same
  /// shard as its owner now, sorted (a deterministic handoff order).
  std::vector<std::uint32_t> movers(std::uint32_t from, const SameShard& same_shard = {}) const;

  /// Folds a crash-failed shard's counters (its `lost` is ignored) into
  /// the ledger and returns its lost windows: submitted - completed -
  /// shed, never negative.
  std::uint64_t fold_crash(const CrashLedger& shard);
  const CrashLedger& crashed() const { return crashed_; }

 private:
  std::vector<HashRing> rings_;  ///< rings_[e] routes epoch e; never empty.
  std::vector<bool> live_;       ///< Current epoch's slots.
  CrashLedger crashed_;

  mutable std::mutex patients_mutex_;
  std::unordered_set<std::uint32_t> patients_;  ///< Every patient ever routed.
};

}  // namespace wbsn::host
