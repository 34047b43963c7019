// Consistent-hash ring for patient -> shard routing.
//
// Mod-N routing re-routes almost every patient when the shard count
// changes (a fleet-wide cache flush and SLO-history split per resize).
// Here each shard owns `vnodes` pseudo-random points on a 64-bit
// circle, a patient is owned by the first virtual node at or clockwise of
// its hash point, and a virtual node's position is a pure function of
// (shard index, replica index), independent of the shard *count*.  Growing
// N -> N+1 shards moves only the patients the new points capture (expected
// 1/(N+1)); shrinking moves only the retired shards' patients.  Rings are
// deterministic, so routing can be recomputed anywhere (host::Topology,
// tests, benches).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace wbsn::host {

/// splitmix64 finalizer: a fast, well-mixed stable hash.  patient_id is a
/// dense small integer in most fleets; using it raw would stripe patients
/// in lockstep with id-assignment order, so mix first.
std::uint64_t splitmix64(std::uint64_t x);

class HashRing {
 public:
  /// Builds the ring for `shards` shards (indices 0..shards-1), each
  /// contributing `vnodes` virtual nodes (clamped to >= 1).
  HashRing(std::size_t shards, std::size_t vnodes);

  /// Builds the ring over an explicit (not necessarily contiguous) set of
  /// shard indices.  Because a virtual node's position depends only on
  /// (shard, replica), a ring over {0,1,3} is exactly the {0,1,2,3} ring
  /// with shard 2's points deleted (the failover ring, Topology::fail).
  HashRing(const std::vector<std::size_t>& shard_ids, std::size_t vnodes);

  /// Virtual-node position for (shard, replica): a pure function of its
  /// arguments, which is what makes the ring consistent across resizes.
  static std::uint64_t vnode_point(std::size_t shard, std::size_t replica);

  /// The shard owning `patient_id`: the first virtual node at or after the
  /// patient's point (splitmix64 of its id), wrapping at the top of the
  /// circle.
  std::size_t owner(std::uint32_t patient_id) const;

 private:
  struct Vnode {
    std::uint64_t point = 0;
    std::uint32_t shard = 0;
  };

  std::vector<Vnode> ring_;  ///< Sorted by (point, shard).
};

}  // namespace wbsn::host
