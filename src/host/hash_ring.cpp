#include "host/hash_ring.hpp"

#include <algorithm>
#include <numeric>

namespace wbsn::host {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::uint64_t HashRing::vnode_point(std::size_t shard, std::size_t replica) {
  // Distinct 64-bit input per (shard, replica); the salt keeps virtual
  // nodes out of the (small-integer) patient input range so a vnode and a
  // patient never share a pre-image.
  constexpr std::uint64_t kVnodeSalt = 0x52494E47'00000000ULL;  // "RING"
  return splitmix64(kVnodeSalt ^ (static_cast<std::uint64_t>(shard) << 24) ^
                    static_cast<std::uint64_t>(replica));
}

namespace {

std::vector<std::size_t> contiguous(std::size_t shards) {
  std::vector<std::size_t> ids(shards);
  std::iota(ids.begin(), ids.end(), std::size_t{0});
  return ids;
}

}  // namespace

HashRing::HashRing(std::size_t shards, std::size_t vnodes)
    : HashRing(contiguous(shards), vnodes) {}

HashRing::HashRing(const std::vector<std::size_t>& shard_ids, std::size_t vnodes) {
  vnodes = std::max<std::size_t>(1, vnodes);
  ring_.reserve(shard_ids.size() * vnodes);
  for (const std::size_t shard : shard_ids) {
    for (std::size_t replica = 0; replica < vnodes; ++replica) {
      ring_.push_back({vnode_point(shard, replica), static_cast<std::uint32_t>(shard)});
    }
  }
  // Sort by (point, shard): the shard tie-break makes ownership fully
  // deterministic even in the astronomically unlikely event of two virtual
  // nodes landing on the same point.
  std::sort(ring_.begin(), ring_.end(), [](const Vnode& a, const Vnode& b) {
    return a.point != b.point ? a.point < b.point : a.shard < b.shard;
  });
}

std::size_t HashRing::owner(std::uint32_t patient_id) const {
  const auto it = std::lower_bound(
      ring_.begin(), ring_.end(), splitmix64(patient_id),
      [](const Vnode& vnode, std::uint64_t p) { return vnode.point < p; });
  return it != ring_.end() ? it->shard : ring_.front().shard;  // Wrap.
}

}  // namespace wbsn::host
