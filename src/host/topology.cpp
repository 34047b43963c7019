#include "host/topology.hpp"

#include <algorithm>

#include "host/reconstruction_engine.hpp"

namespace wbsn::host {

Topology::Topology(std::size_t shards) { resize(shards); }

std::size_t Topology::live_count() const {
  return static_cast<std::size_t>(std::count(live_.begin(), live_.end(), true));
}

std::size_t Topology::owner_at(std::uint32_t epoch, std::uint32_t patient_id) const {
  return epoch < rings_.size() ? rings_[epoch].owner(patient_id) : 0;
}

std::uint64_t Topology::result_ticket(const WindowResult& result) const {
  return compose_ticket(result.route_tag, owner_at(result.route_tag, result.patient_id),
                        result.ticket);
}

void Topology::note_patient(std::uint32_t patient_id) {
  std::lock_guard<std::mutex> lk(patients_mutex_);
  patients_.insert(patient_id);
}

std::size_t Topology::known_patients() const {
  std::lock_guard<std::mutex> lk(patients_mutex_);
  return patients_.size();
}

std::uint32_t Topology::resize(std::size_t shards) {
  shards = std::max<std::size_t>(1, shards);
  rings_.emplace_back(shards, kVnodesPerShard);
  live_.assign(shards, true);
  return epoch();
}

bool Topology::fail(std::size_t slot) {
  if (!live(slot)) return false;
  std::vector<std::size_t> survivors;
  for (std::size_t i = 0; i < live_.size(); ++i) {
    if (i != slot && live_[i]) survivors.push_back(i);
  }
  if (survivors.empty()) return false;
  rings_.emplace_back(survivors, kVnodesPerShard);
  live_[slot] = false;
  return true;
}

std::vector<std::uint32_t> Topology::movers(std::uint32_t from,
                                            const SameShard& same_shard) const {
  std::vector<std::uint32_t> moved;
  {
    std::lock_guard<std::mutex> lk(patients_mutex_);
    for (const std::uint32_t patient : patients_) {
      const std::size_t was = owner_at(from, patient);
      const std::size_t is = owner(patient);
      if (same_shard ? !same_shard(was, is) : was != is) moved.push_back(patient);
    }
  }
  std::sort(moved.begin(), moved.end());
  return moved;
}

std::uint64_t Topology::fold_crash(const CrashLedger& shard) {
  const std::uint64_t settled = shard.completed + shard.shed_routine + shard.shed_urgent;
  const std::uint64_t lost = shard.submitted > settled ? shard.submitted - settled : 0;
  crashed_.submitted += shard.submitted;
  crashed_.completed += shard.completed;
  crashed_.shed_routine += shard.shed_routine;
  crashed_.shed_urgent += shard.shed_urgent;
  crashed_.rejected += shard.rejected;
  crashed_.deadline_violations += shard.deadline_violations;
  crashed_.lost += lost;
  return lost;
}

}  // namespace wbsn::host
