#include "host/reconstruction_fabric.hpp"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace wbsn::host {
namespace {

using Clock = std::chrono::steady_clock;

}  // namespace

ReconstructionFabric::ReconstructionFabric(FabricConfig cfg)
    : cfg_(cfg),
      topology_(static_cast<std::size_t>(std::max(1, cfg.shards))) {
  active_.reserve(topology_.slots());
  for (std::size_t i = 0; i < topology_.slots(); ++i) {
    active_.push_back(std::make_shared<ReconstructionEngine>(cfg_.engine));
  }
  reaped_slo_.configure(cfg_.engine.slo);
  for (auto& tracker : reaped_lane_slo_) tracker.configure(cfg_.engine.slo);
}

ReconstructionFabric::~ReconstructionFabric() = default;

std::size_t ReconstructionFabric::shard_count() const {
  std::shared_lock<std::shared_mutex> lk(topology_mutex_);
  return active_.size();
}

std::uint32_t ReconstructionFabric::epoch() const {
  std::shared_lock<std::shared_mutex> lk(topology_mutex_);
  return topology_.epoch();
}

std::size_t ReconstructionFabric::shard_of(std::uint32_t patient_id) const {
  std::shared_lock<std::shared_mutex> lk(topology_mutex_);
  return topology_.owner(patient_id);
}

ReconstructionEngine& ReconstructionFabric::shard(std::size_t index) {
  std::shared_lock<std::shared_mutex> lk(topology_mutex_);
  if (!topology_.live(index)) throw std::out_of_range("shard index not active");
  return *active_[index];
}

const ReconstructionEngine& ReconstructionFabric::shard(std::size_t index) const {
  return const_cast<ReconstructionFabric*>(this)->shard(index);
}

std::size_t ReconstructionFabric::live_shard_count() const {
  std::shared_lock<std::shared_mutex> lk(topology_mutex_);
  return topology_.live_count();
}

std::optional<std::uint64_t> ReconstructionFabric::try_submit(CompressedWindow&& window) {
  return route_and_submit(window, /*blocking=*/false);
}

std::uint64_t ReconstructionFabric::submit(CompressedWindow window) {
  return *route_and_submit(window, /*blocking=*/true);
}

std::optional<std::uint64_t> ReconstructionFabric::route_and_submit(CompressedWindow& window,
                                                                    bool blocking) {
  // The shared lock is held across the engine call: a resize's table swap
  // therefore happens-before or happens-after any submission, never in
  // between routing and admission — an admitted window is always visible
  // to the reshard's drain, and a retired shard can never receive one.  A
  // blocking submit waiting out backpressure stalls a concurrent resize's
  // swap; the shard's workers drain the backlog without any fabric lock,
  // so both always make progress.
  std::shared_lock<std::shared_mutex> lk(topology_mutex_);
  const std::size_t shard = topology_.owner(window.patient_id);
  const std::uint32_t epoch = topology_.epoch();
  const std::uint32_t patient_id = window.patient_id;
  window.route_tag = epoch;
  ReconstructionEngine& engine = *active_[shard];
  const auto local = blocking ? std::optional(engine.submit(std::move(window)))
                              : engine.try_submit(std::move(window));
  if (!local.has_value()) return std::nullopt;
  topology_.note_patient(patient_id);
  return Topology::compose_ticket(epoch, shard, *local);
}

std::vector<std::shared_ptr<ReconstructionEngine>> ReconstructionFabric::engines_snapshot()
    const {
  std::shared_lock<std::shared_mutex> lk(topology_mutex_);
  std::vector<std::shared_ptr<ReconstructionEngine>> out;
  out.reserve(active_.size() + retired_.size());
  for (const auto& engine : active_) {
    if (engine) out.push_back(engine);  // Skip crash-failed holes.
  }
  out.insert(out.end(), retired_.begin(), retired_.end());
  return out;
}

std::optional<WindowResult> ReconstructionFabric::poll() {
  // Swept under the shared lock (like the submit paths) rather than via a
  // snapshot copy: polling is the hot retrieval path and usually finds
  // nothing, so it must not pay an allocation + refcount churn per call.
  // A resize's table swap simply waits out the sweep.
  std::shared_lock<std::shared_mutex> lk(topology_mutex_);
  const std::size_t total = active_.size() + retired_.size();
  const std::size_t start = next_poll_shard_.fetch_add(1, std::memory_order_relaxed) % total;
  for (std::size_t i = 0; i < total; ++i) {
    const std::size_t at = (start + i) % total;
    ReconstructionEngine* engine =
        at < active_.size() ? active_[at].get() : retired_[at - active_.size()].get();
    if (engine == nullptr) continue;  // Crash-failed hole: nothing to give.
    if (auto result = engine->poll()) {
      result->ticket = topology_.result_ticket(*result);
      return result;
    }
  }
  return std::nullopt;
}

std::vector<WindowResult> ReconstructionFabric::drain() {
  std::vector<WindowResult> out;
  for (const auto& engine : engines_snapshot()) {
    auto results = engine->drain();
    std::move(results.begin(), results.end(), std::back_inserter(out));
  }
  {
    // A concurrent flip may append a ring; read them under the shared lock.
    std::shared_lock<std::shared_mutex> lk(topology_mutex_);
    for (auto& result : out) result.ticket = topology_.result_ticket(result);
  }
  // A full drain leaves retired shards with nothing left to give back.
  std::lock_guard<std::mutex> control(control_mutex_);
  reap_quiesced_locked();
  return out;
}

std::size_t ReconstructionFabric::in_flight() const {
  std::shared_lock<std::shared_mutex> lk(topology_mutex_);
  std::size_t total = 0;
  for (const auto& engine : active_) {
    if (engine) total += engine->in_flight();
  }
  for (const auto& engine : retired_) total += engine->in_flight();
  return total;
}

ResizeReport ReconstructionFabric::resize(int new_shards) {
  std::lock_guard<std::mutex> control(control_mutex_);
  ResizeReport report;
  const auto target = static_cast<std::size_t>(std::max(1, new_shards));

  // The table only changes under control_mutex_, so this copy is stable
  // for the whole resize even without the reader lock.
  std::vector<std::shared_ptr<ReconstructionEngine>> old_active;
  {
    std::shared_lock<std::shared_mutex> lk(topology_mutex_);
    old_active = active_;
  }
  const std::size_t before = old_active.size();
  report.shards_before = before;
  report.shards_after = target;

  // New shard list: surviving engines keep their index (and their warm
  // caches), new indices get fresh engines, removed indices retire.  A
  // crash-failed hole inside the target range is re-provisioned with a
  // fresh engine — resize() is also the recovery path that restores
  // capacity after a failover.
  std::vector<std::shared_ptr<ReconstructionEngine>> new_active;
  new_active.reserve(target);
  for (std::size_t i = 0; i < target; ++i) {
    new_active.push_back(i < before && old_active[i]
                             ? old_active[i]
                             : std::make_shared<ReconstructionEngine>(cfg_.engine));
  }
  std::vector<std::shared_ptr<ReconstructionEngine>> newly_retired;
  for (std::size_t i = target; i < before; ++i) {
    if (old_active[i]) newly_retired.push_back(old_active[i]);
  }
  report.retired_shards = newly_retired.size();

  // Flip.  One writer critical section: every submission before it was
  // fully admitted under the old table (the submit paths hold the reader
  // lock across admission), every one after it routes and epoch-tags by
  // the new table.
  std::uint32_t from = 0;
  {
    std::unique_lock<std::shared_mutex> lk(topology_mutex_);
    from = topology_.epoch();
    report.epoch = topology_.resize(target);
    active_ = new_active;
    retired_.insert(retired_.end(), newly_retired.begin(), newly_retired.end());
  }

  // Movers are computed after the flip, so the registry is guaranteed to
  // contain every patient admitted under the old epoch.  Patients first
  // seen after the flip route by the new ring already; scanning them too
  // is a harmless no-op (nothing pending, nothing to extract, on their
  // old-ring shard).  A slot index is the shard's identity here.
  const auto moved = topology_.movers(from);
  report.known_patients = topology_.known_patients();
  report.moved_patients = moved.size();

  // Drain + handoff, outside every fabric lock: ingest to unmoved
  // patients continues at full rate while the movers' backlogs finish
  // where they started.
  for (const std::uint32_t patient : moved) {
    const auto& source = old_active[topology_.owner_at(from, patient)];
    source->drain_patient(patient);
    if (auto tracker = source->extract_patient_slo(patient)) {
      if (new_active[topology_.owner(patient)]->adopt_patient_slo(patient, std::move(tracker))) {
        ++report.slo_handoffs;
      }
    }
  }

  report.reaped_shards = reap_quiesced_locked();
  return report;
}

FailoverReport ReconstructionFabric::fail_shard(std::size_t index) {
  std::lock_guard<std::mutex> control(control_mutex_);
  FailoverReport report;
  report.failed_shard = index;

  // Flip to the survivors' subset ring, leaving a hole at the dead slot
  // (indices are ticket identity).  From here on nothing can reach the
  // dead engine: no route resolves to it, and every sweep skips null
  // slots — so submitted/shed/retrieved are frozen the moment the writer
  // lock releases.
  std::shared_ptr<ReconstructionEngine> dead;
  std::uint32_t from = 0;
  {
    std::unique_lock<std::shared_mutex> lk(topology_mutex_);
    if (!topology_.live(index)) throw std::out_of_range("fail_shard: not a live shard");
    from = topology_.epoch();
    if (!topology_.fail(index)) {
      throw std::invalid_argument("fail_shard: no survivors to re-home onto");
    }
    dead = std::move(active_[index]);
    report.epoch = topology_.epoch();
    report.live_shards = topology_.live_count();
  }
  report.moved_patients = topology_.movers(from).size();

  // Freeze-and-fold, the crash contract: results never retrieved are
  // unrecoverable.  Workers may still be solving while this snapshot is
  // read; that can only migrate windows between the shed and lost
  // buckets (both terms of the same identity), never change the total —
  // completed-but-unretrieved work is lost either way.
  const SloSnapshot snap = dead->slo().snapshot();
  const std::uint64_t shed = snap.shed_routine + snap.shed_urgent;
  CrashLedger tally;
  tally.submitted = snap.submitted;
  tally.completed = snap.submitted - std::min(snap.submitted, shed + snap.in_flight);
  tally.shed_routine = snap.shed_routine;
  tally.shed_urgent = snap.shed_urgent;
  tally.rejected = snap.rejected;
  tally.deadline_violations = snap.deadline_violations;
  {
    std::unique_lock<std::shared_mutex> lk(topology_mutex_);
    report.lost_windows = topology_.fold_crash(tally);
  }
  // Destroy outside every lock: the destructor joins the workers and
  // abandons the backlog — the in-process equivalent of kill -9.  The
  // per-patient trackers and latency histograms die here.
  dead.reset();
  return report;
}

std::size_t ReconstructionFabric::reap_quiesced_locked() {
  std::unique_lock<std::shared_mutex> lk(topology_mutex_);
  std::size_t reaped = 0;
  for (auto it = retired_.begin(); it != retired_.end();) {
    ReconstructionEngine& engine = **it;
    // Quiesced: nothing unsolved and nothing unretrieved.  No new work can
    // arrive (the shard left the routing table at its retirement flip), so
    // the counters are final; fold them into the reaped accumulators and
    // let the engine go.
    if (engine.in_flight() != 0 || engine.ready_results() != 0) {
      ++it;
      continue;
    }
    reaped_slo_.merge_from(engine.slo());
    reaped_lane_slo_[0].merge_from(engine.lane_slo(cs::WindowPriority::kRoutine));
    reaped_lane_slo_[1].merge_from(engine.lane_slo(cs::WindowPriority::kUrgent));
    it = retired_.erase(it);
    ++reaped;
  }
  return reaped;
}

SloSnapshot ReconstructionFabric::slo_snapshot() const {
  SloTracker merged(cfg_.engine.slo);
  std::shared_lock<std::shared_mutex> lk(topology_mutex_);
  for (const auto& engine : active_) {
    if (engine) merged.merge_from(engine->slo());
  }
  for (const auto& engine : retired_) merged.merge_from(engine->slo());
  // reaped_slo_ and the crash ledger are only written under the exclusive
  // topology lock, so the shared lock held here makes these reads safe.
  merged.merge_from(reaped_slo_);
  SloSnapshot snap = merged.snapshot();
  // Crash-failed shards contribute raw counters, not a mergeable tracker:
  // their histograms died with them, their unretrieved windows are `lost`,
  // and their in-flight is zero by definition (nothing is coming back).
  const CrashLedger& crashed = topology_.crashed();
  snap.submitted += crashed.submitted;
  snap.completed += crashed.completed;
  snap.shed_routine += crashed.shed_routine;
  snap.shed_urgent += crashed.shed_urgent;
  snap.rejected += crashed.rejected;
  snap.deadline_violations += crashed.deadline_violations;
  snap.lost = crashed.lost;
  return snap;
}

SloSnapshot ReconstructionFabric::lane_slo_snapshot(cs::WindowPriority priority) const {
  SloTracker merged(cfg_.engine.slo);
  const std::size_t lane = priority == cs::WindowPriority::kUrgent ? 1 : 0;
  std::shared_lock<std::shared_mutex> lk(topology_mutex_);
  for (const auto& engine : active_) {
    if (engine) merged.merge_from(engine->lane_slo(priority));
  }
  for (const auto& engine : retired_) merged.merge_from(engine->lane_slo(priority));
  merged.merge_from(reaped_lane_slo_[lane]);
  // No crash-ledger fold here: a dead shard's lane split below the
  // shed/lost line is unknowable (see CrashLedger) — lane views cover
  // survivors.
  return merged.snapshot();
}

std::vector<ShardSlo> ReconstructionFabric::shard_slo_snapshots() const {
  std::vector<std::shared_ptr<ReconstructionEngine>> engines;
  {
    std::shared_lock<std::shared_mutex> lk(topology_mutex_);
    engines = active_;
  }
  std::vector<ShardSlo> out;
  out.reserve(engines.size());
  for (std::size_t shard = 0; shard < engines.size(); ++shard) {
    if (!engines[shard]) continue;  // Crash-failed hole keeps indices stable.
    out.push_back({shard, engines[shard]->slo().snapshot()});
  }
  return out;
}

std::vector<PatientSlo> ReconstructionFabric::patient_slo_snapshots() const {
  std::vector<PatientSlo> out;
  for (const auto& engine : engines_snapshot()) {
    auto per_shard = engine->patient_slo_snapshots();
    out.insert(out.end(), std::make_move_iterator(per_shard.begin()),
               std::make_move_iterator(per_shard.end()));
  }
  std::sort(out.begin(), out.end(),
            [](const PatientSlo& a, const PatientSlo& b) { return a.patient_id < b.patient_id; });
  return out;
}

BatchResult ReconstructionFabric::reconstruct(std::span<const CompressedWindow> batch) {
  std::lock_guard<std::mutex> batch_guard(batch_mutex_);

  BatchResult out;
  out.windows.assign(batch.size(), WindowResult{});
  if (batch.empty()) return out;

  // Composite ticket -> input position, so shard-major completion-order
  // results land back in input order.  Stray tickets from streaming
  // submissions the caller never polled are discarded, as in the engine's
  // wrapper.
  std::unordered_map<std::uint64_t, std::size_t> slot_of;
  slot_of.reserve(batch.size());

  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    CompressedWindow copy = batch[i];
    slot_of.emplace(submit(std::move(copy)), i);
  }
  for (auto&& result : drain()) {
    const auto found = slot_of.find(result.ticket);
    if (found == slot_of.end()) continue;
    out.windows[found->second] = std::move(result);
  }
  out.wall_seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  out.records_per_second =
      out.wall_seconds > 0.0 ? static_cast<double>(batch.size()) / out.wall_seconds : 0.0;
  out.patients = aggregate_patient_stats(out.windows);
  return out;
}

}  // namespace wbsn::host
