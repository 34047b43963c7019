// Pins the exact bits of the FISTA solve.  A 64-bit FNV-1a hash over the
// raw doubles of every reconstructed signal in a fixed set of seeded
// windows is compared against constants recorded from a known-good build:
// two compression ratios through cs::fista_reconstruct directly, and one
// degraded-tier window (row-truncated operator plus an iteration cap)
// through a serial engine.  Every available kern backend must reproduce
// the same constants — the determinism contract across dispatch — so a
// refactor of the solver, the kernels or the engine's solve path that
// moves a single bit fails here.  A change that alters outputs on purpose
// regenerates the constants and says so.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "cs/fista.hpp"
#include "cs/sensing_matrix.hpp"
#include "host/reconstruction_engine.hpp"
#include "kern/backend.hpp"
#include "sig/ecg_synth.hpp"
#include "sig/rng.hpp"

namespace wbsn::host {
namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

// Recorded from the scalar and AVX2 backends (identical by contract).
constexpr std::uint64_t kCr50Hash = 15648104379889796767ULL;
constexpr std::uint64_t kCr65Hash = 967078103796175494ULL;
constexpr std::uint64_t kDegradedHash = 5614933070510894062ULL;

/// 64-bit FNV-1a over the raw bytes of `xs`, continuing from `h`.
std::uint64_t fnv1a(std::span<const double> xs, std::uint64_t h = kFnvOffset) {
  for (const double x : xs) {
    unsigned char bytes[sizeof(double)];
    std::memcpy(bytes, &x, sizeof bytes);
    for (const unsigned char b : bytes) {
      h ^= b;
      h *= kFnvPrime;
    }
  }
  return h;
}

/// The first three windows of one seeded single-lead record at `cr_percent`.
std::vector<CompressedWindow> seeded_windows(double cr_percent) {
  sig::SynthConfig synth;
  synth.num_leads = 1;
  synth.episodes = {{sig::RhythmEpisode::Kind::kSinus, 8}};
  synth.noise = sig::NoiseParams::preset(sig::NoiseLevel::kModerate);
  sig::Rng rng(0x5017B175ULL);
  const auto record = sig::synthesize_ecg(synth, rng);
  RecordCompressionConfig cfg;
  cfg.cr_percent = cr_percent;
  auto windows = compress_record(record, 7, cfg);
  if (windows.size() > 3) windows.resize(3);
  return windows;
}

std::uint64_t cs_hash(double cr_percent) {
  const auto windows = seeded_windows(cr_percent);
  EXPECT_EQ(windows.size(), 3u);
  std::uint64_t h = kFnvOffset;
  for (const auto& w : windows) {
    sig::Rng rng(w.matrix_seed);
    const auto phi = cs::SensingMatrix::make_sparse_binary(
        w.measurements.size(), w.window_samples, w.ones_per_column, rng);
    h = fnv1a(cs::fista_reconstruct(phi, w.measurements, cs::FistaConfig{}).signal, h);
  }
  return h;
}

std::uint64_t degraded_hash() {
  CompressedWindow window = seeded_windows(50.0).front();
  window.solve_tier.tier = 1;
  window.solve_tier.effective_m =
      static_cast<std::uint32_t>(cs::rows_for_cr(65.0, window.window_samples));
  window.solve_tier.iteration_cap = 80;
  ReconstructionEngine engine{EngineConfig{}};
  engine.submit(std::move(window));
  const auto results = engine.drain();
  EXPECT_EQ(results.size(), 1u);
  if (results.empty()) return 0;
  EXPECT_TRUE(results[0].degraded);
  EXPECT_EQ(results[0].iterations, 80);
  return fnv1a(results[0].signal);
}

/// Runs `check` once per backend this host can execute, restoring the
/// original selection afterwards.
template <typename Check>
void on_every_backend(Check&& check) {
  const kern::Backend previous = kern::active_backend();
  for (const kern::Backend backend : {kern::Backend::kScalar, kern::Backend::kAvx2}) {
    if (!kern::set_backend(backend)) continue;  // AVX2 absent on this host/build.
    SCOPED_TRACE(kern::backend_name());
    check();
  }
  kern::set_backend(previous);
}

TEST(SolveBits, Cr50ThroughCs) {
  on_every_backend([] { EXPECT_EQ(cs_hash(50.0), kCr50Hash); });
}

TEST(SolveBits, Cr65ThroughCs) {
  on_every_backend([] { EXPECT_EQ(cs_hash(65.0), kCr65Hash); });
}

TEST(SolveBits, DegradedTierThroughSerialEngine) {
  on_every_backend([] { EXPECT_EQ(degraded_hash(), kDegradedHash); });
}

}  // namespace
}  // namespace wbsn::host
