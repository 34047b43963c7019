// Pooled-path race soak (a ThreadSanitizer target): concurrent producers
// draw window shells from one shared PayloadPool and submit them while a
// poller recycles results back into it and a control thread live-resizes
// the fabric.  The pool's freelists are the new cross-thread surface —
// producer threads, worker threads (recycling measurements post-solve),
// the poller, and resize-built engines all touch the same object — so
// this soak pins: no data races, no lost or duplicated windows, results
// bit-identical to the serial reference, and conserved pool counters
// (every recycled buffer was acquired or dropped exactly once).
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <map>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "host/payload_pool.hpp"
#include "host/reconstruction_fabric.hpp"
#include "sig/ecg_synth.hpp"
#include "sig/rng.hpp"

namespace wbsn::host {
namespace {

using WindowKey = std::pair<std::uint32_t, std::uint32_t>;

bool bit_identical(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

std::vector<CompressedWindow> patient_windows(std::uint32_t patient_id, int beats) {
  sig::SynthConfig synth;
  synth.num_leads = 1;
  synth.episodes = {{sig::RhythmEpisode::Kind::kSinus, beats}};
  sig::Rng rng(0x9001D000ULL + patient_id);
  const auto record = synthesize_ecg(synth, rng);

  RecordCompressionConfig compression;
  compression.window_samples = 128;
  compression.cr_percent = 60.0;
  return compress_record(record, patient_id, compression);
}

TEST(PoolStress, PooledSubmitPollRaceLiveResize) {
  constexpr int kProducers = 3;
  constexpr int kBeatsPerPatient = 5;

  std::vector<std::vector<CompressedWindow>> traffic;
  std::size_t total_windows = 0;
  for (int p = 0; p < kProducers; ++p) {
    traffic.push_back(patient_windows(static_cast<std::uint32_t>(p), kBeatsPerPatient));
    total_windows += traffic.back().size();
  }
  ASSERT_GT(total_windows, 0u);

  // Serial unpooled reference.
  std::map<WindowKey, std::vector<double>> expected;
  {
    ReconstructionEngine serial{EngineConfig{}};
    for (const auto& windows : traffic) {
      for (const auto& window : windows) serial.submit(window);
    }
    for (auto& result : serial.drain()) {
      expected.emplace(WindowKey{result.patient_id, result.window_index},
                       std::move(result.signal));
    }
  }

  auto pool = std::make_shared<PayloadPool>();
  FabricConfig cfg;
  cfg.shards = 2;
  cfg.engine.threads = 1;
  cfg.engine.payload_pool = pool;
  ReconstructionFabric fabric(cfg);

  std::atomic<std::size_t> retrieved{0};
  std::atomic<bool> producers_done{false};

  std::vector<std::thread> producers;
  producers.reserve(traffic.size());
  for (const auto& windows : traffic) {
    producers.emplace_back([&fabric, &pool, &windows] {
      for (const auto& tmpl : windows) {
        CompressedWindow window = pool->acquire_window();
        window.patient_id = tmpl.patient_id;
        window.window_index = tmpl.window_index;
        window.matrix_seed = tmpl.matrix_seed;
        window.window_samples = tmpl.window_samples;
        window.ones_per_column = tmpl.ones_per_column;
        window.priority = tmpl.priority;
        window.measurements.assign(tmpl.measurements.begin(), tmpl.measurements.end());
        window.reference.assign(tmpl.reference.begin(), tmpl.reference.end());
        fabric.submit(std::move(window));  // Blocking: nothing is shed.
        std::this_thread::yield();
      }
    });
  }

  std::map<WindowKey, std::vector<double>> streamed;
  std::thread poller([&] {
    while (retrieved.load(std::memory_order_acquire) < total_windows) {
      if (auto result = fabric.poll()) {
        streamed.emplace(WindowKey{result->patient_id, result->window_index},
                         std::vector<double>(result->signal));
        pool->recycle(std::move(*result));
        retrieved.fetch_add(1, std::memory_order_acq_rel);
      } else if (producers_done.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    }
  });

  // Elasticity churn while traffic and recycling are live.
  std::thread resizer([&] {
    const int plan[] = {3, 1, 4, 2};
    for (const int shards : plan) {
      (void)fabric.resize(shards);
      std::this_thread::yield();
      if (retrieved.load(std::memory_order_acquire) >= total_windows) break;
    }
  });

  for (auto& producer : producers) producer.join();
  producers_done.store(true, std::memory_order_release);
  resizer.join();
  poller.join();

  // Nothing lost, nothing duplicated, everything bit-identical.
  ASSERT_EQ(streamed.size(), total_windows);
  for (const auto& [key, signal] : streamed) {
    const auto found = expected.find(key);
    ASSERT_NE(found, expected.end());
    EXPECT_TRUE(bit_identical(found->second, signal))
        << "patient " << key.first << " window " << key.second;
  }

  // Counter conservation: every buffer the pool handed out (hit or miss)
  // was either recycled back or dropped at capacity; nothing vanished.
  const auto stats = pool->stats();
  EXPECT_GT(stats.hits + stats.misses, 0u);
  EXPECT_GT(stats.recycled, 0u);
  EXPECT_EQ(stats.dropped, 0u);  // Capacity 1024 dwarfs this traffic.
}

}  // namespace
}  // namespace wbsn::host
