// Cross-machine fabric loopback throughput: RoutingClient -> N in-process
// ShardServers over real TCP sockets on 127.0.0.1.  Measures the wire
// path end to end — wbsn-wire encode, kernel socket round trip, decode
// into pooled buffers, solve, result frame back — and reports windows/s,
// per-window wire bytes in each direction, and the same bit-exactness
// check against the serial in-process reference that every fabric bench
// carries.  The delta between this and host_throughput at equal thread
// counts is the price of the process boundary.
//
// Usage: net_loopback [patients] [beats_per_patient] [cr_percent]
//                     [--shards N] [--threads N] [--no-fixed] [--hints]
//                     [--pipeline N] [--batch-frames K] [--repeat R]
//                     [--min-speedup X] [--json PATH]
//
// --hints runs the closed-loop CR-hint drill instead; see the block
// comment above run_hint_loop().
//
// --threads is each shard's worker count.  --no-fixed disables the
// fixed-point measurement coding (fixed_scale = 0) to measure how much
// the compact coding buys on the submit path.
//
// --pipeline N switches to the wire-v2 comparison mode: the same traffic
// runs twice against fresh fleets — once per-window over a v1-negotiated
// connection (one blocking SUBMIT round trip per window), once pipelined
// over v2 (SUBMIT_BATCH frames of --batch-frames windows, up to N
// unacknowledged frames per shard).  The headline metric is submit-path
// throughput — first submit to last durable ACK — because that is the
// path pipelining changes; the speedup gate (>= 3x) is on that metric.
// Solve and result retrieval are identical in both phases and stay
// outside the timed submit window: comparison-mode shards run the serial
// engine (solves happen during the drain, after the submit clock stops),
// and the drain feeds the bit-exactness gate against a serial in-process
// reference with the identical config, so the determinism contract is
// still enforced end to end.  End-to-end wall time is reported alongside
// for transparency.  --min-speedup X sets the exit-code gate on the
// speedup (default 3.0; 0 makes the run a correctness smoke — sanitizer
// and matrix lanes use that, the trajectory gate keeps the full floor).
// --json writes the pipeline-mode metrics as a flat JSON object (the
// bench_trajectory.py input).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <span>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cs/pipeline.hpp"
#include "host/payload_pool.hpp"
#include "net/routing_client.hpp"
#include "net/shard_server.hpp"
#include "sig/ecg_synth.hpp"
#include "sig/rng.hpp"

namespace {

using namespace wbsn;
using Clock = std::chrono::steady_clock;
using WindowKey = std::pair<std::uint32_t, std::uint32_t>;

std::vector<host::CompressedWindow> make_fleet_batch(int patients,
                                                     int beats_per_patient,
                                                     double cr_percent,
                                                     std::size_t window_samples) {
  std::vector<host::CompressedWindow> batch;
  for (int p = 0; p < patients; ++p) {
    sig::SynthConfig synth;
    synth.num_leads = 1;
    synth.episodes = {{sig::RhythmEpisode::Kind::kSinus, beats_per_patient}};
    synth.record_name = "patient-" + std::to_string(p);
    sig::Rng rng(0x10013AD0ULL + static_cast<std::uint64_t>(p));
    const auto record = synthesize_ecg(synth, rng);

    host::RecordCompressionConfig compression;
    compression.cr_percent = cr_percent;
    if (window_samples != 0) compression.window_samples = window_samples;
    auto windows = host::compress_record(record, static_cast<std::uint32_t>(p),
                                         compression);
    batch.insert(batch.end(), std::make_move_iterator(windows.begin()),
                 std::make_move_iterator(windows.end()));
  }
  return batch;
}

std::map<WindowKey, std::vector<double>> serial_reference(
    const std::vector<host::CompressedWindow>& batch, const host::EngineConfig& cfg) {
  std::map<WindowKey, std::vector<double>> reference;
  host::EngineConfig serial_cfg = cfg;
  serial_cfg.threads = 0;
  serial_cfg.payload_pool.reset();
  host::ReconstructionEngine serial(serial_cfg);
  for (const auto& window : batch) {
    host::CompressedWindow copy = window;
    serial.submit(std::move(copy));
  }
  for (auto& result : serial.drain()) {
    reference.emplace(WindowKey{result.patient_id, result.window_index},
                      std::move(result.signal));
  }
  return reference;
}

bool matches_reference(const std::vector<host::WindowResult>& results,
                       const std::map<WindowKey, std::vector<double>>& reference) {
  if (results.size() != reference.size()) return false;
  for (const auto& result : results) {
    const auto expected = reference.find({result.patient_id, result.window_index});
    if (expected == reference.end() ||
        result.signal.size() != expected->second.size() ||
        (!result.signal.empty() &&
         std::memcmp(result.signal.data(), expected->second.data(),
                     result.signal.size() * sizeof(double)) != 0)) {
      return false;
    }
  }
  return true;
}

/// One fleet of in-process ShardServers, each on its own event-loop
/// thread — identical protocol path to a real daemon, minus fork/exec.
struct Fleet {
  struct Shard {
    std::unique_ptr<net::ShardServer> server;
    std::thread loop;
  };
  std::vector<Shard> shards;
  std::vector<net::ShardEndpoint> endpoints;

  bool start(int count, const host::EngineConfig& engine, double fixed_scale,
             double hint_cr = 0.0) {
    shards.resize(static_cast<std::size_t>(count));
    for (auto& shard : shards) {
      net::ShardServerConfig cfg;
      cfg.engine = engine;
      cfg.engine.payload_pool = std::make_shared<host::PayloadPool>();
      cfg.wire.fixed_scale = fixed_scale;
      cfg.hint_cr_percent = hint_cr;
      // Unconditional advisory (no backlog gate): the hint-loop drill
      // proves the propagation path deterministically; the pressure gate
      // itself is engine/server unit-test territory.
      cfg.hint_backlog_deadlines = 0.0;
      shard.server = std::make_unique<net::ShardServer>(cfg);
      if (!shard.server->start()) return false;
      shard.loop = std::thread([s = shard.server.get()] { s->run(); });
      endpoints.push_back({"127.0.0.1", shard.server->port()});
    }
    return true;
  }

  ~Fleet() {
    for (auto& shard : shards) {
      if (shard.server) shard.server->stop();
      if (shard.loop.joinable()) shard.loop.join();
    }
  }
};

struct PhaseResult {
  std::size_t completed = 0;
  double submit_s = 0.0;  // First submit -> last durable ACK.
  double wall_s = 0.0;    // Submit + drain, end to end.
  bool bit_exact = false;
  bool submits_ok = false;
};

/// Runs the whole batch through a fresh client: per-window blocking
/// SUBMITs when `pipeline` is 0, the pipelined v2 path otherwise.
PhaseResult run_phase(const std::vector<host::CompressedWindow>& batch,
                      const std::map<WindowKey, std::vector<double>>& reference,
                      const net::RoutingClientConfig& client_cfg,
                      const std::vector<net::ShardEndpoint>& endpoints,
                      std::size_t pipeline) {
  PhaseResult out;
  net::RoutingClient client(client_cfg);
  if (!client.connect(endpoints)) {
    std::fprintf(stderr, "client failed to connect\n");
    return out;
  }

  // Traffic generation (the per-window copies) happens before the clock
  // starts: the timed region is the submit wire path, nothing else.
  std::vector<host::CompressedWindow> traffic;
  traffic.reserve(batch.size());
  for (const auto& window : batch) traffic.push_back(window);

  const auto t0 = Clock::now();
  std::size_t submitted = 0;
  if (pipeline == 0) {
    for (auto& window : traffic) {
      if (client.submit(std::move(window)).has_value()) ++submitted;
    }
  } else {
    for (auto& window : traffic) {
      if (client.submit_pipelined(std::move(window))) ++submitted;
    }
    if (std::getenv("WBSN_BENCH_SEGMENTS") != nullptr) {
      std::fprintf(stderr, "stage+seal: %.3f ms\n",
                   std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
    }
    for (const auto& ticket : client.flush_submits()) {
      if (!ticket.has_value()) --submitted;
    }
  }
  out.submit_s = std::chrono::duration<double>(Clock::now() - t0).count();
  auto results = client.drain();
  out.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  out.completed = results.size();
  out.submits_ok = submitted == batch.size();
  out.bit_exact = matches_reference(results, reference);
  client.shutdown(/*send_bye=*/false);
  return out;
}

/// Submit-path wire bytes for the whole batch: per-window v1 frames, or
/// v2 SUBMIT_BATCH frames of `batch_frames` windows.
std::size_t submit_wire_bytes(const std::vector<host::CompressedWindow>& batch,
                              double fixed_scale, std::size_t batch_frames) {
  std::vector<std::uint8_t> buf;
  net::WireEncodeOptions wire;
  wire.fixed_scale = fixed_scale;
  std::size_t total = 0;
  if (batch_frames == 0) {
    for (const auto& window : batch) {
      buf.clear();
      net::encode_submit_window(buf, window, net::kSubmitFlagBlocking, wire);
      total += buf.size();
    }
    return total;
  }
  for (std::size_t i = 0; i < batch.size(); i += batch_frames) {
    const std::size_t count = std::min(batch_frames, batch.size() - i);
    buf.clear();
    net::encode_submit_batch(buf, {batch.data() + i, count}, net::kSubmitFlagBlocking,
                             wire);
    total += buf.size();
  }
  return total;
}

// ---------------------------------------------------------------------------
// Closed-loop CR-hint drill (--hints): the full adaptive-compression loop
// over real sockets.  Every shard is configured with an unconditional CR
// advisory (hint_cr_percent = base CR + 20); node-side AdaptiveEncoders
// encode the first half of each patient's windows at the base CR, the
// client pulls CR_HINT_ACKs from the fleet, and the second half is
// re-encoded at the hinted CR — fewer measurements on the wire, solved
// host-side against the same seeded operator rebuilt at the hinted m.
// Gates: every patient receives the hint, hinted windows carry exactly
// rows_for_cr(hint_cr, n) measurements, everything completed is
// bit-exact against a serial reference of the identical submitted
// windows, and a v1-pinned control client receives no hints (the verb is
// v2-only; absence of a hint means full fidelity, never an error).

int run_hint_loop(int patients, int beats, double cr, int shards, int threads,
                  double scale, const char* json_path) {
  const double hint_cr = std::min(90.0, cr + 20.0);

  // Node side: one raw single-lead record and one AdaptiveEncoder per
  // patient, seeded exactly like host::compress_record's lead 0 so a
  // hinted window reconstructs like a natively-encoded one.
  cs::CsPipelineConfig node_cfg;
  node_cfg.matrix_seed = cs::lead_matrix_seed(0xC0FFEE, 0);
  struct Node {
    std::vector<double> lead;
    std::unique_ptr<cs::AdaptiveEncoder> encoder;
  };
  std::vector<Node> nodes;
  for (int p = 0; p < patients; ++p) {
    sig::SynthConfig synth;
    synth.num_leads = 1;
    synth.episodes = {{sig::RhythmEpisode::Kind::kSinus, beats}};
    synth.record_name = "patient-" + std::to_string(p);
    sig::Rng rng(0x10013AD0ULL + static_cast<std::uint64_t>(p));
    auto record = synthesize_ecg(synth, rng);
    Node node;
    node.lead = std::move(record.leads[0]);
    node.encoder = std::make_unique<cs::AdaptiveEncoder>(node_cfg);
    nodes.push_back(std::move(node));
  }
  const auto n = static_cast<std::uint32_t>(node_cfg.window_samples);
  std::size_t windows_per_patient = nodes.front().lead.size() / n;
  for (const auto& node : nodes) {
    windows_per_patient = std::min(windows_per_patient, node.lead.size() / n);
  }
  if (windows_per_patient < 2) {
    std::fprintf(stderr, "record too short for the two-phase drill\n");
    return 2;
  }
  const std::size_t half = windows_per_patient / 2;

  const auto encode_window_at = [&](std::size_t p, std::size_t w,
                                    double cr_percent) {
    Node& node = nodes[p];
    const auto window_mv =
        std::span<const double>(node.lead).subspan(w * n, n);
    auto encoded = node.encoder->encode_at(cr_percent, window_mv);
    host::CompressedWindow cw;
    cw.patient_id = static_cast<std::uint32_t>(p);
    cw.window_index = static_cast<std::uint32_t>(w);
    cw.matrix_seed = node_cfg.matrix_seed;
    cw.window_samples = n;
    cw.ones_per_column = static_cast<std::uint32_t>(node_cfg.ones_per_column);
    cw.measurements = std::move(encoded.measurements);
    cw.reference = std::move(encoded.reference);
    return cw;
  };

  host::EngineConfig engine_cfg;
  engine_cfg.threads = threads;
  Fleet fleet;
  if (!fleet.start(shards, engine_cfg, scale, hint_cr)) {
    std::fprintf(stderr, "shard failed to start\n");
    return 1;
  }
  net::RoutingClientConfig client_cfg;
  client_cfg.wire.fixed_scale = scale;
  net::RoutingClient client(client_cfg);
  if (!client.connect(fleet.endpoints)) {
    std::fprintf(stderr, "client failed to connect\n");
    return 1;
  }

  std::printf("hint loop: %d patients x %zu windows (n=%u), CR %.0f%% base, "
              "shard advisory CR %.0f%%, %d shard%s x %d worker%s\n",
              patients, windows_per_patient, n, cr, hint_cr, shards,
              shards == 1 ? "" : "s", threads, threads == 1 ? "" : "s");

  // Phase 1: base-CR traffic.  `submitted` keeps a copy of every window
  // exactly as it went on the wire — the serial-reference input.
  std::vector<host::CompressedWindow> submitted;
  std::size_t accepted = 0;
  for (std::size_t p = 0; p < nodes.size(); ++p) {
    for (std::size_t w = 0; w < half; ++w) {
      auto cw = encode_window_at(p, w, cr);
      submitted.push_back(cw);
      if (client.submit(std::move(cw)).has_value()) ++accepted;
    }
  }

  // The closed loop: pull the fleet's advisory back to the node side.
  const bool refresh_ok = client.refresh_cr_hints();
  std::size_t hinted_patients = 0;
  for (std::size_t p = 0; p < nodes.size(); ++p) {
    const auto hint = client.cr_hint(static_cast<std::uint32_t>(p));
    if (hint && std::abs(*hint - hint_cr) < 0.01) ++hinted_patients;
  }

  // Phase 2: re-encode at whatever the fleet asked for.
  const std::size_t m_hint = cs::rows_for_cr(hint_cr, n);
  bool hinted_m_ok = true;
  for (std::size_t p = 0; p < nodes.size(); ++p) {
    for (std::size_t w = half; w < windows_per_patient; ++w) {
      const auto hint = client.cr_hint(static_cast<std::uint32_t>(p));
      auto cw = encode_window_at(p, w, hint.value_or(cr));
      hinted_m_ok = hinted_m_ok && (!hint || cw.measurements.size() == m_hint);
      submitted.push_back(cw);
      if (client.submit(std::move(cw)).has_value()) ++accepted;
    }
  }

  const auto results = client.drain();
  const auto reference = serial_reference(submitted, engine_cfg);
  const bool bit_exact = matches_reference(results, reference);

  // SNR split: the price of the hinted half, measured end to end.
  double base_snr = 0.0, hinted_snr = 0.0;
  std::size_t base_count = 0, hinted_count = 0;
  for (const auto& result : results) {
    if (std::isnan(result.snr_db)) continue;
    if (result.window_index < half) {
      base_snr += result.snr_db;
      ++base_count;
    } else {
      hinted_snr += result.snr_db;
      ++hinted_count;
    }
  }
  base_snr = base_count > 0 ? base_snr / static_cast<double>(base_count) : 0.0;
  hinted_snr =
      hinted_count > 0 ? hinted_snr / static_cast<double>(hinted_count) : 0.0;

  client.shutdown(/*send_bye=*/false);

  // Control: a v1-pinned client must see no hints — the verb is v2-only
  // and its absence degrades to full fidelity, never to an error.
  bool v1_no_hint = true;
  {
    net::RoutingClientConfig v1_cfg = client_cfg;
    v1_cfg.max_wire_version = 1;
    net::RoutingClient v1(v1_cfg);
    if (v1.connect(fleet.endpoints)) {
      v1_no_hint = v1.refresh_cr_hints();
      for (std::size_t p = 0; p < nodes.size(); ++p) {
        v1_no_hint =
            v1_no_hint && !v1.cr_hint(static_cast<std::uint32_t>(p)).has_value();
      }
      v1.shutdown(false);
    } else {
      v1_no_hint = false;
    }
  }

  std::printf("\n%-28s %12s\n", "metric", "value");
  std::printf("%-28s %12zu\n", "windows submitted", submitted.size());
  std::printf("%-28s %12zu\n", "windows completed", results.size());
  std::printf("%-28s %12zu / %d\n", "patients hinted", hinted_patients, patients);
  std::printf("%-28s %12zu\n", "base measurements/window",
              cs::rows_for_cr(cr, n));
  std::printf("%-28s %12zu\n", "hinted measurements/window", m_hint);
  std::printf("%-28s %12.2f\n", "base-CR mean SNR (dB)", base_snr);
  std::printf("%-28s %12.2f\n", "hinted-CR mean SNR (dB)", hinted_snr);
  std::printf("%-28s %12s\n", "hinted m on the wire", hinted_m_ok ? "PASS" : "FAIL");
  std::printf("%-28s %12s\n", "v1 control sees no hints", v1_no_hint ? "PASS" : "FAIL");
  std::printf("\nbit-exactness vs serial (%zu windows): %s\n", results.size(),
              bit_exact ? "PASS" : "FAIL");

  const bool ok = refresh_ok && hinted_patients == static_cast<std::size_t>(patients) &&
                  hinted_m_ok && bit_exact && v1_no_hint &&
                  accepted == submitted.size() && results.size() == submitted.size();
  if (json_path != nullptr) {
    FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::perror("fopen --json");
      return 1;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"bit_exact\": %d,\n"
                 "  \"hinted_patients\": %zu,\n"
                 "  \"patients\": %d,\n"
                 "  \"hint_cr_percent\": %.6f,\n"
                 "  \"base_mean_snr_db\": %.6f,\n"
                 "  \"hinted_mean_snr_db\": %.6f,\n"
                 "  \"hinted_m_ok\": %d,\n"
                 "  \"v1_no_hint\": %d,\n"
                 "  \"windows\": %zu\n"
                 "}\n",
                 bit_exact ? 1 : 0, hinted_patients, patients, hint_cr, base_snr,
                 hinted_snr, hinted_m_ok ? 1 : 0, v1_no_hint ? 1 : 0,
                 submitted.size());
    std::fclose(f);
  }
  std::printf("\nhint loop: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const char* positional[3] = {"8", "12", "50"};
  int n_positional = 0;
  int shards = 2;
  int threads = 2;
  bool fixed_coding = true;
  bool hints = false;
  std::size_t pipeline = 0;
  std::size_t batch_frames = 16;
  const char* json_path = nullptr;
  std::size_t repeat = 3;
  double min_speedup = 3.0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if ((arg == "--shards" || arg == "--threads" || arg == "--pipeline" ||
         arg == "--batch-frames" || arg == "--repeat" || arg == "--min-speedup" ||
         arg == "--json") &&
        i + 1 >= argc) {
      std::fprintf(stderr, "%s requires a value\n", arg.c_str());
      return 2;
    }
    if (arg == "--shards") {
      shards = std::max(1, std::atoi(argv[++i]));
    } else if (arg == "--threads") {
      threads = std::max(0, std::atoi(argv[++i]));
    } else if (arg == "--no-fixed") {
      fixed_coding = false;
    } else if (arg == "--hints") {
      hints = true;
    } else if (arg == "--pipeline") {
      pipeline = static_cast<std::size_t>(std::max(0, std::atoi(argv[++i])));
    } else if (arg == "--batch-frames") {
      batch_frames = static_cast<std::size_t>(std::max(1, std::atoi(argv[++i])));
    } else if (arg == "--repeat") {
      repeat = static_cast<std::size_t>(std::max(1, std::atoi(argv[++i])));
    } else if (arg == "--min-speedup") {
      min_speedup = std::atof(argv[++i]);
    } else if (arg == "--json") {
      json_path = argv[++i];
    } else if (n_positional < 3) {
      positional[n_positional++] = argv[i];
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }
  const int patients = std::atoi(positional[0]);
  const int beats = std::atoi(positional[1]);
  const double cr = std::atof(positional[2]);

  if (hints) {
    return run_hint_loop(
        patients, beats, cr, shards, threads,
        fixed_coding ? cs::measurement_scale_mv(sig::AdcConfig{}) : 0.0,
        json_path);
  }

  // Comparison mode uses the node-native 128-sample window (what a sensor
  // radio actually emits) so per-window wire cost — not solve cost —
  // dominates; single-phase mode keeps the host-side default.
  auto batch = make_fleet_batch(patients, beats, cr, pipeline > 0 ? 128u : 0u);
  std::printf("# net_loopback: %d patients x %d beats, CR %.0f%% -> %zu windows, "
              "%d shard%s x %d worker%s, %s measurement coding\n",
              patients, beats, cr, batch.size(), shards, shards == 1 ? "" : "s",
              threads, threads == 1 ? "" : "s",
              fixed_coding ? "fixed-point" : "float64");
  if (batch.empty()) return 0;

  const double scale =
      fixed_coding ? cs::measurement_scale_mv(sig::AdcConfig{}) : 0.0;

  host::EngineConfig engine_cfg;
  engine_cfg.threads = threads;
  if (pipeline > 0) {
    // Comparison mode measures the submit wire path, not the solver: the
    // shards run the serial engine (solves happen during the drain, after
    // the submit clock stops) with a light FISTA config so solver work
    // cannot leak into either phase's timed submit window.  The serial
    // reference uses the identical config, so the bit-exactness gate is
    // unaffected.
    engine_cfg.threads = 0;
    engine_cfg.fista.max_iterations = 1;
    engine_cfg.fista.debias_iterations = 0;
  }
  const auto reference = serial_reference(batch, engine_cfg);

  if (pipeline == 0) {
    // Single-phase mode: today's fleet-wide default (the client negotiates
    // the highest mutual version; submits are per-window round trips).
    Fleet fleet;
    if (!fleet.start(shards, engine_cfg, scale)) {
      std::fprintf(stderr, "shard failed to start\n");
      return 1;
    }
    net::RoutingClientConfig client_cfg;
    client_cfg.wire.fixed_scale = scale;
    client_cfg.payload_pool = std::make_shared<host::PayloadPool>();
    const auto phase = run_phase(batch, reference, client_cfg, fleet.endpoints, 0);

    const std::size_t submit_bytes = submit_wire_bytes(batch, scale, 0);
    // A result frame carries the full float64 signal (determinism
    // contract) plus ~40 bytes of metadata and framing.
    std::size_t result_bytes_estimate = 0;
    for (const auto& window : batch) {
      result_bytes_estimate += 8u * window.window_samples + 40u;
    }

    std::printf("\n%-28s %12s\n", "metric", "value");
    std::printf("%-28s %12zu\n", "windows submitted", batch.size());
    std::printf("%-28s %12zu\n", "windows completed", phase.completed);
    std::printf("%-28s %12.1f\n", "throughput (win/s)",
                static_cast<double>(phase.completed) / phase.wall_s);
    std::printf("%-28s %12.2f\n", "wall time (s)", phase.wall_s);
    std::printf("%-28s %12.1f\n", "submit wire bytes/window",
                static_cast<double>(submit_bytes) / static_cast<double>(batch.size()));
    std::printf("%-28s %12.1f\n", "result wire bytes/window (est)",
                static_cast<double>(result_bytes_estimate) /
                    static_cast<double>(batch.size()));

    std::printf("\nbit-exactness vs serial (%zu windows): %s\n", phase.completed,
                phase.bit_exact ? "PASS" : "FAIL");
    return phase.bit_exact ? 0 : 1;
  }

  // Pipeline comparison mode: identical traffic, fresh fleet per phase.
  net::RoutingClientConfig v1_cfg;
  v1_cfg.wire.fixed_scale = scale;
  v1_cfg.payload_pool = std::make_shared<host::PayloadPool>();
  v1_cfg.max_wire_version = 1;  // Per-window blocking SUBMIT, v1 POLL.
  net::RoutingClientConfig v2_cfg = v1_cfg;
  v2_cfg.max_wire_version = net::kWireVersionMax;
  v2_cfg.pipeline_depth = pipeline;
  v2_cfg.windows_per_submit_frame = batch_frames;

  // Best-of-N on the submit clock: a shared-core container's scheduler
  // can land anywhere in a single run, so each repeat re-runs both phases
  // against fresh fleets and the fastest submit window per phase is what
  // gets compared.  Correctness is not best-of-N: every repeat must be
  // bit-exact with all submits accepted.
  PhaseResult v1, v2;
  bool every_run_ok = true;
  for (std::size_t r = 0; r < repeat; ++r) {
    PhaseResult a, b;
    {
      Fleet fleet;
      if (!fleet.start(shards, engine_cfg, scale)) {
        std::fprintf(stderr, "shard failed to start\n");
        return 1;
      }
      a = run_phase(batch, reference, v1_cfg, fleet.endpoints, 0);
    }
    {
      Fleet fleet;
      if (!fleet.start(shards, engine_cfg, scale)) {
        std::fprintf(stderr, "shard failed to start\n");
        return 1;
      }
      b = run_phase(batch, reference, v2_cfg, fleet.endpoints, pipeline);
    }
    every_run_ok = every_run_ok && a.bit_exact && b.bit_exact && a.submits_ok &&
                   b.submits_ok;
    if (r == 0 || a.submit_s < v1.submit_s) v1 = a;
    if (r == 0 || b.submit_s < v2.submit_s) v2 = b;
  }
  v1.bit_exact = v1.bit_exact && every_run_ok;
  v2.bit_exact = v2.bit_exact && every_run_ok;

  // The headline rate is the submit path — first submit to last durable
  // ACK — over the full batch; that is the path pipelining changes.
  const double v1_rate = static_cast<double>(batch.size()) / v1.submit_s;
  const double v2_rate = static_cast<double>(batch.size()) / v2.submit_s;
  const double speedup = v1_rate > 0.0 ? v2_rate / v1_rate : 0.0;
  const double v1_bytes = static_cast<double>(submit_wire_bytes(batch, scale, 0)) /
                          static_cast<double>(batch.size());
  const double v2_bytes =
      static_cast<double>(submit_wire_bytes(batch, scale, batch_frames)) /
      static_cast<double>(batch.size());

  std::printf("\n%-28s %12s %12s\n", "metric", "v1 per-window", "v2 pipelined");
  std::printf("%-28s %12zu %12zu\n", "windows completed", v1.completed, v2.completed);
  std::printf("%-28s %12.1f %12.1f\n", "submit throughput (win/s)", v1_rate, v2_rate);
  std::printf("%-28s %12.2f %12.2f\n", "submit time (ms)", v1.submit_s * 1e3,
              v2.submit_s * 1e3);
  std::printf("%-28s %12.2f %12.2f\n", "end-to-end wall (s)", v1.wall_s, v2.wall_s);
  std::printf("%-28s %12.1f %12.1f\n", "submit wire bytes/window", v1_bytes, v2_bytes);
  std::printf("%-28s %12s %12s\n", "bit-exact vs serial",
              v1.bit_exact ? "PASS" : "FAIL", v2.bit_exact ? "PASS" : "FAIL");
  const bool speedup_ok = speedup >= min_speedup;
  std::printf("\npipelined speedup (depth %zu, %zu windows/frame): %.2fx "
              "(gate >= %.1fx): %s\n",
              pipeline, batch_frames, speedup, min_speedup,
              speedup_ok ? "PASS" : "FAIL");

  const bool ok =
      v1.bit_exact && v2.bit_exact && v1.submits_ok && v2.submits_ok && speedup_ok;
  if (json_path != nullptr) {
    FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::perror("fopen --json");
      return 1;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"bit_exact\": %d,\n"
                 "  \"pipeline_depth\": %zu,\n"
                 "  \"batch_frames\": %zu,\n"
                 "  \"speedup\": %.6f,\n"
                 "  \"submit_bytes_per_window_v1\": %.1f,\n"
                 "  \"submit_bytes_per_window_v2\": %.1f,\n"
                 "  \"v1_win_per_s\": %.6f,\n"
                 "  \"v2_win_per_s\": %.6f,\n"
                 "  \"v1_wall_s\": %.6f,\n"
                 "  \"v2_wall_s\": %.6f,\n"
                 "  \"windows\": %zu\n"
                 "}\n",
                 (v1.bit_exact && v2.bit_exact) ? 1 : 0, pipeline, batch_frames,
                 speedup, v1_bytes, v2_bytes, v1_rate, v2_rate, v1.wall_s,
                 v2.wall_s, batch.size());
    std::fclose(f);
  }
  return ok ? 0 : 1;
}
