// fleet_saturate and fleet_wire: host-side reconstruction of compressed
// ECG windows, in process (ReconstructionFabric) and over loopback TCP
// (RoutingClient -> two ShardServers).
#include <algorithm>
#include <cstring>
#include <memory>
#include <random>
#include <thread>

#include "core/node.hpp"
#include "cs/fista.hpp"
#include "cs/sensing_matrix.hpp"
#include "dsp/wavelet.hpp"
#include "host/reconstruction_fabric.hpp"
#include "kern/backend.hpp"
#include "net/routing_client.hpp"
#include "net/shard_server.hpp"
#include "net/wire_format.hpp"
#include "sig/ecg_synth.hpp"
#include "sig/rng.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace wbsn;

constexpr double kFleetCrPercent = 50.0;
constexpr std::uint64_t kFirmwareMatrixSeed = host::RecordCompressionConfig{}.matrix_seed;
/// Windows submitted during set-up are numbered from here; measured
/// windows are numbered 0, 1, 2, ... by submission order.
constexpr std::uint32_t kWarmIndexBase = 0xF0000000u;

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9E3779B97F4A7C15ULL + b + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Everything the benchmark knows about the windows it will send: the
/// program receives only `windows` (measurements, no reference signal).
struct FleetInput {
  std::vector<host::CompressedWindow> windows;
  std::vector<host::WindowResult> expected;  ///< Serial reference engine output.
  std::vector<double> snr_db;                ///< SNR of each reference output.
  std::vector<std::uint32_t> order;          ///< Seeded submission order (cycled).
  /// The first window of each distinct operator: set-up solves these.
  std::vector<std::uint32_t> warm;
  std::size_t m = 0;
  std::size_t n = 0;
  double node_energy_uj = 0.0;   ///< CS single-lead node cost of one window.
  double node_radio_bytes = 0.0;
};

/// `patients` single-lead records; every tenth patient has an AF episode
/// whose windows are tagged urgent.  Matrix seeds cycle over `seed_pool`
/// operators (1 = the firmware default for everyone).
FleetInput make_fleet_input(std::uint64_t seed, int patients, int beats, std::uint32_t seed_pool) {
  FleetInput in;
  std::vector<std::vector<double>> truth;
  sig::Record first_record;
  for (int p = 0; p < patients; ++p) {
    const bool af = (static_cast<std::uint64_t>(p) + seed) % 10 == 0;
    sig::SynthConfig synth;
    synth.num_leads = 1;
    if (af) {
      synth.episodes = {{sig::RhythmEpisode::Kind::kSinus, beats / 3},
                        {sig::RhythmEpisode::Kind::kAfib, beats / 3},
                        {sig::RhythmEpisode::Kind::kSinus, beats - 2 * (beats / 3)}};
    } else {
      synth.episodes = {{sig::RhythmEpisode::Kind::kSinus, beats}};
    }
    synth.noise = sig::NoiseParams::preset(sig::NoiseLevel::kModerate);
    sig::Rng rng(mix(seed, static_cast<std::uint64_t>(p)));
    const sig::Record record = synthesize_ecg(synth, rng);

    host::RecordCompressionConfig compression;
    compression.cr_percent = kFleetCrPercent;
    if (seed_pool > 1) compression.matrix_seed = kFirmwareMatrixSeed + 1 + static_cast<std::uint64_t>(p) % seed_pool;
    std::int64_t af_lo = -1;
    std::int64_t af_hi = -1;
    for (const auto& beat : record.beats) {
      if (beat.label != sig::BeatClass::kAfib) continue;
      if (af_lo < 0) af_lo = beat.r_peak;
      af_hi = beat.r_peak + 1;
    }
    if (af_lo >= 0) compression.urgent_spans.push_back({af_lo, af_hi});
    for (auto& w : host::compress_record(record, static_cast<std::uint32_t>(p), compression)) {
      truth.push_back(std::move(w.reference));
      w.reference.clear();
      const bool seen = std::any_of(in.warm.begin(), in.warm.end(),
                                    [&](std::uint32_t i) { return in.windows[i].matrix_seed == w.matrix_seed; });
      if (!seen) in.warm.push_back(static_cast<std::uint32_t>(in.windows.size()));
      in.windows.push_back(std::move(w));
    }
    if (p == 0) first_record = record;
  }
  in.n = in.windows.front().window_samples;
  in.m = in.windows.front().measurements.size();

  // The reference: every distinct window through a serial engine.
  host::ReconstructionEngine serial{host::EngineConfig{}};
  auto batch = serial.reconstruct(in.windows);
  in.expected = std::move(batch.windows);
  for (std::size_t i = 0; i < in.expected.size(); ++i) {
    in.snr_db.push_back(cs::reconstruction_snr_db(truth[i], in.expected[i].signal));
  }

  in.order = shuffled_order(mix(seed, 0x0DE7), static_cast<std::uint32_t>(in.windows.size()));

  // What each of these windows cost the node that sent it: a CS
  // single-lead node at the fleet's compression ratio.
  core::NodeConfig node_cfg;
  node_cfg.mode = core::OperatingMode::kCompressedSingle;
  node_cfg.cs_cr_percent = kFleetCrPercent;
  node_cfg.cs.matrix_seed = in.windows.front().matrix_seed;
  core::WbsnNode node(node_cfg);
  const std::size_t n = node_cfg.window_samples;
  const std::size_t count = std::min<std::size_t>(8, first_record.num_samples() / n);
  for (std::size_t w = 0; w < count; ++w) {
    const std::vector<std::vector<double>> lead = {std::vector<double>(
        first_record.leads[0].begin() + static_cast<long>(w * n),
        first_record.leads[0].begin() + static_cast<long>((w + 1) * n))};
    const auto out = node.process_window(lead);
    in.node_energy_uj += 1e6 * out.energy.total_j() / static_cast<double>(count);
    in.node_radio_bytes += static_cast<double>(out.tx_payload_bytes) / static_cast<double>(count);
  }
  return in;
}

bool same_output(const host::WindowResult& got, const host::WindowResult& want) {
  return got.iterations == want.iterations && got.signal.size() == want.signal.size() &&
         std::memcmp(got.signal.data(), want.signal.data(), got.signal.size() * sizeof(double)) == 0;
}

/// Per-window stamps, preallocated before the program is set up.
struct Stamp {
  Clock::time_point due;  ///< Submit entry: latency runs from here.
  Clock::time_point submit_start;
  Clock::time_point submit_end;
  Clock::time_point poll_start;  ///< The poll call that returned the window.
  Clock::time_point poll_end;
  std::uint32_t distinct = 0;
  std::uint32_t shard = 0;  ///< fleet_wire: the shard that owns the window.
  std::uint32_t root_span = kNoParent;
  double e2e_ms = 0.0;
  double solve_ms = 0.0;
  int iterations = 0;
  bool urgent = false;           ///< Submitted on the urgent lane.
  bool returned_urgent = false;  ///< Came back on the urgent lane.
  bool submitted = false;
  bool done = false;
};

class StampTable {
 public:
  explicit StampTable(std::size_t capacity) { stamps_.reserve(capacity); }
  Stamp& next() {
    if (stamps_.size() == stamps_.capacity()) throw BenchError("stamp buffer exhausted");
    return stamps_.emplace_back();
  }
  std::size_t size() const { return stamps_.size(); }
  Stamp& operator[](std::size_t i) { return stamps_[i]; }
  const Stamp& operator[](std::size_t i) const { return stamps_[i]; }

 private:
  std::vector<Stamp> stamps_;
};

/// Checks one returned window and records it; false when the result does
/// not name a window this run submitted.
bool accept(host::WindowResult& r, StampTable& stamps, const FleetInput& in, Accounting& acct,
            Clock::time_point poll_start, Clock::time_point poll_end) {
  if (r.window_index >= stamps.size()) return false;
  Stamp& st = stamps[r.window_index];
  if (!st.submitted || st.done) return false;
  st.poll_start = poll_start;
  st.poll_end = poll_end;
  st.e2e_ms = r.e2e_ms;
  st.solve_ms = r.latency_ms;
  st.iterations = r.iterations;
  st.returned_urgent = r.priority == cs::WindowPriority::kUrgent;
  st.done = true;
  const auto& want = in.expected[st.distinct];
  if (!same_output(r, want) || r.patient_id != want.patient_id ||
      r.priority != in.windows[st.distinct].priority) {
    ++acct.mismatched;
  } else if (ms_between(st.due, poll_end) > cs::window_period_ms(in.n)) {
    ++acct.late;
  }
  return true;
}

host::CompressedWindow submission(const FleetInput& in, std::uint32_t distinct, std::uint32_t index) {
  host::CompressedWindow w = in.windows[distinct];
  w.window_index = index;
  return w;
}

/// What one measured phase leaves besides its stamps.  Statistics are
/// computed from the stamps only after the heap has been read, so the
/// benchmark's own sample vectors never count as retained program heap.
struct PhaseRaw {
  std::size_t first = 0;  ///< Stamp range [first, last) of the phase.
  std::size_t last = 0;
  double seconds = 0.0;
  double cpu_s = 0.0;
  std::size_t completed_in_window = 0;
  std::uint64_t polls = 0;
  std::uint64_t empty_polls = 0;
  Clock::time_point end;  ///< End of the measured window (drain excluded).
  Slices slices;
};

/// Windows of one measured phase, as statistics.
struct PhaseStats {
  PhaseRaw raw;
  std::vector<double> latency_ms;
  std::vector<double> urgent_latency_ms;
  std::vector<double> queue_ms;
  std::vector<double> urgent_queue_ms;
  std::vector<double> solve_ms;
  std::vector<double> submit_ms;
  std::vector<double> poll_hit_ms;
  std::vector<double> return_ms;
  double solve_in_window_ms = 0.0;  ///< Solve time of windows returned in the window.
  std::size_t completed = 0;        ///< Windows returned during the slice (slice stats only).
  double iterations_mean = 0.0;
  double snr_mean = 0.0;
  double lane_accuracy = 0.0;
};

/// Statistics of the whole phase, or (slice >= 0) of the windows due in
/// one time slice.
PhaseStats summarize(const StampTable& stamps, const PhaseRaw& raw, const FleetInput& in, int slice = -1) {
  PhaseStats ps;
  ps.raw = raw;
  double iters = 0.0;
  double snr = 0.0;
  std::size_t lane_ok = 0;
  std::size_t done = 0;
  for (std::size_t i = raw.first; i < raw.last; ++i) {
    const Stamp& st = stamps[i];
    if (!st.done) continue;
    if (slice >= 0 && raw.slices.index(st.poll_end) == slice) ++ps.completed;
    if (slice >= 0 && raw.slices.index(st.due) != slice) continue;
    ++done;
    const double lat = ms_between(st.due, st.poll_end);
    ps.latency_ms.push_back(lat);
    ps.queue_ms.push_back(st.e2e_ms - st.solve_ms);
    ps.solve_ms.push_back(st.solve_ms);
    ps.submit_ms.push_back(ms_between(st.submit_start, st.submit_end));
    ps.poll_hit_ms.push_back(ms_between(st.poll_start, st.poll_end));
    ps.return_ms.push_back(ms_between(st.submit_end, st.poll_end) - st.e2e_ms);
    if (st.urgent) {
      ps.urgent_latency_ms.push_back(lat);
      ps.urgent_queue_ms.push_back(st.e2e_ms - st.solve_ms);
    }
    if (st.poll_end <= raw.end) ps.solve_in_window_ms += st.solve_ms;
    iters += st.iterations;
    snr += in.snr_db[st.distinct];
    // The lane a window came back on matches the rhythm it was generated
    // with: AF windows must stay on the urgent (alarm) lane.
    if (st.returned_urgent == (in.windows[st.distinct].priority == cs::WindowPriority::kUrgent)) ++lane_ok;
  }
  if (done > 0) {
    ps.iterations_mean = iters / static_cast<double>(done);
    ps.snr_mean = snr / static_cast<double>(done);
    ps.lane_accuracy = static_cast<double>(lane_ok) / static_cast<double>(done);
  }
  return ps;
}

/// The kernel work of one FISTA window, as a model of the two kernel
/// families the solver loops over (debias pass excluded): per iteration
/// one apply and one adjoint sparse product over n*d taps, and one forward
/// and one inverse Db4 transform over `levels` levels.
struct KernelModel {
  double flops_per_iteration = 0.0;
  double bytes_per_iteration = 0.0;
};

KernelModel kernel_model(std::size_t m, std::size_t n, std::size_t d, int levels) {
  const double nnz = static_cast<double>(n * d);
  double dwt_len = 0.0;  // Coefficients produced over all levels of one transform.
  for (int l = 0; l < levels; ++l) dwt_len += static_cast<double>(n >> l);
  KernelModel k;
  // Spmv: one add per tap.  Db4: 4 multiplies + 3 adds per output.
  k.flops_per_iteration = 2.0 * nnz + 2.0 * 7.0 * dwt_len;
  // Spmv: 4 B index + 8 B sign + 8 B gathered input per tap, plus outputs;
  // Db4: every level reads and writes its coefficients once.
  k.bytes_per_iteration =
      2.0 * nnz * 20.0 + 8.0 * static_cast<double>(m + n) + 2.0 * 16.0 * dwt_len;
  return k;
}

/// Median time (ns) of one spmv and one dwt_step of the active backend on
/// the workload's own operator.
std::pair<double, double> time_kernels(std::uint64_t matrix_seed, std::size_t m, std::size_t n) {
  sig::Rng rng(matrix_seed);
  const auto phi = cs::SensingMatrix::make_sparse_binary(m, n, 4, rng);
  std::vector<double> x(n);
  std::vector<double> y(m);
  std::vector<double> approx(n / 2);
  std::vector<double> detail(n / 2);
  std::mt19937_64 fill(matrix_seed);
  for (auto& v : x) v = static_cast<double>(fill() % 2001) / 1000.0 - 1.0;
  constexpr int kReps = 400;
  volatile double sink = 0.0;
  std::vector<double> spmv_ns;
  std::vector<double> dwt_ns;
  for (int rep = 0; rep < 15; ++rep) {
    auto t0 = Clock::now();
    for (int k = 0; k < kReps; ++k) {
      phi.apply_into(x, y);
      sink = sink + y[static_cast<std::size_t>(k) % m];
    }
    auto t1 = Clock::now();
    spmv_ns.push_back(1e6 * ms_between(t0, t1) / kReps);
    t0 = Clock::now();
    for (int k = 0; k < kReps; ++k) {
      kern::ops().dwt_step(x.data(), n, approx.data(), detail.data());
      sink = sink + approx[static_cast<std::size_t>(k) % (n / 2)];
    }
    t1 = Clock::now();
    dwt_ns.push_back(1e6 * ms_between(t0, t1) / kReps);
  }
  std::nth_element(spmv_ns.begin(), spmv_ns.begin() + 7, spmv_ns.end());
  std::nth_element(dwt_ns.begin(), dwt_ns.begin() + 7, dwt_ns.end());
  return {spmv_ns[7], dwt_ns[7]};
}

/// Metrics every fleet workload reports the same way.  Percentiles pool
/// the whole phase; rates are medians over the phase's slices.
void add_fleet_end_to_end(Report& rep, const StampTable& stamps, const PhaseStats& ps, const FleetInput& in,
                          double setup_s, double retained_mb) {
  std::vector<double> thr;
  std::vector<double> per_cpu;
  for (int s = 0; s < ps.raw.slices.count(); ++s) {
    const auto done = static_cast<double>(summarize(stamps, ps.raw, in, s).completed);
    thr.push_back(done / ps.raw.slices.slice_seconds());
    per_cpu.push_back(done / ps.raw.slices.cpu_seconds(s));
  }
  rep.note("rates: median over " + std::to_string(ps.raw.slices.count()) + " slices of " +
           std::to_string(ps.raw.slices.slice_seconds()) + " s");
  rep.add("setup_s", setup_s, "s");
  rep.add("throughput_win_per_s", median(thr), "win/s", ps.latency_ms.size());
  rep.add("throughput_win_per_cpu_s", median(per_cpu), "win/cpu_s");
  rep.add("latency_p50_ms", require_percentile(ps.latency_ms, 0.50, "latency_p50_ms"), "ms", ps.latency_ms.size());
  rep.add("urgent_latency_p50_ms", require_percentile(ps.urgent_latency_ms, 0.50, "urgent_latency_p50_ms"), "ms",
          ps.urgent_latency_ms.size());
  rep.add("mean_snr_db", ps.snr_mean, "dB", ps.latency_ms.size());
  rep.add("retained_heap_mb", retained_mb, "MiB");
  rep.add("energy_uj_per_window", in.node_energy_uj, "uJ");
  rep.add("radio_bytes_per_window", in.node_radio_bytes, "bytes");
  rep.add("af_window_accuracy", ps.lane_accuracy, "ratio", ps.latency_ms.size());
}

/// The end-to-end latency's tail: too noisy on a shared machine for a
/// bound, so reported by the traced run only.
void add_tail_layers(Report& rep, const PhaseStats& ps) {
  rep.add("tail.latency_p95_ms", require_percentile(ps.latency_ms, 0.95, "tail.latency_p95_ms"), "ms",
          ps.latency_ms.size());
  rep.add("tail.latency_p99_ms", require_percentile(ps.latency_ms, 0.99, "tail.latency_p99_ms"), "ms",
          ps.latency_ms.size());
}

void add_kernel_layers(Report& rep, const FleetInput& in, double iterations_mean) {
  const int levels = std::min(cs::FistaConfig{}.dwt_levels, dsp::dwt_max_levels(in.n));
  const auto model = kernel_model(in.m, in.n, in.windows.front().ones_per_column, levels);
  const auto [spmv_ns, dwt_ns] = time_kernels(in.windows.front().matrix_seed, in.m, in.n);
  rep.add("cs.iterations_per_window", iterations_mean, "iter");
  rep.add("kern.flops_per_window", model.flops_per_iteration * iterations_mean, "flop");
  rep.add("kern.bytes_per_window", model.bytes_per_iteration * iterations_mean, "B");
  rep.add("kern.spmv_ns", spmv_ns, "ns");
  rep.add("kern.dwt_ns", dwt_ns, "ns");
}

// --------------------------------------------------------------------------
// fleet_saturate


/// Worker budget: one core is left to the load generator, and at most
/// three workers run so figures from larger machines stay comparable.
int fleet_workers() {
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(cores - 1, 1, 3);
}

/// Program set-up: the fabric, then one solved window per distinct
/// operator so the matrix cache is warm before measuring.
std::unique_ptr<host::ReconstructionFabric> setup_saturate(const FleetInput& in, int workers, Accounting& acct) {
  host::FabricConfig cfg;
  cfg.engine.threads = workers;
  auto fabric = std::make_unique<host::ReconstructionFabric>(cfg);
  const auto& warm = in.warm;
  acct.attempted += warm.size();
  for (std::uint32_t k = 0; k < warm.size(); ++k) {
    fabric->submit(submission(in, warm[k], kWarmIndexBase + k));
  }
  for (std::size_t got = 0; got < warm.size();) {
    auto r = fabric->poll();
    if (!r) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      continue;
    }
    const std::uint32_t k = r->window_index - kWarmIndexBase;
    if (k >= warm.size() || !same_output(*r, in.expected[warm[k]])) ++acct.mismatched;
    ++got;
  }
  return fabric;
}

/// One closed-loop phase: a single thread keeps the fabric full with
/// blocking submits and polls every ready result between submits.
PhaseRaw saturate_phase(host::ReconstructionFabric& fabric, const FleetInput& in,
                          StampTable& stamps, Accounting& acct, double seconds, Tracer* tracer,
                          std::size_t& order_pos) {
  std::uint32_t n_window = 0;
  std::uint32_t n_submit = 0;
  std::uint32_t n_poll = 0;
  std::uint32_t phase_span = kNoParent;
  const std::size_t first = stamps.size();
  const auto t0 = Clock::now();
  const auto t_end = t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  if (tracer) {
    n_window = tracer->name("window");
    n_submit = tracer->name("host.submit");
    n_poll = tracer->name("host.poll");
    phase_span = tracer->open(tracer->name("phase"), kNoParent, 0, t0);
  }
  const double cpu0 = process_cpu_seconds();
  Slices slices;
  slices.start(t0, seconds, slice_count(seconds));
  std::size_t outstanding = 0;
  std::size_t completed_in_window = 0;
  std::uint64_t polls = 0;
  std::uint64_t empty_polls = 0;

  const auto poll_ready = [&](bool count_window) {
    for (;;) {
      const auto ps = Clock::now();
      auto r = fabric.poll();
      const auto pe = Clock::now();
      ++polls;
      if (!r) {
        ++empty_polls;
        if (tracer) tracer->record(n_poll, phase_span, 0, ps, pe);
        return;
      }
      const std::uint32_t idx = r->window_index;
      if (!accept(*r, stamps, in, acct, ps, pe)) throw BenchError("fabric returned an unknown window");
      --outstanding;
      if (count_window && pe <= t_end) ++completed_in_window;
      if (tracer) {
        const Stamp& st = stamps[idx];
        tracer->record(n_poll, st.root_span, trace_id(r->patient_id, idx), ps, pe);
        tracer->close(st.root_span, pe);
      }
    }
  };

  for (auto now = t0; now < t_end; now = Clock::now()) {
    slices.advance(now);
    const std::uint32_t d = in.order[order_pos++ % in.order.size()];
    const auto idx = static_cast<std::uint32_t>(stamps.size());
    Stamp& st = stamps.next();
    st.distinct = d;
    st.urgent = in.windows[d].priority == cs::WindowPriority::kUrgent;
    host::CompressedWindow w = submission(in, d, idx);
    st.due = st.submit_start = Clock::now();
    if (tracer) st.root_span = tracer->open(n_window, phase_span, trace_id(w.patient_id, idx), st.due);
    const std::uint32_t patient = w.patient_id;
    fabric.submit(std::move(w));
    st.submit_end = Clock::now();
    st.submitted = true;
    ++acct.attempted;
    ++outstanding;
    if (tracer) tracer->record(n_submit, st.root_span, trace_id(patient, idx), st.submit_start, st.submit_end);
    poll_ready(true);
  }
  slices.finish();
  const double cpu_s = process_cpu_seconds() - cpu0;
  // Drain: windows submitted in the phase still count, and are checked.
  const auto give_up = Clock::now() + std::chrono::seconds(30);
  while (outstanding > 0 && Clock::now() < give_up) {
    poll_ready(false);
    if (outstanding > 0) std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  acct.lost += outstanding;
  if (tracer) tracer->close(phase_span, Clock::now());
  return {first, stamps.size(), seconds, cpu_s, completed_in_window, polls, empty_polls, t_end, slices};
}

// --------------------------------------------------------------------------
// fleet_wire

constexpr int kWireShards = 2;
/// Windows each shard holds at once: one solving and three queued, so its
/// worker never waits for the client's next poll tick to get work.
constexpr std::size_t kWireInFlightPerShard = 4;
/// The client asks for results this often and sleeps in between.
constexpr auto kPollTick = std::chrono::milliseconds(1);

struct WireFleet {
  std::vector<std::unique_ptr<net::ShardServer>> servers;
  std::vector<std::thread> loops;
  std::unique_ptr<net::RoutingClient> client;
  double connect_ms = 0.0;
  std::uint64_t submitted = 0;

  WireFleet() = default;
  WireFleet(const WireFleet&) = delete;
  WireFleet& operator=(const WireFleet&) = delete;
  WireFleet(WireFleet&&) = default;
  WireFleet& operator=(WireFleet&&) = default;
  ~WireFleet() { shutdown(); }

  void shutdown() {
    if (client) client->shutdown(false);
    client.reset();
    for (auto& s : servers) s->stop();
    for (auto& t : loops) t.join();
    loops.clear();
    servers.clear();
  }
};

/// Polls until `want` set-up windows are back or 30 s pass.
void await_warm(net::RoutingClient& client, const FleetInput& in,
                const std::vector<std::uint32_t>& warm, Accounting& acct) {
  const auto give_up = Clock::now() + std::chrono::seconds(30);
  std::size_t got = 0;
  while (got < warm.size() && Clock::now() < give_up) {
    auto r = client.poll();
    if (!r) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      continue;
    }
    const std::uint32_t k = r->window_index - kWarmIndexBase;
    if (k >= warm.size() || !same_output(*r, in.expected[warm[k]])) ++acct.mismatched;
    ++got;
  }
  acct.lost += warm.size() - got;
}

/// Program set-up: two shard servers with one worker each, the client's
/// connect and handshake, and one solved window per distinct operator.
WireFleet setup_wire(const FleetInput& in, Accounting& acct) {
  WireFleet f;
  std::vector<net::ShardEndpoint> endpoints;
  for (int s = 0; s < kWireShards; ++s) {
    net::ShardServerConfig cfg;
    cfg.engine.threads = 1;
    auto server = std::make_unique<net::ShardServer>(cfg);
    if (!server->start()) throw BenchError("shard server failed to start");
    endpoints.push_back({"127.0.0.1", server->port()});
    f.servers.push_back(std::move(server));
  }
  for (auto& s : f.servers) f.loops.emplace_back([srv = s.get()] { srv->run(); });
  f.client = std::make_unique<net::RoutingClient>();
  const auto c0 = Clock::now();
  if (!f.client->connect(endpoints)) throw BenchError("routing client failed to connect");
  f.connect_ms = ms_between(c0, Clock::now());

  const auto& warm = in.warm;
  for (std::uint32_t k = 0; k < warm.size(); ++k) {
    ++acct.attempted;
    if (!f.client->submit(submission(in, warm[k], kWarmIndexBase + k))) {
      throw BenchError("set-up submit failed");
    }
    ++f.submitted;
  }
  await_warm(*f.client, in, warm, acct);
  return f;
}

/// The seeded submission order split by owner shard, so that each shard
/// can be topped up from its own windows.
std::vector<std::vector<std::uint32_t>> orders_by_shard(const FleetInput& in, const net::RoutingClient& client) {
  std::vector<std::vector<std::uint32_t>> by_shard(client.shard_count());
  for (const std::uint32_t d : in.order) by_shard[client.owner(in.windows[d].patient_id)].push_back(d);
  for (const auto& o : by_shard) {
    if (o.empty()) throw BenchError("a shard owns no patient");
  }
  return by_shard;
}

/// One closed-loop phase over the wire: every shard holds
/// kWireInFlightPerShard windows.  Each poll tick the client takes every
/// ready result, refills the shards those results came from with blocking
/// submits, and sleeps until the next tick; it never spins.
PhaseRaw wire_phase(WireFleet& f, const FleetInput& in, const std::vector<std::vector<std::uint32_t>>& shard_order,
                    StampTable& stamps, Accounting& acct, double seconds, Tracer* tracer,
                    std::vector<std::size_t>& order_pos) {
  net::RoutingClient& client = *f.client;
  std::uint32_t n_window = 0;
  std::uint32_t n_submit = 0;
  std::uint32_t n_poll = 0;
  std::uint32_t phase_span = kNoParent;
  const std::size_t first = stamps.size();
  const auto t0 = Clock::now();
  if (tracer) {
    n_window = tracer->name("window");
    n_submit = tracer->name("net.submit");
    n_poll = tracer->name("net.poll");
    phase_span = tracer->open(tracer->name("phase"), kNoParent, 0, t0);
  }
  const auto t_end = t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  const double cpu0 = process_cpu_seconds();
  Slices slices;
  slices.start(t0, seconds, slice_count(seconds));
  std::vector<std::size_t> in_flight(shard_order.size(), 0);
  std::vector<bool> dead(shard_order.size(), false);  ///< A submit found the connection gone.
  std::size_t outstanding = 0;
  std::uint64_t polls = 0;
  std::uint64_t empty_polls = 0;
  std::size_t completed_in_window = 0;
  double cpu_s = -1.0;
  const auto give_up = t_end + std::chrono::seconds(30);

  for (auto now = t0; outstanding > 0 || now < t_end; now = Clock::now()) {
    if (now > give_up) break;
    slices.advance(now);
    if (cpu_s < 0.0 && now >= t_end) cpu_s = process_cpu_seconds() - cpu0;
    for (;;) {
      const auto ps = Clock::now();
      auto r = client.poll();
      const auto pe = Clock::now();
      ++polls;
      if (!r) {
        ++empty_polls;
        if (tracer) tracer->record(n_poll, phase_span, 0, ps, pe);
        break;
      }
      const std::uint32_t idx = r->window_index;
      if (!accept(*r, stamps, in, acct, ps, pe)) throw BenchError("client returned an unknown window");
      const Stamp& st = stamps[idx];
      --in_flight[st.shard];
      --outstanding;
      if (pe <= t_end) ++completed_in_window;
      if (tracer) {
        tracer->record(n_poll, st.root_span, trace_id(r->patient_id, idx), ps, pe);
        tracer->close(st.root_span, pe);
      }
    }
    for (std::size_t s = 0; now < t_end && s < shard_order.size(); ++s) {
      while (!dead[s] && in_flight[s] < kWireInFlightPerShard) {
        const std::uint32_t d = shard_order[s][order_pos[s]++ % shard_order[s].size()];
        const auto idx = static_cast<std::uint32_t>(stamps.size());
        Stamp& st = stamps.next();
        st.distinct = d;
        st.shard = static_cast<std::uint32_t>(s);
        st.urgent = in.windows[d].priority == cs::WindowPriority::kUrgent;
        host::CompressedWindow w = submission(in, d, idx);
        const std::uint64_t tid = trace_id(w.patient_id, idx);
        st.due = st.submit_start = Clock::now();
        if (tracer) st.root_span = tracer->open(n_window, phase_span, tid, st.due);
        const bool ok = client.submit(std::move(w)).has_value();
        st.submit_end = Clock::now();
        ++acct.attempted;
        if (tracer) tracer->record(n_submit, st.root_span, tid, st.submit_start, st.submit_end);
        if (!ok) {
          ++acct.wire_failed;
          if (tracer) tracer->close(st.root_span, st.submit_end);
          dead[s] = true;
          break;
        }
        st.submitted = true;
        ++f.submitted;
        ++in_flight[s];
        ++outstanding;
      }
    }
    std::this_thread::sleep_until(Clock::now() + kPollTick);
  }
  slices.finish();
  if (cpu_s < 0.0) cpu_s = process_cpu_seconds() - cpu0;
  acct.lost += outstanding;
  if (tracer) tracer->close(phase_span, Clock::now());
  return {first, stamps.size(), seconds, cpu_s, completed_in_window, polls, empty_polls, t_end, slices};
}

}  // namespace

RunOutcome run_fleet_saturate(const RunOptions& opt) {
  RunOutcome out;
  Report& rep = out.report;
  const int workers = fleet_workers();
  const FleetInput in = make_fleet_input(opt.seed, 128, 30, 1);
  // Capacity bound: far above what three workers can solve per second.
  StampTable stamps(static_cast<std::size_t>(opt.seconds * 10000.0) + 1024);
  // Spans per window: the window, its submit, its poll, and about one empty poll.
  Tracer tracer(opt.trace ? static_cast<std::size_t>(opt.seconds * 20000.0) + 4096 : 0);

  constexpr int kSetups = 41;
  std::vector<double> setup_s;
  std::unique_ptr<host::ReconstructionFabric> owned;
  std::size_t heap_before = 0;
  for (int i = 0; i < kSetups; ++i) {
    owned.reset();
    if (i == kSetups - 1) heap_before = heap_in_use_bytes();
    const auto t0 = Clock::now();
    owned = setup_saturate(in, workers, out.acct);
    setup_s.push_back(1e-3 * ms_between(t0, Clock::now()));
  }
  host::ReconstructionFabric& fabric = *owned;

  std::size_t order_pos = 0;
  PhaseRaw untraced;
  PhaseRaw measured;
  if (opt.trace) {
    untraced = saturate_phase(fabric, in, stamps, out.acct, opt.seconds / 2, nullptr, order_pos);
    measured = saturate_phase(fabric, in, stamps, out.acct, opt.seconds / 2, &tracer, order_pos);
  } else {
    measured = saturate_phase(fabric, in, stamps, out.acct, opt.seconds, nullptr, order_pos);
  }
  const std::size_t heap_after = heap_in_use_bytes();
  const PhaseStats ps = summarize(stamps, measured, in);

  // Conservation: every window the benchmark handed the fabric is
  // accounted for exactly once.
  const auto snap = fabric.slo_snapshot();
  const std::uint64_t shed = snap.shed_routine + snap.shed_urgent;
  std::uint64_t submitted_here = 0;
  for (std::size_t i = 0; i < stamps.size(); ++i) submitted_here += stamps[i].submitted ? 1 : 0;
  submitted_here += in.warm.size();
  const bool conserved = snap.submitted == submitted_here &&
                         snap.submitted == snap.completed + shed + snap.lost + snap.in_flight &&
                         snap.in_flight == 0;
  if (!conserved) {
    out.correct = false;
    rep.note("conservation violated: submitted " + std::to_string(snap.submitted) + " (benchmark " +
             std::to_string(submitted_here) + "), completed " + std::to_string(snap.completed) +
             ", shed " + std::to_string(shed) + ", lost " + std::to_string(snap.lost) + ", in flight " +
             std::to_string(snap.in_flight));
  }
  out.acct.rejected += snap.rejected;
  out.acct.shed += shed;

  rep.note("fleet_saturate: " + std::to_string(in.windows.size()) + " distinct windows from 128 patients, " +
           std::to_string(workers) + " workers, closed loop with blocking submit");
  if (!opt.trace) {
    add_fleet_end_to_end(rep, stamps, ps, in, median(setup_s), retained_mib(heap_before, heap_after));
    return out;
  }
  const double throughput = static_cast<double>(measured.completed_in_window) / measured.seconds;

  rep.add("host.submit_block_ms_p50", layer_percentile(tracer.self_ms("host.submit"), 0.5, "host.submit"), "ms",
          ps.submit_ms.size());
  rep.add("host.queue_wait_ms_p50", layer_percentile(ps.queue_ms, 0.5, "host.queue_wait"), "ms", ps.queue_ms.size());
  rep.add("host.urgent_queue_wait_ms_p50", layer_percentile(ps.urgent_queue_ms, 0.5, "host.urgent_queue_wait"), "ms",
          ps.urgent_queue_ms.size());
  rep.add("host.solve_ms_p50", layer_percentile(ps.solve_ms, 0.5, "host.solve"), "ms", ps.solve_ms.size());
  rep.add("host.worker_busy_ratio", ps.solve_in_window_ms / (1e3 * measured.seconds * workers), "ratio");
  rep.add("host.poll_empty_ratio", static_cast<double>(measured.empty_polls) / static_cast<double>(measured.polls),
          "ratio", measured.polls);
  rep.add("host.grouped_ratio", static_cast<double>(snap.grouped_windows) / static_cast<double>(snap.completed),
          "ratio");
  rep.add("host.cached_matrices", static_cast<double>(fabric.shard(0).cached_matrices()), "count");
  rep.add("host.rejected", static_cast<double>(snap.rejected), "count");
  rep.add("host.shed", static_cast<double>(shed), "count");
  rep.add("host.lost", static_cast<double>(snap.lost), "count");
  add_kernel_layers(rep, in, ps.iterations_mean);
  add_tail_layers(rep, ps);
  const double thr_untraced = static_cast<double>(untraced.completed_in_window) / untraced.seconds;
  rep.add("trace.overhead_ratio", (thr_untraced - throughput) / thr_untraced, "ratio");
  // Stages a closed-loop window passes through: the blocking submit, queue
  // wait, solve, and the poll call that returned it.
  const double accounted = mean(ps.submit_ms) + mean(ps.queue_ms) + mean(ps.solve_ms) + mean(ps.poll_hit_ms);
  rep.add("trace.unaccounted_ratio", 1.0 - accounted / mean(ps.latency_ms), "ratio");
  if (!opt.trace_dir.empty()) rep.note(tracer.write_run(opt.trace_dir, "fleet_saturate", opt.seed));
  return out;
}

RunOutcome run_fleet_wire(const RunOptions& opt) {
  RunOutcome out;
  Report& rep = out.report;
  constexpr std::uint32_t kSeedPool = 64;
  const FleetInput in = make_fleet_input(opt.seed, 64, 40, kSeedPool);
  // Capacity bound: far above what two workers can solve per second.
  StampTable stamps(static_cast<std::size_t>(opt.seconds * 10000.0) + 1024);
  // Spans per window: the window, its submit, its poll, and a few empty polls.
  Tracer tracer(opt.trace ? static_cast<std::size_t>(opt.seconds * 30000.0) + 4096 : 0);

  constexpr int kSetups = 11;
  std::vector<double> setup_s;
  WireFleet f;
  std::size_t heap_before = 0;
  for (int i = 0; i < kSetups; ++i) {
    f.shutdown();
    if (i == kSetups - 1) heap_before = heap_in_use_bytes();
    const auto t0 = Clock::now();
    f = setup_wire(in, out.acct);
    setup_s.push_back(1e-3 * ms_between(t0, Clock::now()));
  }

  const auto shard_order = orders_by_shard(in, *f.client);
  std::vector<std::size_t> order_pos(shard_order.size(), 0);
  PhaseRaw untraced;
  PhaseRaw measured;
  if (opt.trace) {
    untraced = wire_phase(f, in, shard_order, stamps, out.acct, opt.seconds / 2, nullptr, order_pos);
    measured = wire_phase(f, in, shard_order, stamps, out.acct, opt.seconds / 2, &tracer, order_pos);
  } else {
    measured = wire_phase(f, in, shard_order, stamps, out.acct, opt.seconds, nullptr, order_pos);
  }
  const std::size_t heap_after = heap_in_use_bytes();
  const PhaseStats ps = summarize(stamps, measured, in);

  const auto snap = f.client->aggregate_snapshot();
  const std::uint64_t shed = snap.shed_routine + snap.shed_urgent;
  const bool conserved = snap.submitted == f.submitted &&
                         snap.submitted == snap.completed + shed + snap.lost &&
                         snap.unsolved == 0 && snap.ready == 0;
  if (!conserved) {
    out.correct = false;
    rep.note("conservation violated: submitted " + std::to_string(snap.submitted) + " (benchmark " +
             std::to_string(f.submitted) + "), completed " + std::to_string(snap.completed) + ", shed " +
             std::to_string(shed) + ", lost " + std::to_string(snap.lost));
  }
  out.acct.rejected += snap.rejected;
  out.acct.shed += shed;
  rep.note("fleet_wire: " + std::to_string(in.windows.size()) + " distinct windows from 64 patients on " +
           std::to_string(in.warm.size()) + " operators, closed loop with " +
           std::to_string(kWireInFlightPerShard) + " windows in flight per shard, poll tick 1 ms, " +
           std::to_string(kWireShards) + " shard servers x 1 worker");

  if (!opt.trace) {
    add_fleet_end_to_end(rep, stamps, ps, in, median(setup_s), retained_mib(heap_before, heap_after));
    return out;
  }

  std::uint64_t grouped = 0;
  std::size_t cached = 0;
  for (auto& server : f.servers) {
    grouped += server->engine().slo().snapshot().grouped_windows;
    cached += server->engine().cached_matrices();
  }
  rep.add("host.queue_wait_ms_p50", layer_percentile(ps.queue_ms, 0.5, "host.queue_wait"), "ms", ps.queue_ms.size());
  rep.add("host.urgent_queue_wait_ms_p50", layer_percentile(ps.urgent_queue_ms, 0.5, "host.urgent_queue_wait"), "ms",
          ps.urgent_queue_ms.size());
  rep.add("host.solve_ms_p50", layer_percentile(ps.solve_ms, 0.5, "host.solve"), "ms", ps.solve_ms.size());
  rep.add("host.worker_busy_ratio", ps.solve_in_window_ms / (1e3 * measured.seconds * kWireShards), "ratio");
  rep.add("host.grouped_ratio", static_cast<double>(grouped) / static_cast<double>(snap.completed), "ratio");
  rep.add("host.cached_matrices", static_cast<double>(cached), "count");
  rep.add("host.rejected", static_cast<double>(snap.rejected), "count");
  rep.add("host.shed", static_cast<double>(shed), "count");
  rep.add("host.lost", static_cast<double>(snap.lost), "count");
  add_kernel_layers(rep, in, ps.iterations_mean);

  // Wire bytes per window, exactly as the public encoders frame them: a
  // SUBMIT_WINDOW frame up, one RESULT_BATCH entry down.
  double submit_bytes = 0.0;
  double result_bytes = 0.0;
  std::vector<std::uint8_t> buf;
  std::size_t encoded = 0;
  for (std::size_t i = 0; i < stamps.size(); ++i) {
    if (!stamps[i].done) continue;
    const std::uint32_t d = stamps[i].distinct;
    buf.clear();
    net::encode_submit_window(buf, submission(in, d, static_cast<std::uint32_t>(i)), net::kSubmitFlagBlocking, {});
    submit_bytes += static_cast<double>(buf.size());
    host::WindowResult r = in.expected[d];
    r.window_index = static_cast<std::uint32_t>(i);
    buf.clear();
    net::encode_result_entry(buf, r, {});
    result_bytes += static_cast<double>(buf.size());
    ++encoded;
  }
  rep.add("net.submit_us_p50", 1e3 * layer_percentile(tracer.self_ms("net.submit"), 0.5, "net.submit"), "us",
          ps.submit_ms.size());
  rep.add("net.poll_us_p50", 1e3 * layer_percentile(ps.poll_hit_ms, 0.5, "net.poll"), "us", ps.poll_hit_ms.size());
  rep.add("net.poll_empty_ratio", static_cast<double>(measured.empty_polls) / static_cast<double>(measured.polls),
          "ratio", measured.polls);
  rep.add("net.return_ms_p50", layer_percentile(ps.return_ms, 0.5, "net.return"), "ms", ps.return_ms.size());
  rep.add("net.submit_bytes_per_window", submit_bytes / static_cast<double>(encoded), "B");
  rep.add("net.result_bytes_per_window", result_bytes / static_cast<double>(encoded), "B");
  rep.add("net.connect_ms", f.connect_ms, "ms");
  add_tail_layers(rep, ps);
  const double throughput = static_cast<double>(measured.completed_in_window) / measured.seconds;
  const double thr_untraced = static_cast<double>(untraced.completed_in_window) / untraced.seconds;
  rep.add("trace.overhead_ratio", (thr_untraced - throughput) / thr_untraced, "ratio");
  // Stages measured on their own: the submit call, queue wait and solve
  // (the program's stamps), and the poll call that returned the window.
  // What they leave uncovered is time no span sees: a finished window
  // waiting for the client's next poll tick, and its result on the wire.
  const double accounted = mean(ps.submit_ms) + mean(ps.queue_ms) + mean(ps.solve_ms) + mean(ps.poll_hit_ms);
  rep.add("trace.unaccounted_ratio", 1.0 - accounted / mean(ps.latency_ms), "ratio");
  if (!opt.trace_dir.empty()) rep.note(tracer.write_run(opt.trace_dir, "fleet_wire", opt.seed));
  return out;
}

}  // namespace perfbench
