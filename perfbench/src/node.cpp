// node_monitor: multi-lead patients driven window by window through their
// own core::WbsnNode, spread across the paper's ladder of on-node modes.
#include <algorithm>
#include <array>
#include <cstring>
#include <memory>

#include "cls/af_detect.hpp"
#include "cls/beat_classifier.hpp"
#include "core/node.hpp"
#include "cs/fista.hpp"
#include "cs/sensing_matrix.hpp"
#include "delin/pipeline.hpp"
#include "host/reconstruction_engine.hpp"
#include "sig/adc.hpp"
#include "sig/dataset.hpp"
#include "sig/ecg_synth.hpp"
#include "sig/rng.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace wbsn;

constexpr std::array<core::OperatingMode, 5> kModes = {
    core::OperatingMode::kCompressedSingle, core::OperatingMode::kCompressedMulti,
    core::OperatingMode::kDelineation, core::OperatingMode::kClassification,
    core::OperatingMode::kAfAlarm};
constexpr int kPatients = 80;
constexpr int kBeatsPerEpisode = 40;

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9E3779B97F4A7C15ULL + b + 0x2545F4914F6CDD1DULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

core::OperatingMode mode_of(int patient) { return kModes[static_cast<std::size_t>(patient) % kModes.size()]; }

using Window = std::vector<std::vector<double>>;  ///< [lead][sample], mV.

struct Patient {
  sig::Record record;
  std::vector<Window> windows;
  /// AF-alarm truth per window: the majority label of the last
  /// window_beats true beats before the window's end (-1: too few beats).
  std::vector<int> af_truth;
};

struct Cohort {
  std::vector<Patient> patients;
  std::vector<std::vector<std::int32_t>> cls_signals;
  std::vector<sig::Record> cls_records;
  std::vector<std::vector<sig::BeatAnnotation>> af_training;
};

/// Sinus rhythm with PVC runs, an AF episode, then sinus again.
Cohort make_cohort(std::uint64_t seed) {
  Cohort c;
  const std::size_t n = core::NodeConfig{}.window_samples;
  const int af_beats = cls::AfDetectorConfig{}.window_beats;
  for (int p = 0; p < kPatients; ++p) {
    sig::SynthConfig synth;
    synth.episodes = {{sig::RhythmEpisode::Kind::kSinus, kBeatsPerEpisode},
                      {sig::RhythmEpisode::Kind::kAfib, kBeatsPerEpisode},
                      {sig::RhythmEpisode::Kind::kSinus, kBeatsPerEpisode}};
    synth.pvc_probability = 0.08;
    synth.noise = sig::NoiseParams::preset(sig::NoiseLevel::kLow);
    sig::Rng rng(mix(seed, static_cast<std::uint64_t>(p)));
    Patient pt;
    pt.record = synthesize_ecg(synth, rng);
    const std::size_t count = pt.record.num_samples() / n;
    for (std::size_t w = 0; w < count; ++w) {
      Window win;
      for (const auto& lead : pt.record.leads) {
        win.emplace_back(lead.begin() + static_cast<long>(w * n), lead.begin() + static_cast<long>((w + 1) * n));
      }
      pt.windows.push_back(std::move(win));
      const auto end = static_cast<std::int64_t>((w + 1) * n);
      std::vector<const sig::BeatAnnotation*> before;
      for (const auto& b : pt.record.beats) {
        if (b.r_peak < end) before.push_back(&b);
      }
      if (before.size() < static_cast<std::size_t>(af_beats)) {
        pt.af_truth.push_back(-1);
        continue;
      }
      int af = 0;
      for (std::size_t k = before.size() - static_cast<std::size_t>(af_beats); k < before.size(); ++k) {
        af += before[k]->label == sig::BeatClass::kAfib ? 1 : 0;
      }
      pt.af_truth.push_back(2 * af > af_beats ? 1 : 0);
    }
    c.patients.push_back(std::move(pt));
  }

  sig::DatasetSpec cls_spec;
  cls_spec.num_records = 4;
  cls_spec.beats_per_record = 120;
  cls_spec.pvc_probability = 0.1;
  cls_spec.seed = mix(seed, 0xC15);
  c.cls_records = sig::make_arrhythmia_dataset(cls_spec);
  for (const auto& r : c.cls_records) c.cls_signals.push_back(sig::quantize(r.leads[0], sig::AdcConfig{}));
  sig::DatasetSpec af_spec;
  af_spec.num_records = 4;
  af_spec.beats_per_record = 160;
  af_spec.seed = mix(seed, 0xAF);
  for (const auto& r : sig::make_af_dataset(af_spec)) c.af_training.push_back(r.beats);
  return c;
}

/// The program: trained models plus one node per patient.
struct NodeFleet {
  std::shared_ptr<cls::BeatClassifier> classifier;
  std::shared_ptr<cls::AfDetector> af_detector;
  std::vector<std::unique_ptr<core::WbsnNode>> nodes;
  double train_ms = 0.0;
};

std::unique_ptr<core::WbsnNode> make_node(int patient, const NodeFleet& f) {
  core::NodeConfig cfg;
  cfg.mode = mode_of(patient);
  auto node = std::make_unique<core::WbsnNode>(cfg);
  node->set_classifier(f.classifier);
  node->set_af_detector(f.af_detector);
  return node;
}

NodeFleet setup_nodes(const Cohort& c) {
  NodeFleet f;
  const auto t0 = Clock::now();
  f.classifier = std::make_shared<cls::BeatClassifier>();
  std::vector<cls::BeatClassifier::TrainingRecord> training;
  for (std::size_t i = 0; i < c.cls_records.size(); ++i) {
    training.push_back({c.cls_signals[i], c.cls_records[i].beats});
  }
  f.classifier->train(training);
  f.af_detector = std::make_shared<cls::AfDetector>();
  f.af_detector->train(c.af_training, sig::kDefaultFs);
  f.train_ms = ms_between(t0, Clock::now());
  for (int p = 0; p < kPatients; ++p) f.nodes.push_back(make_node(p, f));
  return f;
}

bool same_beats(const std::vector<sig::BeatAnnotation>& a, const std::vector<sig::BeatAnnotation>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& x = a[i];
    const auto& y = b[i];
    if (x.r_peak != y.r_peak || x.label != y.label || x.p.peak != y.p.peak || x.qrs.onset != y.qrs.onset ||
        x.qrs.offset != y.qrs.offset || x.t.peak != y.t.peak) {
      return false;
    }
  }
  return true;
}

bool same_output(const core::WindowOutput& a, const core::WindowOutput& b) {
  const auto bits = [](double v) {
    std::uint64_t u = 0;
    std::memcpy(&u, &v, sizeof u);
    return u;
  };
  return a.tx_payload_bytes == b.tx_payload_bytes && a.processing_ops.total() == b.processing_ops.total() &&
         a.processing_ops.mul == b.processing_ops.mul && a.labels == b.labels && a.af_flag == b.af_flag &&
         same_beats(a.beats, b.beats) && bits(a.energy.total_j()) == bits(b.energy.total_j());
}

/// Outputs of the replay-sample patients (the first patient of each mode),
/// kept for the fresh-node replay check.
constexpr int kReplayWindows = 24;

struct NodePhase {
  double seconds = 0.0;
  double cpu_s = 0.0;
  std::size_t windows = 0;
  std::vector<double> latency_ms;
  std::vector<double> alarm_latency_ms;
  double energy_uj = 0.0;
  double computation_uj = 0.0;
  double radio_uj = 0.0;
  double radio_bytes = 0.0;
  double ops = 0.0;
  std::size_t af_decisions = 0;
  std::size_t af_correct = 0;
  Slices slices;
  /// Windows processed by each slice boundary.
  std::vector<std::size_t> marks;
};


/// Sample buffers are reserved before the program is set up, so they are
/// not counted as retained program heap.
NodePhase reserve_phase(double seconds) {
  NodePhase ph;
  ph.seconds = seconds;
  const std::size_t capacity = static_cast<std::size_t>(seconds * 20000.0) + 1024;
  ph.latency_ms.reserve(capacity);
  ph.alarm_latency_ms.reserve(capacity);
  ph.marks.resize(static_cast<std::size_t>(slice_count(seconds)) + 1);
  return ph;
}

/// Round robin over the patients, one window each per turn.  A patient
/// whose record ends starts a new session on a fresh node.
void node_phase(NodePhase& ph, NodeFleet& f, const Cohort& c, std::vector<std::size_t>& pos,
                Tracer* tracer, std::vector<std::vector<core::WindowOutput>>& replay, Accounting& acct) {
  const std::size_t capacity = ph.latency_ms.capacity();
  const double seconds = ph.seconds;
  std::array<std::uint32_t, kModes.size()> names{};
  std::uint32_t phase_span = kNoParent;
  const auto t0 = Clock::now();
  const auto t_end = t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  if (tracer) {
    for (std::size_t m = 0; m < kModes.size(); ++m) {
      names[m] = tracer->name("core.process_window." + core::to_string(kModes[m]));
    }
    phase_span = tracer->open(tracer->name("phase"), kNoParent, 0, t0);
  }
  const double cpu0 = process_cpu_seconds();
  ph.slices.start(t0, seconds, static_cast<int>(ph.marks.size()) - 1);
  std::size_t marked = 1;
  const auto mark = [&](int passed) {
    for (; passed > 0; --passed) ph.marks[marked++] = ph.windows;
  };
  int p = 0;
  for (auto now = t0; now < t_end; now = Clock::now()) {
    mark(ph.slices.advance(now));
    const Patient& pt = c.patients[static_cast<std::size_t>(p)];
    std::size_t& w = pos[static_cast<std::size_t>(p)];
    if (w == pt.windows.size()) {
      f.nodes[static_cast<std::size_t>(p)] = make_node(p, f);
      w = 0;
    }
    const std::size_t mode = static_cast<std::size_t>(p) % kModes.size();
    const auto s = Clock::now();
    core::WindowOutput out = f.nodes[static_cast<std::size_t>(p)]->process_window(pt.windows[w]);
    const auto e = Clock::now();
    if (tracer) tracer->record(names[mode], phase_span, trace_id(static_cast<std::uint32_t>(p), static_cast<std::uint32_t>(w)), s, e);
    if (ph.latency_ms.size() == capacity) throw BenchError("node sample buffer exhausted");
    const double ms = ms_between(s, e);
    ph.latency_ms.push_back(ms);
    ++acct.attempted;
    if (mode_of(p) == core::OperatingMode::kAfAlarm) {
      ph.alarm_latency_ms.push_back(ms);
      if (out.af_flag && pt.af_truth[w] >= 0) {
        ++ph.af_decisions;
        ph.af_correct += (*out.af_flag == (pt.af_truth[w] == 1)) ? 1 : 0;
      }
    }
    ph.energy_uj += 1e6 * out.energy.total_j();
    ph.computation_uj += 1e6 * out.energy.computation_j;
    ph.radio_uj += 1e6 * out.energy.radio_j;
    ph.radio_bytes += out.tx_payload_bytes;
    ph.ops += static_cast<double>(out.processing_ops.total());
    if (p < static_cast<int>(kModes.size()) && replay[static_cast<std::size_t>(p)].size() == w &&
        w < kReplayWindows) {
      replay[static_cast<std::size_t>(p)].push_back(std::move(out));
    }
    ++w;
    ++ph.windows;
    p = (p + 1) % kPatients;
  }
  ph.slices.finish();
  mark(static_cast<int>(ph.marks.size() - marked));
  ph.cpu_s = process_cpu_seconds() - cpu0;
  if (tracer) tracer->close(phase_span, Clock::now());
}

/// Untimed: drives every patient to the end of its current session, so each
/// node holds the state of one whole record when the heap is read.
void finish_sessions(NodeFleet& f, const Cohort& c, std::vector<std::size_t>& pos, Accounting& acct) {
  for (std::size_t p = 0; p < c.patients.size(); ++p) {
    for (; pos[p] < c.patients[p].windows.size(); ++pos[p]) {
      (void)f.nodes[p]->process_window(c.patients[p].windows[pos[p]]);
      ++acct.attempted;
    }
  }
}

/// Replays the sampled patients' first windows on fresh nodes; every
/// window whose output differs counts as failed.
std::uint64_t replay_mismatches(const NodeFleet& f, const Cohort& c,
                                const std::vector<std::vector<core::WindowOutput>>& replay) {
  std::uint64_t bad = 0;
  for (std::size_t p = 0; p < replay.size(); ++p) {
    auto node = make_node(static_cast<int>(p), f);
    for (std::size_t w = 0; w < replay[p].size(); ++w) {
      if (!same_output(node->process_window(c.patients[p].windows[w]), replay[p][w])) ++bad;
    }
  }
  return bad;
}

/// SNR the host reaches on this cohort's CS single-lead windows at the
/// node's default compression ratio: every lead-0 window of those patients
/// encoded as the node encodes it and solved by a serial engine.
double cs_mode_snr_db(const Cohort& c) {
  std::vector<host::CompressedWindow> sample;
  std::vector<std::vector<double>> truth;
  host::RecordCompressionConfig cfg;
  cfg.cr_percent = core::NodeConfig{}.cs_cr_percent;
  for (int p = 0; p < kPatients; ++p) {
    if (mode_of(p) != core::OperatingMode::kCompressedSingle) continue;
    const Patient& pt = c.patients[static_cast<std::size_t>(p)];
    auto windows = host::compress_record(pt.record, static_cast<std::uint32_t>(p), cfg);
    for (std::size_t w = 0; w < pt.windows.size(); ++w) {  // Lead 0 comes first.
      truth.push_back(std::move(windows[w].reference));
      windows[w].reference.clear();
      sample.push_back(std::move(windows[w]));
    }
  }
  host::ReconstructionEngine serial{host::EngineConfig{}};
  const auto batch = serial.reconstruct(sample);
  double snr = 0.0;
  for (std::size_t i = 0; i < sample.size(); ++i) {
    snr += cs::reconstruction_snr_db(truth[i], batch.windows[i].signal);
  }
  return snr / static_cast<double>(sample.size());
}

/// Traced probes: the benchmark calls the node's layers itself on a sample
/// of windows, one span per call, so each layer's time can be read apart
/// from process_window (which calls them internally).
void probe_layers(const NodeFleet& f, const Cohort& c, Tracer& tracer) {
  const core::NodeConfig node_cfg;
  const std::size_t n = node_cfg.window_samples;
  const std::size_t m = cs::rows_for_cr(node_cfg.cs_cr_percent, n);
  const auto n_probe = tracer.name("probe.window");
  const auto n_build = tracer.name("cs.matrix_build");
  const auto n_encode = tracer.name("cs.encode");
  const auto n_delin = tracer.name("delin.pipeline");
  const auto n_classify = tracer.name("cls.classify");
  const auto n_af = tracer.name("cls.af");
  delin::PipelineConfig pcfg = node_cfg.delineation;
  pcfg.fs = node_cfg.fs;
  const auto af_cfg = f.af_detector->config();
  for (int p = 0; p < kPatients; ++p) {
    const auto mode = mode_of(p);
    const Patient& pt = c.patients[static_cast<std::size_t>(p)];
    std::vector<sig::BeatAnnotation> history;
    for (std::size_t w = 0; w < pt.windows.size(); ++w) {
      std::vector<std::vector<std::int32_t>> counts;
      for (const auto& lead : pt.windows[w]) counts.push_back(sig::quantize(lead, node_cfg.adc));
      const std::uint64_t tid = trace_id(static_cast<std::uint32_t>(p), static_cast<std::uint32_t>(w));
      const auto root = tracer.open(n_probe, kNoParent, tid, Clock::now());
      if (mode == core::OperatingMode::kCompressedSingle || mode == core::OperatingMode::kCompressedMulti) {
        auto s = Clock::now();
        sig::Rng rng(node_cfg.cs.matrix_seed);
        const auto phi = cs::SensingMatrix::make_sparse_binary(m, n, node_cfg.cs.ones_per_column, rng);
        auto e = Clock::now();
        tracer.record(n_build, root, tid, s, e);
        s = Clock::now();
        const auto y = phi.encode(counts[0]);
        e = Clock::now();
        tracer.record(n_encode, root, tid, s, e);
        if (y.size() != m) throw BenchError("encode returned the wrong measurement count");
      } else {
        auto s = Clock::now();
        const auto delineated = delin::run_delineation_pipeline(counts, pcfg);
        auto e = Clock::now();
        tracer.record(n_delin, root, tid, s, e);
        if (mode == core::OperatingMode::kClassification) {
          const auto& beats = delineated.beats;
          for (std::size_t b = 0; b < beats.size(); ++b) {
            const double rr_prev = b > 0 ? static_cast<double>(beats[b].r_peak - beats[b - 1].r_peak) / node_cfg.fs : 0.8;
            const double rr_next =
                b + 1 < beats.size() ? static_cast<double>(beats[b + 1].r_peak - beats[b].r_peak) / node_cfg.fs : 0.8;
            s = Clock::now();
            (void)f.classifier->classify_linearized(counts[0], beats[b].r_peak, rr_prev, rr_next, 0.8);
            e = Clock::now();
            tracer.record(n_classify, root, tid, s, e);
          }
        } else if (mode == core::OperatingMode::kAfAlarm) {
          for (auto beat : delineated.beats) {
            beat.r_peak += static_cast<std::int64_t>(w * n);
            history.push_back(beat);
          }
          const auto needed = static_cast<std::size_t>(af_cfg.window_beats);
          if (history.size() >= needed) {
            const auto tail = std::span<const sig::BeatAnnotation>(history).subspan(history.size() - needed, needed);
            s = Clock::now();
            const auto features = cls::compute_af_features(tail, node_cfg.fs, af_cfg.entropy_bins);
            (void)f.af_detector->fuzzy().classify_linearized(features.as_vector());
            e = Clock::now();
            tracer.record(n_af, root, tid, s, e);
          }
        }
      }
      tracer.close(root, Clock::now());
    }
  }
}

}  // namespace

RunOutcome run_node_monitor(const RunOptions& opt) {
  RunOutcome out;
  Report& rep = out.report;
  const Cohort cohort = make_cohort(opt.seed);
  Tracer tracer(opt.trace ? static_cast<std::size_t>(opt.seconds * 20000.0) + 200000 : 0);
  std::vector<std::vector<core::WindowOutput>> replay(kModes.size());
  for (auto& r : replay) r.reserve(kReplayWindows);

  NodePhase untraced = reserve_phase(opt.trace ? opt.seconds / 2 : 1.0);
  NodePhase ph = reserve_phase(opt.trace ? opt.seconds / 2 : opt.seconds);
  constexpr int kSetups = 21;
  std::vector<double> setup_s;
  NodeFleet f;
  std::size_t heap_before = 0;
  for (int i = 0; i < kSetups; ++i) {
    f = NodeFleet{};
    if (i == kSetups - 1) heap_before = heap_in_use_bytes();
    const auto t0 = Clock::now();
    f = setup_nodes(cohort);
    setup_s.push_back(1e-3 * ms_between(t0, Clock::now()));
  }

  std::vector<std::size_t> pos(kPatients, 0);
  if (opt.trace) node_phase(untraced, f, cohort, pos, nullptr, replay, out.acct);
  node_phase(ph, f, cohort, pos, opt.trace ? &tracer : nullptr, replay, out.acct);
  finish_sessions(f, cohort, pos, out.acct);
  const auto windows = static_cast<double>(ph.windows);
  const double throughput = windows / ph.seconds;

  out.acct.mismatched += replay_mismatches(f, cohort, replay);
  std::size_t replayed = 0;
  for (auto& r : replay) {
    replayed += r.size();
    r.clear();
    r.shrink_to_fit();
  }
  if (replayed < kModes.size()) throw BenchError("too few windows to replay");
  rep.note("node_monitor: " + std::to_string(kPatients) + " three-lead patients over " +
           std::to_string(kModes.size()) + " modes; " + std::to_string(replayed) +
           " windows replayed on fresh nodes");

  if (!opt.trace) {
    const std::size_t heap_after = heap_in_use_bytes();
    // Percentiles pool the whole phase; rates are medians over its slices.
    std::vector<double> thr;
    std::vector<double> per_cpu;
    for (int sl = 0; sl < ph.slices.count(); ++sl) {
      const auto done = static_cast<double>(ph.marks[static_cast<std::size_t>(sl) + 1] -
                                            ph.marks[static_cast<std::size_t>(sl)]);
      thr.push_back(done / ph.slices.slice_seconds());
      per_cpu.push_back(done / ph.slices.cpu_seconds(sl));
    }
    rep.note("rates: median over " + std::to_string(ph.slices.count()) + " slices of " +
             std::to_string(ph.slices.slice_seconds()) + " s");
    rep.add("setup_s", median(setup_s), "s");
    rep.add("throughput_win_per_s", median(thr), "win/s", ph.windows);
    rep.add("throughput_win_per_cpu_s", median(per_cpu), "win/cpu_s");
    rep.add("latency_p50_ms", require_percentile(ph.latency_ms, 0.50, "latency_p50_ms"), "ms", ph.latency_ms.size());
    rep.add("urgent_latency_p50_ms", require_percentile(ph.alarm_latency_ms, 0.50, "urgent_latency_p50_ms"), "ms",
            ph.alarm_latency_ms.size());
    rep.add("mean_snr_db", cs_mode_snr_db(cohort), "dB");
    rep.add("retained_heap_mb", retained_mib(heap_before, heap_after), "MiB");
    rep.add("energy_uj_per_window", ph.energy_uj / windows, "uJ", ph.windows);
    rep.add("radio_bytes_per_window", ph.radio_bytes / windows, "bytes", ph.windows);
    if (ph.af_decisions == 0) throw BenchError("no AF-alarm decisions");
    rep.add("af_window_accuracy", static_cast<double>(ph.af_correct) / static_cast<double>(ph.af_decisions), "ratio",
            ph.af_decisions);
    return out;
  }

  probe_layers(f, cohort, tracer);
  for (std::size_t m = 0; m < kModes.size(); ++m) {
    const std::string mode = core::to_string(kModes[m]);
    const auto self = tracer.self_ms("core.process_window." + mode);
    rep.add("core.process_us_p50." + mode, 1e3 * layer_percentile(self, 0.5, mode), "us", self.size());
  }
  const auto us_p50 = [&](const char* span) {
    const auto self = tracer.self_ms(span);
    return std::make_pair(1e3 * layer_percentile(self, 0.5, span), self.size());
  };
  for (const auto& [metric, span] : {std::pair{"cs.matrix_build_us_p50", "cs.matrix_build"},
                                     std::pair{"cs.encode_us_p50", "cs.encode"},
                                     std::pair{"delin.pipeline_us_p50", "delin.pipeline"},
                                     std::pair{"cls.classify_us_p50", "cls.classify"},
                                     std::pair{"cls.af_us_p50", "cls.af"}}) {
    const auto [value, samples] = us_p50(span);
    rep.add(metric, value, "us", samples);
  }
  rep.add("cls.train_ms", f.train_ms, "ms");
  rep.add("dsp.ops_per_window", ph.ops / windows, "ops", ph.windows);
  rep.add("energy.computation_uj_per_window", ph.computation_uj / windows, "uJ", ph.windows);
  rep.add("energy.radio_uj_per_window", ph.radio_uj / windows, "uJ", ph.windows);
  rep.add("tail.latency_p95_ms", require_percentile(ph.latency_ms, 0.95, "tail.latency_p95_ms"), "ms",
          ph.latency_ms.size());
  rep.add("tail.latency_p99_ms", require_percentile(ph.latency_ms, 0.99, "tail.latency_p99_ms"), "ms",
          ph.latency_ms.size());
  const double thr_untraced = static_cast<double>(untraced.windows) / untraced.seconds;
  rep.add("trace.overhead_ratio", (thr_untraced - throughput) / thr_untraced, "ratio");
  if (!opt.trace_dir.empty()) rep.note(tracer.write_run(opt.trace_dir, "node_monitor", opt.seed));
  return out;
}

}  // namespace perfbench
