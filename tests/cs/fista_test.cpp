#include "cs/fista.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "cs/pipeline.hpp"
#include "dsp/wavelet.hpp"
#include "sig/ecg_synth.hpp"

namespace wbsn::cs {
namespace {

/// A synthetic exactly-sparse signal in the wavelet domain.
std::vector<double> sparse_signal(std::size_t n, int levels, int nonzeros, sig::Rng& rng) {
  std::vector<double> coeffs(n, 0.0);
  for (int i = 0; i < nonzeros; ++i) {
    const auto idx = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    coeffs[idx] = rng.normal(0.0, 2.0);
  }
  return dsp::dwt_inverse(coeffs, levels);
}

TEST(Fista, RecoversExactlySparseSignal) {
  sig::Rng rng(1);
  const std::size_t n = 256;
  const auto x = sparse_signal(n, 4, 10, rng);
  const auto phi = SensingMatrix::make_sparse_binary(100, n, 4, rng);
  const auto y = phi.apply(x);
  FistaConfig cfg;
  cfg.dwt_levels = 4;
  cfg.max_iterations = 400;
  cfg.lambda_rel = 0.002;
  const auto result = fista_reconstruct(phi, y, cfg);
  EXPECT_GT(reconstruction_snr_db(x, result.signal), 25.0);
}

TEST(Fista, MoreMeasurementsGiveBetterSnr) {
  sig::Rng rng(2);
  const std::size_t n = 256;
  const auto x = sparse_signal(n, 4, 12, rng);
  double prev_snr = -100.0;
  for (std::size_t m : {40u, 80u, 160u}) {
    sig::Rng mrng(99);
    const auto phi = SensingMatrix::make_sparse_binary(m, n, 4, mrng);
    const auto y = phi.apply(x);
    FistaConfig cfg;
    cfg.dwt_levels = 4;
    const auto result = fista_reconstruct(phi, y, cfg);
    const double snr = reconstruction_snr_db(x, result.signal);
    EXPECT_GT(snr, prev_snr) << m;
    prev_snr = snr;
  }
}

TEST(Fista, EcgWindowAt50PercentCrIsGood) {
  sig::SynthConfig scfg;
  scfg.episodes = {{sig::RhythmEpisode::Kind::kSinus, 10}};
  scfg.noise = sig::NoiseParams::preset(sig::NoiseLevel::kNone);
  sig::Rng rng(3);
  const auto rec = synthesize_ecg(scfg, rng);
  std::vector<double> x(rec.leads[0].begin(), rec.leads[0].begin() + 512);
  const auto phi = SensingMatrix::make_sparse_binary(256, 512, 4, rng);
  const auto y = phi.apply(x);
  const auto result = fista_reconstruct(phi, y, FistaConfig{});
  EXPECT_GT(reconstruction_snr_db(x, result.signal), 20.0);
}

TEST(Fista, StopsEarlyOnConvergence) {
  sig::Rng rng(4);
  const std::size_t n = 128;
  const auto x = sparse_signal(n, 3, 4, rng);
  const auto phi = SensingMatrix::make_sparse_binary(80, n, 4, rng);
  const auto y = phi.apply(x);
  FistaConfig cfg;
  cfg.dwt_levels = 3;
  cfg.max_iterations = 2000;
  cfg.tolerance = 1e-5;
  const auto result = fista_reconstruct(phi, y, cfg);
  EXPECT_LT(result.iterations_run, 2000);
}

TEST(Fista, WindowsConvergeIndependently) {
  // A very sparse window and a dense one under the same operator stop at
  // their own iterations: each solve's stopping rule sees only its window.
  sig::Rng rng(4);
  const std::size_t n = 128;
  const auto phi = SensingMatrix::make_sparse_binary(96, n, 4, rng);
  FistaConfig cfg;
  cfg.dwt_levels = 3;
  cfg.max_iterations = 300;
  cfg.tolerance = 1e-5;

  const auto sparse = fista_reconstruct(phi, phi.apply(sparse_signal(n, 3, 2, rng)), cfg);
  const auto dense = fista_reconstruct(phi, phi.apply(sparse_signal(n, 3, 40, rng)), cfg);
  EXPECT_NE(sparse.iterations_run, dense.iterations_run)
      << "expected different convergence points for different sparsity";
  EXPECT_LT(std::min(sparse.iterations_run, dense.iterations_run), cfg.max_iterations);
}

TEST(Fista, ContinuationConvergesToTheLassoMinimizer) {
  // lambda-continuation changes the path, not the problem: solved to
  // convergence without the debias, one ECG window's coefficients at CR 50 %
  // satisfy the KKT conditions of the LASSO at the window's final
  // threshold tau, with g = Psi Phi'(Phi Psi' a - y).
  sig::SynthConfig scfg;
  scfg.episodes = {{sig::RhythmEpisode::Kind::kSinus, 10}};
  scfg.noise = sig::NoiseParams::preset(sig::NoiseLevel::kNone);
  sig::Rng rng(8);
  const auto rec = synthesize_ecg(scfg, rng);
  const std::vector<double> x(rec.leads[0].begin(), rec.leads[0].begin() + 512);
  const auto phi = SensingMatrix::make_sparse_binary(256, 512, 4, rng);
  const auto y = phi.apply(x);
  FistaConfig cfg;
  cfg.debias = false;
  cfg.max_iterations = 5000;
  cfg.tolerance = 1e-12;
  const auto result = fista_reconstruct(phi, y, cfg);
  EXPECT_LT(result.iterations_run, cfg.max_iterations) << "expected a tolerance stop";

  const int levels = std::min(cfg.dwt_levels, dsp::dwt_max_levels(x.size()));
  const double lip = phi.lipschitz();
  double max_aty = 0.0;
  for (const double c : dsp::dwt_forward(phi.apply_adjoint(y), levels)) {
    max_aty = std::max(max_aty, std::abs(c));
  }
  const double tau = cfg.lambda_rel * max_aty / lip;

  const auto& a = result.coefficients;
  auto residual = phi.apply(dsp::dwt_inverse(a, levels));
  for (std::size_t i = 0; i < residual.size(); ++i) residual[i] -= y[i];
  const auto g = dsp::dwt_forward(phi.apply_adjoint(residual), levels);
  constexpr double kEps = 1e-6;
  std::size_t support = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] != 0.0) {
      ++support;
      EXPECT_NEAR(g[i] / lip + std::copysign(tau, a[i]), 0.0, kEps * tau) << "support " << i;
    } else {
      EXPECT_LE(std::abs(g[i] / lip), tau * (1.0 + kEps)) << "off support " << i;
    }
  }
  EXPECT_GT(support, 0u);
}

TEST(GroupFista, JointBeatsIndependentAtHighCr) {
  // The Figure-5 mechanism: leads share wavelet support, so joint recovery
  // tolerates higher CR.  Compare on a 3-lead record at CR = 75 %.
  sig::SynthConfig scfg;
  scfg.episodes = {{sig::RhythmEpisode::Kind::kSinus, 20}};
  scfg.noise = sig::NoiseParams::preset(sig::NoiseLevel::kNone);
  sig::Rng rng(5);
  const auto rec = synthesize_ecg(scfg, rng);

  CsPipelineConfig cfg;
  const auto joint = run_multi_lead_cs(rec, 75.0, cfg);
  const auto indep = run_independent_leads_cs(rec, 75.0, cfg);
  EXPECT_GT(joint.mean_snr_db, indep.mean_snr_db + 1.0);
}

TEST(Omp, RecoversVerySparseSignal) {
  sig::Rng rng(6);
  const std::size_t n = 128;
  const auto x = sparse_signal(n, 3, 5, rng);
  const auto phi = SensingMatrix::make_sparse_binary(64, n, 4, rng);
  const auto y = phi.apply(x);
  OmpConfig cfg;
  cfg.dwt_levels = 3;
  cfg.max_atoms = 16;
  const auto xhat = omp_reconstruct(phi, y, cfg);
  EXPECT_GT(reconstruction_snr_db(x, xhat), 40.0);
}

TEST(Metrics, SnrOfExactCopyIsHuge) {
  const std::vector<double> x = {1.0, -2.0, 3.0};
  EXPECT_GE(reconstruction_snr_db(x, x), 140.0);
}

TEST(Metrics, KnownSnrCase) {
  // Error of exactly 10% RMS -> SNR = 20 dB, PRD = 10 %.
  std::vector<double> x(100);
  std::vector<double> xhat(100);
  for (std::size_t i = 0; i < 100; ++i) {
    x[i] = std::sin(0.2 * static_cast<double>(i));
  }
  double energy = 0.0;
  for (double v : x) energy += v * v;
  // Perturb a single sample so the error energy is 1% of signal energy.
  xhat = x;
  xhat[50] += std::sqrt(0.01 * energy);
  EXPECT_NEAR(reconstruction_snr_db(x, xhat), 20.0, 1e-6);
  EXPECT_NEAR(prd_percent(x, xhat), 10.0, 1e-6);
}

TEST(Metrics, SnrSymmetricScale) {
  std::vector<double> x(64);
  for (std::size_t i = 0; i < 64; ++i) x[i] = std::cos(0.1 * static_cast<double>(i));
  std::vector<double> xhat = x;
  for (double& v : xhat) v *= 1.01;  // 1% multiplicative error -> 40 dB.
  EXPECT_NEAR(reconstruction_snr_db(x, xhat), 40.0, 0.2);
}

TEST(CrAtSnr, InterpolatesCrossing) {
  const std::vector<double> crs = {50.0, 60.0, 70.0, 80.0};
  const std::vector<double> snrs = {30.0, 25.0, 15.0, 8.0};
  // 20 dB crossing between CR 60 and 70 -> 65.
  EXPECT_NEAR(cr_at_snr(crs, snrs, 20.0), 65.0, 0.01);
}

TEST(CrAtSnr, AllAboveTargetReturnsLastCr) {
  const std::vector<double> crs = {50.0, 60.0};
  const std::vector<double> snrs = {30.0, 25.0};
  EXPECT_NEAR(cr_at_snr(crs, snrs, 20.0), 60.0, 1e-9);
}

}  // namespace
}  // namespace wbsn::cs
