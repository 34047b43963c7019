// Figure 5 as a tier-1 check: a reduced bench/fig5_snr_vs_cr sweep (two
// clean sinus records, CR 50/65/80 %, the bench's FistaConfig) must
// reproduce the pinned mean SNR of single-lead and joint multi-lead CS
// within 0.05 dB, and keep the paper's shape: SNR falls as CR rises, and
// joint multi-lead decoding is at least as good as single-lead at the
// high compression ratios.  A change that alters reconstructions on
// purpose re-pins the values and says so.
//
// The same sweep at the engine's default solver settings (the setting
// every fleet window is decoded at) on moderately noisy records guards the
// fleet's fidelity: no point may fall more than 0.05 dB below the floor
// recorded from the 200-iteration plain-FISTA solver that lambda-
// continuation replaced.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>

#include "cs/pipeline.hpp"
#include "sig/dataset.hpp"

namespace wbsn::cs {
namespace {

constexpr std::array<double, 3> kCrs = {50.0, 65.0, 80.0};
constexpr double kToleranceDb = 0.05;

// Recorded from a known-good build; see the file comment.
constexpr std::array<double, 3> kSingleLeadDb = {22.0882, 14.9786, 7.8303};
constexpr std::array<double, 3> kMultiLeadDb = {27.1495, 19.2793, 12.0031};

// Engine defaults, moderate noise: plain FISTA at 200 iterations.
constexpr std::array<double, 3> kEngineSingleLeadFloorDb = {11.9592, 9.3641, 5.7597};
constexpr std::array<double, 3> kEngineMultiLeadFloorDb = {13.0190, 10.8914, 7.9828};

struct Curve {
  std::array<double, 3> single_lead{};
  std::array<double, 3> multi_lead{};
};

/// Mean SNR of two sinus records x 40 beats at each CR in kCrs.
Curve sweep(sig::NoiseLevel noise, const CsPipelineConfig& cfg) {
  sig::DatasetSpec spec;
  spec.num_records = 2;
  spec.beats_per_record = 40;
  spec.noise = noise;
  const auto records = sig::make_sinus_dataset(spec);

  Curve out;
  for (std::size_t i = 0; i < kCrs.size(); ++i) {
    for (const auto& rec : records) {
      out.single_lead[i] += run_single_lead_cs(rec.leads[0], kCrs[i], cfg).mean_snr_db;
      out.multi_lead[i] += run_multi_lead_cs(rec, kCrs[i], cfg).mean_snr_db;
    }
    out.single_lead[i] /= static_cast<double>(records.size());
    out.multi_lead[i] /= static_cast<double>(records.size());
  }
  return out;
}

/// The reduced Figure-5 sweep, computed once and shared by the tests below.
const Curve& reduced_curve() {
  static const Curve curve = [] {
    CsPipelineConfig cfg;  // bench/fig5_snr_vs_cr's solver settings.
    cfg.fista.lambda_rel = 0.003;
    cfg.fista.max_iterations = 250;
    return sweep(sig::NoiseLevel::kNone, cfg);
  }();
  return curve;
}

TEST(Figure5, ReducedSweepMatchesPinnedSnr) {
  const Curve& curve = reduced_curve();
  for (std::size_t i = 0; i < kCrs.size(); ++i) {
    EXPECT_NEAR(curve.single_lead[i], kSingleLeadDb[i], kToleranceDb) << "CR " << kCrs[i];
    EXPECT_NEAR(curve.multi_lead[i], kMultiLeadDb[i], kToleranceDb) << "CR " << kCrs[i];
  }
}

TEST(Figure5, SnrFallsWithCrAndJointDecodingHoldsAtHighCr) {
  const Curve& curve = reduced_curve();
  for (std::size_t i = 1; i < kCrs.size(); ++i) {
    EXPECT_LT(curve.single_lead[i], curve.single_lead[i - 1]) << "CR " << kCrs[i];
    EXPECT_LT(curve.multi_lead[i], curve.multi_lead[i - 1]) << "CR " << kCrs[i];
  }
  // The paper's Figure-5 claim: joint decoding tolerates more compression.
  for (std::size_t i = 1; i < kCrs.size(); ++i) {
    EXPECT_GE(curve.multi_lead[i], curve.single_lead[i]) << "CR " << kCrs[i];
  }
}

TEST(Figure5, EngineDefaultsKeepParentSnr) {
  const Curve curve = sweep(sig::NoiseLevel::kModerate, CsPipelineConfig{});
  for (std::size_t i = 0; i < kCrs.size(); ++i) {
    EXPECT_GE(curve.single_lead[i], kEngineSingleLeadFloorDb[i] - kToleranceDb) << "CR " << kCrs[i];
    EXPECT_GE(curve.multi_lead[i], kEngineMultiLeadFloorDb[i] - kToleranceDb) << "CR " << kCrs[i];
  }
}

}  // namespace
}  // namespace wbsn::cs
