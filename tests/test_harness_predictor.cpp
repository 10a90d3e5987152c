#include "harness/predictor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "core/error.hpp"
#include "core/parallel.hpp"
#include "core/timer.hpp"
#include "gen/kronecker.hpp"
#include "graph/transforms.hpp"
#include "systems/gap/gap_system.hpp"
#include "test_util.hpp"

namespace epgs::harness {
namespace {

TEST(GraphStats, ComputesMoments) {
  const auto s = GraphStats::of(test::star_graph(5));
  EXPECT_EQ(s.n, 5u);
  EXPECT_EQ(s.m, 8u);
  // Center total degree 8, each leaf 2: 64 + 4*4 = 80.
  EXPECT_DOUBLE_EQ(s.sum_deg_sq, 80.0);
}

TEST(WorkUnits, MonotoneInGraphSize) {
  GraphStats small{.n = 100, .m = 1000, .sum_deg_sq = 5e4};
  GraphStats large{.n = 1000, .m = 10000, .sum_deg_sq = 5e6};
  for (const auto alg :
       {Algorithm::kBfs, Algorithm::kSssp, Algorithm::kPageRank,
        Algorithm::kCdlp, Algorithm::kLcc, Algorithm::kWcc, Algorithm::kTc,
        Algorithm::kBc}) {
    EXPECT_LT(estimated_work_units(alg, small),
              estimated_work_units(alg, large))
        << algorithm_name(alg);
  }
}

TEST(WorkUnits, LccScalesWithDegreeSecondMoment) {
  GraphStats sparse{.n = 1000, .m = 4000, .sum_deg_sq = 1e4};
  GraphStats skewed{.n = 1000, .m = 4000, .sum_deg_sq = 1e8};
  EXPECT_GT(estimated_work_units(Algorithm::kLcc, skewed),
            100.0 * estimated_work_units(Algorithm::kLcc, sparse));
  EXPECT_EQ(estimated_work_units(Algorithm::kBfs, sparse),
            estimated_work_units(Algorithm::kBfs, skewed));
}

TEST(Predictor, CalibrationYieldsSaneModel) {
  const auto pred = Predictor::calibrate("GAP", Algorithm::kBfs, 7, 9);
  EXPECT_EQ(pred.system(), "GAP");
  EXPECT_GE(pred.fixed_overhead_s(), 0.0);
  EXPECT_GT(pred.seconds_per_unit(), 0.0);
}

TEST(Predictor, ExtrapolationWithinAnOrderOfMagnitude) {
  // Calibrate and measure on one thread: the runs last microseconds, and
  // a thread team larger than the CPUs left free by concurrent test
  // processes times the scheduler's wake-ups rather than the kernel.
  const ThreadScope one_thread(1);
  const auto pred = Predictor::calibrate("GAP", Algorithm::kBfs, 7, 9);

  // Target: one scale beyond the calibration range.
  gen::KroneckerParams p;
  p.scale = 11;
  p.edgefactor = 8;
  p.seed = 7;
  const auto el = dedupe(symmetrize(gen::kronecker(p)));
  const auto stats = GraphStats::of(el);

  systems::GapSystem sys;
  sys.set_edges(el);
  sys.build();
  // Measured like the calibration probes: each root's fastest of five
  // runs, so a preempted run does not stand for the kernel's time.
  const auto roots = select_roots(el, 3, 5);
  double actual = 0.0;
  for (const auto r : roots) {
    double best = std::numeric_limits<double>::infinity();
    for (int run = 0; run < 5; ++run) {
      WallTimer t;
      (void)sys.bfs(r);
      best = std::min(best, t.seconds());
    }
    actual += best / 3.0;
  }

  const double predicted = pred.predict_seconds(stats);
  EXPECT_GT(predicted, actual / 10.0);
  EXPECT_LT(predicted, actual * 10.0)
      << "predicted " << predicted << "s vs actual " << actual << "s";
}

TEST(Predictor, PredictionsMonotoneInSize) {
  const auto pred = Predictor::calibrate("GraphMat", Algorithm::kPageRank,
                                         7, 8);
  GraphStats small{.n = 1 << 10, .m = 1 << 13, .sum_deg_sq = 1e5};
  GraphStats large{.n = 1 << 20, .m = 1 << 24, .sum_deg_sq = 1e9};
  EXPECT_LT(pred.predict_seconds(small), pred.predict_seconds(large));
  EXPECT_LT(pred.predict_bytes(small), pred.predict_bytes(large));
}

TEST(Predictor, FeasibilityVerdicts) {
  const auto pred = Predictor::calibrate("GAP", Algorithm::kBfs, 7, 8);
  GraphStats huge{.n = 1u << 30, .m = eid_t{1} << 36, .sum_deg_sq = 1e18};
  GraphStats tiny{.n = 64, .m = 256, .sum_deg_sq = 4096};

  EXPECT_TRUE(pred.feasible(tiny, /*time=*/60.0, /*mem=*/1u << 30));
  EXPECT_FALSE(pred.feasible(huge, /*time=*/1e-3, /*mem=*/~0ull))
      << "2^36 edges cannot finish in a millisecond";
  EXPECT_FALSE(pred.feasible(tiny, 60.0, /*mem=*/16))
      << "16 bytes cannot hold any graph";
}

TEST(Predictor, UnsupportedAlgorithmThrows) {
  EXPECT_THROW(Predictor::calibrate("Graph500", Algorithm::kPageRank, 7, 8),
               UnsupportedAlgorithm);
}

TEST(Predictor, BadScaleOrderThrows) {
  EXPECT_THROW(Predictor::calibrate("GAP", Algorithm::kBfs, 9, 9),
               EpgsError);
}

}  // namespace
}  // namespace epgs::harness
