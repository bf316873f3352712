// Coarse-to-fine factored dictionary search: grid decimation, config
// validation, and candidate-support selection (sparse/coarse_fine.hpp).
#include "sparse/coarse_fine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "dsp/grid.hpp"
#include "dsp/steering.hpp"

namespace roarray::sparse {
namespace {

KroneckerOperator coarse_operator(const dsp::Grid& fine_aoa,
                                  const dsp::Grid& fine_toa,
                                  const dsp::ArrayConfig& array) {
  return KroneckerOperator(
      dsp::steering_matrix_aoa(decimate_grid(fine_aoa, kCoarseAoaDecimation),
                               array),
      dsp::steering_matrix_toa(decimate_grid(fine_toa, kCoarseToaDecimation),
                               array));
}

TEST(CoarseFineConfig, ValidateRejectsNonsense) {
  CoarseFineConfig cfg;
  cfg.refine_tolerance = 1.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.refine_tolerance = 0.0;  // <= 0 inherits the solver's tolerance.
  EXPECT_NO_THROW(cfg.validate());
  EXPECT_NO_THROW(CoarseFineConfig{}.validate());
}

TEST(DecimateGrid, KeepsEveryDecimationThFineSample) {
  const dsp::Grid fine(0.0, 180.0, 91);
  const dsp::Grid coarse = decimate_grid(fine, 4);
  // (91 - 1) / 4 + 1 = 23 points, each landing exactly on a fine sample.
  EXPECT_EQ(coarse.size(), 23);
  EXPECT_EQ(coarse.lo(), fine.lo());
  for (index_t c = 0; c < coarse.size(); ++c) {
    EXPECT_DOUBLE_EQ(coarse[c], fine[c * 4]) << "coarse sample " << c;
  }
  // 90 does not divide by 4: the last coarse point (176 deg) sits short
  // of the fine hi; the tail cells stay reachable via window extension.
  EXPECT_LT(coarse.hi(), fine.hi());
}

TEST(DecimateGrid, IdentityAndEdgeCases) {
  const dsp::Grid fine(0.0, 784e-9, 50);
  const dsp::Grid same = decimate_grid(fine, 1);
  EXPECT_EQ(same.size(), fine.size());
  EXPECT_EQ(same.hi(), fine.hi());
  // Decimation larger than the grid collapses to the single lo point.
  const dsp::Grid one = decimate_grid(fine, 100);
  EXPECT_EQ(one.size(), 1);
  EXPECT_EQ(one.lo(), fine.lo());
  EXPECT_THROW((void)decimate_grid(fine, 0), std::invalid_argument);
}

TEST(SelectFactoredSupport, FindsTheCellsOfAPlantedAtom) {
  const dsp::Grid aoa(0.0, 180.0, 61);
  const dsp::Grid toa(0.0, 784e-9, 29);
  const dsp::ArrayConfig array;
  CoarseFineConfig cfg;
  cfg.enabled = true;
  const KroneckerOperator coarse = coarse_operator(aoa, toa, array);
  const KroneckerOperator fine_op(dsp::steering_matrix_aoa(aoa, array),
                                  dsp::steering_matrix_toa(toa, array));

  // Measurement = one exact fine atom (AoA index 24, ToA index 10).
  const index_t ti = 24, tj = 10;
  CVec e(fine_op.cols());
  e[tj * aoa.size() + ti] = linalg::cxd{1.0, 0.0};
  CMat y(fine_op.rows(), 1);
  y.set_col(0, fine_op.apply(e));

  const FactoredSupport s =
      select_factored_support(coarse, y, aoa.size(), toa.size(), cfg);
  ASSERT_FALSE(s.empty());
  // The refinement windows must cover the true cell in both dimensions.
  EXPECT_TRUE(std::binary_search(s.aoa.begin(), s.aoa.end(), ti));
  EXPECT_TRUE(std::binary_search(s.toa.begin(), s.toa.end(), tj));
  // And prune most of the grid (that is the whole point).
  EXPECT_LT(static_cast<double>(s.aoa.size()), 0.6 * aoa.size());
  EXPECT_LT(static_cast<double>(s.toa.size()), 0.8 * toa.size());
  // Indices come back sorted, unique, in range.
  EXPECT_TRUE(std::is_sorted(s.aoa.begin(), s.aoa.end()));
  EXPECT_TRUE(std::is_sorted(s.toa.begin(), s.toa.end()));
  EXPECT_GE(s.aoa.front(), 0);
  EXPECT_LT(s.aoa.back(), aoa.size());
  EXPECT_GE(s.toa.front(), 0);
  EXPECT_LT(s.toa.back(), toa.size());
}

TEST(SelectFactoredSupport, GridTailPastLastCoarseSampleStaysReachable) {
  // A 91-point AoA grid does not divide by the AoA decimation
  // (91 = 22 * 4 + 3): coarse samples sit at fine indices 0, 4, ..., 88
  // and fine cells 89 and 90 form the tail, which the last coarse
  // sample's window must keep reachable. The grid stops at 120 deg: at
  // half-wavelength spacing 0 and 180 deg share one steering vector, so
  // a 180-deg atom would be picked up at 0 deg instead.
  static_assert(kCoarseAoaDecimation == 4);
  const dsp::Grid aoa(0.0, 120.0, 91);
  const dsp::Grid toa(0.0, 784e-9, 29);
  const dsp::ArrayConfig array;
  const CoarseFineConfig cfg;
  const KroneckerOperator coarse = coarse_operator(aoa, toa, array);
  const KroneckerOperator fine_op(dsp::steering_matrix_aoa(aoa, array),
                                  dsp::steering_matrix_toa(toa, array));

  const index_t ti = 90, tj = 10;  // last fine AoA cell, in the tail
  CVec e(fine_op.cols());
  e[tj * aoa.size() + ti] = linalg::cxd{1.0, 0.0};
  CMat y(fine_op.rows(), 1);
  y.set_col(0, fine_op.apply(e));

  const FactoredSupport s =
      select_factored_support(coarse, y, aoa.size(), toa.size(), cfg);
  ASSERT_FALSE(s.empty());
  EXPECT_TRUE(std::binary_search(s.aoa.begin(), s.aoa.end(), ti));
  EXPECT_TRUE(std::binary_search(s.toa.begin(), s.toa.end(), tj));
}

TEST(SelectFactoredSupport, AllZeroMeasurementYieldsEmptySupport) {
  const dsp::Grid aoa(0.0, 180.0, 31);
  const dsp::Grid toa(0.0, 784e-9, 15);
  const dsp::ArrayConfig array;
  const CoarseFineConfig cfg;
  const KroneckerOperator coarse = coarse_operator(aoa, toa, array);
  const CMat y(coarse.rows(), 2);  // zero-initialized
  const FactoredSupport s =
      select_factored_support(coarse, y, aoa.size(), toa.size(), cfg);
  EXPECT_TRUE(s.empty());
}

TEST(SelectFactoredSupport, RejectsMismatchedOperatorOrShapes) {
  const dsp::Grid aoa(0.0, 180.0, 31);
  const dsp::Grid toa(0.0, 784e-9, 15);
  const dsp::ArrayConfig array;
  const CoarseFineConfig cfg;
  const KroneckerOperator coarse = coarse_operator(aoa, toa, array);
  CMat y(coarse.rows(), 1);
  // Wrong fine grid sizes for this coarse operator.
  EXPECT_THROW(select_factored_support(coarse, y, 91, toa.size(), cfg),
               std::invalid_argument);
  // Wrong measurement row count.
  CMat bad(coarse.rows() + 1, 1);
  EXPECT_THROW(
      select_factored_support(coarse, bad, aoa.size(), toa.size(), cfg),
      std::invalid_argument);
}

TEST(SelectFactoredSupport, UnionsCandidatesAcrossSnapshots) {
  const dsp::Grid aoa(0.0, 180.0, 61);
  const dsp::Grid toa(0.0, 784e-9, 29);
  const dsp::ArrayConfig array;
  const CoarseFineConfig cfg;
  const KroneckerOperator coarse = coarse_operator(aoa, toa, array);
  const KroneckerOperator fine_op(dsp::steering_matrix_aoa(aoa, array),
                                  dsp::steering_matrix_toa(toa, array));

  // Two snapshots, each dominated by a different atom.
  const index_t i1 = 8, j1 = 4, i2 = 48, j2 = 22;
  CMat y(fine_op.rows(), 2);
  CVec e1(fine_op.cols()), e2(fine_op.cols());
  e1[j1 * aoa.size() + i1] = linalg::cxd{1.0, 0.0};
  e2[j2 * aoa.size() + i2] = linalg::cxd{1.0, 0.0};
  y.set_col(0, fine_op.apply(e1));
  y.set_col(1, fine_op.apply(e2));

  const FactoredSupport s =
      select_factored_support(coarse, y, aoa.size(), toa.size(), cfg);
  ASSERT_FALSE(s.empty());
  for (const index_t i : {i1, i2}) {
    EXPECT_TRUE(std::binary_search(s.aoa.begin(), s.aoa.end(), i))
        << "aoa " << i;
  }
  for (const index_t j : {j1, j2}) {
    EXPECT_TRUE(std::binary_search(s.toa.begin(), s.toa.end(), j))
        << "toa " << j;
  }
}

}  // namespace
}  // namespace roarray::sparse
