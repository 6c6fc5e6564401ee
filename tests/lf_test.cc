#include <gtest/gtest.h>

#include "lf/label_function.h"
#include "lf/lf_applier.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace activedp {
namespace {

Example TextExample(std::vector<std::pair<int, int>> term_counts, int label) {
  Example e;
  e.term_counts = std::move(term_counts);
  e.label = label;
  return e;
}

Example TabularExample(std::vector<double> features, int label) {
  Example e;
  e.features = std::move(features);
  e.label = label;
  return e;
}

TEST(KeywordLfTest, FiresOnKeywordPresence) {
  const KeywordLf lf(/*token_id=*/3, "check", /*label=*/1);
  EXPECT_EQ(lf.Apply(TextExample({{1, 1}, {3, 2}}, 0)), 1);
  EXPECT_EQ(lf.Apply(TextExample({{1, 1}, {4, 1}}, 0)), kAbstain);
  EXPECT_EQ(lf.label(), 1);
  EXPECT_EQ(lf.Name(), "check -> class1");
  EXPECT_EQ(lf.Key(), "kw:3:1");
}

TEST(ThresholdLfTest, FiresByOperator) {
  const ThresholdLf le(/*feature=*/0, 2.0, StumpOp::kLessEqual, 0);
  EXPECT_EQ(le.Apply(TabularExample({1.5}, 0)), 0);
  EXPECT_EQ(le.Apply(TabularExample({2.0}, 0)), 0);  // boundary included
  EXPECT_EQ(le.Apply(TabularExample({2.5}, 0)), kAbstain);
  const ThresholdLf ge(0, 2.0, StumpOp::kGreaterEqual, 1);
  EXPECT_EQ(ge.Apply(TabularExample({2.0}, 0)), 1);
  EXPECT_EQ(ge.Apply(TabularExample({1.0}, 0)), kAbstain);
}

TEST(ThresholdLfTest, KeysDistinguishOperatorAndClass) {
  const ThresholdLf a(0, 1.0, StumpOp::kLessEqual, 0);
  const ThresholdLf b(0, 1.0, StumpOp::kGreaterEqual, 0);
  const ThresholdLf c(0, 1.0, StumpOp::kLessEqual, 1);
  EXPECT_NE(a.Key(), b.Key());
  EXPECT_NE(a.Key(), c.Key());
}

Dataset TinyDataset() {
  DatasetMeta meta;
  meta.num_classes = 2;
  std::vector<Example> examples = {
      TextExample({{0, 1}}, 1),          // contains token 0
      TextExample({{1, 1}}, 0),          // contains token 1
      TextExample({{0, 1}, {1, 1}}, 1),  // both
      TextExample({{2, 1}}, 0),          // neither
  };
  return Dataset(meta, std::move(examples));
}

TEST(LfApplierTest, ApplyLfProducesColumn) {
  const Dataset dataset = TinyDataset();
  const KeywordLf lf(0, "w0", 1);
  const std::vector<int8_t> column = ApplyLf(lf, dataset);
  EXPECT_EQ(column, (std::vector<int8_t>{1, -1, 1, -1}));
}

TEST(LfApplierTest, ApplyLfsBuildsMatrix) {
  const Dataset dataset = TinyDataset();
  std::vector<LfPtr> lfs = {std::make_shared<KeywordLf>(0, "w0", 1),
                            std::make_shared<KeywordLf>(1, "w1", 0)};
  const LabelMatrix matrix = ApplyLfs(lfs, dataset);
  EXPECT_EQ(matrix.num_rows(), 4);
  EXPECT_EQ(matrix.num_cols(), 2);
  EXPECT_EQ(matrix.At(2, 0), 1);
  EXPECT_EQ(matrix.At(2, 1), 0);
  EXPECT_EQ(matrix.At(3, 0), kAbstain);
}

TEST(LabelMatrixTest, RowAndActivity) {
  LabelMatrix matrix(3);
  matrix.AddColumn({1, -1, 0});
  matrix.AddColumn({-1, -1, 1});
  EXPECT_EQ(matrix.Row(0), (std::vector<int>{1, -1}));
  EXPECT_EQ(matrix.Row(2), (std::vector<int>{0, 1}));
  EXPECT_TRUE(matrix.AnyActive(0));
  EXPECT_FALSE(matrix.AnyActive(1));
  EXPECT_TRUE(matrix.AnyActive(2));
  EXPECT_FALSE(matrix.AnyActive(1, {0, 1}));
  EXPECT_TRUE(matrix.AnyActive(0, {0}));
  EXPECT_FALSE(matrix.AnyActive(0, {1}));
}

TEST(LabelMatrixTest, RowRestrictedToColumns) {
  LabelMatrix matrix(1);
  matrix.AddColumn({0});
  matrix.AddColumn({1});
  matrix.AddColumn({-1});
  EXPECT_EQ(matrix.Row(0, {2, 0}), (std::vector<int>{-1, 0}));
}

TEST(LabelMatrixTest, SelectColumnsAndRows) {
  LabelMatrix matrix(3);
  matrix.AddColumn({1, 0, -1});
  matrix.AddColumn({-1, 1, 0});
  const LabelMatrix cols = matrix.SelectColumns({1});
  EXPECT_EQ(cols.num_cols(), 1);
  EXPECT_EQ(cols.At(1, 0), 1);
  const LabelMatrix rows = matrix.SelectRows({2, 0});
  EXPECT_EQ(rows.num_rows(), 2);
  EXPECT_EQ(rows.At(0, 0), -1);
  EXPECT_EQ(rows.At(1, 0), 1);
}

TEST(LabelMatrixTest, SetOverwritesEntry) {
  LabelMatrix matrix(2);
  matrix.AddColumn({1, -1});
  matrix.Set(1, 0, 0);
  EXPECT_EQ(matrix.At(1, 0), 0);
}

TEST(LabelMatrixTest, OverallCoverage) {
  LabelMatrix matrix(4);
  matrix.AddColumn({1, -1, -1, -1});
  matrix.AddColumn({-1, 0, -1, -1});
  EXPECT_DOUBLE_EQ(matrix.OverallCoverage(), 0.5);
}

// Weak labels in {kAbstain, 0, 1}; each entry fires with `coverage`.
LabelMatrix RandomLabelMatrix(int n, int m, double coverage, uint64_t seed) {
  Rng rng(seed);
  LabelMatrix matrix(n);
  for (int j = 0; j < m; ++j) {
    std::vector<int8_t> column(n, kAbstain);
    for (int i = 0; i < n; ++i) {
      if (rng.Bernoulli(coverage)) column[i] = rng.Bernoulli(0.5) ? 1 : 0;
    }
    matrix.AddColumn(std::move(column));
  }
  return matrix;
}

// The same columns in a fresh matrix, with its table built from scratch.
LabelMatrix Rebuilt(const LabelMatrix& matrix) {
  LabelMatrix out(matrix.num_rows());
  for (int j = 0; j < matrix.num_cols(); ++j) out.AddColumn(matrix.column(j));
  EXPECT_TRUE(out.EnsurePairMoments().ok());
  return out;
}

void ExpectSamePairMoments(const LabelMatrix& actual,
                           const LabelMatrix& expected) {
  ASSERT_TRUE(actual.has_pair_moments());
  ASSERT_TRUE(expected.has_pair_moments());
  ASSERT_EQ(actual.num_cols(), expected.num_cols());
  for (int j = 0; j < actual.num_cols(); ++j) {
    for (int k = 0; k < actual.num_cols(); ++k) {
      EXPECT_EQ(actual.PairSum(j, k), expected.PairSum(j, k)) << j << "," << k;
      EXPECT_EQ(actual.PairCount(j, k), expected.PairCount(j, k))
          << j << "," << k;
    }
  }
}

TEST(PairMomentsTest, MatchesEntrywiseDefinition) {
  const LabelMatrix matrix = RandomLabelMatrix(300, 7, 0.6, 3);
  ASSERT_TRUE(matrix.EnsurePairMoments().ok());
  for (int j = 0; j < matrix.num_cols(); ++j) {
    for (int k = 0; k < matrix.num_cols(); ++k) {
      int sum = 0, count = 0;
      for (int i = 0; i < matrix.num_rows(); ++i) {
        const int a = matrix.At(i, j), b = matrix.At(i, k);
        if (a == kAbstain || b == kAbstain) continue;
        sum += (a == 1 ? 1 : -1) * (b == 1 ? 1 : -1);
        ++count;
      }
      // The diagonal is the activation count (spin^2 = 1).
      EXPECT_EQ(matrix.PairSum(j, k), sum) << j << "," << k;
      EXPECT_EQ(matrix.PairCount(j, k), count) << j << "," << k;
    }
  }
}

TEST(PairMomentsTest, BuildIsIdenticalAcrossThreadCounts) {
  // 5000 rows span several row chunks, so the pooled build really sums
  // chunk-private tables.
  const LabelMatrix source = RandomLabelMatrix(5000, 9, 0.4, 5);
  SetComputePoolThreads(4);
  const LabelMatrix pooled = Rebuilt(source);
  SetComputePoolThreads(1);
  ExpectSamePairMoments(pooled, Rebuilt(source));
}

TEST(PairMomentsTest, AddColumnExtendsBuiltTable) {
  LabelMatrix matrix = RandomLabelMatrix(400, 3, 0.7, 7);
  ASSERT_TRUE(matrix.EnsurePairMoments().ok());
  const LabelMatrix extra = RandomLabelMatrix(400, 4, 0.3, 8);
  for (int j = 0; j < extra.num_cols(); ++j) {
    matrix.AddColumn(extra.column(j));
    ExpectSamePairMoments(matrix, Rebuilt(matrix));
  }
  // A column that never fires extends the table with zeros.
  matrix.AddColumn(std::vector<int8_t>(400, kAbstain));
  EXPECT_EQ(matrix.PairCount(0, matrix.num_cols() - 1), 0);
  ExpectSamePairMoments(matrix, Rebuilt(matrix));
}

TEST(PairMomentsTest, AddColumnWithoutTableBuildsNothing) {
  LabelMatrix matrix = RandomLabelMatrix(50, 2, 0.5, 9);
  matrix.AddColumn(std::vector<int8_t>(50, 1));
  EXPECT_FALSE(matrix.has_pair_moments());
}

TEST(PairMomentsTest, SelectColumnsSlicesTable) {
  const LabelMatrix matrix = RandomLabelMatrix(400, 6, 0.6, 11);
  ASSERT_TRUE(matrix.EnsurePairMoments().ok());
  // Non-ascending, repeated and subset column lists.
  for (const std::vector<int>& cols : std::vector<std::vector<int>>{
           {5, 2, 0}, {3, 1, 3, 4, 1}, {4}, {0, 1, 2, 3, 4, 5}}) {
    const LabelMatrix sliced = matrix.SelectColumns(cols);
    ExpectSamePairMoments(sliced, Rebuilt(sliced));
  }
  // A repeated column pairs with itself on every row it fires.
  const LabelMatrix twice = matrix.SelectColumns({2, 2});
  EXPECT_EQ(twice.PairSum(0, 1), twice.PairCount(0, 1));
  EXPECT_EQ(twice.PairCount(0, 1), matrix.PairCount(2, 2));
}

TEST(PairMomentsTest, SelectColumnsWithoutTableCarriesNone) {
  const LabelMatrix matrix = RandomLabelMatrix(40, 3, 0.5, 13);
  EXPECT_FALSE(matrix.SelectColumns({2, 0}).has_pair_moments());
}

TEST(PairMomentsTest, SetDropsTable) {
  LabelMatrix matrix = RandomLabelMatrix(200, 4, 0.6, 17);
  ASSERT_TRUE(matrix.EnsurePairMoments().ok());
  matrix.Set(0, 1, matrix.At(0, 1) == 1 ? 0 : 1);
  EXPECT_FALSE(matrix.has_pair_moments());
  // Later columns do not resurrect a stale table; the next build sees the
  // overwritten entry.
  matrix.AddColumn(std::vector<int8_t>(200, 0));
  EXPECT_FALSE(matrix.has_pair_moments());
  ASSERT_TRUE(matrix.EnsurePairMoments().ok());
  ExpectSamePairMoments(matrix, Rebuilt(matrix));
}

TEST(PairMomentsTest, SelectRowsDoesNotCarryTable) {
  const LabelMatrix matrix = RandomLabelMatrix(200, 4, 0.6, 19);
  ASSERT_TRUE(matrix.EnsurePairMoments().ok());
  LabelMatrix rows = matrix.SelectRows({5, 1, 150, 1});
  EXPECT_FALSE(rows.has_pair_moments());
  ASSERT_TRUE(rows.EnsurePairMoments().ok());
  ExpectSamePairMoments(rows, Rebuilt(rows));
}

TEST(PairMomentsTest, BuildHonorsLimits) {
  const LabelMatrix matrix = RandomLabelMatrix(100, 3, 0.5, 23);
  RunLimits limits;
  limits.deadline = Deadline::After(-1.0);
  const Status status = matrix.EnsurePairMoments(limits);
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(matrix.has_pair_moments());
  EXPECT_TRUE(matrix.EnsurePairMoments().ok());
}

TEST(ColumnStatsTest, CoverageAndAccuracy) {
  const std::vector<int8_t> column = {1, 1, -1, 0};
  const std::vector<int> labels = {1, 0, 1, 0};
  const LfColumnStats stats = ComputeColumnStats(column, labels);
  EXPECT_EQ(stats.activations, 3);
  EXPECT_DOUBLE_EQ(stats.coverage, 0.75);
  EXPECT_NEAR(stats.accuracy, 2.0 / 3.0, 1e-12);
}

TEST(ColumnStatsTest, NeverFiring) {
  const LfColumnStats stats = ComputeColumnStats({-1, -1}, {0, 1});
  EXPECT_EQ(stats.activations, 0);
  EXPECT_DOUBLE_EQ(stats.coverage, 0.0);
  EXPECT_DOUBLE_EQ(stats.accuracy, 0.0);
}

}  // namespace
}  // namespace activedp
