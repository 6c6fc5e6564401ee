#ifndef ACTIVEDP_LF_LF_APPLIER_H_
#define ACTIVEDP_LF_LF_APPLIER_H_

#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "lf/label_function.h"
#include "math/csr_matrix.h"
#include "util/check.h"
#include "util/deadline.h"
#include "util/status.h"

namespace activedp {

/// One row of the weak-label matrix restricted to its non-abstain entries:
/// ascending column ids with the weak label each LF voted. Valid until the
/// owning LabelMatrix is next mutated.
struct ActiveRowView {
  const int32_t* cols = nullptr;
  const int8_t* labels = nullptr;
  int nnz = 0;
};

/// Integer spin of a stored weak label: label 1 -> +1, any other vote -> -1,
/// abstain -> 0 (the encoding of the pair-moment table below).
inline int SpinOf(int8_t weak_label) {
  return weak_label == kAbstain ? 0 : (weak_label == 1 ? 1 : -1);
}

/// The weak-label matrix W with W[i][j] = λ_j(x_i) ∈ {kAbstain, 0..C-1}
/// (§2.1). Stored column-major (one column per LF) because frameworks add
/// one LF per iteration; entries are int8 to keep full-scale matrices small.
///
/// Since most entries are abstains, the matrix also maintains a per-row
/// active count (O(1) AnyActive, O(n) coverage) and a lazily built CSR view
/// of the non-abstain entries (ActiveRow), which is what the label models
/// iterate instead of scanning all num_cols() entries per row, and an
/// optional pairwise spin-moment table (EnsurePairMoments) that the MeTaL
/// label models read instead of re-scanning the rows.
class LabelMatrix {
 public:
  explicit LabelMatrix(int num_rows)
      : num_rows_(num_rows), active_count_(num_rows, 0) {}

  int num_rows() const { return num_rows_; }
  int num_cols() const { return static_cast<int>(columns_.size()); }

  /// Appends one LF's outputs (length must equal num_rows). Extends a built
  /// pair-moment table at O(nnz(column) * num_cols).
  void AddColumn(std::vector<int8_t> column);

  int At(int row, int col) const { return columns_[col][row]; }

  /// Overwrites one entry (used by the Revising-LF baseline, which corrects
  /// LF outputs on human-labelled instances). Drops the pair-moment table.
  void Set(int row, int col, int value);

  const std::vector<int8_t>& column(int col) const { return columns_[col]; }

  /// Weak labels of one row across all columns.
  std::vector<int> Row(int row) const;

  /// Weak labels of one row restricted to `cols`.
  std::vector<int> Row(int row, const std::vector<int>& cols) const;

  /// True if any LF fires on the row (optionally restricted to `cols`).
  /// The all-columns overload is O(1) via the maintained active counts.
  bool AnyActive(int row) const { return active_count_[row] > 0; }
  bool AnyActive(int row, const std::vector<int>& cols) const;

  /// Number of non-abstain entries in the row. O(1).
  int ActiveCount(int row) const { return active_count_[row]; }

  /// Builds (or refreshes) the row-major CSR view of non-abstain entries.
  /// Must be called on the owning thread before ActiveRow is used — in
  /// particular before handing rows to a parallel region; the build itself
  /// is not thread-safe, reads afterwards are.
  void EnsureRows() const;

  /// Non-abstain entries of one row in ascending column order. Requires a
  /// prior EnsureRows() since the last mutation.
  ActiveRowView ActiveRow(int row) const;

  /// The spin encoding of the matrix as CSR: one row per example holding
  /// ToSpin(label) = +1 / -1 at each active column (abstains dropped).
  /// Binary tasks only (labels 0/1); multiclass callers stay on At().
  CsrMatrix SpinCsr() const;

  /// Builds the pairwise spin-moment table if it is not built yet. For
  /// columns j != k, PairSum(j, k) = sum_i s_ij s_ik and PairCount(j, k) =
  /// #rows where both fire, with s = +1 for label 1 and -1 for any other
  /// vote; on the diagonal both hold the column's activation count (so the
  /// diagonal of PairSum is the diagonal of S^T S). Every entry is an exact
  /// integer, so a table extended one column at a time by AddColumn or
  /// sliced by SelectColumns equals a from-scratch build of the same matrix.
  ///
  /// The build is O(sum_i |active_i|^2), chunked over rows on the compute
  /// pool with `limits` checked per chunk; a trip leaves the table unbuilt.
  /// Whoever owns the matrix decides whether to keep a table: once built it
  /// costs every AddColumn O(nnz(column) * num_cols), which pays off for a
  /// matrix refit after every new column (ActiveDp's training matrix).
  /// Same threading rule as EnsureRows.
  Status EnsurePairMoments(
      const RunLimits& limits = RunLimits::Unlimited()) const;
  bool has_pair_moments() const { return pairs_built_; }

  /// Entries of the pair-moment table (symmetric in j, k). Require a prior
  /// EnsurePairMoments() since the last Set.
  int32_t PairSum(int j, int k) const { return PairAt(j, k).sum; }
  int32_t PairCount(int j, int k) const { return PairAt(j, k).count; }

  /// New matrix containing only the selected columns, in the given order
  /// (repeats allowed). Carries an O(k^2) slice of the pair-moment table
  /// when this matrix has one.
  LabelMatrix SelectColumns(const std::vector<int>& cols) const;

  /// New matrix containing only the selected rows, in the given order.
  /// Never carries the pair-moment table.
  LabelMatrix SelectRows(const std::vector<int>& rows) const;

  /// Fraction of rows with at least one non-abstain entry. O(num_rows).
  double OverallCoverage() const;

 private:
  struct PairMoment {
    int32_t sum = 0;
    int32_t count = 0;
  };

  // Upper triangle packed column by column: (j, k) with j <= k lives at
  // k (k + 1) / 2 + j, so appending a column appends its k + 1 entries.
  static size_t PairIndex(int j, int k) {
    return static_cast<size_t>(k) * (k + 1) / 2 + j;
  }
  const PairMoment& PairAt(int j, int k) const {
    DCHECK(pairs_built_);
    return j <= k ? pairs_[PairIndex(j, k)] : pairs_[PairIndex(k, j)];
  }
  // Appends the table entries of `column` as column num_cols().
  void ExtendPairMoments(const std::vector<int8_t>& column);

  int num_rows_;
  std::vector<std::vector<int8_t>> columns_;
  std::vector<int32_t> active_count_;  // non-abstain entries per row

  // Lazily built CSR view over the non-abstain entries (see EnsureRows).
  mutable bool rows_built_ = false;
  mutable std::vector<int64_t> row_ptr_;
  mutable std::vector<int32_t> row_cols_;
  mutable std::vector<int8_t> row_labels_;

  // Pair-moment table (see EnsurePairMoments).
  mutable bool pairs_built_ = false;
  mutable std::vector<PairMoment> pairs_;
};

/// Applies one LF to every example of `dataset`.
std::vector<int8_t> ApplyLf(const LabelFunction& lf, const Dataset& dataset);

/// Applies a set of LFs, producing the label matrix. When every LF is a
/// KeywordLf, uses an inverted token -> (column, label) index and a single
/// pass over each example's term counts instead of per-LF virtual calls —
/// the output is identical either way.
LabelMatrix ApplyLfs(const std::vector<LfPtr>& lfs, const Dataset& dataset);

/// Coverage and accuracy statistics of one LF column against ground truth.
struct LfColumnStats {
  int activations = 0;
  double coverage = 0.0;
  /// Accuracy over activated rows; 0 when never activated.
  double accuracy = 0.0;
};

LfColumnStats ComputeColumnStats(const std::vector<int8_t>& column,
                                 const std::vector<int>& labels);

}  // namespace activedp

#endif  // ACTIVEDP_LF_LF_APPLIER_H_
