#include "lf/lf_applier.h"

#include <unordered_map>
#include <utility>

#include "util/check.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace activedp {

void LabelMatrix::AddColumn(std::vector<int8_t> column) {
  CHECK_EQ(static_cast<int>(column.size()), num_rows_);
  for (int i = 0; i < num_rows_; ++i) {
    if (column[i] != kAbstain) ++active_count_[i];
  }
  if (pairs_built_) ExtendPairMoments(column);
  columns_.push_back(std::move(column));
  rows_built_ = false;
}

void LabelMatrix::ExtendPairMoments(const std::vector<int8_t>& column) {
  // Gather the new column's active rows once, then pair it with every
  // existing column over just those rows.
  std::vector<int32_t> rows;
  std::vector<int8_t> spins;
  for (int i = 0; i < num_rows_; ++i) {
    if (column[i] == kAbstain) continue;
    rows.push_back(i);
    spins.push_back(static_cast<int8_t>(SpinOf(column[i])));
  }
  const int k = num_cols();
  pairs_.resize(PairIndex(0, k + 1));
  PairMoment* out = pairs_.data() + PairIndex(0, k);
  for (int j = 0; j < k; ++j) {
    const int8_t* col = columns_[j].data();
    int32_t sum = 0, count = 0;
    for (size_t r = 0; r < rows.size(); ++r) {
      const int8_t label = col[rows[r]];
      sum += SpinOf(label) * spins[r];
      count += label != kAbstain;
    }
    out[j] = {sum, count};
  }
  const int32_t active = static_cast<int32_t>(rows.size());
  out[k] = {active, active};
}

void LabelMatrix::Set(int row, int col, int value) {
  const int8_t old = columns_[col][row];
  if (old != kAbstain) --active_count_[row];
  if (value != kAbstain) ++active_count_[row];
  columns_[col][row] = static_cast<int8_t>(value);
  rows_built_ = false;
  pairs_built_ = false;
  pairs_.clear();
}

std::vector<int> LabelMatrix::Row(int row) const {
  std::vector<int> out(columns_.size());
  for (size_t j = 0; j < columns_.size(); ++j) out[j] = columns_[j][row];
  return out;
}

std::vector<int> LabelMatrix::Row(int row, const std::vector<int>& cols) const {
  std::vector<int> out(cols.size());
  for (size_t j = 0; j < cols.size(); ++j) out[j] = columns_[cols[j]][row];
  return out;
}

bool LabelMatrix::AnyActive(int row, const std::vector<int>& cols) const {
  for (int j : cols) {
    if (columns_[j][row] != kAbstain) return true;
  }
  return false;
}

void LabelMatrix::EnsureRows() const {
  if (rows_built_) return;
  row_ptr_.assign(num_rows_ + 1, 0);
  int64_t total = 0;
  for (int i = 0; i < num_rows_; ++i) {
    row_ptr_[i] = total;
    total += active_count_[i];
  }
  row_ptr_[num_rows_] = total;
  row_cols_.resize(total);
  row_labels_.resize(total);
  // Column-major sweep with a per-row write cursor: each row's entries land
  // in ascending column order because columns are visited in order.
  std::vector<int64_t> cursor(row_ptr_.begin(), row_ptr_.end() - 1);
  for (size_t j = 0; j < columns_.size(); ++j) {
    const std::vector<int8_t>& col = columns_[j];
    for (int i = 0; i < num_rows_; ++i) {
      if (col[i] == kAbstain) continue;
      row_cols_[cursor[i]] = static_cast<int32_t>(j);
      row_labels_[cursor[i]] = col[i];
      ++cursor[i];
    }
  }
  rows_built_ = true;
}

ActiveRowView LabelMatrix::ActiveRow(int row) const {
  DCHECK(rows_built_);
  DCHECK(row >= 0 && row < num_rows_);
  ActiveRowView view;
  view.cols = row_cols_.data() + row_ptr_[row];
  view.labels = row_labels_.data() + row_ptr_[row];
  view.nnz = static_cast<int>(row_ptr_[row + 1] - row_ptr_[row]);
  return view;
}

CsrMatrix LabelMatrix::SpinCsr() const {
  EnsureRows();
  CsrMatrix out(num_rows_, num_cols());
  out.ReserveNnz(row_ptr_[num_rows_]);
  std::vector<double> spins;
  for (int i = 0; i < num_rows_; ++i) {
    const ActiveRowView row = ActiveRow(i);
    spins.resize(row.nnz);
    for (int k = 0; k < row.nnz; ++k) {
      spins[k] = row.labels[k] == 1 ? 1.0 : -1.0;
    }
    out.AppendRow(row.cols, spins.data(), row.nnz);
  }
  return out;
}

Status LabelMatrix::EnsurePairMoments(const RunLimits& limits) const {
  if (pairs_built_) return Status::Ok();
  const int m = num_cols();
  const size_t size = PairIndex(0, m);
  EnsureRows();  // build the CSR view before the parallel region
  // Chunk-private tables summed afterwards; the entries are integers, so
  // the table is identical at any thread count. Chunk count is capped so
  // the partial tables stay O(32 m^2) total.
  const int grain = BoundedGrain(num_rows_, 1024, 32);
  std::vector<std::vector<PairMoment>> parts(NumChunks(num_rows_, grain));
  RETURN_IF_ERROR(ParallelForChunks(
      ComputePool(), num_rows_, grain, limits, "label_matrix.pair_moments",
      [&](int chunk, int begin, int end) {
        std::vector<PairMoment>& part = parts[chunk];
        part.assign(size, PairMoment{});
        for (int i = begin; i < end; ++i) {
          const ActiveRowView row = ActiveRow(i);
          for (int b = 0; b < row.nnz; ++b) {
            // Ascending columns: the row's earlier entries pair as (a, b)
            // with a < b, and the entry itself lands on the diagonal.
            PairMoment* column = part.data() + PairIndex(0, row.cols[b]);
            const int sb = SpinOf(row.labels[b]);
            for (int a = 0; a < b; ++a) {
              PairMoment& entry = column[row.cols[a]];
              entry.sum += SpinOf(row.labels[a]) * sb;
              entry.count += 1;
            }
            column[row.cols[b]].sum += 1;
            column[row.cols[b]].count += 1;
          }
        }
      }));
  pairs_.assign(size, PairMoment{});
  for (const std::vector<PairMoment>& part : parts) {
    for (size_t e = 0; e < size; ++e) {
      pairs_[e].sum += part[e].sum;
      pairs_[e].count += part[e].count;
    }
  }
  pairs_built_ = true;
  return Status::Ok();
}

LabelMatrix LabelMatrix::SelectColumns(const std::vector<int>& cols) const {
  LabelMatrix out(num_rows_);
  for (int j : cols) {
    CHECK_GE(j, 0);
    CHECK_LT(j, num_cols());
    out.AddColumn(columns_[j]);
  }
  if (pairs_built_) {
    const int k = static_cast<int>(cols.size());
    out.pairs_.resize(PairIndex(0, k));
    for (int b = 0; b < k; ++b) {
      for (int a = 0; a <= b; ++a) {
        out.pairs_[PairIndex(a, b)] = PairAt(cols[a], cols[b]);
      }
    }
    out.pairs_built_ = true;
  }
  return out;
}

LabelMatrix LabelMatrix::SelectRows(const std::vector<int>& rows) const {
  LabelMatrix out(static_cast<int>(rows.size()));
  for (const auto& col : columns_) {
    std::vector<int8_t> selected(rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      CHECK_GE(rows[i], 0);
      CHECK_LT(rows[i], num_rows_);
      selected[i] = col[rows[i]];
    }
    out.AddColumn(std::move(selected));
  }
  return out;
}

double LabelMatrix::OverallCoverage() const {
  if (num_rows_ == 0) return 0.0;
  int active = 0;
  for (int i = 0; i < num_rows_; ++i) {
    if (active_count_[i] > 0) ++active;
  }
  return static_cast<double>(active) / num_rows_;
}

std::vector<int8_t> ApplyLf(const LabelFunction& lf, const Dataset& dataset) {
  const int n = dataset.size();
  std::vector<int8_t> out(n);
  // Row-partitioned: every entry is written by exactly one chunk, so the
  // matrix is bitwise identical at any thread count.
  const Status status = ParallelForChunks(
      ComputePool(), n, BoundedGrain(n, 256, 1024), RunLimits::Unlimited(),
      "lf.apply", [&](int /*chunk*/, int begin, int end) {
        for (int i = begin; i < end; ++i) {
          out[i] = static_cast<int8_t>(lf.Apply(dataset.example(i)));
        }
      });
  CHECK(status.ok());  // unlimited budget: Check can never trip
  return out;
}

namespace {

/// Inverted-index application for all-keyword LF sets: instead of
/// num_lfs virtual Apply calls (each a binary search) per example, one pass
/// over the example's term counts looks up which columns fire. Produces the
/// exact same matrix as the per-LF path.
LabelMatrix ApplyKeywordLfs(const std::vector<LfPtr>& lfs,
                            const Dataset& dataset) {
  const int n = dataset.size();
  const int m = static_cast<int>(lfs.size());
  std::unordered_map<int, std::vector<std::pair<int, int8_t>>> by_token;
  by_token.reserve(m);
  for (int j = 0; j < m; ++j) {
    const auto* kw = static_cast<const KeywordLf*>(lfs[j].get());
    by_token[kw->token_id()].emplace_back(j, static_cast<int8_t>(kw->label()));
  }
  std::vector<std::vector<int8_t>> cols(
      m, std::vector<int8_t>(n, static_cast<int8_t>(kAbstain)));
  const Status status = ParallelForChunks(
      ComputePool(), n, BoundedGrain(n, 256, 1024), RunLimits::Unlimited(),
      "lf.apply", [&](int /*chunk*/, int begin, int end) {
        for (int i = begin; i < end; ++i) {
          for (const auto& [token, count] : dataset.example(i).term_counts) {
            (void)count;  // presence decides, matching Example::HasToken
            const auto it = by_token.find(token);
            if (it == by_token.end()) continue;
            for (const auto& [col, label] : it->second) cols[col][i] = label;
          }
        }
      });
  CHECK(status.ok());
  LabelMatrix matrix(n);
  for (int j = 0; j < m; ++j) matrix.AddColumn(std::move(cols[j]));
  return matrix;
}

}  // namespace

LabelMatrix ApplyLfs(const std::vector<LfPtr>& lfs, const Dataset& dataset) {
  TraceSpan span("lf.apply_all");
  span.AddArg("lfs", static_cast<int64_t>(lfs.size()));
  span.AddArg("rows", dataset.size());
  bool all_keyword = !lfs.empty();
  for (const auto& lf : lfs) {
    if (dynamic_cast<const KeywordLf*>(lf.get()) == nullptr) {
      all_keyword = false;
      break;
    }
  }
  if (all_keyword) return ApplyKeywordLfs(lfs, dataset);
  LabelMatrix matrix(dataset.size());
  for (const auto& lf : lfs) matrix.AddColumn(ApplyLf(*lf, dataset));
  return matrix;
}

LfColumnStats ComputeColumnStats(const std::vector<int8_t>& column,
                                 const std::vector<int>& labels) {
  CHECK_EQ(column.size(), labels.size());
  LfColumnStats stats;
  int correct = 0;
  for (size_t i = 0; i < column.size(); ++i) {
    if (column[i] == kAbstain) continue;
    ++stats.activations;
    if (column[i] == labels[i]) ++correct;
  }
  if (!column.empty()) {
    stats.coverage = static_cast<double>(stats.activations) / column.size();
  }
  if (stats.activations > 0) {
    stats.accuracy = static_cast<double>(correct) / stats.activations;
  }
  return stats;
}

}  // namespace activedp
