#include "labelmodel/metal_completion.h"

#include <algorithm>
#include <cmath>

#include "labelmodel/spin_utils.h"
#include "math/kernels.h"
#include "math/linalg.h"
#include "math/matrix.h"
#include "util/check.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace activedp {

Status MetalCompletionModel::Fit(const LabelMatrix& matrix, int num_classes) {
  if (num_classes != 2) {
    return Status::InvalidArgument(
        "MetalCompletionModel supports binary tasks only");
  }
  if (matrix.num_cols() == 0)
    return Status::InvalidArgument("label matrix has no LF columns");

  const int n = matrix.num_rows();
  const int m = matrix.num_cols();
  num_lfs_ = m;

  TraceSpan span("metal_completion.fit");
  span.AddArg("rows", n);
  span.AddArg("lfs", m);

  MetalModelOptions fallback_options;
  fallback_options.limits = options_.limits;
  if (m < options_.min_lfs_for_completion) {
    fallback_.emplace(fallback_options);
    return fallback_->Fit(matrix, num_classes);
  }
  fallback_.reset();

  // Class balance via majority vote and per-column spin means from column
  // scans of the int8 matrix (O(n m), no row view needed); coverages are the
  // diagonal of the pair-moment table. Every sum is an exact integer, so the
  // result is bitwise identical at any thread count.
  std::vector<int8_t> mv_spin;
  RETURN_IF_ERROR(MajorityVoteSpins(matrix, options_.limits,
                                    "metal.completion", &mv_spin));
  positive_prior_ = LaplacePositivePrior(mv_spin);
  RETURN_IF_ERROR(matrix.EnsurePairMoments(options_.limits));
  std::vector<double> mean(m), coverage(m);
  RETURN_IF_ERROR(ParallelForChunks(
      ComputePool(), m, BoundedGrain(m, 8, 64), options_.limits,
      "metal.completion", [&](int /*chunk*/, int begin, int end) {
        for (int j = begin; j < end; ++j) {
          const int8_t* column = matrix.column(j).data();
          int32_t sum = 0;
          for (int i = 0; i < n; ++i) sum += SpinOf(column[i]);
          mean[j] = static_cast<double>(sum) / n;
          coverage[j] = static_cast<double>(matrix.PairCount(j, j)) / n;
        }
      }));
  const double ey = 2.0 * positive_prior_ - 1.0;
  const double var_y = std::max(1e-3, 1.0 - ey * ey);

  // Spin covariance with a ridge (abstains contribute 0 spins), from the
  // matrix's pair-moment table P = S^T S (LabelMatrix::EnsurePairMoments;
  // its diagonal is each column's activation count):
  //   Σ(j, k) = P(j, k) / n − mean_j · mean_k,
  // the textbook expansion of Σ_i (s_ij − m_j)(s_ik − m_k) / n. Reading
  // the table is O(m^2) when the matrix's owner keeps it current (ActiveDp
  // does); otherwise EnsurePairMoments above built it at
  // O(sum_i |active_i|^2). Its entries are exact integers, so Σ is bitwise
  // identical however the table was built and at any thread count.
  Matrix sigma(m, m);
  for (int j = 0; j < m; ++j) {
    for (int k = j; k < m; ++k) {
      sigma(j, k) =
          static_cast<double>(matrix.PairSum(j, k)) / n - mean[j] * mean[k];
      sigma(k, j) = sigma(j, k);
    }
    sigma(j, j) += options_.ridge;
  }

  ASSIGN_OR_RETURN(Matrix k_matrix, InverseSpd(sigma));

  // Rank-one completion: minimize L(z) = sum_{i != j} (K_ij + z_i z_j)^2 by
  // gradient descent. Initialize from sqrt of |K| row means with the
  // better-than-random sign convention.
  std::vector<double> z(m, 0.0);
  for (int i = 0; i < m; ++i) {
    double acc = 0.0;
    for (int j = 0; j < m; ++j) {
      if (j != i) acc += std::fabs(k_matrix(i, j));
    }
    z[i] = std::sqrt(acc / std::max(1, m - 1)) + 1e-3;
  }
  // Scale the step size by the magnitude of K so a badly conditioned
  // covariance (e.g. duplicated LFs pushing Σ toward singularity) cannot
  // blow the iteration up, and keep z in a sane box.
  double max_abs_k = 1.0;
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < m; ++j) {
      if (j != i) max_abs_k = std::max(max_abs_k, std::fabs(k_matrix(i, j)));
    }
  }
  const double step = options_.gd_learning_rate / max_abs_k;
  std::vector<double> grad(m);
  // grad_i = 4 * sum_{j != i} (K_ij + z_i z_j) z_j, split into vectorized
  // dots plus diagonal corrections:
  //   sum_j K_ij z_j − K_ii z_i + z_i (z·z − z_i^2).
  // Both dots use the canonical 4-lane kernel, so each grad[i] is a fixed
  // association independent of the thread count and SIMD level. Small
  // systems stay serial: the launch would cost more than the sweep.
  ThreadPool* const gd_pool = m >= 64 ? ComputePool() : nullptr;
  const int gd_grain = BoundedGrain(m, 16, 64);
  for (int iter = 0; iter < options_.gd_iterations; ++iter) {
    if ((iter & 31) == 0)
      RETURN_IF_ERROR(options_.limits.Check("metal.completion"));
    const double zz = kernels::DotDense(z.data(), z.data(), m);
    const Status gd_status = ParallelForChunks(
        gd_pool, m, gd_grain, RunLimits::Unlimited(), "metal.completion",
        [&](int /*chunk*/, int begin, int end) {
          for (int i = begin; i < end; ++i) {
            const double g =
                kernels::DotDense(k_matrix.RowPtr(i), z.data(), m) -
                k_matrix(i, i) * z[i] + z[i] * (zz - z[i] * z[i]);
            grad[i] = 4.0 * g;
          }
        });
    CHECK(gd_status.ok());  // unlimited budget: Check can never trip
    for (int i = 0; i < m; ++i) {
      z[i] = std::clamp(z[i] - step * grad[i], -100.0, 100.0);
    }
  }
  MetricsRegistry::Global()
      .counter("metal_completion.gd_iterations")
      .Increment(options_.gd_iterations);

  // Cov(λ, Y) = Σ_O z / sqrt(d) with d = (1 + z' Σ_O z) / Var(Y).
  std::vector<double> sigma_z = sigma.MultiplyVector(z);
  const double ztsz = kernels::DotDense(z.data(), sigma_z.data(), m);
  const double d = std::max(1e-6, (1.0 + ztsz) / var_y);
  std::vector<double> cov_ly(m);
  for (int i = 0; i < m; ++i) cov_ly[i] = sigma_z[i] / std::sqrt(d);

  // Global sign: LFs are better than random on average.
  double sign_probe = 0.0;
  for (int i = 0; i < m; ++i) sign_probe += cov_ly[i];
  const double sign = sign_probe >= 0.0 ? 1.0 : -1.0;

  // a_i = E[λ_i Y | active] = (Cov(λ_i, Y) + E[λ_i] E[Y]) / coverage_i.
  accuracies_.assign(m, 0.0);
  bool finite = true;
  for (int i = 0; i < m; ++i) {
    if (coverage[i] <= 0.0) continue;
    const double e_ly = sign * cov_ly[i] + mean[i] * ey;
    accuracies_[i] = std::clamp(e_ly / coverage[i], -options_.accuracy_clamp,
                                options_.accuracy_clamp);
    if (!std::isfinite(accuracies_[i])) finite = false;
  }
  if (!finite) {
    // The completion solve diverged; fall back to the robust estimator.
    fallback_.emplace(fallback_options);
    return fallback_->Fit(matrix, num_classes);
  }
  return Status::Ok();
}

Result<std::string> MetalCompletionModel::SerializeParams() const {
  if (num_lfs_ <= 0)
    return Status::FailedPrecondition("Fit before SerializeParams");
  // Use the effective accessors so a fallback-handled fit serializes the
  // parameters that actually drive PredictProba; both paths share
  // SpinNaiveBayesProba, so restoring into completion state is bitwise
  // prediction-equivalent.
  std::vector<double> accuracies(num_lfs_);
  for (int j = 0; j < num_lfs_; ++j) accuracies[j] = accuracy_param(j);
  return EncodeSpinAccuracyParams(num_lfs_, positive_prior(), accuracies);
}

Status MetalCompletionModel::RestoreParams(const std::string& params) {
  RETURN_IF_ERROR(DecodeSpinAccuracyParams(
      name(), params, &num_lfs_, &positive_prior_, &accuracies_));
  fallback_.reset();
  return Status::Ok();
}

Result<std::vector<double>> MetalCompletionModel::PredictProba(
    const std::vector<int>& weak_labels) const {
  if (num_lfs_ <= 0)
    return Status::FailedPrecondition("Fit before PredictProba");
  if (fallback_.has_value()) return fallback_->PredictProba(weak_labels);
  if (static_cast<int>(weak_labels.size()) != num_lfs_) {
    return Status::InvalidArgument(
        "weak-label row has " + std::to_string(weak_labels.size()) +
        " entries, model was fit on " + std::to_string(num_lfs_) + " LFs");
  }
  return SpinNaiveBayesProba(accuracies_, positive_prior_, weak_labels);
}

Result<std::vector<double>> MetalCompletionModel::PredictProbaSparse(
    const ActiveRowView& row, int num_cols) const {
  if (num_lfs_ <= 0)
    return Status::FailedPrecondition("Fit before PredictProba");
  if (fallback_.has_value()) {
    return fallback_->PredictProbaSparse(row, num_cols);
  }
  if (num_cols != num_lfs_) {
    return Status::InvalidArgument(
        "weak-label row has " + std::to_string(num_cols) +
        " entries, model was fit on " + std::to_string(num_lfs_) + " LFs");
  }
  return SpinNaiveBayesProbaSparse(accuracies_, positive_prior_, row);
}

}  // namespace activedp
