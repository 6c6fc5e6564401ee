#include "labelmodel/spin_utils.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/thread_pool.h"

namespace activedp {

Status MajorityVoteSpins(const LabelMatrix& matrix, const RunLimits& limits,
                         std::string_view stage, std::vector<int8_t>* spins) {
  const int n = matrix.num_rows();
  spins->assign(n, 0);
  return ParallelForChunks(
      ComputePool(), n, BoundedGrain(n, 1024, 32), limits, stage,
      [&](int /*chunk*/, int begin, int end) {
        std::vector<int32_t> vote(end - begin, 0);
        for (int j = 0; j < matrix.num_cols(); ++j) {
          const int8_t* column = matrix.column(j).data() + begin;
          for (int i = 0; i < end - begin; ++i) {
            vote[i] += SpinOf(column[i]);
          }
        }
        for (int i = 0; i < end - begin; ++i) {
          (*spins)[begin + i] = vote[i] > 0 ? 1 : (vote[i] < 0 ? -1 : 0);
        }
      });
}

double LaplacePositivePrior(const std::vector<int8_t>& mv_spins) {
  int voted = 0, positive = 0;
  for (const int8_t s : mv_spins) {
    voted += s != 0;
    positive += s > 0;
  }
  return (1.0 + positive) / (2.0 + voted);
}

std::vector<double> SpinNaiveBayesProba(const std::vector<double>& accuracies,
                                        double positive_prior,
                                        const std::vector<int>& weak_labels) {
  CHECK_EQ(accuracies.size(), weak_labels.size());
  const double prior = std::clamp(positive_prior, 1e-6, 1.0 - 1e-6);
  double log_odds = std::log(prior / (1.0 - prior));
  for (size_t j = 0; j < weak_labels.size(); ++j) {
    const double s = ToSpin(weak_labels[j]);
    if (s == 0.0) continue;
    const double a = std::clamp(accuracies[j], -0.999, 0.999);
    log_odds += std::log((1.0 + a * s) / (1.0 - a * s));
  }
  const double p1 = 1.0 / (1.0 + std::exp(-log_odds));
  return {1.0 - p1, p1};
}

std::vector<double> SpinNaiveBayesProbaSparse(
    const std::vector<double>& accuracies, double positive_prior,
    const ActiveRowView& row) {
  const double prior = std::clamp(positive_prior, 1e-6, 1.0 - 1e-6);
  double log_odds = std::log(prior / (1.0 - prior));
  for (int k = 0; k < row.nnz; ++k) {
    const double s = row.labels[k] == 1 ? 1.0 : -1.0;
    const double a = std::clamp(accuracies[row.cols[k]], -0.999, 0.999);
    log_odds += std::log((1.0 + a * s) / (1.0 - a * s));
  }
  const double p1 = 1.0 / (1.0 + std::exp(-log_odds));
  return {1.0 - p1, p1};
}

}  // namespace activedp
