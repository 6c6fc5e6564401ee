#ifndef ACTIVEDP_LABELMODEL_SPIN_UTILS_H_
#define ACTIVEDP_LABELMODEL_SPIN_UTILS_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "lf/lf_applier.h"
#include "util/deadline.h"
#include "util/status.h"

namespace activedp {

/// Binary weak label -> spin: class 1 -> +1, class 0 -> -1, abstain -> 0.
inline double ToSpin(int weak_label) {
  if (weak_label == kAbstain) return 0.0;
  return weak_label == 1 ? 1.0 : -1.0;
}

/// Majority-vote spin of every row of a binary label matrix: the sign of the
/// row's spin sum, 0 on ties and on rows no LF covers. One pass over the
/// int8 columns (O(n m), no row view needed), chunked over rows with
/// `limits` checked per chunk; the votes are integers, so the result is
/// identical at any thread count.
Status MajorityVoteSpins(const LabelMatrix& matrix, const RunLimits& limits,
                         std::string_view stage, std::vector<int8_t>* spins);

/// Laplace-smoothed positive-class prior from majority-vote spins:
/// (1 + #positive rows) / (2 + #rows with a non-tied vote).
double LaplacePositivePrior(const std::vector<int8_t>& mv_spins);

/// Naive-Bayes aggregation of binary weak labels given per-LF accuracy
/// parameters a_j = E[λ_j Y | λ_j active] ∈ (-1, 1) and the positive-class
/// prior: P(λ_j = s | Y = y) = (1 + a_j s y) / 2 conditional on activation.
/// Returns {P(y=0|λ), P(y=1|λ)}. Used by both MeTaL-style label models.
std::vector<double> SpinNaiveBayesProba(const std::vector<double>& accuracies,
                                        double positive_prior,
                                        const std::vector<int>& weak_labels);

/// Sparse variant over the non-abstain entries of a row (ascending column
/// order). Bitwise identical to the dense overload, which skips abstains in
/// the same column order.
std::vector<double> SpinNaiveBayesProbaSparse(
    const std::vector<double>& accuracies, double positive_prior,
    const ActiveRowView& row);

}  // namespace activedp

#endif  // ACTIVEDP_LABELMODEL_SPIN_UTILS_H_
