#ifndef ACTIVEDP_SERVE_CHAOS_SCENARIO_H_
#define ACTIVEDP_SERVE_CHAOS_SCENARIO_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/chaos_matrix.h"
#include "serve/model_snapshot.h"
#include "util/fault.h"
#include "util/result.h"

namespace activedp {

/// Everything a serve chaos scenario needs, built once per seed (training a
/// pipeline is the expensive part): two exported snapshots (A = baseline, B
/// = candidate) on disk and in memory, a request trace, and each snapshot's
/// offline prediction digest per trace row — the bitwise ground truth the
/// surviving-path check compares served responses against.
struct ServeChaosFixture {
  std::string dir;
  std::string snapshot_a_path;
  std::string snapshot_b_path;
  std::shared_ptr<const ModelSnapshot> snapshot_a;
  std::shared_ptr<const ModelSnapshot> snapshot_b;
  std::vector<Example> trace;
  std::vector<uint64_t> digests_a;
  std::vector<uint64_t> digests_b;
};

/// Trains a pipeline on a zoo dataset, exports snapshot A after `steps_a`
/// protocol steps and snapshot B after `steps_b` more, saves both under
/// `dir`, and precomputes the offline digests over the first `trace_size`
/// train examples.
Result<ServeChaosFixture> BuildServeChaosFixture(const std::string& dir,
                                                 const std::string& dataset,
                                                 double scale, uint64_t seed,
                                                 int steps_a, int steps_b,
                                                 int trace_size);

/// Runs one (site, kind, seed) serving chaos scenario and asserts the
/// ServeGuard contract (DESIGN.md §11):
///
///   - nothing crashes; every injected fault is either cleanly rejected
///     (non-OK status, detected corruption) or auto-recovered (circuit
///     breaker back to last-known-good, rollout rollback, absorbed latency
///     spike) — counted in `evidence`;
///   - after the fault, the service still serves and every response is
///     bitwise identical to the offline prediction of the snapshot that
///     should be active (`digest_mismatches` == 0);
///   - registry state stays consistent: a failed or torn manifest write
///     never leaves partial state, a condemned candidate is marked failed,
///     a rollback re-activates the previous healthy snapshot;
///   - an unhonored kind leaves the save/load, manifest, rollout and
///     dispatch paths undisturbed.
///
/// The scenario callback of bench/serve_chaos's ChaosMatrix, which adds the
/// fire accounting and incident checks. Each scenario sets up a fresh
/// registry + service from the fixture, so scenarios are independent and
/// order-insensitive.
ChaosOutcome RunServeChaosScenario(const ServeChaosFixture& fixture,
                                   const ChaosSite& chaos_site, FaultKind kind,
                                   uint64_t seed);

}  // namespace activedp

#endif  // ACTIVEDP_SERVE_CHAOS_SCENARIO_H_
