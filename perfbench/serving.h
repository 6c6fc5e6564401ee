#ifndef PERFBENCH_SERVING_H_
#define PERFBENCH_SERVING_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common.h"
#include "data/example.h"
#include "serve/model_snapshot.h"

namespace perfbench {

/// Request traffic against a 2-shard, 8-tenant ShardRouter serving
/// snapshots A (even tenants) and B (odd tenants) with the default service
/// options (batch 32, 2 ms delay).
struct ServingConfig {
  /// `light`: closed loop, two clients, each keeping one request
  /// outstanding.
  int light_requests_per_client = 1000;
  /// `open`: one generator issuing 40 000 requests/s with Zipf tenant
  /// popularity, while tenant 1 is swapped A <-> B every 100 ms.
  double open_seconds = 2.0;
};

/// Dispatcher-side view of one phase, from the serve.* instruments.
struct BatchStats {
  double batch_size_mean = 0.0;
  int64_t batches = 0;
  double batch_ms_p50 = 0.0;
};

struct ServingOutcome {
  Samples light_ms;     // send → reply, OK replies
  Samples open_ms;      // due time → reply, OK replies
  Samples admit_us;     // time inside PredictWithCallback
  Samples gen_late_ms;  // send time − due time
  BatchStats light_batches;
  BatchStats open_batches;
  double offered_rps = 0.0;
  double achieved_rps = 0.0;
  bool open_valid = false;
  int open_attempts = 0;
  int swaps = 0;
  /// Offline PredictBatch cost on the request mix, 32-row batches.
  double predict_us_per_row = 0.0;
  /// Bit patterns of the offline predictions of A and B on the request mix.
  uint64_t offline_digest = 0;

  int64_t requests = 0;
  int64_t rejected = 0;  // shed, quota, queue full, shutdown
  int64_t expired = 0;
  int64_t errors = 0;
  int64_t mismatched = 0;  // OK replies that differ from offline A and B
};

void RunServing(const ServingConfig& config,
                std::shared_ptr<const activedp::ModelSnapshot> snapshot_a,
                std::shared_ptr<const activedp::ModelSnapshot> snapshot_b,
                std::vector<activedp::Example> rows, uint64_t seed,
                ServingOutcome* outcome);

}  // namespace perfbench

#endif  // PERFBENCH_SERVING_H_
