#ifndef PERFBENCH_PROTOCOL_H_
#define PERFBENCH_PROTOCOL_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "data/example.h"
#include "serve/model_snapshot.h"

namespace perfbench {

/// One labelling workload: `sessions` independent ActiveDP sessions, each
/// on its own dataset draw, run through the paper's protocol (§4.1.3): 100
/// steps with an evaluation every 10.
struct ProtocolConfig {
  std::string dataset;
  double scale = 0.25;
  int sessions = 1;
  /// Every `setup_every` steps (a multiple of 10, so right after an
  /// evaluation, and outside the protocol time) one more setup of the
  /// session's dataset is timed for setup_s.
  int setup_every = 10;
  /// Also run every session a second time with the tracer armed.
  bool traced = false;
};

/// Time and call count attributed to one layer (self time: span duration
/// minus the part its child spans of other layers cover).
struct LayerStat {
  int64_t count = 0;
  double self_s = 0.0;
};

struct ProtocolOutcome {
  // Untraced timings.
  Samples setup_s;     // one per session: its mean timed setup
  Samples protocol_s;  // one per session
  Samples step_ms;     // Step() calls that added an LF
  Samples eval_ms;     // CurrentTrainingLabels + TrainEndModel + Evaluate
  Samples test_acc_avg;  // CurveAverage per session
  int64_t setups_timed = 0;
  int64_t no_lf_steps = 0;

  // Failure accounting (all sessions, traced passes included).
  int64_t steps_attempted = 0;
  int64_t steps_failed = 0;
  int64_t evals_attempted = 0;
  int64_t evals_failed = 0;
  int64_t degradations = 0;
  int64_t retries = 0;
  int64_t exports_attempted = 0;
  int64_t exports_failed = 0;

  /// RunResult digest per session (untraced pass) and whether every traced
  /// pass reproduced it bit for bit.
  std::vector<uint64_t> session_digests;
  bool traced_digests_match = true;

  // Traced passes only.
  Samples traced_protocol_s;
  Samples traced_setup_s;
  std::map<std::string, LayerStat> protocol_layers;
  std::map<std::string, LayerStat> setup_layers;
  int64_t metal_fits = 0;
  int64_t lr_epochs = 0;

  // Serving inputs exported from the last session.
  std::shared_ptr<const activedp::ModelSnapshot> snapshot_a;
  std::shared_ptr<const activedp::ModelSnapshot> snapshot_b;
  std::vector<activedp::Example> request_rows;  // test split of that session
};

/// Layers the protocol time is attributed to, outermost first. Spans of
/// other stages (lr.fit, labelmodel.predict_all, ...) count toward the
/// nearest enclosing listed layer.
const std::vector<std::string>& ProtocolLayers();
const std::vector<std::string>& SetupLayers();

/// Runs the workload. Returns false (with `error` set) when a dataset
/// cannot be built; every other failure is counted in the outcome.
bool RunProtocolWorkload(const ProtocolConfig& config, uint64_t seed,
                         ProtocolOutcome* outcome, std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_PROTOCOL_H_
