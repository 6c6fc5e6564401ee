#include "protocol.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <set>
#include <utility>

#include "core/activedp.h"
#include "core/end_model.h"
#include "core/framework.h"
#include "data/dataset_zoo.h"
#include "ml/metrics.h"
#include "serve/snapshot_export.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace perfbench {

using activedp::ActiveDp;
using activedp::ActiveDpOptions;
using activedp::DataSplit;
using activedp::FrameworkContext;
using activedp::LogisticRegression;
using activedp::MetricsRegistry;
using activedp::ModelSnapshot;
using activedp::Result;
using activedp::RunTrace;
using activedp::Status;
using activedp::Tracer;
using activedp::TraceSpan;

namespace {

constexpr int kSteps = 100;
constexpr int kEvalEvery = 10;
/// Snapshot A is exported from the last session after this step, snapshot
/// B after the last step.
constexpr int kExportAStep = 60;

/// A set-up ActiveDP session. The context points into the split and the
/// pipeline into the context, so both live behind stable pointers.
struct Session {
  std::unique_ptr<DataSplit> split;
  std::unique_ptr<FrameworkContext> context;
  std::unique_ptr<ActiveDp> pipeline;
};

/// Session k of a run draws dataset seed `seed + 1000003 k`, the stride
/// RunExperiment uses for its seeds, and derives the pipeline and simulated
/// user seeds from it the same way.
uint64_t SessionSeed(uint64_t seed, int k) {
  return seed + 1000003ULL * static_cast<uint64_t>(k);
}

/// Dataset generation, featurization and pipeline construction: the
/// setup_s interval. The spans are recorded only when the tracer is armed.
Result<Session> SetupSession(const ProtocolConfig& config, uint64_t seed) {
  TraceSpan setup_span("setup");
  Session session;
  Result<DataSplit> made = [&]() {
    TraceSpan span("dataset.make");
    return activedp::MakeZooDataset(config.dataset, config.scale, seed);
  }();
  if (!made.ok()) return made.status();
  session.split = std::make_unique<DataSplit>(std::move(*made));
  {
    TraceSpan span("featurize");
    session.context = std::make_unique<FrameworkContext>(
        FrameworkContext::Build(*session.split));
  }
  ActiveDpOptions options;
  options.seed = seed ^ 0x9e37;
  options.user.seed = seed ^ 0x1234;
  {
    TraceSpan span("activedp.construct");
    session.pipeline = std::make_unique<ActiveDp>(*session.context, options);
  }
  return session;
}

struct SessionRun {
  double protocol_s = 0.0;
  Samples step_ms;
  Samples eval_ms;
  int64_t no_lf_steps = 0;
  int64_t steps_attempted = 0;
  int64_t steps_failed = 0;
  int64_t evals_attempted = 0;
  int64_t evals_failed = 0;
  std::vector<int> budgets;
  std::vector<double> test_accuracy;
  std::vector<double> label_accuracy;
  std::vector<double> label_coverage;
  uint64_t digest = 0;
};

/// Everything that pins the session's behaviour: the RunResult curves by
/// bit pattern and the LFs LabelPick finally selected.
uint64_t SessionDigest(uint64_t seed, const SessionRun& run,
                       const ActiveDp& pipeline) {
  Digest d;
  d.U64(seed);
  d.I64(run.steps_failed);
  for (size_t i = 0; i < run.budgets.size(); ++i) {
    d.I64(run.budgets[i]);
    d.F64(run.test_accuracy[i]);
    d.F64(run.label_accuracy[i]);
    d.F64(run.label_coverage[i]);
  }
  d.I64(static_cast<int64_t>(pipeline.lfs().size()));
  for (int column : pipeline.selected_lfs()) {
    d.I64(column);
    d.Str(pipeline.lfs()[column]->Key());
  }
  return d.value();
}

/// Times one setup of the session's dataset. The session is torn down
/// after the clock stops, as a caller's would be long after setup.
Status TimeSetup(const ProtocolConfig& config, uint64_t seed,
                 Samples* setups) {
  const Clock::time_point start = Clock::now();
  Result<Session> session = SetupSession(config, seed);
  const double elapsed = SecondsBetween(start, Clock::now());
  if (!session.ok()) return session.status();
  setups->Add(elapsed);
  return Status::Ok();
}

using StepHook = std::function<void(int step)>;

/// The paper's protocol on one session: kSteps Step() calls with an
/// evaluation every kEvalEvery. `on_step` runs after each step's
/// evaluation; the time it takes is excluded from protocol_s.
SessionRun RunSession(Session& session, uint64_t seed,
                      const StepHook& on_step) {
  SessionRun run;
  ActiveDp& pipeline = *session.pipeline;
  const FrameworkContext& context = *session.context;
  double excluded_s = 0.0;
  const Clock::time_point start = Clock::now();
  {
    TraceSpan root("protocol");
    for (int step = 1; step <= kSteps; ++step) {
      const size_t lfs_before = pipeline.lfs().size();
      ++run.steps_attempted;
      const Clock::time_point step_start = Clock::now();
      const Status status = pipeline.Step();
      const double step_ms = SecondsBetween(step_start, Clock::now()) * 1e3;
      if (!status.ok()) {
        ++run.steps_failed;
        break;
      }
      if (pipeline.lfs().size() > lfs_before) {
        run.step_ms.Add(step_ms);
      } else {
        ++run.no_lf_steps;
      }
      if (step % kEvalEvery == 0) {
        TraceSpan eval_span("protocol.eval");
        ++run.evals_attempted;
        const Clock::time_point eval_start = Clock::now();
        const std::vector<std::vector<double>> labels =
            pipeline.CurrentTrainingLabels();
        Result<LogisticRegression> end_model = [&]() {
          TraceSpan span("end_model.fit");
          return activedp::TrainEndModel(
              context.train_features, labels, context.num_classes,
              context.feature_dim, activedp::EndModelOptions{});
        }();
        double accuracy = 0.0;
        if (end_model.ok()) {
          accuracy = activedp::EvaluateAccuracy(
              *end_model, context.test_features, context.test_labels);
        } else {
          ++run.evals_failed;
        }
        run.eval_ms.Add(SecondsBetween(eval_start, Clock::now()) * 1e3);
        const activedp::LabelQuality quality =
            activedp::MeasureLabelQuality(labels, context.split->train);
        run.budgets.push_back(step);
        run.test_accuracy.push_back(accuracy);
        run.label_accuracy.push_back(quality.accuracy);
        run.label_coverage.push_back(quality.coverage);
      }
      if (on_step) {
        const Clock::time_point hook_start = Clock::now();
        on_step(step);
        excluded_s += SecondsBetween(hook_start, Clock::now());
      }
    }
  }
  run.protocol_s = SecondsBetween(start, Clock::now()) - excluded_s;
  run.digest = SessionDigest(seed, run, pipeline);
  return run;
}

/// Self time per layer: each span's duration minus its direct children's,
/// credited to the nearest enclosing span (itself included) whose stage is
/// in `layers`.
std::map<std::string, LayerStat> AttributeLayers(
    const RunTrace& trace, const std::vector<std::string>& layers) {
  const std::set<std::string> named(layers.begin(), layers.end());
  std::map<std::pair<int, int64_t>, size_t> by_seq;
  for (size_t i = 0; i < trace.spans.size(); ++i) {
    by_seq[{trace.spans[i].track, trace.spans[i].seq}] = i;
  }
  const auto parent_of = [&](size_t i) -> std::optional<size_t> {
    const auto& span = trace.spans[i];
    if (span.parent_seq < 0) return std::nullopt;
    const auto it = by_seq.find({span.track, span.parent_seq});
    if (it == by_seq.end()) return std::nullopt;
    return it->second;
  };
  std::vector<double> child_us(trace.spans.size(), 0.0);
  for (size_t i = 0; i < trace.spans.size(); ++i) {
    if (const auto parent = parent_of(i)) {
      child_us[*parent] += static_cast<double>(trace.spans[i].dur_us);
    }
  }
  std::map<std::string, LayerStat> stats;
  for (size_t i = 0; i < trace.spans.size(); ++i) {
    std::optional<size_t> owner = i;
    while (owner && named.count(trace.spans[*owner].stage) == 0) {
      owner = parent_of(*owner);
    }
    if (!owner) continue;
    LayerStat& stat = stats[trace.spans[*owner].stage];
    if (*owner == i) ++stat.count;
    stat.self_s +=
        (static_cast<double>(trace.spans[i].dur_us) - child_us[i]) * 1e-6;
  }
  return stats;
}

void AddLayers(const std::map<std::string, LayerStat>& from,
               std::map<std::string, LayerStat>* into) {
  for (const auto& [name, stat] : from) {
    (*into)[name].count += stat.count;
    (*into)[name].self_s += stat.self_s;
  }
}

void CountFailures(const SessionRun& run, const ActiveDp& pipeline,
                   ProtocolOutcome* outcome) {
  outcome->steps_attempted += run.steps_attempted;
  outcome->steps_failed += run.steps_failed;
  outcome->evals_attempted += run.evals_attempted;
  outcome->evals_failed += run.evals_failed;
  outcome->degradations += static_cast<int64_t>(pipeline.recovery().size());
  outcome->retries += static_cast<int64_t>(pipeline.retry_log().size());
}

}  // namespace

const std::vector<std::string>& ProtocolLayers() {
  static const std::vector<std::string> layers = {
      "protocol",        "activedp.step",       "sampler.select",
      "oracle.create_lf", "lf.apply",           "al_model.fit",
      "label_pick",      "label_model.fit",     "label_model.predict",
      "metal.fit",       "protocol.eval",       "confusion",
      "end_model.fit"};
  return layers;
}

const std::vector<std::string>& SetupLayers() {
  static const std::vector<std::string> layers = {
      "setup", "dataset.make", "featurize", "activedp.construct"};
  return layers;
}

bool RunProtocolWorkload(const ProtocolConfig& config, uint64_t seed,
                         ProtocolOutcome* outcome, std::string* error) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  for (int k = 0; k < config.sessions; ++k) {
    const uint64_t session_seed = SessionSeed(seed, k);
    const bool last = k + 1 == config.sessions;
    uint64_t untraced_digest = 0;
    {
      Result<Session> session = SetupSession(config, session_seed);
      if (!session.ok()) {
        *error = session.status().ToString();
        return false;
      }

      // Setups are timed all through the session, every setup_every
      // steps, and their mean is the session's setup_s sample. Setup time
      // so spans the run as protocol_s does: the host's speed changes for
      // seconds at a time, and a median of setups timed back to back would
      // follow whichever speed held at that moment.
      Samples setups;
      Status setup_status;
      const StepHook on_step = [&](int step) {
        if (step % config.setup_every == 0 && setup_status.ok()) {
          setup_status = TimeSetup(config, session_seed, &setups);
        }
        if (last && (step == kExportAStep || step == kSteps)) {
          ++outcome->exports_attempted;
          Result<ModelSnapshot> snapshot =
              activedp::ExportSnapshot(*session->pipeline, *session->context);
          if (!snapshot.ok()) {
            ++outcome->exports_failed;
            return;
          }
          auto shared =
              std::make_shared<const ModelSnapshot>(std::move(*snapshot));
          (step == kSteps ? outcome->snapshot_b : outcome->snapshot_a) =
              std::move(shared);
        }
      };
      const SessionRun run = RunSession(*session, session_seed, on_step);
      if (!setup_status.ok()) {
        *error = setup_status.ToString();
        return false;
      }
      outcome->setup_s.Add(setups.Mean());
      outcome->setups_timed += static_cast<int64_t>(setups.size());
      outcome->protocol_s.Add(run.protocol_s);
      outcome->step_ms.Append(run.step_ms);
      outcome->eval_ms.Append(run.eval_ms);
      outcome->no_lf_steps += run.no_lf_steps;
      outcome->test_acc_avg.Add(activedp::CurveAverage(run.test_accuracy));
      outcome->session_digests.push_back(run.digest);
      untraced_digest = run.digest;
      CountFailures(run, *session->pipeline, outcome);
      if (last) {
        const activedp::Dataset& test = session->split->test;
        for (int i = 0; i < test.size(); ++i) {
          outcome->request_rows.push_back(test.example(i));
        }
      }
    }
    if (!config.traced) continue;

    // Traced pass of the same session: fresh setup, tracer armed, counters
    // zeroed so they cover this pass alone.
    registry.ResetAll();
    Tracer::Global().Enable();
    const Clock::time_point traced_setup_start = Clock::now();
    Result<Session> traced = SetupSession(config, session_seed);
    const double traced_setup =
        SecondsBetween(traced_setup_start, Clock::now());
    if (!traced.ok()) {
      Tracer::Global().Disable();
      *error = traced.status().ToString();
      return false;
    }
    const SessionRun traced_run = RunSession(*traced, session_seed, nullptr);
    const RunTrace trace = Tracer::Global().Collect();
    Tracer::Global().Disable();
    outcome->traced_setup_s.Add(traced_setup);
    outcome->traced_protocol_s.Add(traced_run.protocol_s);
    outcome->traced_digests_match &= traced_run.digest == untraced_digest;
    AddLayers(AttributeLayers(trace, ProtocolLayers()),
              &outcome->protocol_layers);
    AddLayers(AttributeLayers(trace, SetupLayers()), &outcome->setup_layers);
    outcome->metal_fits += registry.counter_value("metal.fits");
    outcome->lr_epochs += registry.counter_value("lr.epochs");
    CountFailures(traced_run, *traced->pipeline, outcome);
  }
  return true;
}

}  // namespace perfbench
