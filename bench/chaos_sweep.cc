// Chaos sweep: drives every armed fault site × fault kind × seed through
// the full ActiveDP pipeline and asserts the robustness contract:
//
//   1. nothing crashes or hangs (each scenario runs under its own deadline
//      with a watchdog cancelling the run's token),
//   2. every injected fault that fired is accounted for by a RetryEvent, a
//      DegradationEvent, a non-OK terminal Status, or a detected-corrupt
//      artifact — never silently swallowed,
//   3. every metric the scenario produces is finite,
//   4. checkpoints written under fault injection are resumable: a clean
//      re-run over the same checkpoint path completes (a corrupt checkpoint
//      is ignored with a fresh start, never fatal),
//   5. wall-clock stays bounded (retry backoff is record-only by default).
//
// A final check verifies the retry layer's point: a transient single-fire
// kError on metal.fit is absorbed by a retry and the run's metrics are
// bitwise-identical to the fault-free run.
//
// The sweep itself, the fire accounting (an honored kind must fire, an
// unhonored one must not) and the zero-incident-dumps check are
// obs/chaos_matrix.h's. Writes a JSON accounting report
// (<trace-dir>/BENCH_chaos_sweep.json) plus the full trace
// (<trace-dir>/CHAOS_sweep.trace.*). Registered as a ctest with LABELS
// chaos (excluded from tier1); also a standalone binary:
//   ./build/bench/chaos_sweep --seeds=3 --steps=24 --budget-seconds=120

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>

#include "core/experiment.h"
#include "core/run_checkpoint.h"
#include "core/session_io.h"
#include "data/dataset_zoo.h"
#include "obs/chaos_matrix.h"
#include "util/fault.h"
#include "util/flags.h"
#include "util/retry.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace activedp {
namespace {

struct SeedContext {
  std::unique_ptr<DataSplit> split;
  FrameworkContext context;
};

bool AllFiniteCurves(const RunResult& run) {
  for (double v : run.test_accuracy)
    if (!std::isfinite(v)) return false;
  for (double v : run.label_accuracy)
    if (!std::isfinite(v)) return false;
  for (double v : run.label_coverage)
    if (!std::isfinite(v)) return false;
  return std::isfinite(run.average_test_accuracy);
}

ActiveDpOptions MakeOptions(uint64_t seed, const RunLimits& limits) {
  ActiveDpOptions options;
  options.seed = seed ^ 0x9e37;
  options.user.seed = seed ^ 0x1234;
  // Exercise the full graphical-lasso path (the pipeline default is the
  // neighbourhood fast path, which never hits "glasso.solve").
  options.label_pick.blanket.method = BlanketMethod::kGraphicalLasso;
  options.label_pick.min_queries_for_blanket = 6;
  options.policy.retry.seed = seed;
  options.policy.limits = limits;
  return options;
}

ChaosOutcome RunScenario(const SeedContext& ctx, const ChaosSite& site,
                         FaultKind kind, uint64_t seed,
                         const std::string& tmpdir, int steps,
                         double budget_seconds, Watchdog& watchdog) {
  ChaosOutcome outcome;
  Timer timer;

  auto cancel = std::make_shared<CancellationSource>();
  RunLimits limits;
  limits.deadline = Deadline::After(budget_seconds);
  limits.cancel = cancel->token();
  watchdog.Watch(limits.deadline, cancel);

  const std::string tag = std::string(site.name) + "-" +
                          std::string(FaultKindToString(kind)) + "-" +
                          std::to_string(seed);
  const std::string checkpoint_path = tmpdir + "/chaos-" + tag + ".ckpt";
  const std::string session_path = tmpdir + "/chaos-" + tag + ".session";
  std::filesystem::remove(checkpoint_path);
  std::filesystem::remove(session_path);

  const ActiveDpOptions options = MakeOptions(seed, limits);
  ProtocolOptions protocol;
  protocol.iterations = steps;
  protocol.eval_every = 8;
  protocol.policy.checkpoint_path = checkpoint_path;
  protocol.policy.limits = limits;
  protocol.policy.retry = options.policy.retry;
  RetryLog protocol_retries;
  RecoveryLog protocol_recovery;
  protocol.policy.retry_log = &protocol_retries;
  protocol.policy.recovery = &protocol_recovery;

  RunResult faulted;
  bool session_corruption_detected = false;
  {
    FaultSpec spec;
    spec.kind = kind;
    spec.trigger_after = 0;  // fault from the first hit, every hit
    spec.max_fires = -1;
    spec.seed = seed;
    FaultScope scope(site.name, spec);

    ActiveDp pipeline(ctx.context, options);
    faulted = RunProtocol(pipeline, ctx.context, protocol);

    // Exercise the session path explicitly (the protocol never saves
    // sessions itself): a truncated save must be *detected* on reload.
    const Status session_saved = SaveSession(pipeline.Snapshot(), session_path);
    if (!session_saved.ok()) {
      session_corruption_detected = true;
    } else {
      const Result<SessionState> loaded = LoadSession(session_path);
      if (!loaded.ok() || loaded->lfs.size() != pipeline.lfs().size()) {
        session_corruption_detected = true;
      }
    }

    outcome.fires = scope.fire_count();  // read before the scope disarms
    outcome.evidence =
        static_cast<int>(pipeline.retry_log().events().size() +
                         protocol_retries.events().size() +
                         pipeline.recovery().events().size() +
                         protocol_recovery.events().size());
    if (!AllFiniteCurves(faulted)) {
      outcome.Fail("non-finite metric in faulted run");
    }
  }

  // Resumability: with the fault disarmed, a fresh pipeline over the same
  // checkpoint path must complete. A checkpoint corrupted by the fault is
  // ignored (fresh start) — detected here as a load failure, never a crash.
  bool checkpoint_corruption_detected = false;
  const Result<RunCheckpoint> reload = LoadRunCheckpoint(checkpoint_path);
  if (!reload.ok()) {
    if (reload.status().code() == StatusCode::kInvalidArgument) {
      checkpoint_corruption_detected = true;
    } else if (reload.status().code() != StatusCode::kNotFound) {
      outcome.Fail("checkpoint reload returned unexpected " +
                   reload.status().ToString());
    }
  }

  // Fault accounting: every fired fault must leave a trace somewhere — a
  // retry, a degradation (counted above), a non-OK termination, or a
  // detected-corrupt artifact (truncated writes report success by design;
  // their evidence is the checksum/parse failure on reload).
  if (!faulted.termination.ok()) ++outcome.evidence;
  if (session_corruption_detected) ++outcome.evidence;
  if (checkpoint_corruption_detected) ++outcome.evidence;
  {
    RunLimits clean_limits;
    clean_limits.deadline = Deadline::After(budget_seconds);
    const ActiveDpOptions clean_options = MakeOptions(seed, clean_limits);
    ProtocolOptions clean_protocol = protocol;
    clean_protocol.policy.limits = clean_limits;
    clean_protocol.policy.retry_log = nullptr;
    clean_protocol.policy.recovery = nullptr;
    ActiveDp resumed(ctx.context, clean_options);
    const RunResult rerun = RunProtocol(resumed, ctx.context, clean_protocol);
    if (!rerun.termination.ok()) {
      outcome.Fail("clean re-run over the checkpoint did not complete: " +
                   rerun.termination.ToString());
    }
    if (!AllFiniteCurves(rerun)) {
      outcome.Fail("non-finite metric in clean re-run");
    }
  }

  // Both runs carry a `budget_seconds` deadline; everything else is cheap.
  const double elapsed_seconds = timer.ElapsedSeconds();
  if (elapsed_seconds > 2.0 * budget_seconds + 5.0) {
    outcome.Fail("wall-clock exceeded bound (" +
                 std::to_string(elapsed_seconds) + "s)");
  }
  std::filesystem::remove(checkpoint_path);
  std::filesystem::remove(session_path);
  return outcome;
}

/// The retry layer's acceptance check: one transient kError on metal.fit is
/// absorbed (logged, recovered) and the run's metrics equal the fault-free
/// run's bit for bit. Returns why the check failed, or "" when it held.
std::string TransientMetalFaultFailure(const SeedContext& ctx, uint64_t seed,
                                       int steps) {
  RunLimits limits;  // unlimited: this check is about determinism, not time
  const ActiveDpOptions options = MakeOptions(seed, limits);
  ProtocolOptions protocol;
  protocol.iterations = steps;
  protocol.eval_every = 8;

  ActiveDp clean(ctx.context, options);
  const RunResult baseline = RunProtocol(clean, ctx.context, protocol);
  if (!clean.retry_log().empty() || !clean.recovery().empty()) {
    return "fault-free run was not clean\n" + clean.retry_log().Summary() +
           clean.recovery().Summary();
  }

  FaultSpec spec;
  spec.kind = FaultKind::kError;
  spec.max_fires = 1;
  FaultScope scope("metal.fit", spec);
  ActiveDp faulted(ctx.context, options);
  const RunResult with_fault = RunProtocol(faulted, ctx.context, protocol);

  if (scope.fire_count() != 1) {
    return "expected 1 fire, got " + std::to_string(scope.fire_count());
  }
  if (faulted.retry_log().count("label_model.fit") < 1 ||
      faulted.retry_log().recovered_count("label_model.fit") < 1) {
    return "retry log missing the recovered label_model.fit retry\n" +
           faulted.retry_log().Summary();
  }
  if (!faulted.recovery().empty()) {
    return "retry should have prevented any degradation\n" +
           faulted.recovery().Summary();
  }
  const bool identical =
      baseline.budgets == with_fault.budgets &&
      baseline.test_accuracy == with_fault.test_accuracy &&
      baseline.label_accuracy == with_fault.label_accuracy &&
      baseline.label_coverage == with_fault.label_coverage &&
      baseline.average_test_accuracy == with_fault.average_test_accuracy;
  if (!identical) {
    return "metrics differ from the fault-free run (avg " +
           FormatExactDouble(baseline.average_test_accuracy) + " vs " +
           FormatExactDouble(with_fault.average_test_accuracy) + ")";
  }
  return "";
}

int Main(int argc, char** argv) {
  FlagParser flags;
  flags.AddFlag("dataset", "youtube", "zoo dataset driven through the sweep");
  flags.AddFlag("scale", "0.25", "fraction of paper dataset sizes");
  flags.AddFlag("seeds", "3", "number of random seeds per (site, kind)");
  flags.AddFlag("steps", "24", "protocol iterations per scenario");
  flags.AddFlag("budget-seconds", "120",
                "per-run deadline (watchdog-enforced)");
  flags.AddFlag("trace-dir", "bench-archive",
                "directory the CHAOS_sweep.trace.* exports and the "
                "BENCH_chaos_sweep.json report land in");
  const Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.ToString().c_str());
    return 1;
  }
  if (flags.help_requested()) return 0;

  const std::string dataset = flags.GetString("dataset");
  const double scale = flags.GetDouble("scale");
  const int steps = flags.GetInt("steps");
  const double budget_seconds = flags.GetDouble("budget-seconds");
  const std::string trace_dir = flags.GetString("trace-dir");

  const std::string tmpdir =
      (std::filesystem::temp_directory_path() / "activedp-chaos").string();
  std::filesystem::create_directories(tmpdir);

  // The sweep runs traced end to end: the exported timeline carries every
  // fault fire, retry and degradation the scenarios provoke, which is the
  // event-folding contract's best stress test. No pipeline site triggers
  // an incident, so every cell must leave zero dumps.
  ChaosMatrix matrix({
      .benchmark = "chaos_sweep",
      .sites =
          {
              {"glasso.solve", FaultKindBit(FaultKind::kError) |
                                   FaultKindBit(FaultKind::kNan) |
                                   FaultKindBit(FaultKind::kNoConverge)},
              {"metal.fit", FaultKindBit(FaultKind::kNan) |
                                FaultKindBit(FaultKind::kError)},
              {"lr.fit", FaultKindBit(FaultKind::kNan) |
                             FaultKindBit(FaultKind::kNoConverge) |
                             FaultKindBit(FaultKind::kError)},
              {"oracle.create_lf", FaultKindBit(FaultKind::kEmptyResponse)},
              {"session.save", FaultKindBit(FaultKind::kError) |
                                   FaultKindBit(FaultKind::kTruncateWrite)},
              {"checkpoint.save", FaultKindBit(FaultKind::kError) |
                                      FaultKindBit(FaultKind::kTruncateWrite)},
          },
      .kinds = {FaultKind::kError, FaultKind::kNan, FaultKind::kNoConverge,
                FaultKind::kTruncateWrite, FaultKind::kEmptyResponse},
      .incident_root = trace_dir + "/incidents-chaos-sweep",
      .trace_dir = trace_dir,
      .trace_name = "CHAOS_sweep",
  });

  Watchdog watchdog;
  int transient_absorbed = 0;
  const Status swept = matrix.Run<SeedContext>(
      flags.GetInt("seeds"), /*base_seed=*/1,
      [&](uint64_t seed) -> Result<SeedContext> {
        ASSIGN_OR_RETURN(DataSplit split,
                         MakeZooDataset(dataset, scale, seed));
        SeedContext ctx;
        ctx.split = std::make_unique<DataSplit>(std::move(split));
        ctx.context = FrameworkContext::Build(*ctx.split);
        return ctx;
      },
      [&](const SeedContext& ctx, const ChaosSite& site, FaultKind kind,
          uint64_t seed) {
        return RunScenario(ctx, site, kind, seed, tmpdir, steps,
                           budget_seconds, watchdog);
      },
      [&](const SeedContext& ctx, int, uint64_t seed) {
        const std::string failure =
            TransientMetalFaultFailure(ctx, seed, steps);
        if (!failure.empty()) {
          matrix.Fail("transient-absorb (seed " + std::to_string(seed) +
                      "): " + failure);
          return;
        }
        ++transient_absorbed;
        std::printf("ok     transient metal.fit kError absorbed by retry "
                    "(seed %llu)\n",
                    static_cast<unsigned long long>(seed));
      });
  if (!swept.ok()) {
    std::fprintf(stderr, "%s\n", swept.ToString().c_str());
    return 1;
  }

  (void)matrix.CollectTrace();
  return matrix.Finish(trace_dir + "/BENCH_chaos_sweep.json",
                       {{"transient_absorbed", transient_absorbed}});
}

}  // namespace
}  // namespace activedp

int main(int argc, char** argv) { return activedp::Main(argc, argv); }
