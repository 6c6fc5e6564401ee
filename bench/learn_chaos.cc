// LearnGuard chaos gate: drives the continuous-learning fault matrix (every
// eventlog.*/retrain.*/publish.* fault site × fault kind × seed, see
// online/learn_scenario.h) and asserts the LearnGuard contract:
//
//   1. every injected fault ends in a clean rejection, a quarantined
//      feedback batch, or an auto-rollback — never a crash, a served
//      regression, or a silently published bad candidate;
//   2. a failed cycle never touches the served snapshot, and once the fault
//      clears a fresh feedback wave still retrains and publishes (the loop
//      is never wedged);
//   3. zero served-digest divergence on the surviving path: responses stay
//      bitwise identical to the offline predictions of the registry's
//      active snapshot reloaded from its registered path;
//   4. the quarantines are visible in the RunTrace timeline (the run fails
//      if no retrain.quarantine fault instant was recorded), and every
//      quarantining cell leaves exactly one verified "retrain.quarantine"
//      incident dump whose timeline shows the trigger.
//
// The sweep itself, the fire accounting and the incident verification are
// obs/chaos_matrix.h's. Writes a JSON accounting report
// (BENCH_learn_chaos.json) plus the full trace (BENCH_learn_chaos.trace.*).
// Registered as a ctest with LABELS "chaos;online"; also a standalone
// binary:
//   ./build/bench/learn_chaos --seeds=2 --steps=6 --trace=48

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "obs/chaos_matrix.h"
#include "online/learn_scenario.h"
#include "util/fault.h"
#include "util/flags.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace activedp {
namespace {

/// Every honored fault past the append quarantines the cycle's segments,
/// which dumps one "retrain.quarantine" incident. Faulted appends never
/// reach a cycle with data: a failed append leaves nothing to retrain on,
/// and a torn one poisons the log, so that cycle refuses to run.
std::vector<std::string> ExpectedIncidents(const ChaosSite& site,
                                           FaultKind kind) {
  if (!site.Honors(kind) || std::string(site.name) == "eventlog.append") {
    return {};
  }
  return {"retrain.quarantine"};
}

int Main(int argc, char** argv) {
  FlagParser flags;
  flags.AddFlag("dataset", "youtube", "zoo dataset behind the base snapshot");
  flags.AddFlag("scale", "0.1", "fraction of paper dataset sizes");
  flags.AddFlag("seeds", "2", "number of seeds swept through the matrix");
  flags.AddFlag("steps", "6", "protocol steps behind the deliberately weak "
                              "base snapshot");
  flags.AddFlag("trace", "48", "request trace length per scenario");
  flags.AddFlag("out", "BENCH_learn_chaos.json", "JSON report path");
  flags.AddFlag("trace-dir", "bench-archive",
                "directory the BENCH_learn_chaos.trace.* exports land in");
  flags.AddFlag("incident-dir", "",
                "incident dump root (default <trace-dir>/incidents-learn-"
                "chaos); wiped at startup so counts are per-run");
  const Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.ToString().c_str());
    return 2;
  }
  if (flags.help_requested()) return 0;

  const std::string tmpdir =
      (std::filesystem::temp_directory_path() / "activedp-learn-chaos")
          .string();
  std::filesystem::create_directories(tmpdir);
  std::string incident_root = flags.GetString("incident-dir");
  if (incident_root.empty()) {
    incident_root = flags.GetString("trace-dir") + "/incidents-learn-chaos";
  }

  ChaosMatrix matrix({
      .benchmark = "learn_chaos",
      .sites =
          {
              {"eventlog.append", FaultKindBit(FaultKind::kError) |
                                      FaultKindBit(FaultKind::kTruncateWrite)},
              {"eventlog.replay", FaultKindBit(FaultKind::kError) |
                                      FaultKindBit(FaultKind::kCorrupt)},
              {"retrain.fit", FaultKindBit(FaultKind::kError) |
                                  FaultKindBit(FaultKind::kNan)},
              {"retrain.validate", FaultKindBit(FaultKind::kError)},
              {"publish.rollout", FaultKindBit(FaultKind::kError)},
          },
      .kinds = {FaultKind::kError, FaultKind::kNan, FaultKind::kCorrupt,
                FaultKind::kTruncateWrite},
      .incident_root = incident_root,
      .expected_incidents = ExpectedIncidents,
      .trace_dir = flags.GetString("trace-dir"),
      .trace_name = "BENCH_learn_chaos",
  });
  const Status swept = matrix.Run<LearnChaosFixture>(
      flags.GetInt("seeds"), /*base_seed=*/7,
      [&](uint64_t seed) {
        return BuildLearnChaosFixture(
            tmpdir, flags.GetString("dataset"), flags.GetDouble("scale"), seed,
            flags.GetInt("steps"), flags.GetInt("trace"));
      },
      RunLearnChaosScenario);
  if (!swept.ok()) {
    std::fprintf(stderr, "%s\n", swept.ToString().c_str());
    return 1;
  }

  // The acceptance check the harness exists for: quarantines must be
  // *visible in the timeline*, not just implied by return values.
  const RunTrace trace = matrix.CollectTrace();
  int quarantine_instants = 0;
  for (const TraceEventRecord& event : trace.events) {
    if (event.category == "fault" && event.name == "retrain.quarantine") {
      ++quarantine_instants;
    }
  }
  if (quarantine_instants == 0) {
    matrix.Fail("no retrain.quarantine instant in the RunTrace timeline");
  }

  const MetricsRegistry& metrics = MetricsRegistry::Global();
  return matrix.Finish(
      flags.GetString("out"),
      {{"quarantine_instants", quarantine_instants},
       {"quarantine_dumps", matrix.dumps_with_reason("retrain.quarantine")},
       {"retrain_cycles", metrics.counter_value("retrain.cycles")},
       {"retrain_published", metrics.counter_value("retrain.published")},
       {"quarantined_segments",
        metrics.counter_value("retrain.quarantined_segments")},
       {"feedback_events", metrics.counter_value("serve.feedback")}});
}

}  // namespace
}  // namespace activedp

int main(int argc, char** argv) { return activedp::Main(argc, argv); }
