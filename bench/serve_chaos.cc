// Serving chaos gate: drives the full serving-side fault matrix (every
// serve.* fault site × fault kind × seed, see serve/chaos_scenario.h) and
// asserts the ServeGuard contract:
//
//   1. nothing crashes: every injected fault is cleanly rejected (non-OK
//      status, detected corruption) or auto-recovered (circuit breaker back
//      to last-known-good, staged-rollout rollback, absorbed latency spike);
//   2. zero served-digest divergence on the surviving path — after every
//      fault, responses stay bitwise identical to the offline prediction of
//      whichever snapshot should be active;
//   3. registry writes are all-or-nothing: failed or torn manifest saves
//      never leave partial state, and a torn file is detected on reopen;
//   4. the auto-rollback is visible in the RunTrace timeline (the run fails
//      if no serve.registry/serve.rollout rollback instant was recorded);
//   5. exactly one verified incident dump per breaker trip
//      (serve.dispatch × error) and canary rollback (rollout.canary ×
//      error), none anywhere else; two drills outside the matrix must each
//      dump one shed-burst / deadline-storm incident.
//
// The sweep itself, the fire accounting and the incident verification are
// obs/chaos_matrix.h's. Writes a JSON accounting report
// (BENCH_serve_chaos.json) plus the full trace (BENCH_serve_chaos.trace.*).
// Registered as a ctest with LABELS chaos; also a standalone binary:
//   ./build/bench/serve_chaos --seeds=2 --steps=12 --trace=48

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <future>
#include <string>
#include <vector>

#include "obs/chaos_matrix.h"
#include "obs/flight_recorder.h"
#include "serve/chaos_scenario.h"
#include "serve/prediction_service.h"
#include "util/deadline.h"
#include "util/fault.h"
#include "util/flags.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace activedp {
namespace {

/// The incident a matrix cell must dump. Only the two auto-recovery drills
/// leave one behind; every other cell is a clean rejection.
std::vector<std::string> ExpectedIncidents(const ChaosSite& site,
                                           FaultKind kind) {
  const std::string name = site.name;
  if (kind != FaultKind::kError) return {};
  if (name == "serve.dispatch") return {"serve.breaker_trip"};
  if (name == "rollout.canary") return {"rollout.rollback"};
  return {};
}

/// Dedicated shed-burst drill: a latency spike on every batch warms the
/// EWMA to ~5ms/request, so a flood of async requests is shed at admission;
/// `shed_burst_threshold` sheds inside the window must fire exactly one
/// "serve.shed_burst" incident.
ChaosOutcome ShedBurstDrill(const ServeChaosFixture& fixture, uint64_t seed) {
  ChaosOutcome outcome;
  PredictionServiceOptions options;
  options.max_batch_size = 4;
  options.max_batch_delay_ms = 0.2;
  options.max_queue_delay_ms = 0.05;
  options.shed_burst_threshold = 8;
  options.incident_window_seconds = 30.0;
  PredictionService service(options);
  service.LoadSnapshot(fixture.snapshot_a);

  FaultSpec spec;
  spec.kind = FaultKind::kLatencySpike;
  spec.seed = seed;
  spec.max_fires = -1;
  FaultScope scope("serve.predict", spec);
  const auto example = [&](int i) {
    return fixture.trace[i % fixture.trace.size()];
  };
  // Two slow warm-up batches push the EWMA far above the 0.05ms queue
  // budget; from then on every async request is shed at admission.
  for (int i = 0; i < 2; ++i) (void)service.Predict({.example = example(i)});
  const int64_t before = FlightRecorder::Global().incidents_dumped();
  std::vector<std::future<ServeReply>> futures;
  for (int i = 0; i < 512; ++i) {
    futures.push_back(service.PredictAsync({.example = example(i)}));
    if (FlightRecorder::Global().incidents_dumped() > before && i >= 16) {
      break;
    }
  }
  for (auto& future : futures) {
    if (future.get().status.code() == StatusCode::kUnavailable) {
      ++outcome.fires;
    }
  }
  if (outcome.fires < 8) outcome.Fail("overload flood shed too few requests");
  return outcome;
}

/// Dedicated deadline-storm drill: requests admitted with already-expired
/// deadlines; `deadline_storm_threshold` failures inside the window must
/// fire exactly one "serve.deadline_storm" incident.
ChaosOutcome DeadlineStormDrill(const ServeChaosFixture& fixture) {
  ChaosOutcome outcome;
  PredictionServiceOptions options;
  options.deadline_storm_threshold = 8;
  options.incident_window_seconds = 30.0;
  PredictionService service(options);
  service.LoadSnapshot(fixture.snapshot_a);
  for (int i = 0; i < 8; ++i) {
    const ServeReply reply =
        service.Predict({.example = fixture.trace[i % fixture.trace.size()],
                         .deadline = Deadline::After(0.0)});
    if (reply.status.code() == StatusCode::kDeadlineExceeded) {
      ++outcome.fires;
    }
  }
  if (outcome.fires < 8) {
    outcome.Fail("expired requests were not all deadline-failed");
  }
  return outcome;
}

int Main(int argc, char** argv) {
  FlagParser flags;
  flags.AddFlag("dataset", "youtube", "zoo dataset behind the snapshots");
  flags.AddFlag("scale", "0.1", "fraction of paper dataset sizes");
  flags.AddFlag("seeds", "2", "number of seeds swept through the matrix");
  flags.AddFlag("steps", "12", "protocol steps before snapshot A (plus "
                               "half as many more before B)");
  flags.AddFlag("trace", "48", "request trace length per scenario");
  flags.AddFlag("out", "BENCH_serve_chaos.json", "JSON report path");
  flags.AddFlag("trace-dir", "bench-archive",
                "directory the BENCH_serve_chaos.trace.* exports land in");
  flags.AddFlag("incident-dir", "",
                "incident dump root (default <trace-dir>/incidents-serve-"
                "chaos); wiped at startup so counts are per-run");
  const Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.ToString().c_str());
    return 2;
  }
  if (flags.help_requested()) return 0;

  const std::string tmpdir =
      (std::filesystem::temp_directory_path() / "activedp-serve-chaos")
          .string();
  std::filesystem::create_directories(tmpdir);
  std::string incident_root = flags.GetString("incident-dir");
  if (incident_root.empty()) {
    incident_root = flags.GetString("trace-dir") + "/incidents-serve-chaos";
  }

  ChaosMatrix matrix({
      .benchmark = "serve_chaos",
      .sites =
          {
              {"snapshot.save", FaultKindBit(FaultKind::kError) |
                                    FaultKindBit(FaultKind::kTruncateWrite)},
              {"serve.snapshot_load", FaultKindBit(FaultKind::kError) |
                                          FaultKindBit(FaultKind::kCorrupt)},
              {"serve.dispatch", FaultKindBit(FaultKind::kError)},
              {"serve.predict", FaultKindBit(FaultKind::kLatencySpike)},
              {"registry.save", FaultKindBit(FaultKind::kError) |
                                    FaultKindBit(FaultKind::kTruncateWrite)},
              {"rollout.canary", FaultKindBit(FaultKind::kError)},
          },
      .kinds = {FaultKind::kError, FaultKind::kCorrupt,
                FaultKind::kTruncateWrite, FaultKind::kLatencySpike},
      .incident_root = incident_root,
      .expected_incidents = ExpectedIncidents,
      .trace_dir = flags.GetString("trace-dir"),
      .trace_name = "BENCH_serve_chaos",
  });
  const int steps = flags.GetInt("steps");
  const Status swept = matrix.Run<ServeChaosFixture>(
      flags.GetInt("seeds"), /*base_seed=*/7,
      [&](uint64_t seed) {
        return BuildServeChaosFixture(
            tmpdir, flags.GetString("dataset"), flags.GetDouble("scale"), seed,
            steps, std::max(1, steps / 2), flags.GetInt("trace"));
      },
      RunServeChaosScenario,
      [&](const ServeChaosFixture& fixture, int s, uint64_t seed) {
        if (s != 0) return;
        // The incident-trigger drills the fault matrix cannot reach: shed
        // bursts and deadline storms (admission-path triggers).
        matrix.RunDrill("drill.shed_burst", "overload", s, seed,
                        "serve.shed_burst",
                        [&] { return ShedBurstDrill(fixture, seed); });
        matrix.RunDrill("drill.deadline_storm", "expired", s, seed,
                        "serve.deadline_storm",
                        [&] { return DeadlineStormDrill(fixture); });
      });
  if (!swept.ok()) {
    std::fprintf(stderr, "%s\n", swept.ToString().c_str());
    return 1;
  }

  // The acceptance check the whole harness exists for: the auto-rollback
  // must be *visible in the timeline*, not just implied by return values.
  const RunTrace trace = matrix.CollectTrace();
  int rollback_instants = 0;
  for (const TraceEventRecord& event : trace.events) {
    if ((event.category == "serve.registry" ||
         event.category == "serve.rollout") &&
        event.name == "rollback") {
      ++rollback_instants;
    }
  }
  if (rollback_instants == 0) {
    matrix.Fail("no rollback instant in the RunTrace timeline");
  }

  const MetricsRegistry& metrics = MetricsRegistry::Global();
  return matrix.Finish(
      flags.GetString("out"),
      {{"rollback_instants", rollback_instants},
       {"breaker_trips", metrics.counter_value("serve.breaker_trips")},
       {"rollout_rollbacks", metrics.counter_value("serve.rollout.rollbacks")},
       {"registry_rollbacks",
        metrics.counter_value("serve.registry.rollbacks")}});
}

}  // namespace
}  // namespace activedp

int main(int argc, char** argv) { return activedp::Main(argc, argv); }
