#include "obs/chaos_matrix.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "obs/flight_recorder.h"
#include "util/atomic_file.h"
#include "util/metrics.h"
#include "util/string_util.h"

namespace activedp {
namespace {

/// The trace instant each incident trigger emits before dumping, which the
/// dumped timeline must therefore contain: the trigger is visible, not just
/// implied by a return value.
std::string TimelineMarker(const std::string& reason) {
  if (reason == "serve.breaker_trip") return "circuit_breaker";
  if (reason == "rollout.rollback") return "rollback";
  if (reason == "serve.shed_burst") return "shed_burst";
  if (reason == "serve.deadline_storm") return "deadline_storm";
  return reason;  // e.g. "retrain.quarantine" names its own instant
}

const char* RowClass(const ChaosRow& row) {
  if (row.drill) return "drill";
  return row.exercised ? "exercised" : "undisturbed";
}

}  // namespace

void ChaosOutcome::Fail(const std::string& why) {
  passed = false;
  if (!failure.empty()) failure += "; ";
  failure += why;
}

ChaosMatrix::ChaosMatrix(ChaosMatrixSpec spec) : spec_(std::move(spec)) {
  std::error_code ec;
  std::filesystem::remove_all(spec_.incident_root, ec);
  MetricsRegistry::Global().ResetAll();
  Tracer::Global().Enable();
}

void ChaosMatrix::RunSeed(
    int seed_index, uint64_t seed,
    const std::function<ChaosOutcome(const ChaosSite&, FaultKind)>& cell) {
  for (const ChaosSite& site : spec_.sites) {
    for (const FaultKind kind : spec_.kinds) {
      ChaosRow row;
      row.site = site.name;
      row.kind = std::string(FaultKindToString(kind));
      row.seed = seed;
      row.exercised = site.Honors(kind);
      const std::vector<std::string> expected =
          spec_.expected_incidents ? spec_.expected_incidents(site, kind)
                                   : std::vector<std::string>{};
      RunRow(std::move(row), seed_index, expected,
             [&] { return cell(site, kind); });
    }
  }
}

void ChaosMatrix::RunDrill(const std::string& site, const std::string& kind,
                           int seed_index, uint64_t seed,
                           const std::string& expected_reason,
                           const std::function<ChaosOutcome()>& drill) {
  ChaosRow row;
  row.site = site;
  row.kind = kind;
  row.seed = seed;
  row.drill = true;
  RunRow(std::move(row), seed_index, {expected_reason}, drill);
}

void ChaosMatrix::RunRow(ChaosRow row, int seed_index,
                         const std::vector<std::string>& expected,
                         const std::function<ChaosOutcome()>& body) {
  const std::string cell_dir = spec_.incident_root + "/" + row.site + "-" +
                               row.kind + "-seed" +
                               std::to_string(seed_index);
  Timer timer;
  FlightRecorderOptions recorder_options;
  recorder_options.incident_dir = cell_dir;
  FlightRecorder::Global().Enable(recorder_options);
  row.outcome = body();
  FlightRecorder::Global().Disable();
  ChaosOutcome& outcome = row.outcome;

  if (!row.drill) {
    if (!row.exercised && outcome.fires > 0) {
      outcome.Fail("unhonored kind fired " + std::to_string(outcome.fires) +
                   " times");
    }
    if (row.exercised && outcome.fires == 0) {
      outcome.Fail("site was never exercised (0 fires)");
    }
  }

  std::vector<std::string> missing = expected;
  const std::vector<std::string> dumps = ListIncidentDumps(cell_dir);
  row.incidents = static_cast<int>(dumps.size());
  int verified = 0;
  for (const std::string& dump : dumps) {
    const Status intact = VerifyIncidentDump(dump);
    if (!intact.ok()) {
      outcome.Fail("incident dump " + dump +
                   " did not verify: " + intact.ToString());
      continue;
    }
    const Result<IncidentManifest> manifest = ReadIncidentManifest(dump);
    if (!manifest.ok()) {
      outcome.Fail("incident manifest unreadable in " + dump);
      continue;
    }
    const auto want =
        std::find(missing.begin(), missing.end(), manifest->reason);
    if (want == missing.end()) {
      outcome.Fail("unexpected \"" + manifest->reason +
                   "\" incident dump " + dump);
      continue;
    }
    missing.erase(want);
    const Result<std::string> timeline =
        ReadFileVerifyingChecksum(dump + "/timeline.jsonl");
    const std::string marker = TimelineMarker(manifest->reason);
    if (!timeline.ok() || timeline->find(marker) == std::string::npos) {
      outcome.Fail("timeline in " + dump + " lacks the triggering instant \"" +
                   marker + "\"");
      continue;
    }
    ++dumps_by_reason_[manifest->reason];
    ++verified;
  }
  for (const std::string& reason : missing) {
    outcome.Fail("no \"" + reason + "\" incident dump under " + cell_dir);
  }
  // A drill injects no FaultKind; its verified dump is the evidence that
  // the trigger fired and was handled.
  if (row.drill && outcome.passed) outcome.evidence += verified;
  if (outcome.fires > 0 && outcome.evidence == 0) {
    outcome.Fail("injected faults left no evidence");
  }
  row.elapsed_seconds = timer.ElapsedSeconds();

  std::printf("%-6s %-11s %-20s %-14s fires=%-4d evidence=%-3d incidents=%d "
              "digest_mismatches=%-3d %6.2fs\n",
              outcome.passed ? "ok" : "FAIL", RowClass(row), row.site.c_str(),
              row.kind.c_str(), outcome.fires, outcome.evidence,
              row.incidents, outcome.digest_mismatches, row.elapsed_seconds);
  if (!outcome.passed) {
    std::fprintf(stderr, "  seed %llu: %s\n",
                 static_cast<unsigned long long>(row.seed),
                 outcome.failure.c_str());
  }
  rows_.push_back(std::move(row));
}

void ChaosMatrix::Fail(const std::string& why) {
  ++run_failures_;
  std::fprintf(stderr, "FAIL: %s\n", why.c_str());
}

RunTrace ChaosMatrix::CollectTrace() {
  RunTrace trace = Tracer::Global().Collect();
  Tracer::Global().Disable();
  std::printf("\n%s", trace.Summary().ToString().c_str());
  const Status written =
      WriteRunTrace(trace, spec_.trace_dir, spec_.trace_name);
  if (!written.ok()) {
    std::fprintf(stderr, "trace export failed: %s\n",
                 written.ToString().c_str());
  }
  return trace;
}

int ChaosMatrix::failures() const {
  int failed = run_failures_;
  for (const ChaosRow& row : rows_) failed += row.outcome.passed ? 0 : 1;
  return failed;
}

int ChaosMatrix::exercised() const {
  return static_cast<int>(std::count_if(
      rows_.begin(), rows_.end(),
      [](const ChaosRow& row) { return !row.drill && row.exercised; }));
}

int ChaosMatrix::undisturbed() const {
  return static_cast<int>(std::count_if(
      rows_.begin(), rows_.end(),
      [](const ChaosRow& row) { return !row.drill && !row.exercised; }));
}

int ChaosMatrix::drills() const {
  return static_cast<int>(
      std::count_if(rows_.begin(), rows_.end(),
                    [](const ChaosRow& row) { return row.drill; }));
}

int ChaosMatrix::incident_dumps() const {
  int dumps = 0;
  for (const ChaosRow& row : rows_) dumps += row.incidents;
  return dumps;
}

int ChaosMatrix::dumps_with_reason(const std::string& reason) const {
  const auto it = dumps_by_reason_.find(reason);
  return it == dumps_by_reason_.end() ? 0 : it->second;
}

std::string ChaosMatrix::ReportJson(
    const std::vector<std::pair<std::string, int64_t>>& extra) const {
  std::string out = "{\n";
  out += "  \"benchmark\": \"" + JsonEscape(spec_.benchmark) + "\",\n";
  out += "  \"scenarios\": " + std::to_string(rows_.size()) + ",\n";
  out += "  \"exercised\": " + std::to_string(exercised()) + ",\n";
  out += "  \"undisturbed\": " + std::to_string(undisturbed()) + ",\n";
  out += "  \"drills\": " + std::to_string(drills()) + ",\n";
  out += "  \"failures\": " + std::to_string(failures()) + ",\n";
  out += "  \"incident_dumps\": " + std::to_string(incident_dumps()) + ",\n";
  for (const auto& [name, value] : extra) {
    out += "  \"" + JsonEscape(name) + "\": " + std::to_string(value) + ",\n";
  }
  out += "  \"total_seconds\": " + std::to_string(total_.ElapsedSeconds()) +
         ",\n";
  out += "  \"matrix\": [\n";
  for (size_t i = 0; i < rows_.size(); ++i) {
    const ChaosRow& row = rows_[i];
    out += "    {\"site\": \"" + JsonEscape(row.site) + "\", \"kind\": \"" +
           JsonEscape(row.kind) + "\", \"seed\": " + std::to_string(row.seed) +
           ", \"exercised\": " + (row.exercised ? "true" : "false") +
           (row.drill ? ", \"drill\": true" : "") +
           ", \"passed\": " + (row.outcome.passed ? "true" : "false") +
           ", \"fires\": " + std::to_string(row.outcome.fires) +
           ", \"evidence\": " + std::to_string(row.outcome.evidence) +
           ", \"incidents\": " + std::to_string(row.incidents) +
           ", \"digest_mismatches\": " +
           std::to_string(row.outcome.digest_mismatches) +
           ", \"failure\": \"" + JsonEscape(row.outcome.failure) + "\"}";
    out += i + 1 < rows_.size() ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}

int ChaosMatrix::Finish(
    const std::string& report_path,
    const std::vector<std::pair<std::string, int64_t>>& extra) {
  const Status written = AtomicWriteFile(report_path, ReportJson(extra));
  if (!written.ok()) {
    std::fprintf(stderr, "report write failed: %s\n",
                 written.ToString().c_str());
  }
  std::string extras;
  for (const auto& [name, value] : extra) {
    extras += ", " + name + "=" + std::to_string(value);
  }
  std::printf("\n%zu scenarios (%d exercised, %d undisturbed, %d drills), "
              "%d failures, %d incident dumps%s, %.1fs\n",
              rows_.size(), exercised(), undisturbed(), drills(), failures(),
              incident_dumps(), extras.c_str(), total_.ElapsedSeconds());
  return failures() == 0 ? 0 : 1;
}

}  // namespace activedp
