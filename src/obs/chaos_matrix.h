#ifndef ACTIVEDP_OBS_CHAOS_MATRIX_H_
#define ACTIVEDP_OBS_CHAOS_MATRIX_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/fault.h"
#include "util/result.h"
#include "util/timer.h"
#include "util/trace.h"

namespace activedp {

/// One fault site of a chaos matrix and the fault kinds it can express.
/// Each subsystem declares its own table (the pipeline sites in
/// bench/chaos_sweep, serve.* in bench/serve_chaos, the LearnGuard sites
/// in bench/learn_chaos); the runner sweeps every (site, kind) pair and
/// checks the declaration against what actually fired.
struct ChaosSite {
  const char* name;
  uint32_t honored;  // FaultKindBit mask

  bool Honors(FaultKind kind) const {
    return (FaultKindBit(kind) & honored) != 0;
  }
};

/// What one scenario observed. The scenario fills it in; the runner adds
/// the fire accounting and the incident checks (ChaosMatrix::RunSeed).
struct ChaosOutcome {
  bool passed = true;
  std::string failure;
  /// Injected-fault fires observed by the armed site.
  int fires = 0;
  /// Pieces of evidence the fault was handled: retries, degradations,
  /// clean rejections, detected corruption, quarantines, rollbacks,
  /// absorbed latency spikes.
  int evidence = 0;
  /// Served responses on the surviving path whose digest diverged from the
  /// offline prediction of the snapshot that should be serving. Must be 0.
  int digest_mismatches = 0;

  void Fail(const std::string& why);
};

/// One report row: a matrix cell or a harness drill.
struct ChaosRow {
  std::string site;
  std::string kind;
  uint64_t seed = 0;
  /// Matrix cell whose site honors the kind: a fault was really injected.
  /// False for "unhonored kind leaves things undisturbed" cells and drills.
  bool exercised = false;
  /// A harness drill outside the site × kind matrix.
  bool drill = false;
  /// Incident dumps the cell left under its incident directory.
  int incidents = 0;
  double elapsed_seconds = 0.0;
  ChaosOutcome outcome;
};

/// The incident reasons one matrix cell must dump, each exactly once (the
/// flight recorder's per-reason cooldown allows no more). Empty: the cell
/// must dump nothing.
using ChaosIncidentPolicy = std::function<std::vector<std::string>(
    const ChaosSite& site, FaultKind kind)>;

struct ChaosMatrixSpec {
  /// Report name ("serve_chaos", ...).
  std::string benchmark{};
  std::vector<ChaosSite> sites{};
  std::vector<FaultKind> kinds{};
  /// Per-cell incident directories land under here; wiped by the
  /// constructor so counts are per run.
  std::string incident_root{};
  /// Null: no cell may dump.
  ChaosIncidentPolicy expected_incidents{};
  /// The run's RunTrace export: `<trace_dir>/<trace_name>.trace.*`.
  std::string trace_dir{};
  std::string trace_name{};
};

/// The fault-matrix runner shared by chaos_sweep, serve_chaos and
/// learn_chaos (DESIGN.md §7). It owns what the three harnesses have in
/// common: the seed loop, the site × kind sweep, a flight recorder armed
/// per cell into `<incident_root>/<site>-<kind>-seed<s>`, one
/// fire-accounting rule, the per-cell incident verification, the row
/// print, and the JSON report. A harness supplies a fixture builder, a
/// scenario callback, its incident policy and its run-level checks.
///
/// Fire accounting, applied to every cell after its scenario returns:
///   - an unhonored kind that fired fails the cell (the site table lies);
///   - an honored kind with 0 fires fails (the site was never exercised);
///   - fires with 0 evidence fail (the fault was silently swallowed).
///
/// Incident verification: every dump under the cell's directory must pass
/// VerifyIncidentDump, carry a manifest reason from the cell's expected set
/// (each expected reason exactly once), and hold the triggering instant in
/// its timeline.
///
/// The constructor resets the global metrics and enables the tracer;
/// CollectTrace() disables it again and exports the timeline, so
/// harnesses can assert on the trace instants the run left behind.
class ChaosMatrix {
 public:
  explicit ChaosMatrix(ChaosMatrixSpec spec);

  /// Builds one fixture per seed (`base_seed + 1000003 * s`) and sweeps
  /// every (site, kind) cell through `scenario`; `after_seed`, when set,
  /// runs the harness's own per-seed checks on the same fixture. Returns
  /// the first fixture-build failure.
  template <typename Fixture>
  Status Run(
      int num_seeds, uint64_t base_seed,
      const std::function<Result<Fixture>(uint64_t seed)>& build_fixture,
      const std::function<ChaosOutcome(const Fixture&, const ChaosSite&,
                                       FaultKind, uint64_t seed)>& scenario,
      const std::function<void(const Fixture&, int seed_index,
                               uint64_t seed)>& after_seed = {}) {
    for (int s = 0; s < num_seeds; ++s) {
      const uint64_t seed = base_seed + 1000003ULL * s;
      const Result<Fixture> fixture = build_fixture(seed);
      if (!fixture.ok()) {
        return Status::Internal("fixture build failed (seed " +
                                std::to_string(seed) +
                                "): " + fixture.status().ToString());
      }
      RunSeed(s, seed, [&](const ChaosSite& site, FaultKind kind) {
        return scenario(*fixture, site, kind, seed);
      });
      if (after_seed) after_seed(*fixture, s, seed);
    }
    return Status::Ok();
  }

  /// Sweeps every (site, kind) cell of one seed through `cell`.
  void RunSeed(
      int seed_index, uint64_t seed,
      const std::function<ChaosOutcome(const ChaosSite&, FaultKind)>& cell);

  /// Runs a harness drill outside the matrix under the same recorder
  /// arming and incident verification; the drill must dump
  /// `expected_reason` exactly once, and that verified dump is its
  /// evidence.
  void RunDrill(const std::string& site, const std::string& kind,
                int seed_index, uint64_t seed,
                const std::string& expected_reason,
                const std::function<ChaosOutcome()>& drill);

  /// Records a run-level failure (a harness check outside any row).
  void Fail(const std::string& why);

  /// Collects the run's trace, disables the tracer, prints the summary and
  /// exports it to the spec's trace_dir.
  RunTrace CollectTrace();

  /// Writes the JSON report (top-level counts, then `extra` fields, then
  /// one object per row) via AtomicWriteFile, prints the closing summary
  /// line, and returns the process exit code: 0 iff nothing failed.
  int Finish(const std::string& report_path,
             const std::vector<std::pair<std::string, int64_t>>& extra);

  /// The report JSON Finish() writes.
  std::string ReportJson(
      const std::vector<std::pair<std::string, int64_t>>& extra) const;

  const std::vector<ChaosRow>& rows() const { return rows_; }
  /// Failed rows plus run-level failures.
  int failures() const;
  int exercised() const;
  int undisturbed() const;
  int drills() const;
  int incident_dumps() const;
  /// Verified dumps with `reason` across all rows.
  int dumps_with_reason(const std::string& reason) const;

 private:
  /// Arms the recorder into `<incident_root>/<site>-<kind>-seed<s>`, runs
  /// `body`, disarms, verifies the dumps against `expected`, and records
  /// and prints the row.
  void RunRow(ChaosRow row, int seed_index,
              const std::vector<std::string>& expected,
              const std::function<ChaosOutcome()>& body);

  const ChaosMatrixSpec spec_;
  std::vector<ChaosRow> rows_;
  std::map<std::string, int> dumps_by_reason_;
  int run_failures_ = 0;
  Timer total_;
};

}  // namespace activedp

#endif  // ACTIVEDP_OBS_CHAOS_MATRIX_H_
