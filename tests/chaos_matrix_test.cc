// ChaosMatrix tests (obs/chaos_matrix.h): the fault-matrix runner shared by
// chaos_sweep, serve_chaos and learn_chaos, driven with fake in-process
// scenario callbacks so no training is needed. Covers the fire-accounting
// rule, the per-cell incident verification, the exercised / undisturbed /
// drill counts, and the JSON report's escaping.

#include "obs/chaos_matrix.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "json_checker.h"
#include "obs/flight_recorder.h"
#include "util/atomic_file.h"
#include "util/fault.h"
#include "util/trace.h"

namespace activedp {
namespace {

constexpr uint32_t kErrorOnly = FaultKindBit(FaultKind::kError);

/// Stands in for a trained fixture: the scenario reads what to report.
struct FakeFixture {
  int fires = 0;
  int evidence = 0;
};

class ChaosMatrixTest : public ::testing::Test {
 protected:
  void TearDown() override {
    FlightRecorder::Global().Disable();
    Tracer::Global().Disable();
  }

  ChaosMatrixSpec Spec(const std::string& name,
                       std::vector<ChaosSite> sites) const {
    ChaosMatrixSpec spec;
    spec.benchmark = name;
    spec.sites = std::move(sites);
    spec.kinds = {FaultKind::kError, FaultKind::kNan};
    spec.incident_root = testing::TempDir() + "/chaos_matrix_" + name;
    return spec;
  }

  /// One cell per (site, kind) reporting `fires` and `evidence`.
  static std::function<ChaosOutcome(const ChaosSite&, FaultKind)> Reporting(
      int fires, int evidence) {
    return [fires, evidence](const ChaosSite&, FaultKind) {
      ChaosOutcome outcome;
      outcome.fires = fires;
      outcome.evidence = evidence;
      return outcome;
    };
  }

  static const ChaosRow& Row(const ChaosMatrix& matrix,
                             const std::string& kind) {
    for (const ChaosRow& row : matrix.rows()) {
      if (row.kind == kind) return row;
    }
    ADD_FAILURE() << "no row for kind " << kind;
    return matrix.rows().front();
  }
};

TEST_F(ChaosMatrixTest, UnhonoredKindThatFiresFails) {
  ChaosMatrix matrix(Spec("unhonored", {{"site.a", kErrorOnly}}));
  matrix.RunSeed(0, 1, Reporting(/*fires=*/1, /*evidence=*/1));
  ASSERT_EQ(matrix.rows().size(), 2u);
  EXPECT_TRUE(Row(matrix, "error").outcome.passed);
  const ChaosRow& nan = Row(matrix, "nan");
  EXPECT_FALSE(nan.outcome.passed);
  EXPECT_NE(nan.outcome.failure.find("unhonored kind fired"),
            std::string::npos)
      << nan.outcome.failure;
  EXPECT_EQ(matrix.failures(), 1);
}

TEST_F(ChaosMatrixTest, HonoredKindWithZeroFiresFails) {
  ChaosMatrix matrix(Spec("zero_fires", {{"site.a", kErrorOnly}}));
  matrix.RunSeed(0, 1, Reporting(/*fires=*/0, /*evidence=*/0));
  const ChaosRow& error = Row(matrix, "error");
  EXPECT_FALSE(error.outcome.passed);
  EXPECT_NE(error.outcome.failure.find("never exercised"), std::string::npos)
      << error.outcome.failure;
  // The unhonored kind stayed quiet, which is exactly what it must do.
  EXPECT_TRUE(Row(matrix, "nan").outcome.passed);
  EXPECT_EQ(matrix.failures(), 1);
}

TEST_F(ChaosMatrixTest, FiresWithoutEvidenceFail) {
  ChaosMatrix matrix(Spec("no_evidence", {{"site.a", kErrorOnly}}));
  matrix.RunSeed(0, 1, [](const ChaosSite& site, FaultKind kind) {
    ChaosOutcome outcome;
    if (site.Honors(kind)) outcome.fires = 2;  // handled silently
    return outcome;
  });
  const ChaosRow& error = Row(matrix, "error");
  EXPECT_FALSE(error.outcome.passed);
  EXPECT_NE(error.outcome.failure.find("no evidence"), std::string::npos)
      << error.outcome.failure;
  EXPECT_TRUE(Row(matrix, "nan").outcome.passed);
}

/// A cell that quarantines: emits the trigger's trace instant, then dumps.
ChaosOutcome Quarantining(const ChaosSite& site, FaultKind kind) {
  ChaosOutcome outcome;
  if (!site.Honors(kind)) return outcome;
  outcome.fires = 1;
  outcome.evidence = 1;
  TraceInstant("fault", "retrain.quarantine", "segment-0: injected");
  EXPECT_TRUE(
      FlightRecorder::Global().TriggerIncident("retrain.quarantine").ok());
  return outcome;
}

TEST_F(ChaosMatrixTest, UnexpectedIncidentDumpFails) {
  ChaosMatrix matrix(Spec("unexpected_dump", {{"site.a", kErrorOnly}}));
  matrix.RunSeed(0, 1, Quarantining);
  const ChaosRow& error = Row(matrix, "error");
  EXPECT_EQ(error.incidents, 1);
  EXPECT_FALSE(error.outcome.passed);
  EXPECT_NE(error.outcome.failure.find("unexpected \"retrain.quarantine\""),
            std::string::npos)
      << error.outcome.failure;
  EXPECT_EQ(matrix.dumps_with_reason("retrain.quarantine"), 0);
}

TEST_F(ChaosMatrixTest, ExpectedIncidentDumpIsVerifiedAndMissingOneFails) {
  ChaosMatrixSpec spec = Spec("expected_dump", {{"site.a", kErrorOnly}});
  spec.expected_incidents = [](const ChaosSite&, FaultKind) {
    return std::vector<std::string>{"retrain.quarantine"};
  };
  ChaosMatrix matrix(spec);
  matrix.RunSeed(0, 1, Quarantining);
  const ChaosRow& error = Row(matrix, "error");
  EXPECT_TRUE(error.outcome.passed) << error.outcome.failure;
  EXPECT_EQ(error.incidents, 1);
  EXPECT_EQ(matrix.dumps_with_reason("retrain.quarantine"), 1);
  // The cell lands in <incident_root>/<site>-<kind>-seed<s>.
  EXPECT_EQ(ListIncidentDumps(spec.incident_root + "/site.a-error-seed0")
                .size(),
            1u);
  // The policy expects a dump from the undisturbed cell too; none came.
  const ChaosRow& nan = Row(matrix, "nan");
  EXPECT_FALSE(nan.outcome.passed);
  EXPECT_NE(nan.outcome.failure.find("no \"retrain.quarantine\" incident"),
            std::string::npos)
      << nan.outcome.failure;
}

/// A drill whose trigger fires one deadline-storm incident.
ChaosOutcome DeadlineStorm() {
  ChaosOutcome outcome;
  outcome.fires = 8;
  TraceInstant("serve", "deadline_storm", "8 deadline failures");
  EXPECT_TRUE(
      FlightRecorder::Global().TriggerIncident("serve.deadline_storm").ok());
  return outcome;
}

TEST_F(ChaosMatrixTest, CountsExercisedUndisturbedAndDrillsAcrossSeeds) {
  ChaosMatrix matrix(Spec(
      "counts",
      {{"site.a", kErrorOnly},
       {"site.b", kErrorOnly | FaultKindBit(FaultKind::kNan)},
       {"site.c", 0}}));
  std::vector<uint64_t> seeds;
  const Status swept = matrix.Run<FakeFixture>(
      /*num_seeds=*/2, /*base_seed=*/7,
      [](uint64_t) -> Result<FakeFixture> { return FakeFixture{1, 1}; },
      [](const FakeFixture& fixture, const ChaosSite& site, FaultKind kind,
         uint64_t) {
        ChaosOutcome outcome;
        if (site.Honors(kind)) {
          outcome.fires = fixture.fires;
          outcome.evidence = fixture.evidence;
        }
        return outcome;
      },
      [&](const FakeFixture&, int seed_index, uint64_t seed) {
        seeds.push_back(seed);
        if (seed_index != 0) return;
        matrix.RunDrill("drill.storm", "expired", seed_index, seed,
                        "serve.deadline_storm", DeadlineStorm);
      });
  ASSERT_TRUE(swept.ok()) << swept.ToString();
  EXPECT_EQ(seeds, (std::vector<uint64_t>{7, 7 + 1000003ULL}));

  // 3 sites × 2 kinds × 2 seeds = 12 cells; honored pairs: a×error,
  // b×error, b×nan → 3 per seed. Plus one drill.
  EXPECT_EQ(matrix.rows().size(), 13u);
  EXPECT_EQ(matrix.exercised(), 6);
  EXPECT_EQ(matrix.undisturbed(), 6);
  EXPECT_EQ(matrix.drills(), 1);
  EXPECT_EQ(matrix.failures(), 0);
  EXPECT_EQ(matrix.incident_dumps(), 1);
  const ChaosRow& drill = matrix.rows()[6];
  EXPECT_TRUE(drill.drill);
  EXPECT_EQ(drill.outcome.evidence, 1);  // the verified dump

  const std::string json = matrix.ReportJson({{"extra_count", 42}});
  EXPECT_TRUE(JsonChecker::Valid(json)) << json;
  for (const char* field :
       {"\"scenarios\": 13", "\"exercised\": 6", "\"undisturbed\": 6",
        "\"drills\": 1", "\"failures\": 0", "\"incident_dumps\": 1",
        "\"extra_count\": 42", "\"drill\": true"}) {
    EXPECT_NE(json.find(field), std::string::npos) << field << "\n" << json;
  }
  matrix.Fail("run-level check");
  EXPECT_EQ(matrix.failures(), 1);

  const std::string path = testing::TempDir() + "/chaos_matrix_counts.json";
  EXPECT_EQ(matrix.Finish(path, {}), 1);
  const Result<std::string> written = ReadFileVerifyingChecksum(path);
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  EXPECT_TRUE(JsonChecker::Valid(*written));
}

TEST_F(ChaosMatrixTest, FixtureBuildFailureStopsTheRun) {
  ChaosMatrix matrix(Spec("bad_fixture", {{"site.a", kErrorOnly}}));
  const Status swept = matrix.Run<FakeFixture>(
      2, 1,
      [](uint64_t) -> Result<FakeFixture> {
        return Status::NotFound("no such dataset");
      },
      [](const FakeFixture&, const ChaosSite&, FaultKind, uint64_t) {
        return ChaosOutcome{};
      });
  EXPECT_FALSE(swept.ok());
  EXPECT_NE(swept.ToString().find("no such dataset"), std::string::npos);
  EXPECT_TRUE(matrix.rows().empty());
}

TEST_F(ChaosMatrixTest, ReportEscapesQuotesAndBackslashes) {
  ChaosMatrix matrix(Spec("escaping", {{"site \"q\" \\ path", kErrorOnly}}));
  matrix.RunSeed(0, 1, [](const ChaosSite&, FaultKind) {
    ChaosOutcome outcome;
    outcome.Fail("status \"Internal: C:\\tmp\\x\"\nsecond line");
    return outcome;
  });
  ASSERT_EQ(matrix.failures(), 2);
  const std::string json = matrix.ReportJson({{"weird \"key\"", 1}});
  EXPECT_TRUE(JsonChecker::Valid(json)) << json;
  EXPECT_NE(json.find("site \\\"q\\\" \\\\ path"), std::string::npos) << json;
  EXPECT_NE(json.find("C:\\\\tmp\\\\x"), std::string::npos) << json;
}

}  // namespace
}  // namespace activedp
