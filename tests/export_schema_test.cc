// Export-schema tests: every machine-readable artifact the OpsPlane emits
// — Chrome trace JSON, the metrics JSON / Prometheus text expositions, the
// SLO status JSON, and incident dump manifests — parses under a strict
// checker, and the readers reject malformed or truncated inputs instead of
// mis-parsing them. These are the formats external tooling (Perfetto, a
// Prometheus scraper, the incident CLI in README.md) consumes, so schema
// drift must fail a test, not a dashboard.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "json_checker.h"
#include "obs/flight_recorder.h"
#include "obs/slo.h"
#include "util/atomic_file.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace activedp {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

RunTrace SampleTrace() {
  Tracer::Global().Enable();
  {
    TraceSpan outer("schema.outer");
    outer.AddArg("rows", 3);
    TraceSpan inner("schema.inner");
    TraceInstant("fault", "schema.site", "kind=error");
  }
  RunTrace trace = Tracer::Global().Collect();
  Tracer::Global().Disable();
  return trace;
}

TEST(ExportSchemaTest, ChromeTraceJsonParses) {
  const RunTrace trace = SampleTrace();
  const std::string chrome = trace.ToChromeJson();
  EXPECT_TRUE(JsonChecker::Valid(chrome)) << chrome.substr(0, 200);
  EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\": \"i\""), std::string::npos);
  // Every JSONL line is itself a JSON object.
  std::istringstream lines(trace.ToJsonl());
  int checked = 0;
  for (std::string line; std::getline(lines, line);) {
    if (line.empty()) continue;
    EXPECT_TRUE(JsonChecker::Valid(line)) << line;
    ++checked;
  }
  EXPECT_GT(checked, 0);
  EXPECT_TRUE(JsonChecker::Valid(trace.Summary().ToJson()));
}

TEST(ExportSchemaTest, MetricsJsonAndPrometheusTextParse) {
  MetricsRegistry registry;
  registry.counter("schema.requests").Increment();
  registry.counter("schema.requests", {{"phase", "open"}}).Increment();
  registry.gauge("schema.age_seconds").Set(12.5);
  registry.histogram("schema.latency_ms", {{"phase", "closed"}}, {1, 5, 10})
      .Observe(3.0);

  const std::string json = registry.ToJson();
  EXPECT_TRUE(JsonChecker::Valid(json)) << json;
  EXPECT_NE(json.find("schema.requests{phase="), std::string::npos) << json;

  const std::string prom = registry.ToPrometheusText();
  // Prometheus text exposition v0.0.4: "# TYPE" headers, sanitized names,
  // counters suffixed _total, histograms as cumulative _bucket/_sum/_count.
  EXPECT_NE(prom.find("# TYPE activedp_schema_requests_total counter"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("activedp_schema_requests_total{phase=\"open\"} 1"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE activedp_schema_latency_ms histogram"),
            std::string::npos);
  EXPECT_NE(prom.find("_bucket{"), std::string::npos);
  EXPECT_NE(prom.find("le=\"+Inf\""), std::string::npos);
  EXPECT_NE(prom.find("activedp_schema_latency_ms_count{"), std::string::npos);
  // Every non-comment line is "<name>{labels}? <value>".
  static const std::regex kSeries(
      R"(^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9eE+.inf]+$)");
  std::istringstream lines(prom);
  for (std::string line; std::getline(lines, line);) {
    if (line.empty() || line[0] == '#') continue;
    EXPECT_TRUE(std::regex_match(line, kSeries)) << line;
  }
}

TEST(ExportSchemaTest, SloStatusJsonParses) {
  SloEngine engine(DefaultServingSlos());
  MetricsSnapshot snapshot;
  snapshot.counters.push_back({"serve.requests", {}, 100});
  engine.TickWithSnapshot(0, snapshot);
  snapshot.counters[0].value = 200;
  engine.TickWithSnapshot(10'000'000, snapshot);
  const std::string json = engine.StatusJson();
  EXPECT_TRUE(JsonChecker::Valid(json)) << json;
  EXPECT_NE(json.find("\"all_met\""), std::string::npos);
  EXPECT_NE(json.find("\"burn_short\""), std::string::npos);
}

class IncidentDumpFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = FreshDir("schema_incident");
    FlightRecorder::Global().Enable({.incident_dir = dir_});
    TraceInstant("test", "schema_trigger", "cause=test");
    Result<std::string> dump =
        FlightRecorder::Global().TriggerIncident("schema.reason");
    ASSERT_TRUE(dump.ok()) << dump.status().ToString();
    dump_ = *dump;
    FlightRecorder::Global().Disable();
  }

  std::string ReadRaw(const std::string& name) {
    std::ifstream in(dump_ + "/" + name, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  }

  void WriteRaw(const std::string& name, const std::string& content) {
    std::ofstream out(dump_ + "/" + name, std::ios::trunc | std::ios::binary);
    out << content;
  }

  std::string dir_;
  std::string dump_;
};

TEST_F(IncidentDumpFixture, ManifestAndPayloadsParse) {
  ASSERT_TRUE(VerifyIncidentDump(dump_).ok());
  const Result<IncidentManifest> manifest = ReadIncidentManifest(dump_);
  ASSERT_TRUE(manifest.ok());
  EXPECT_EQ(manifest->reason, "schema.reason");
  EXPECT_FALSE(manifest->files.empty());

  // Checksummed payloads are themselves schema-clean: the manifest and
  // metrics files are JSON, the timeline is JSONL.
  const Result<std::string> manifest_text =
      ReadFileVerifyingChecksum(dump_ + "/MANIFEST.json");
  ASSERT_TRUE(manifest_text.ok());
  EXPECT_TRUE(JsonChecker::Valid(*manifest_text)) << *manifest_text;
  const Result<std::string> metrics_text =
      ReadFileVerifyingChecksum(dump_ + "/metrics.json");
  ASSERT_TRUE(metrics_text.ok());
  EXPECT_TRUE(JsonChecker::Valid(*metrics_text));
  const Result<std::string> timeline =
      ReadFileVerifyingChecksum(dump_ + "/timeline.jsonl");
  ASSERT_TRUE(timeline.ok());
  std::istringstream lines(*timeline);
  for (std::string line; std::getline(lines, line);) {
    if (line.empty()) continue;
    EXPECT_TRUE(JsonChecker::Valid(line)) << line;
  }
}

TEST_F(IncidentDumpFixture, TruncatedManifestIsRejected) {
  const std::string original = ReadRaw("MANIFEST.json");
  WriteRaw("MANIFEST.json", original.substr(0, original.size() / 2));
  EXPECT_FALSE(VerifyIncidentDump(dump_).ok());
  EXPECT_FALSE(ReadIncidentManifest(dump_).ok());
}

TEST_F(IncidentDumpFixture, FlippedTimelineByteIsRejected) {
  std::string timeline = ReadRaw("timeline.jsonl");
  ASSERT_FALSE(timeline.empty());
  timeline[timeline.size() / 3] ^= 0x20;
  WriteRaw("timeline.jsonl", timeline);
  EXPECT_FALSE(VerifyIncidentDump(dump_).ok());
}

TEST_F(IncidentDumpFixture, MissingListedFileIsRejected) {
  std::filesystem::remove(dump_ + "/metrics.json");
  EXPECT_FALSE(VerifyIncidentDump(dump_).ok());
}

TEST_F(IncidentDumpFixture, GarbageManifestIsRejectedNotMisparsed) {
  WriteRaw("MANIFEST.json", "not json at all {{{");
  EXPECT_FALSE(ReadIncidentManifest(dump_).ok());
  EXPECT_FALSE(VerifyIncidentDump(dump_).ok());
}

TEST(ExportSchemaTest, WriteRunTraceEmitsChecksummedTriple) {
  const std::string dir = FreshDir("schema_run_trace");
  const RunTrace trace = SampleTrace();
  ASSERT_TRUE(WriteRunTrace(trace, dir, "SCHEMA").ok());
  for (const std::string name :
       {"SCHEMA.trace.jsonl", "SCHEMA.trace.chrome.json",
        "SCHEMA.trace.summary.json"}) {
    const Result<std::string> content =
        ReadFileVerifyingChecksum(dir + "/" + name);
    EXPECT_TRUE(content.ok()) << name;
  }
}

}  // namespace
}  // namespace activedp
