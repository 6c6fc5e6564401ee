// Labelling-and-serving benchmark for ActiveDP.
//
//   activedp_perfbench --workload <name> --seed <n> --seconds <s>
//                      --trace <0|1>
//
// Every workload runs the same three stages through public library calls:
//   setup     MakeZooDataset + FrameworkContext::Build + ActiveDp (setup_s),
//             sampled at intervals through the protocol stage
//   protocol  `sessions` ActiveDP sessions of the paper's protocol, each on
//             its own dataset draw from the seed (§4.1.3)
//   serving   snapshots A (step 60) and B (last step) of the last session,
//             served by a 2-shard, 8-tenant ShardRouter in a closed-loop
//             `light` phase and an open-loop `open` phase
// The workloads differ in dataset and in how the run divides between the
// stages, so each one is bound by a different layer (see BENCHMARK.json).
//
// With --trace 0 the last stdout line carries the end-to-end metrics; with
// --trace 1 every session is run a second time under the tracer and the
// line carries per-layer metrics. The line before it ("REPORT {...}") has
// the host fingerprint, sample counts, digests and failure breakdown.
// Progress goes to stderr.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common.h"
#include "protocol.h"
#include "serving.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

/// Compute-pool width for every stage: serial. On a shared 4-vCPU host a
/// two-worker pool made census protocol_s spread 27% between interleaved
/// identical runs (every parallel region waits for its slowest worker),
/// against 4% serial. Serving then runs PredictBatch inline on the shard
/// dispatchers, so the open phase keeps three busy threads: the generator
/// and two dispatchers.
constexpr int kComputeThreads = 1;
/// Run length the workload sizes below are written for; --seconds scales
/// the number of sessions and the serving phases from it.
constexpr double kNominalSeconds = 30.0;
/// serve.open_ms.p99 is the median of per-window p99s over windows of this
/// many requests (a quarter second at 40 000/s, 100 samples beyond each
/// p99).
constexpr size_t kOpenWindow = 10000;

struct Workload {
  std::string name;
  ProtocolConfig protocol;
  ServingConfig serving;
};

std::vector<Workload> Workloads() {
  std::vector<Workload> all;
  {
    // Label-model bound: 14 dense features, stump LFs that fire almost
    // everywhere, so MeTaL moments and LabelPick refits dominate Step().
    Workload w;
    w.name = "label_census";
    w.protocol.dataset = "census";
    w.protocol.scale = 0.25;
    w.protocol.sessions = 4;
    w.protocol.setup_every = 10;  // about 14 ms per setup
    w.serving.open_seconds = 2.0;
    all.push_back(w);
  }
  {
    // LR bound: 680-dim TF-IDF, the end model dominates the evaluations.
    Workload w;
    w.name = "label_imdb";
    w.protocol.dataset = "imdb";
    w.protocol.scale = 0.5;
    w.protocol.sessions = 6;
    w.protocol.setup_every = 50;  // about 0.3 s per setup
    w.serving.open_seconds = 2.0;
    all.push_back(w);
  }
  {
    // Request-path bound: a smaller training run, then long light and open
    // phases against the router.
    Workload w;
    w.name = "serve_imdb";
    w.protocol.dataset = "imdb";
    w.protocol.scale = 0.25;
    w.protocol.sessions = 4;
    w.protocol.setup_every = 20;  // about 0.14 s per setup
    w.serving.light_requests_per_client = 2000;
    w.serving.open_seconds = 5.0;
    all.push_back(w);
  }
  return all;
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  std::map<std::string, std::string> values;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) return false;
    values[key.substr(2)] = argv[++i];
  }
  for (const auto& [key, value] : values) {
    char* end = nullptr;
    if (key == "workload") {
      args->workload = value;
    } else if (key == "seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return false;
    } else if (key == "seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0.0)) return false;
    } else if (key == "trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0.0 && args->trace >= 0;
}

/// Scales the nominal workload to the requested run length. Session count
/// and request counts are a pure function of --seconds, so the same seed
/// and length always give the same inputs.
void ScaleToSeconds(double seconds, Workload* w) {
  const double f = seconds / kNominalSeconds;
  w->protocol.sessions =
      std::max(1, static_cast<int>(std::lround(w->protocol.sessions * f)));
  w->serving.light_requests_per_client =
      std::max(500, static_cast<int>(std::lround(
                        w->serving.light_requests_per_client * f)));
  w->serving.open_seconds = std::max(1.0, w->serving.open_seconds * f);
}

/// Golden digests, PERFBENCH_GOLDEN: "<workload> <seed> <sessions> <hex
/// digest>" per line, taken from the REPORT digest of runs of the same
/// arguments. Sets `digest` to the recorded one, or to an empty string when
/// none is recorded; returns false when the file cannot be read.
bool LookupGolden(const std::string& workload, uint64_t seed, int sessions,
                  std::string* digest) {
  std::ifstream in(PERFBENCH_GOLDEN);
  if (!in) return false;
  digest->clear();
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string name, recorded;
    uint64_t s = 0;
    int k = 0;
    if (!(fields >> name >> s >> k >> recorded)) continue;
    if (name == workload && s == seed && k == sessions) *digest = recorded;
  }
  return true;
}

std::string CountsJson(const std::vector<std::pair<std::string, size_t>>& c) {
  InfoSet info;
  for (const auto& [name, n] : c) info.Int(name, static_cast<int64_t>(n));
  return info.ToJson();
}

double TotalSelf(const std::map<std::string, LayerStat>& layers) {
  double total = 0.0;
  for (const auto& entry : layers) total += entry.second.self_s;
  return total;
}

/// Per-layer metrics of the traced passes: count and self time per session
/// and share of the traced protocol (or setup) time.
void AddLayerMetrics(const ProtocolOutcome& p, MetricSet* m, InfoSet* info) {
  const double sessions = static_cast<double>(p.traced_protocol_s.size());
  const double protocol_total = TotalSelf(p.protocol_layers);
  std::string top;
  double top_s = -1.0;
  for (const std::string& layer : ProtocolLayers()) {
    const auto it = p.protocol_layers.find(layer);
    const LayerStat stat =
        it == p.protocol_layers.end() ? LayerStat{} : it->second;
    if (layer == "protocol") {
      // The root's own time is what no named layer covers.
      m->Set("layers.covered_share", 1.0 - stat.self_s / protocol_total,
             "ratio");
      continue;
    }
    m->Set(layer + ".count", stat.count / sessions, "count");
    m->Set(layer + ".self_s", stat.self_s / sessions, "s");
    m->Set(layer + ".share", stat.self_s / protocol_total, "ratio");
    if (stat.self_s > top_s) {
      top = layer;
      top_s = stat.self_s;
    }
  }
  info->Str("top_self_layer", top);
  m->Set("metal.fits.count", p.metal_fits / sessions, "count");
  m->Set("lr.epochs.count", p.lr_epochs / sessions, "count");

  const double setups = static_cast<double>(p.traced_setup_s.size());
  const double setup_total = TotalSelf(p.setup_layers);
  for (const std::string& layer : SetupLayers()) {
    if (layer == "setup") continue;
    const auto it = p.setup_layers.find(layer);
    const double self_s = it == p.setup_layers.end() ? 0.0 : it->second.self_s;
    m->Set(layer + ".self_s", self_s / setups, "s");
    m->Set(layer + ".share", self_s / setup_total, "ratio");
  }

  const double traced = p.traced_protocol_s.Mean();
  const double untraced = p.protocol_s.Mean();
  m->Set("trace.protocol_s.traced", traced, "s");
  m->Set("trace.protocol_s.untraced", untraced, "s");
  m->Set("trace.overhead_ratio", traced / untraced, "ratio");
}

void AddServingLayerMetrics(const ServingOutcome& s, MetricSet* m) {
  // Tails. They follow the host's timer wake-up latency and stalls more
  // than the router, so they are reported without a bound.
  m->Set("serve.light_ms.p99", s.light_ms.Quantile(0.99), "ms");
  m->Set("serve.open_ms.p99", s.open_ms.WindowedQuantile(0.99, kOpenWindow),
         "ms");
  m->Set("serve.open_ms.p99_all", s.open_ms.Quantile(0.99), "ms");
  m->Set("serve.admit_us.p50", s.admit_us.Quantile(0.5), "us");
  m->Set("serve.admit_us.p99", s.admit_us.Quantile(0.99), "us");
  m->Set("serve.gen_late_ms.p99", s.gen_late_ms.Quantile(0.99), "ms");
  m->Set("serve.gen_late_ms.max", s.gen_late_ms.Max(), "ms");
  m->Set("serve.open.achieved_rps", s.achieved_rps, "1/s");
  const auto phase = [&](const std::string& name, const BatchStats& b,
                         const Samples& latency) {
    m->Set("serve." + name + ".batch_size.mean", b.batch_size_mean, "count");
    m->Set("serve." + name + ".batches.count", static_cast<double>(b.batches),
           "count");
    m->Set("serve." + name + ".batch_ms.p50", b.batch_ms_p50, "ms");
    // Derived: the part of the median request not spent computing its batch
    // (admission, queue wait, dispatch and reply delivery).
    m->Set("serve." + name + ".queue_ms.p50",
           latency.Median() - b.batch_ms_p50, "ms");
  };
  phase("light", s.light_batches, s.light_ms);
  phase("open", s.open_batches, s.open_ms);
  m->Set("snapshot.predict_us_per_row", s.predict_us_per_row, "us");
}

int Run(const Args& args) {
  Workload workload;
  bool found = false;
  for (const Workload& w : Workloads()) {
    if (w.name == args.workload) {
      workload = w;
      found = true;
    }
  }
  if (!found) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  ScaleToSeconds(args.seconds, &workload);
  workload.protocol.traced = args.trace == 1;
  activedp::SetComputePoolThreads(kComputeThreads);

  std::string golden;
  if (!LookupGolden(workload.name, args.seed, workload.protocol.sessions,
                    &golden)) {
    std::fprintf(stderr, "cannot read golden digests %s\n", PERFBENCH_GOLDEN);
    return 1;
  }
  if (golden.empty()) {
    std::fprintf(stderr,
                 "[perfbench] no golden digest for %s seed %llu with %d "
                 "sessions: the run digest is not checked\n",
                 workload.name.c_str(),
                 static_cast<unsigned long long>(args.seed),
                 workload.protocol.sessions);
  }

  std::fprintf(stderr, "[perfbench] %s seed=%llu sessions=%d trace=%d\n",
               workload.name.c_str(),
               static_cast<unsigned long long>(args.seed),
               workload.protocol.sessions, args.trace);
  ProtocolOutcome protocol;
  std::string error;
  if (!RunProtocolWorkload(workload.protocol, args.seed, &protocol, &error)) {
    std::fprintf(stderr, "protocol: %s\n", error.c_str());
    return 1;
  }
  if (protocol.snapshot_a == nullptr || protocol.snapshot_b == nullptr) {
    std::fprintf(stderr, "snapshot export failed\n");
    return 1;
  }

  std::fprintf(stderr, "[perfbench] serving\n");
  ServingOutcome serving;
  RunServing(workload.serving, protocol.snapshot_a, protocol.snapshot_b,
             protocol.request_rows, args.seed, &serving);
  Digest workload_digest;
  for (uint64_t d : protocol.session_digests) workload_digest.U64(d);
  workload_digest.U64(serving.offline_digest);
  const std::string digest = Hex64(workload_digest.value());

  const bool golden_ok = golden.empty() || golden == digest;
  const bool correct = golden_ok && protocol.traced_digests_match &&
                       serving.mismatched == 0;

  const int64_t attempted =
      protocol.steps_attempted + protocol.evals_attempted +
      protocol.exports_attempted + serving.requests + serving.open_attempts;
  const int64_t failed =
      protocol.steps_failed + protocol.evals_failed + protocol.exports_failed +
      protocol.degradations + protocol.retries + serving.rejected +
      serving.expired + serving.errors + serving.mismatched +
      (serving.open_valid ? 0 : 1);

  MetricSet metrics;
  InfoSet report;
  report.Str("workload", workload.name);
  report.Int("seed", static_cast<int64_t>(args.seed));
  report.Num("seconds", args.seconds);
  report.Int("trace", args.trace);
  report.Raw("host", HostFingerprint().ToJson());
  report.Int("compute_pool_threads", activedp::ComputePoolThreads());
  report.Int("sessions", workload.protocol.sessions);
  report.Str("dataset", workload.protocol.dataset);
  report.Num("scale", workload.protocol.scale);
  report.Str("digest", digest);
  report.Str("golden", golden.empty() ? "unrecorded"
                                      : (golden_ok ? "match" : "MISMATCH"));
  report.Bool("traced_digests_match", protocol.traced_digests_match);
  {
    InfoSet failures;
    failures.Int("steps_failed", protocol.steps_failed);
    failures.Int("evals_failed", protocol.evals_failed);
    failures.Int("exports_failed", protocol.exports_failed);
    failures.Int("degradations", protocol.degradations);
    failures.Int("retries", protocol.retries);
    failures.Int("requests", serving.requests);
    failures.Int("rejected", serving.rejected);
    failures.Int("expired", serving.expired);
    failures.Int("errors", serving.errors);
    failures.Int("mismatched", serving.mismatched);
    report.Raw("failures", failures.ToJson());
  }
  {
    InfoSet open;
    open.Bool("valid", serving.open_valid);
    open.Int("attempts", serving.open_attempts);
    open.Num("offered_rps", serving.offered_rps);
    open.Num("achieved_rps", serving.achieved_rps);
    open.Num("gen_late_ms_p50", serving.gen_late_ms.Median());
    open.Num("gen_late_ms_p99", serving.gen_late_ms.Quantile(0.99));
    open.Num("gen_late_ms_max", serving.gen_late_ms.Max());
    open.Int("swaps", serving.swaps);
    report.Raw("open_phase", open.ToJson());
  }
  {
    std::string per_session = "[";
    for (double v : protocol.protocol_s.values()) {
      per_session += (per_session.size() > 1 ? ", " : "") + JsonNumber(v);
    }
    report.Raw("session_protocol_s", per_session + "]");
  }
  report.Raw("samples",
             CountsJson({{"setup_s", protocol.setup_s.size()},
                         {"setups_timed",
                          static_cast<size_t>(protocol.setups_timed)},
                         {"protocol_s", protocol.protocol_s.size()},
                         {"step_ms", protocol.step_ms.size()},
                         {"oracle.no_lf", static_cast<size_t>(
                                              protocol.no_lf_steps)},
                         {"eval_ms", protocol.eval_ms.size()},
                         {"test_acc", protocol.test_acc_avg.size()},
                         {"light_ms", serving.light_ms.size()},
                         {"open_ms", serving.open_ms.size()},
                         {"open_ms.p99_windows",
                          serving.open_ms.Windows(kOpenWindow)}}));

  if (args.trace == 0) {
    metrics.Set("setup_s", protocol.setup_s.Median(), "s");
    metrics.Set("protocol_s", protocol.protocol_s.Mean(), "s");
    metrics.Set("step_ms.p50", protocol.step_ms.Quantile(0.5), "ms");
    metrics.Set("step_ms.p90", protocol.step_ms.Quantile(0.9), "ms");
    metrics.Set("eval_ms.mean", protocol.eval_ms.Mean(), "ms");
    metrics.Set("test_acc.avg", protocol.test_acc_avg.Mean(), "ratio");
    metrics.Set("light_ms.p50", serving.light_ms.Quantile(0.5), "ms");
    metrics.Set("open_ms.p50", serving.open_ms.Quantile(0.5), "ms");
  } else {
    AddLayerMetrics(protocol, &metrics, &report);
    AddServingLayerMetrics(serving, &metrics);
  }

  std::printf("REPORT %s\n", report.ToJson().c_str());
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed), metrics.ToJson().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <label_census|label_imdb|serve_imdb> "
                 "--seed <n> --seconds <s> --trace <0|1>\n",
                 argv[0]);
    return 2;
  }
  activedp::SetMinLogSeverity(activedp::LogSeverity::kWarning);
  return perfbench::Run(args);
}
