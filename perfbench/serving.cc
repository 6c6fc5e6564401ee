#include "serving.h"

#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "serve/serve_config.h"
#include "serve/serve_types.h"
#include "serve/shard_router.h"
#include "util/check.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace perfbench {

using activedp::Example;
using activedp::MetricsRegistry;
using activedp::ModelSnapshot;
using activedp::Result;
using activedp::ServedPrediction;
using activedp::ServeReply;
using activedp::ServeRequest;
using activedp::ShardRouter;
using activedp::StatusCode;

namespace {

constexpr int kShards = 2;
constexpr int kTenants = 8;
/// Rows of the request mix: the session's test split, truncated.
constexpr int kMaxRows = 512;
constexpr int kLightClients = 2;
constexpr double kOpenRate = 40000.0;
constexpr double kSwapPeriodMs = 100.0;
/// The tenant whose snapshot the open phase swaps A <-> B. Under Zipf
/// popularity it is the second most requested tenant.
constexpr int kSwapTenant = 1;
/// The open phase is invalid (the generator, not the router, fell behind)
/// when it issues below this share of the offered rate or sends the median
/// request this late. Both catch a generator that lags its schedule, not a
/// host stall that delays generator and router alike (that shows in the
/// reported lateness p99 and max). An invalid phase is re-run once.
constexpr double kMinAchievedShare = 0.99;
constexpr double kMaxGenLateP50Ms = 0.5;
constexpr int kWarmupRequests = 200;
constexpr int kOfflineBatch = 32;

std::string TenantId(int t) { return "tenant-" + std::to_string(t); }

struct Slot {
  int tenant = 0;
  int row = 0;
};

/// Zipf(1.1) tenant popularity; each tenant walks the rows with its own
/// counter, so a tenant's rows do not depend on other tenants' draws.
std::vector<Slot> BuildSchedule(int tenants, int64_t n, int rows,
                                activedp::Rng& rng) {
  std::vector<double> weights(tenants);
  for (int t = 0; t < tenants; ++t) weights[t] = 1.0 / std::pow(t + 1.0, 1.1);
  std::vector<int> next_row(tenants, 0);
  std::vector<Slot> slots(static_cast<size_t>(n));
  for (Slot& slot : slots) {
    slot.tenant = rng.Discrete(weights);
    slot.row = next_row[slot.tenant]++ % rows;
  }
  return slots;
}

/// Bitwise equality (a rejected prediction has an empty `proba`).
bool SamePrediction(const ServedPrediction& a, const ServedPrediction& b) {
  return a.label == b.label && a.source == b.source &&
         a.proba.size() == b.proba.size() &&
         (a.proba.empty() ||
          std::memcmp(a.proba.data(), b.proba.data(),
                      a.proba.size() * sizeof(double)) == 0);
}

/// Offline predictions of both snapshots, and the rule for which of them a
/// tenant's reply may match.
struct Expected {
  std::vector<ServedPrediction> a;
  std::vector<ServedPrediction> b;
  int64_t failures = 0;  // rows PredictBatch itself rejected

  uint64_t Digest() const {
    perfbench::Digest digest;
    for (const auto* predictions : {&a, &b}) {
      for (const ServedPrediction& p : *predictions) {
        digest.I64(p.label);
        digest.I64(static_cast<int64_t>(p.source));
        for (double v : p.proba) digest.F64(v);
      }
    }
    return digest.value();
  }

  bool Matches(int tenant, int row, bool swapping,
               const ServedPrediction& served) const {
    const bool on_a = tenant % 2 == 0 || (swapping && tenant == kSwapTenant);
    const bool on_b = tenant % 2 == 1;
    return (on_a && SamePrediction(served, a[row])) ||
           (on_b && SamePrediction(served, b[row]));
  }
};

/// Counts one reply into the outcome; true when it is an OK, matching reply.
bool Tally(const ServeReply& reply, const Slot& slot, bool swapping,
           const Expected& expected, ServingOutcome* outcome) {
  ++outcome->requests;
  if (reply.ok()) {
    if (expected.Matches(slot.tenant, slot.row, swapping, reply.prediction)) {
      return true;
    }
    ++outcome->mismatched;
  } else if (reply.reject.has_value()) {
    ++outcome->rejected;
  } else if (reply.status.code() == StatusCode::kDeadlineExceeded) {
    ++outcome->expired;
  } else {
    ++outcome->errors;
  }
  return false;
}

BatchStats ReadBatchStats() {
  const activedp::MetricsSnapshot snapshot =
      MetricsRegistry::Global().Snapshot();
  BatchStats stats;
  stats.batches = snapshot.counter_value("serve.batches");
  if (const auto* sizes = snapshot.FindHistogram("serve.batch_size")) {
    if (sizes->count > 0) stats.batch_size_mean = sizes->sum / sizes->count;
  }
  if (const auto* latency = snapshot.FindHistogram("serve.batch_latency_ms")) {
    stats.batch_ms_p50 = latency->Quantile(0.5);
  }
  return stats;
}

std::vector<ServedPrediction> Offline(const ModelSnapshot& snapshot,
                                      const std::vector<Example>& rows,
                                      int64_t* failures) {
  std::vector<ServedPrediction> out;
  out.reserve(rows.size());
  for (Result<ServedPrediction>& result : snapshot.PredictBatch(rows)) {
    if (!result.ok()) ++*failures;
    out.push_back(result.ok() ? std::move(*result) : ServedPrediction{});
  }
  return out;
}

Expected BuildExpected(const ModelSnapshot& a, const ModelSnapshot& b,
                       const std::vector<Example>& rows) {
  Expected expected;
  expected.a = Offline(a, rows, &expected.failures);
  expected.b = Offline(b, rows, &expected.failures);
  return expected;
}

/// Median per-row cost of offline PredictBatch over 32-row batches of the
/// request mix, alternating the two snapshots.
double OfflinePredictUsPerRow(const ModelSnapshot& a, const ModelSnapshot& b,
                              const std::vector<Example>& rows) {
  std::vector<std::vector<Example>> batches;
  for (size_t begin = 0; begin < rows.size(); begin += kOfflineBatch) {
    const size_t end = std::min(rows.size(), begin + kOfflineBatch);
    batches.emplace_back(rows.begin() + begin, rows.begin() + end);
  }
  Samples per_row_us;
  const Clock::time_point start = Clock::now();
  while (per_row_us.size() < 5 ||
         SecondsBetween(start, Clock::now()) < 0.2) {
    const Clock::time_point pass = Clock::now();
    size_t predicted = 0;
    for (const ModelSnapshot* snapshot : {&a, &b}) {
      for (const std::vector<Example>& batch : batches) {
        predicted += snapshot->PredictBatch(batch).size();
      }
    }
    per_row_us.Add(SecondsBetween(pass, Clock::now()) * 1e6 /
                   static_cast<double>(predicted));
  }
  return per_row_us.Median();
}

void RunLight(ShardRouter& router, const std::vector<Slot>& slots,
              const std::vector<Example>& rows, const Expected& expected,
              ServingOutcome* outcome) {
  const size_t n = slots.size();
  std::vector<std::optional<ServeReply>> replies(n);
  std::vector<double> latency_ms(n, 0.0);
  MetricsRegistry::Global().ResetAll();
  std::vector<std::thread> clients;
  for (int c = 0; c < kLightClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t i = c; i < n; i += kLightClients) {
        ServeRequest request;
        request.tenant_id = TenantId(slots[i].tenant);
        request.example = rows[slots[i].row];
        const Clock::time_point sent = Clock::now();
        ServeReply reply = router.Predict(std::move(request));
        latency_ms[i] = SecondsBetween(sent, Clock::now()) * 1e3;
        replies[i] = std::move(reply);
      }
    });
  }
  for (std::thread& client : clients) client.join();
  outcome->light_batches = ReadBatchStats();
  for (size_t i = 0; i < n; ++i) {
    if (Tally(*replies[i], slots[i], /*swapping=*/false, expected, outcome)) {
      outcome->light_ms.Add(latency_ms[i]);
    }
  }
}

/// Toggles one tenant between two snapshots every `period_ms` until
/// destroyed; the destructor stops and joins the thread.
class Swapper {
 public:
  Swapper(ShardRouter& router,
          std::shared_ptr<const ModelSnapshot> a,
          std::shared_ptr<const ModelSnapshot> b, double period_ms)
      : thread_([this, &router, a, b, period_ms] {
          const auto period = std::chrono::duration<double, std::milli>(
              period_ms);
          bool on_a = false;
          std::unique_lock<std::mutex> lock(mutex_);
          while (!cv_.wait_for(lock, period, [this] { return stop_; })) {
            on_a = !on_a;
            CHECK(router.SetTenantSnapshot(TenantId(kSwapTenant),
                                           on_a ? a : b)
                      .ok());
            ++swaps_;
          }
          // Leave the tenant on its initial snapshot (B).
          if (on_a) {
            CHECK(router.SetTenantSnapshot(TenantId(kSwapTenant), b).ok());
          }
        }) {}
  ~Swapper() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Swapper(const Swapper&) = delete;
  Swapper& operator=(const Swapper&) = delete;

  /// Swaps made so far.
  int swaps() {
    std::lock_guard<std::mutex> lock(mutex_);
    return swaps_;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  int swaps_ = 0;
  std::thread thread_;  // last: starts after the members it uses
};

/// One open-loop phase. Returns whether the generator kept its schedule.
bool RunOpen(ShardRouter& router, const std::vector<Slot>& slots,
             const std::vector<Example>& rows, const Expected& expected,
             std::shared_ptr<const ModelSnapshot> a,
             std::shared_ptr<const ModelSnapshot> b, ServingOutcome* outcome) {
  const size_t n = slots.size();
  const double interval_ns = 1e9 / kOpenRate;
  std::vector<std::optional<ServeReply>> replies(n);
  std::vector<int64_t> done_ns(n, 0);
  std::vector<double> admit_us(n, 0.0);
  std::vector<double> late_ms(n, 0.0);
  std::atomic<size_t> completed{0};
  MetricsRegistry::Global().ResetAll();

  Clock::time_point start;
  Clock::time_point last_send;
  int swaps = 0;
  {
    Swapper swapper(router, a, b, kSwapPeriodMs);
    start = Clock::now() + std::chrono::milliseconds(1);
    for (size_t i = 0; i < n; ++i) {
      const Clock::time_point due =
          start + std::chrono::nanoseconds(static_cast<int64_t>(
                      interval_ns * static_cast<double>(i)));
      Clock::time_point now = Clock::now();
      if (now < due) {
        std::this_thread::sleep_until(due);
        now = Clock::now();
      }
      late_ms[i] = SecondsBetween(due, now) * 1e3;
      ServeRequest request;
      request.tenant_id = TenantId(slots[i].tenant);
      request.example = rows[slots[i].row];
      router.PredictWithCallback(
          std::move(request),
          [&replies, &done_ns, &completed, start, i](ServeReply reply) {
            done_ns[i] = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             Clock::now() - start)
                             .count();
            replies[i] = std::move(reply);
            completed.fetch_add(1, std::memory_order_release);
          });
      last_send = Clock::now();
      admit_us[i] = SecondsBetween(now, last_send) * 1e6;
    }
    swaps = swapper.swaps();
  }
  // Every request's callback runs exactly once (served, or rejected inline
  // at admission). The callbacks write the locals above, so this function
  // must not return before all of them have run.
  while (completed.load(std::memory_order_acquire) < n) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  outcome->open_batches = ReadBatchStats();

  Samples open_ms;
  Samples admit;
  Samples late;
  for (size_t i = 0; i < n; ++i) {
    admit.Add(admit_us[i]);
    late.Add(late_ms[i]);
    if (Tally(*replies[i], slots[i], /*swapping=*/true, expected, outcome)) {
      const double due_ns = interval_ns * static_cast<double>(i);
      open_ms.Add((static_cast<double>(done_ns[i]) - due_ns) * 1e-6);
    }
  }
  outcome->open_ms = open_ms;
  outcome->admit_us = admit;
  outcome->gen_late_ms = late;
  outcome->swaps = swaps;
  outcome->offered_rps = kOpenRate;
  outcome->achieved_rps =
      static_cast<double>(n) / SecondsBetween(start, last_send);
  return outcome->achieved_rps >= kMinAchievedShare * kOpenRate &&
         late.Median() < kMaxGenLateP50Ms;
}

}  // namespace

void RunServing(const ServingConfig& config,
                std::shared_ptr<const ModelSnapshot> snapshot_a,
                std::shared_ptr<const ModelSnapshot> snapshot_b,
                std::vector<Example> rows, uint64_t seed,
                ServingOutcome* outcome) {
  if (static_cast<int>(rows.size()) > kMaxRows) rows.resize(kMaxRows);
  const int num_rows = static_cast<int>(rows.size());

  Expected expected = BuildExpected(*snapshot_a, *snapshot_b, rows);
  outcome->errors += expected.failures;
  outcome->offline_digest = expected.Digest();
  outcome->predict_us_per_row =
      OfflinePredictUsPerRow(*snapshot_a, *snapshot_b, rows);

  Result<activedp::ServeConfig> serve_config =
      activedp::ServeConfigBuilder().set_num_shards(kShards).Build();
  CHECK(serve_config.ok()) << serve_config.status().ToString();
  ShardRouter router(*std::move(serve_config));
  for (int t = 0; t < kTenants; ++t) {
    CHECK(router.AddTenant(TenantId(t)).ok());
    CHECK(router.SetTenantSnapshot(TenantId(t),
                                   t % 2 == 0 ? snapshot_a : snapshot_b)
              .ok());
  }

  activedp::Rng rng(seed ^ 0x5e7e);
  // Warm-up: untimed, but every reply is still checked and counted.
  const std::vector<Slot> warmup =
      BuildSchedule(kTenants, kWarmupRequests, num_rows, rng);
  for (const Slot& slot : warmup) {
    ServeRequest request;
    request.tenant_id = TenantId(slot.tenant);
    request.example = rows[slot.row];
    Tally(router.Predict(std::move(request)), slot, false, expected, outcome);
  }

  RunLight(router,
           BuildSchedule(kTenants,
                         static_cast<int64_t>(kLightClients) *
                             config.light_requests_per_client,
                         num_rows, rng),
           rows, expected, outcome);

  const std::vector<Slot> open_slots = BuildSchedule(
      kTenants, std::llround(kOpenRate * config.open_seconds), num_rows, rng);
  for (outcome->open_attempts = 1;; ++outcome->open_attempts) {
    outcome->open_valid = RunOpen(router, open_slots, rows, expected,
                                  snapshot_a, snapshot_b, outcome);
    if (outcome->open_valid || outcome->open_attempts == 2) break;
  }
}

}  // namespace perfbench
