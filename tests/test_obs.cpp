// Telemetry layer tests: metrics registry math, span nesting and cross-thread
// propagation, exporters, the disabled-path overhead guard, cross-process span
// stitching against the real tunekit_worker, one histogram-quantile rule for
// the server and scraped buckets, and the session metrics snapshot
// surviving journal compaction + resume.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "common/log.hpp"
#include "common/stopwatch.hpp"
#include "core/app_registry.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "robust/process_sandbox.hpp"
#include "robust/worker_pool.hpp"
#include "search/eval_db.hpp"
#include "service/session.hpp"

namespace tunekit {
namespace {

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

TEST(Metrics, CounterAndGaugeBasics) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("c_total", "a counter");
  c.inc();
  c.inc(4);
  EXPECT_EQ(c.value(), 5u);
  // Get-or-create returns the same instance; help sticks from registration.
  EXPECT_EQ(&reg.counter("c_total"), &c);
  EXPECT_EQ(reg.help("c_total"), "a counter");

  obs::Gauge& g = reg.gauge("g");
  g.set(2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
}

TEST(Metrics, HistogramBucketAssignment) {
  obs::Histogram h({1.0, 2.0, 4.0});
  // lower_bound semantics: a value equal to a bound lands in that bound's
  // bucket (le="1.0" includes 1.0), above the last bound → overflow.
  for (double v : {0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 9.0, 100.0}) h.observe(v);
  h.observe(std::numeric_limits<double>::quiet_NaN());  // dropped

  EXPECT_EQ(h.count(), 8u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 2.0 + 3.0 + 4.0 + 9.0 + 100.0);
  EXPECT_EQ(h.bucket_count(0), 2u);  // <= 1
  EXPECT_EQ(h.bucket_count(1), 2u);  // (1, 2]
  EXPECT_EQ(h.bucket_count(2), 2u);  // (2, 4]
  EXPECT_EQ(h.bucket_count(3), 2u);  // overflow
}

TEST(Metrics, HistogramQuantileMath) {
  obs::Histogram empty({1.0, 2.0});
  EXPECT_TRUE(std::isnan(empty.quantile(0.5)));

  // 10 observations in (1, 2]: every quantile interpolates inside that bucket.
  obs::Histogram h({1.0, 2.0, 4.0});
  for (int i = 0; i < 10; ++i) h.observe(1.5);
  EXPECT_NEAR(h.quantile(0.5), 1.5, 1e-12);   // rank 5 of 10 → halfway
  EXPECT_NEAR(h.quantile(1.0), 2.0, 1e-12);   // top of the bucket
  EXPECT_NEAR(h.quantile(0.1), 1.1, 1e-12);

  // Ranks landing in the overflow bucket clamp to the last finite bound.
  obs::Histogram over({1.0, 2.0});
  over.observe(0.5);
  over.observe(50.0);
  over.observe(60.0);
  EXPECT_DOUBLE_EQ(over.quantile(0.99), 2.0);

  // First bucket interpolates from 0.
  obs::Histogram first({4.0});
  first.observe(1.0);
  first.observe(2.0);
  EXPECT_NEAR(first.quantile(0.5), 2.0, 1e-12);  // rank 1 of 2 → 0 + 0.5 * 4
}

TEST(Metrics, ScrapedHistogramQuantileEqualsTheServers) {
  // What `top` computes from a scraped /metrics histogram must be the
  // server's own estimate: two empty leading buckets (where an
  // upper-bound-on-empty rule would answer 0.001 at q = 0), overflow
  // samples, and an empty histogram.
  obs::MetricsRegistry registry;
  obs::Histogram& h = registry.histogram("tunekit_t_seconds", {0.001, 0.01, 0.1, 1.0});
  obs::Histogram& empty = registry.histogram("tunekit_e_seconds", {0.001, 0.01});
  for (double v : {0.05, 0.07, 0.5, 0.9, 0.3, 2.0}) h.observe(v);
  const std::string text = obs::prometheus_text(registry);

  const obs::ScrapedHistogram scraped =
      obs::parse_prometheus_histogram(text, "tunekit_t_seconds");
  EXPECT_EQ(scraped.count, 6.0);
  EXPECT_EQ(h.quantile(0.0), 0.01);
  for (double q : {0.0, 0.1, 1.0 / 3.0, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(scraped.quantile(q), h.quantile(q)) << "q=" << q;
  }
  const obs::ScrapedHistogram none =
      obs::parse_prometheus_histogram(text, "tunekit_e_seconds");
  EXPECT_EQ(none.count, 0.0);
  EXPECT_TRUE(std::isnan(empty.quantile(0.5)));
  EXPECT_TRUE(std::isnan(none.quantile(0.5)));
}

TEST(Metrics, HistogramRejectsBadBounds) {
  EXPECT_THROW(obs::Histogram({2.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(obs::Histogram({1.0, std::numeric_limits<double>::infinity()}),
               std::invalid_argument);
}

TEST(Metrics, OutcomeCounterSanitizesNames) {
  obs::MetricsRegistry reg;
  obs::outcome_counter(reg, "timed-out").inc();
  EXPECT_EQ(reg.counter("tunekit_evals_timed_out_total").value(), 1u);
  obs::outcome_counter(reg, "ok").inc(3);
  EXPECT_EQ(reg.counter("tunekit_evals_ok_total").value(), 3u);
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

TEST(Telemetry, DisabledRecordsNothing) {
  obs::Telemetry t;  // never enabled
  EXPECT_FALSE(t.enabled());
  EXPECT_EQ(t.begin_span("x"), 0u);
  EXPECT_EQ(t.record_span("y", 0, 0, 10), 0u);
  EXPECT_TRUE(t.spans().empty());
  // ScopedSpan tolerates null and disabled telemetry alike.
  obs::ScopedSpan null_span(nullptr, "a");
  obs::ScopedSpan disabled_span(&t, "b");
  EXPECT_EQ(null_span.id(), 0u);
  EXPECT_EQ(disabled_span.id(), 0u);
}

TEST(Telemetry, NestedScopedSpansInheritParents) {
  obs::Telemetry t;
  t.enable();
  {
    obs::ScopedSpan outer(&t, "methodology.run");
    EXPECT_EQ(obs::Telemetry::current_span(), outer.id());
    {
      obs::ScopedSpan inner(&t, "phase.sensitivity");
      EXPECT_NE(inner.id(), outer.id());
      obs::ScopedSpan leaf(&t, "eval");
      (void)leaf;
    }
    // inner closed: ambient span is back to outer.
    EXPECT_EQ(obs::Telemetry::current_span(), outer.id());
  }
  EXPECT_EQ(obs::Telemetry::current_span(), 0u);

  const auto spans = t.spans();
  ASSERT_EQ(spans.size(), 3u);
  obs::SpanId outer_id = 0, inner_id = 0;
  for (const auto& s : spans) {
    if (s.name == "methodology.run") outer_id = s.id;
    if (s.name == "phase.sensitivity") inner_id = s.id;
  }
  for (const auto& s : spans) {
    if (s.name == "methodology.run") {
      EXPECT_EQ(s.parent, 0u);
    } else if (s.name == "phase.sensitivity") {
      EXPECT_EQ(s.parent, outer_id);
    } else if (s.name == "eval") {
      EXPECT_EQ(s.parent, inner_id);
    }
  }
}

TEST(Telemetry, CurrentSpanScopeCrossesThreads) {
  obs::Telemetry t;
  t.enable();
  obs::ScopedSpan batch(&t, "scheduler.batch");
  const obs::SpanId parent = batch.id();

  std::thread worker([&] {
    // A fresh thread has no ambient span until seeded.
    EXPECT_EQ(obs::Telemetry::current_span(), 0u);
    obs::CurrentSpanScope ambient(parent);
    obs::ScopedSpan eval(&t, "eval");
    (void)eval;
  });
  worker.join();
  batch.end();

  const auto spans = t.spans();
  ASSERT_EQ(spans.size(), 2u);
  for (const auto& s : spans) {
    if (s.name == "eval") {
      EXPECT_EQ(s.parent, parent);
      EXPECT_EQ(s.pid, 0);  // same-process span
    }
  }
}

TEST(Telemetry, RecordSpanImportsWorkerTimings) {
  obs::Telemetry t;
  t.enable();
  const obs::SpanId rpc = t.begin_span("worker.rpc", 0);
  const obs::SpanId imported = t.record_span("worker.objective", rpc, 100, 50,
                                             /*pid=*/4242);
  t.end_span(rpc);
  ASSERT_NE(imported, 0u);

  bool found = false;
  for (const auto& s : t.spans()) {
    if (s.name != "worker.objective") continue;
    found = true;
    EXPECT_EQ(s.parent, rpc);
    EXPECT_EQ(s.start_ns, 100u);
    EXPECT_EQ(s.dur_ns, 50u);
    EXPECT_EQ(s.pid, 4242);
  }
  EXPECT_TRUE(found);
}

TEST(Telemetry, BoundedBufferCountsDrops) {
  obs::Telemetry t;
  t.enable(/*max_spans=*/4);
  for (int i = 0; i < 10; ++i) {
    obs::ScopedSpan s(&t, "span");
    (void)s;
  }
  EXPECT_EQ(t.spans().size(), 4u);
  EXPECT_EQ(t.dropped_spans(), 6u);
}

// The contract every instrumented hot path relies on: with telemetry off, an
// evaluation pays one null check and nothing else. Budget is < 1 µs per eval;
// the real cost is a few ns, so the bound holds on any CI box.
TEST(Telemetry, DisabledOverheadUnderOneMicrosecond) {
  constexpr int kIters = 200000;
  obs::Telemetry* telemetry = nullptr;
  Stopwatch watch;
  for (int i = 0; i < kIters; ++i) {
    obs::ScopedSpan eval_span(telemetry, "eval");
    const bool traced = telemetry != nullptr && telemetry->enabled();
    if (traced) telemetry->metrics().counter(obs::metric::kEvalsStarted).inc();
    eval_span.end();
  }
  const double per_eval_us = watch.seconds() * 1e6 / kIters;
  EXPECT_LT(per_eval_us, 1.0) << "disabled telemetry costs " << per_eval_us
                              << " us per eval";

  // The disabled-but-present instance must be just as cheap (one relaxed load).
  obs::Telemetry present;
  telemetry = &present;
  watch.reset();
  for (int i = 0; i < kIters; ++i) {
    obs::ScopedSpan eval_span(telemetry, "eval");
    const bool traced = telemetry != nullptr && telemetry->enabled();
    if (traced) telemetry->metrics().counter(obs::metric::kEvalsStarted).inc();
    eval_span.end();
  }
  const double per_eval_disabled_us = watch.seconds() * 1e6 / kIters;
  EXPECT_LT(per_eval_disabled_us, 1.0);
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

TEST(Export, ChromeTraceEventsCarryHierarchy) {
  obs::Telemetry t;
  t.enable();
  {
    obs::ScopedSpan outer(&t, "methodology.run");
    obs::ScopedSpan inner(&t, "eval");
    (void)inner;
  }
  t.record_span("worker.objective", 0, 10, 5, /*pid=*/999);

  const json::Value doc = obs::chrome_trace(t);
  const auto& events = doc.at("traceEvents").as_array();
  ASSERT_EQ(events.size(), 3u);
  std::string outer_id;
  for (const auto& e : events) {
    EXPECT_EQ(e.at("ph").as_string(), "X");
    EXPECT_GE(e.at("dur").as_number(), 0.0);
    if (e.at("name").as_string() == "methodology.run") {
      outer_id = e.at("args").at("span").as_string();
    }
  }
  EXPECT_EQ(outer_id.size(), 16u);  // hex-encoded: doubles drop bits past 2^53
  for (const auto& e : events) {
    if (e.at("name").as_string() == "eval") {
      EXPECT_EQ(e.at("args").at("parent").as_string(), outer_id);
    }
    if (e.at("name").as_string() == "worker.objective") {
      EXPECT_EQ(e.at("pid").as_number(), 999.0);  // worker pid preserved
      EXPECT_DOUBLE_EQ(e.at("ts").as_number(), 10.0 / 1e3);  // ns → us
    }
  }
}

TEST(Export, PrometheusTextExposition) {
  obs::MetricsRegistry reg;
  reg.counter("tunekit_evals_started_total", "evals started").inc(7);
  reg.gauge("tunekit_queue_depth").set(3.0);
  obs::Histogram& h = reg.histogram("tunekit_eval_seconds", {0.1, 1.0});
  h.observe(0.05);
  h.observe(0.5);
  h.observe(20.0);

  const std::string text = obs::prometheus_text(reg);
  EXPECT_NE(text.find("# HELP tunekit_evals_started_total evals started"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE tunekit_evals_started_total counter"), std::string::npos);
  EXPECT_NE(text.find("tunekit_evals_started_total 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE tunekit_queue_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("tunekit_queue_depth 3"), std::string::npos);
  // Cumulative bucket counts, ending in the +Inf catch-all.
  EXPECT_NE(text.find("tunekit_eval_seconds_bucket{le=\"0.1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("tunekit_eval_seconds_bucket{le=\"1\"} 2"), std::string::npos);
  EXPECT_NE(text.find("tunekit_eval_seconds_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(text.find("tunekit_eval_seconds_count 3"), std::string::npos);
}

TEST(Export, MetricsJsonSnapshotShape) {
  obs::MetricsRegistry reg;
  reg.counter("c_total").inc(2);
  reg.gauge("g").set(1.5);
  reg.histogram("h", {1.0}).observe(0.5);

  const json::Value doc = obs::metrics_to_json(reg);
  EXPECT_EQ(doc.at("counters").at("c_total").as_number(), 2.0);
  EXPECT_DOUBLE_EQ(doc.at("gauges").at("g").as_number(), 1.5);
  const auto& h = doc.at("histograms").at("h");
  EXPECT_EQ(h.at("bounds").as_array().size(), 1u);
  EXPECT_EQ(h.at("counts").as_array().size(), 2u);  // bounds + overflow
  EXPECT_EQ(h.at("count").as_number(), 1.0);
}

// ---------------------------------------------------------------------------
// Cross-process span stitching (real tunekit_worker)
// ---------------------------------------------------------------------------

TEST(Telemetry, WorkerSpansStitchAcrossProcessBoundary) {
  if (!robust::process_sandbox_supported()) {
    GTEST_SKIP() << "process sandbox unsupported on this platform";
  }
  obs::Telemetry telemetry;
  telemetry.enable();

  robust::SandboxOptions sandbox;
  sandbox.argv = {TUNEKIT_WORKER_BIN, "--app", "synth:case1", "--seed", "7"};
  auto pool = robust::WorkerPool::create(sandbox, 1, /*quarantine_after=*/2, &telemetry);
  ASSERT_NE(pool, nullptr);

  core::AppBundle bundle = core::make_builtin_app("synth:case1", 7);
  obs::ScopedSpan eval_span(&telemetry, "eval");
  const obs::SpanId eval_id = eval_span.id();
  const robust::SandboxResult r =
      pool->evaluate(bundle.app->space().defaults(), 30.0);
  eval_span.end();
  ASSERT_EQ(r.outcome, robust::EvalOutcome::Ok) << r.error;

  const auto spans = telemetry.spans();
  obs::SpanRecord rpc;
  for (const auto& s : spans) {
    if (s.name == "worker.rpc") rpc = s;
  }
  ASSERT_NE(rpc.id, 0u) << "no worker.rpc span recorded";
  EXPECT_EQ(rpc.parent, eval_id);
  EXPECT_EQ(rpc.pid, 0);  // the rpc is timed supervisor-side

  // The worker reports its own setup/objective/teardown timings over the
  // pipe; they come back parented under the rpc span, carrying the worker's
  // pid, and clamped inside the rpc interval.
  std::size_t worker_side = 0;
  bool saw_objective = false;
  for (const auto& s : spans) {
    if (s.pid == 0) continue;
    ++worker_side;
    EXPECT_EQ(s.parent, rpc.id) << s.name;
    EXPECT_GE(s.start_ns, rpc.start_ns) << s.name;
    EXPECT_LE(s.start_ns + s.dur_ns, rpc.start_ns + rpc.dur_ns) << s.name;
    if (s.name == "worker.objective") saw_objective = true;
  }
  EXPECT_GE(worker_side, 1u);
  EXPECT_TRUE(saw_objective);
}

// ---------------------------------------------------------------------------
// Session metrics snapshot: compaction + resume round trip
// ---------------------------------------------------------------------------

search::SearchSpace two_dim_space() {
  search::SearchSpace s;
  s.add(search::ParamSpec::real("x", -5.0, 5.0, 0.0));
  s.add(search::ParamSpec::real("y", -5.0, 5.0, 0.0));
  return s;
}

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(SessionMetrics, SnapshotSurvivesCompactionAndResume) {
  const auto space = two_dim_space();
  const std::string journal = temp_path("tunekit_obs_metrics_roundtrip.jsonl");
  std::filesystem::remove(journal);

  service::SessionOptions opt;
  opt.max_evals = 8;
  opt.backend = service::SessionBackend::Random;
  opt.seed = 11;
  opt.compact_every = 2;  // force compactions mid-run

  {
    service::TuningSession session(space, opt, journal);
    for (int round = 0; round < 2; ++round) {
      const auto batch = session.ask(2);
      ASSERT_EQ(batch.size(), 2u);
      for (const auto& c : batch) {
        session.tell(c.id, 1.0, /*cost_seconds=*/0.25, /*dispersion=*/0.0,
                     /*duration_ms=*/300.0, /*worker_slot=*/0);
      }
    }
    const auto batch = session.ask(1);
    ASSERT_EQ(batch.size(), 1u);
    session.tell_failure(batch[0].id, robust::EvalOutcome::TimedOut);
    session.flush_metrics();

    const service::SessionMetrics m = session.metrics();
    EXPECT_EQ(m.tells, 4u);
    EXPECT_EQ(m.fails, 1u);
    EXPECT_DOUBLE_EQ(m.cost_seconds, 1.0);
    EXPECT_DOUBLE_EQ(m.eval_duration_ms, 1200.0);
    EXPECT_EQ(m.failure_outcomes.at("timed-out"), 1u);
    // Session dies here without close(): the flushed snapshot is all that
    // survives, exactly the crash the journal exists for.
  }

  // The compacted journal still carries a metrics record.
  {
    std::ifstream in(journal);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("\"e\":\"metrics\""), std::string::npos);
  }

  auto resumed = service::TuningSession::resume(space, opt, journal);
  ASSERT_NE(resumed, nullptr);
  const service::SessionMetrics restored = resumed->metrics();
  EXPECT_EQ(restored.tells, 4u);
  EXPECT_EQ(restored.fails, 1u);
  EXPECT_DOUBLE_EQ(restored.cost_seconds, 1.0);
  EXPECT_DOUBLE_EQ(restored.eval_duration_ms, 1200.0);
  EXPECT_EQ(restored.failure_outcomes.at("timed-out"), 1u);

  // Counters keep accumulating on top of the replayed values.
  const auto batch = resumed->ask(2);
  ASSERT_GE(batch.size(), 1u);
  for (const auto& c : batch) {
    resumed->tell(c.id, 2.0, 0.5, 0.0, 100.0, 1);
  }
  const service::SessionMetrics after = resumed->metrics();
  EXPECT_EQ(after.tells, 4u + batch.size());
  EXPECT_DOUBLE_EQ(after.cost_seconds, 1.0 + 0.5 * batch.size());

  std::filesystem::remove(journal);
}

TEST(SessionMetrics, JsonRoundTrip) {
  service::SessionMetrics m;
  m.tells = 3;
  m.fails = 2;
  m.drops = 1;
  m.failure_outcomes["crashed"] = 2;
  m.cost_seconds = 4.5;
  m.eval_duration_ms = 123.0;
  m.wall_seconds = 9.0;
  const service::SessionMetrics back = service::SessionMetrics::from_json(m.to_json());
  EXPECT_EQ(back.tells, 3u);
  EXPECT_EQ(back.fails, 2u);
  EXPECT_EQ(back.drops, 1u);
  EXPECT_EQ(back.failure_outcomes.at("crashed"), 2u);
  EXPECT_DOUBLE_EQ(back.cost_seconds, 4.5);
  EXPECT_DOUBLE_EQ(back.eval_duration_ms, 123.0);
  EXPECT_DOUBLE_EQ(back.wall_seconds, 9.0);
}

TEST(SessionMetrics, FsyncLatencyObservedWhenTelemetryAttached) {
  const auto space = two_dim_space();
  const std::string journal = temp_path("tunekit_obs_fsync_histogram.jsonl");
  std::filesystem::remove(journal);

  obs::Telemetry telemetry;
  telemetry.enable();
  service::SessionOptions opt;
  opt.max_evals = 2;
  opt.backend = service::SessionBackend::Random;
  opt.telemetry = &telemetry;

  service::TuningSession session(space, opt, journal);
  const auto batch = session.ask(1);
  ASSERT_EQ(batch.size(), 1u);
  session.tell(batch[0].id, 1.0);

  const obs::Histogram& h =
      telemetry.metrics().histogram(obs::metric::kJournalFsyncSeconds);
  EXPECT_GT(h.count(), 0u);
  std::filesystem::remove(journal);
}

// ---------------------------------------------------------------------------
// EvalDb provenance fields: migration-safe load
// ---------------------------------------------------------------------------

TEST(EvalDbProvenance, LoadsPreTelemetryCheckpoints) {
  const auto space = two_dim_space();
  const std::string path = temp_path("tunekit_obs_old_evaldb.json");
  {
    // A checkpoint written before duration_ms/worker_slot existed.
    std::ofstream out(path);
    out << R"({"format":"tunekit-evaldb-v1","evaluations":[)"
        << R"({"config":[1.0,2.0],"value":3.0,"cost_seconds":0.5}]})";
  }
  const search::EvalDb db = search::EvalDb::load(path, space);
  ASSERT_EQ(db.size(), 1u);
  const search::Evaluation e = db.all()[0];
  EXPECT_DOUBLE_EQ(e.value, 3.0);
  EXPECT_DOUBLE_EQ(e.duration_ms, 0.0);  // unknown, not garbage
  EXPECT_EQ(e.worker_slot, -1);
  std::filesystem::remove(path);
}

TEST(EvalDbProvenance, SaveLoadRoundTripsNewFields) {
  const auto space = two_dim_space();
  const std::string path = temp_path("tunekit_obs_new_evaldb.json");
  search::EvalDb db;
  search::Evaluation e;
  e.config = {1.0, 2.0};
  e.value = 3.0;
  e.cost_seconds = 0.5;
  e.duration_ms = 612.5;
  e.worker_slot = 2;
  db.record(std::move(e));
  db.save(path);

  const search::EvalDb loaded = search::EvalDb::load(path, space);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_DOUBLE_EQ(loaded.all()[0].duration_ms, 612.5);
  EXPECT_EQ(loaded.all()[0].worker_slot, 2);
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// Log sink + decorations, Stopwatch::ns
// ---------------------------------------------------------------------------

TEST(LogSink, CapturesBareMessagesAndRestores) {
  std::vector<std::pair<LogLevel, std::string>> captured;
  const LogLevel saved_level = log_level();
  set_log_level(LogLevel::Warn);
  LogSink previous = set_log_sink([&](LogLevel level, const std::string& msg) {
    captured.emplace_back(level, msg);
  });

  log_warn("disk ", 93, "% full");
  log_info("dropped below threshold");

  set_log_sink(std::move(previous));
  set_log_level(saved_level);

  ASSERT_EQ(captured.size(), 1u);
  EXPECT_EQ(captured[0].first, LogLevel::Warn);
  EXPECT_EQ(captured[0].second, "disk 93% full");  // bare text, no prefix
}

TEST(LogSink, FormatLineStableByDefaultDecoratedOnRequest) {
  EXPECT_FALSE(log_decorations());
  EXPECT_EQ(format_log_line(LogLevel::Warn, "msg"), "[tunekit WARN ] msg");

  set_log_decorations(true);
  const std::string line = format_log_line(LogLevel::Error, "boom");
  set_log_decorations(false);
  // "[tunekit ERROR 2026-...Z t=N] boom"
  EXPECT_EQ(line.rfind("[tunekit ERROR ", 0), 0u);
  EXPECT_NE(line.find("Z t="), std::string::npos);
  EXPECT_NE(line.find("] boom"), std::string::npos);
}

TEST(StopwatchNs, MonotonicNanoseconds) {
  Stopwatch w;
  const std::uint64_t a = w.ns();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const std::uint64_t b = w.ns();
  EXPECT_GE(b, a + 1000000u);  // at least 1 ms elapsed
  EXPECT_NEAR(static_cast<double>(b) * 1e-9, w.seconds(), 0.05);
}

}  // namespace
}  // namespace tunekit
