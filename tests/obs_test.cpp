// Tests for the observability layer: counter registry + catalog, trace
// buffer semantics, canonical export determinism, the --explain
// renderer, and the doc-sync contract against docs/OBSERVABILITY.md
// (both directions, with negative fixtures).
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/counters.hpp"
#include "obs/doc_sync.hpp"
#include "obs/explain.hpp"
#include "obs/flight.hpp"
#include "obs/prometheus.hpp"
#include "obs/trace.hpp"
#include "support/json.hpp"
#include "support/json_parse.hpp"

namespace tms {
namespace {

// ------------------------------------------------------------- counters

TEST(Counters, CatalogNamesAreUniqueAndDocumented) {
  const std::vector<obs::MetricInfo>& cat = obs::metric_catalog();
  ASSERT_FALSE(cat.empty());
  std::set<std::string> names;
  for (const obs::MetricInfo& m : cat) {
    EXPECT_TRUE(names.insert(m.name).second) << "duplicate metric name " << m.name;
    EXPECT_NE(std::string(m.unit), "") << m.name << " has no unit";
    EXPECT_NE(std::string(m.description), "") << m.name << " has no description";
    // Dotted lowercase names are the doc-sync extraction contract.
    EXPECT_NE(std::string(m.name).find('.'), std::string::npos) << m.name;
  }
}

TEST(Counters, SnapshotAlignsWithCatalogAndDeltas) {
  const obs::CountersSnapshot before = obs::counters_snapshot();
  obs::counters().sched_slots_tried.add(7);
  obs::counters().sim_squashes.add(2);
  obs::counters().sched_ii_minus_mii.record(5);
  const obs::CountersSnapshot after = obs::counters_snapshot();
  const obs::CountersSnapshot d = obs::snapshot_delta(before, after);
  EXPECT_EQ(d.value("sched.slots_tried"), 7u);
  EXPECT_EQ(d.value("sim.squashes"), 2u);
  EXPECT_EQ(d.value("driver.jobs"), 0u);
  EXPECT_EQ(d.value("no.such.metric"), 0u);

  std::size_t n_hist = 0;
  std::size_t n_time = 0;
  for (const obs::MetricInfo& m : obs::metric_catalog()) {
    n_hist += m.kind == obs::MetricKind::kHistogram ? 1 : 0;
    n_time += m.kind == obs::MetricKind::kTimeHistogram ? 1 : 0;
  }
  EXPECT_EQ(d.histograms.size(), n_hist);
  EXPECT_EQ(d.time_histograms.size(), n_time);
  EXPECT_EQ(d.time_histogram_sums_us.size(), n_time);
  EXPECT_EQ(d.counters.size(), obs::metric_catalog().size() - n_hist - n_time);
}

TEST(Counters, HistogramBuckets) {
  EXPECT_EQ(obs::Histogram::bucket_of(0), 0);
  EXPECT_EQ(obs::Histogram::bucket_of(3), 3);
  EXPECT_EQ(obs::Histogram::bucket_of(4), 4);
  EXPECT_EQ(obs::Histogram::bucket_of(7), 4);
  EXPECT_EQ(obs::Histogram::bucket_of(8), 5);
  EXPECT_EQ(obs::Histogram::bucket_of(31), 6);
  EXPECT_EQ(obs::Histogram::bucket_of(32), 7);
  EXPECT_EQ(obs::Histogram::bucket_of(1u << 20), 7);
  for (int b = 1; b < obs::Histogram::kBuckets; ++b) {
    EXPECT_EQ(obs::Histogram::bucket_of(obs::Histogram::bucket_floor(b)), b);
    EXPECT_EQ(obs::Histogram::bucket_of(obs::Histogram::bucket_floor(b) - 1), b - 1);
  }
}

TEST(Counters, JsonExportContainsEveryMetricInCatalogOrder) {
  const obs::CountersSnapshot s = obs::counters_snapshot();
  support::JsonWriter w;
  obs::write_counters_json(w, s);
  const std::string json = w.str();
  std::size_t last = 0;
  for (const obs::MetricInfo& m : obs::metric_catalog()) {
    if (m.kind != obs::MetricKind::kCounter) continue;  // histograms follow in their own objects
    const std::size_t pos = json.find("\"" + std::string(m.name) + "\"");
    ASSERT_NE(pos, std::string::npos) << m.name << " missing from JSON export";
    EXPECT_GT(pos, last) << m.name << " out of catalog order";
    last = pos;
  }
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"sched.ii_minus_mii\""), std::string::npos);
}

TEST(Counters, TimeHistogramBucketBoundaries) {
  // Bucket 0 is exactly 0us; bucket b >= 1 holds [2^(b-1), 2^b) us; the
  // last bucket is open-ended.
  EXPECT_EQ(obs::TimeHistogram::bucket_of_us(0), 0);
  EXPECT_EQ(obs::TimeHistogram::bucket_of_us(1), 1);
  EXPECT_EQ(obs::TimeHistogram::bucket_of_us(2), 2);
  EXPECT_EQ(obs::TimeHistogram::bucket_of_us(3), 2);
  EXPECT_EQ(obs::TimeHistogram::bucket_of_us(4), 3);
  EXPECT_EQ(obs::TimeHistogram::bucket_of_us(1000), 10);       // ~1ms
  EXPECT_EQ(obs::TimeHistogram::bucket_of_us(1000000), 20);    // ~1s
  EXPECT_EQ(obs::TimeHistogram::bucket_of_us(~0ULL), obs::TimeHistogram::kBuckets - 1);
  for (int b = 1; b < obs::TimeHistogram::kBuckets - 1; ++b) {
    EXPECT_EQ(obs::TimeHistogram::bucket_of_us(obs::TimeHistogram::bucket_floor_us(b)), b);
    EXPECT_EQ(obs::TimeHistogram::bucket_of_us(obs::TimeHistogram::bucket_floor_us(b) - 1),
              b - 1)
        << "floor of bucket " << b << " minus one must land in the bucket below";
    EXPECT_EQ(obs::TimeHistogram::bucket_floor_us(b), 1ULL << (b - 1));
  }
}

TEST(Counters, TimeHistogramRecordsCountAndExactSum) {
  obs::TimeHistogram h;
  h.record_us(0);
  h.record_us(1);
  h.record_us(100);
  h.record_us(1000000);
  const auto v = h.values();
  std::uint64_t total = 0;
  for (const std::uint64_t b : v) total += b;
  EXPECT_EQ(total, 4u);
  EXPECT_EQ(v[0], 1u);
  EXPECT_EQ(h.sum_us(), 1000101u) << "the sum must be exact, not bucket-approximated";
  h.reset();
  EXPECT_EQ(h.sum_us(), 0u);
}

TEST(Counters, TimeHistogramsAppearInSnapshotDeltaAndJson) {
  const obs::CountersSnapshot before = obs::counters_snapshot();
  obs::counters().serve_latency_schedule.record_us(150);
  obs::counters().serve_latency_schedule.record_us(2);
  const obs::CountersSnapshot d = obs::snapshot_delta(before, obs::counters_snapshot());
  EXPECT_EQ(d.time_histogram_count("serve.latency.schedule"), 2u);
  EXPECT_EQ(d.time_histogram_sum_us("serve.latency.schedule"), 152u);
  EXPECT_EQ(d.time_histogram_count("no.such.histogram"), 0u);

  support::JsonWriter w;
  obs::write_counters_json(w, d);
  const std::string json = w.str();
  EXPECT_NE(json.find("\"time_histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"serve.latency.schedule\""), std::string::npos);
  EXPECT_NE(json.find("\"sum_us\":152"), std::string::npos);
}

// ----------------------------------------------------------- prometheus

TEST(Prometheus, NamesAreSanitised) {
  EXPECT_EQ(obs::prometheus_name("serve.latency.queue_wait"), "tms_serve_latency_queue_wait");
  EXPECT_EQ(obs::prometheus_name("driver.jobs"), "tms_driver_jobs");
}

TEST(Prometheus, WriterPassesItsOwnLinter) {
  const obs::CountersSnapshot s = obs::counters_snapshot();
  const std::string text = obs::write_prometheus_text(s);
  const auto err = obs::lint_prometheus_text(text);
  EXPECT_FALSE(err.has_value()) << *err;
}

TEST(Prometheus, ExpositionCoversEveryMetricWithCorrectShapes) {
  const obs::CountersSnapshot before = obs::counters_snapshot();
  obs::counters().serve_latency_total.record_us(100);
  const obs::CountersSnapshot d = obs::snapshot_delta(before, obs::counters_snapshot());
  const std::string text = obs::write_prometheus_text(d);

  for (const obs::MetricInfo& m : obs::metric_catalog()) {
    const std::string pname = obs::prometheus_name(m.name);
    EXPECT_NE(text.find("# HELP " + pname + " "), std::string::npos) << pname;
    EXPECT_NE(text.find("# TYPE " + pname + " "), std::string::npos) << pname;
  }
  // Time histograms are exported in seconds: 100us lands in the le=128us
  // = 0.000128s bucket, every cumulative bucket above it is 1, and the
  // exact sum is 0.0001s.
  EXPECT_NE(text.find("# TYPE tms_serve_latency_total histogram"), std::string::npos);
  EXPECT_NE(text.find("tms_serve_latency_total_bucket{le=\"0.000128\"} 1"), std::string::npos);
  EXPECT_NE(text.find("tms_serve_latency_total_bucket{le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(text.find("tms_serve_latency_total_sum 0.0001\n"), std::string::npos);
  EXPECT_NE(text.find("tms_serve_latency_total_count 1"), std::string::npos);
  // Count-valued histograms keep their integer inclusive bounds.
  EXPECT_NE(text.find("tms_sched_ii_minus_mii_bucket{le=\"0\"}"), std::string::npos);
  EXPECT_NE(text.find("tms_sched_ii_minus_mii_bucket{le=\"+Inf\"}"), std::string::npos);
}

TEST(Prometheus, LinterCatchesBrokenExpositions) {
  struct Case {
    const char* name;
    const char* text;
  };
  const std::vector<Case> cases = {
      {"sample before TYPE", "tms_x_bucket{le=\"+Inf\"} 1\n"},
      {"decreasing cumulative",
       "# HELP tms_h h\n# TYPE tms_h histogram\n"
       "tms_h_bucket{le=\"1\"} 2\ntms_h_bucket{le=\"2\"} 1\ntms_h_bucket{le=\"+Inf\"} 2\n"
       "tms_h_sum 3\ntms_h_count 2\n"},
      {"missing +Inf",
       "# HELP tms_h h\n# TYPE tms_h histogram\n"
       "tms_h_bucket{le=\"1\"} 1\ntms_h_sum 1\ntms_h_count 1\n"},
      {"le out of order",
       "# HELP tms_h h\n# TYPE tms_h histogram\n"
       "tms_h_bucket{le=\"2\"} 1\ntms_h_bucket{le=\"1\"} 1\ntms_h_bucket{le=\"+Inf\"} 1\n"
       "tms_h_sum 1\ntms_h_count 1\n"},
      {"count disagrees with +Inf",
       "# HELP tms_h h\n# TYPE tms_h histogram\n"
       "tms_h_bucket{le=\"1\"} 1\ntms_h_bucket{le=\"+Inf\"} 1\n"
       "tms_h_sum 1\ntms_h_count 5\n"},
      {"duplicate TYPE",
       "# HELP tms_c c\n# TYPE tms_c counter\ntms_c 1\n# TYPE tms_c counter\ntms_c 2\n"},
      {"interleaved metrics",
       "# HELP tms_a a\n# TYPE tms_a counter\ntms_a 1\n"
       "# HELP tms_b b\n# TYPE tms_b counter\ntms_b 1\ntms_a 2\n"},
      {"no trailing newline", "# HELP tms_c c\n# TYPE tms_c counter\ntms_c 1"},
  };
  for (const Case& c : cases) {
    EXPECT_TRUE(obs::lint_prometheus_text(c.text).has_value()) << "must reject: " << c.name;
  }
  // And a clean minimal exposition passes.
  const char* good =
      "# HELP tms_c c\n# TYPE tms_c counter\ntms_c 1\n"
      "# HELP tms_h h\n# TYPE tms_h histogram\n"
      "tms_h_bucket{le=\"1\"} 1\ntms_h_bucket{le=\"+Inf\"} 2\ntms_h_sum 3\ntms_h_count 2\n";
  const auto err = obs::lint_prometheus_text(good);
  EXPECT_FALSE(err.has_value()) << *err;
}

TEST(Prometheus, ShardedWriterLintsCleanWithOneHeaderPerMetric) {
  // The merged cluster exposition: one HELP/TYPE header per metric,
  // then one sample set per shard label. The linter's per-labelset
  // histogram blocks are exactly what makes this legal.
  obs::counters().serve_requests.add(1);
  obs::counters().serve_latency_total.record_us(100);
  const obs::CountersSnapshot s = obs::counters_snapshot();
  const std::string text = obs::write_prometheus_text_sharded(
      {{"router", s}, {"/tmp/b0.sock", s}, {"/tmp/b1.sock", s}});

  const auto err = obs::lint_prometheus_text(text);
  EXPECT_FALSE(err.has_value()) << *err;
  EXPECT_NE(text.find("shard=\"router\""), std::string::npos);
  EXPECT_NE(text.find("shard=\"/tmp/b0.sock\""), std::string::npos);
  EXPECT_NE(text.find("shard=\"/tmp/b1.sock\""), std::string::npos);
  // Every sample carries a shard label; headers appear exactly once.
  std::size_t help_total = 0;
  for (std::size_t at = text.find("# HELP tms_serve_requests ");
       at != std::string::npos; at = text.find("# HELP tms_serve_requests ", at + 1)) {
    ++help_total;
  }
  EXPECT_EQ(help_total, 1u);
}

TEST(Prometheus, LinterRejectsPerLabelsetHistogramViolationsInShardedDumps) {
  // A second shard restarting its le ladder is fine (different
  // labelset); the same shard emitting a second _sum is not.
  const char* good =
      "# HELP tms_h h\n# TYPE tms_h histogram\n"
      "tms_h_bucket{shard=\"a\",le=\"1\"} 1\ntms_h_bucket{shard=\"a\",le=\"+Inf\"} 1\n"
      "tms_h_sum{shard=\"a\"} 1\ntms_h_count{shard=\"a\"} 1\n"
      "tms_h_bucket{shard=\"b\",le=\"1\"} 2\ntms_h_bucket{shard=\"b\",le=\"+Inf\"} 2\n"
      "tms_h_sum{shard=\"b\"} 2\ntms_h_count{shard=\"b\"} 2\n";
  const auto ok = obs::lint_prometheus_text(good);
  EXPECT_FALSE(ok.has_value()) << *ok;

  const char* dup_sum =
      "# HELP tms_h h\n# TYPE tms_h histogram\n"
      "tms_h_bucket{shard=\"a\",le=\"+Inf\"} 1\n"
      "tms_h_sum{shard=\"a\"} 1\ntms_h_sum{shard=\"a\",extra=\"\"} 1\n"
      "tms_h_count{shard=\"a\"} 1\n";
  // Same labelset twice is a duplicate series; a *different* labelset's
  // sum lands in its own block and then fails for missing buckets.
  EXPECT_TRUE(obs::lint_prometheus_text(dup_sum).has_value());

  const char* le_backwards_within_shard =
      "# HELP tms_h h\n# TYPE tms_h histogram\n"
      "tms_h_bucket{shard=\"a\",le=\"2\"} 1\ntms_h_bucket{shard=\"a\",le=\"1\"} 1\n"
      "tms_h_bucket{shard=\"a\",le=\"+Inf\"} 1\n"
      "tms_h_sum{shard=\"a\"} 1\ntms_h_count{shard=\"a\"} 1\n";
  EXPECT_TRUE(obs::lint_prometheus_text(le_backwards_within_shard).has_value());
}

// ------------------------------------------------------- flight recorder

TEST(Flight, RingRetainsTheLastCapacityRecordsInSeqOrder) {
  obs::FlightRecorder rec(4);
  for (int i = 0; i < 6; ++i) {
    obs::FlightRecord r;
    obs::flight_copy(r.request_id, sizeof r.request_id, "req-" + std::to_string(i));
    r.t_total_us = i;
    rec.record(r);
  }
  EXPECT_EQ(rec.recorded(), 6u);
  EXPECT_EQ(rec.dropped(), 0u) << "uncontended writes never drop";
  const std::vector<obs::FlightRecord> snap = rec.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  for (std::size_t i = 1; i < snap.size(); ++i) EXPECT_LT(snap[i - 1].seq, snap[i].seq);
  EXPECT_STREQ(snap.back().request_id, "req-5");
  EXPECT_STREQ(snap.front().request_id, "req-2") << "oldest retained after wrap";
}

TEST(Flight, CopyTruncatesOverlongStringsWithTermination) {
  char buf[8];
  obs::flight_copy(buf, sizeof buf, "0123456789abcdef");
  EXPECT_STREQ(buf, "0123456");
  obs::flight_copy(buf, sizeof buf, "ok");
  EXPECT_STREQ(buf, "ok");
}

TEST(Flight, DumpIsCanonicalTmsdFlightV1Json) {
  obs::FlightRecorder rec(8);
  obs::FlightRecord r;
  r.trace_id = 0xABCULL;
  r.span_id = 0xDEFULL;
  obs::flight_copy(r.request_id, sizeof r.request_id, "fr-1");
  obs::flight_copy(r.scheduler, sizeof r.scheduler, "tms");
  obs::flight_copy(r.outcome, sizeof r.outcome, "ok");
  r.instrs = 5;
  r.ncore = 4;
  r.ii = 3;
  r.mii = 2;
  r.t_total_us = 123;
  rec.record(r);

  const std::string json = obs::flight_to_json(rec);
  const auto parsed = support::parse_json(json);
  const auto* v = std::get_if<support::JsonValue>(&parsed);
  ASSERT_NE(v, nullptr) << std::get<std::string>(parsed);
  const auto* schema = v->find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->as_string(), "tmsd-flight-v1");
  EXPECT_NE(v->find("capacity"), nullptr);
  EXPECT_NE(v->find("recorded"), nullptr);
  EXPECT_NE(v->find("dropped"), nullptr);
  const auto* records = v->find("records");
  ASSERT_NE(records, nullptr);
  // Trace ids render as 16-char lowercase hex, like the wire fields.
  EXPECT_NE(json.find("\"0000000000000abc\""), std::string::npos);
  EXPECT_NE(json.find("\"fr-1\""), std::string::npos);
}

TEST(Counters, SnapshotAccumulateIsBucketwiseExactAndResizesItsTarget) {
  // The cluster aggregation primitive: accumulating two shard deltas
  // into a default-constructed snapshot must equal one process having
  // observed all the traffic — exact counters, exact buckets, exact
  // sums. Deltas keep the test independent of whatever earlier tests
  // put in the process-wide registry.
  const obs::CountersSnapshot t0 = obs::counters_snapshot();
  obs::counters().serve_requests.add(3);
  obs::counters().serve_latency_total.record_us(5);
  obs::counters().serve_latency_total.record_us(1000);
  const obs::CountersSnapshot shard_a = obs::snapshot_delta(t0, obs::counters_snapshot());

  const obs::CountersSnapshot t1 = obs::counters_snapshot();
  obs::counters().serve_requests.add(4);
  obs::counters().serve_latency_total.record_us(5);
  obs::counters().sched_ii_minus_mii.record(2);
  const obs::CountersSnapshot shard_b = obs::snapshot_delta(t1, obs::counters_snapshot());

  obs::CountersSnapshot agg;  // starts empty: accumulate must shape it
  obs::snapshot_accumulate(agg, shard_a);
  obs::snapshot_accumulate(agg, shard_b);

  EXPECT_EQ(agg.value("serve.requests"), 7u);
  EXPECT_EQ(agg.time_histogram_count("serve.latency.total"), 3u);
  EXPECT_EQ(agg.time_histogram_sum_us("serve.latency.total"), 1010u);
  const auto buckets = agg.time_histogram("serve.latency.total");
  EXPECT_EQ(buckets[obs::TimeHistogram::bucket_of_us(5)], 2u);
  EXPECT_EQ(buckets[obs::TimeHistogram::bucket_of_us(1000)], 1u);
  // Count-shaped histograms merge the same way.
  const std::size_t hist_index = [] {
    std::size_t i = 0;
    for (const obs::MetricInfo& m : obs::metric_catalog()) {
      if (m.kind != obs::MetricKind::kHistogram) continue;
      if (std::string_view(m.name) == "sched.ii_minus_mii") return i;
      ++i;
    }
    return i;
  }();
  EXPECT_EQ(agg.histograms[hist_index][obs::Histogram::bucket_of(2)], 1u);
  EXPECT_EQ(agg.histogram_sums[hist_index], 2u);
}

TEST(Counters, SnapshotFromJsonRoundTripsExactly) {
  // What the router does per shard: parse the backend's STATS JSON back
  // into a snapshot. Round-tripping through write_counters_json must be
  // lossless for every vector.
  const obs::CountersSnapshot t0 = obs::counters_snapshot();
  obs::counters().serve_responses_ok.add(11);
  obs::counters().serve_queue_depth.record(3);
  obs::counters().serve_latency_schedule.record_us(42);
  const obs::CountersSnapshot s = obs::snapshot_delta(t0, obs::counters_snapshot());

  support::JsonWriter w;
  obs::write_counters_json(w, s);
  const auto parsed = support::parse_json(w.str());
  const auto* v = std::get_if<support::JsonValue>(&parsed);
  ASSERT_NE(v, nullptr) << std::get<std::string>(parsed);
  const obs::CountersSnapshot back = obs::snapshot_from_json(*v);

  EXPECT_EQ(back.counters, s.counters);
  EXPECT_EQ(back.histograms, s.histograms);
  EXPECT_EQ(back.histogram_sums, s.histogram_sums);
  EXPECT_EQ(back.time_histograms, s.time_histograms);
  EXPECT_EQ(back.time_histogram_sums_us, s.time_histogram_sums_us);
}

// ------------------------------------------------------------- doc-sync

std::string catalog_markdown_table(const char* skip = nullptr, const char* extra = nullptr) {
  std::string md = "| Metric | Unit | Description |\n|---|---|---|\n";
  for (const obs::MetricInfo& m : obs::metric_catalog()) {
    if (skip != nullptr && std::string(m.name) == skip) continue;
    md += "| `" + std::string(m.name) + "` | x | x |\n";
  }
  if (extra != nullptr) md += "| `" + std::string(extra) + "` | x | x |\n";
  return md;
}

TEST(DocSync, ExtractsBacktickedDottedFirstCells) {
  const std::string md =
      "# Title\n"
      "Some prose mentioning `driver.jobs` inline, which must NOT count.\n\n"
      "| Metric | Unit |\n"
      "|--------|------|\n"
      "| `sched.slots_tried` | slots |\n"
      "|   `sim.squashes`   | squashes |\n"
      "| not-a-metric | x |\n"
      "| `NotDotted` | x |\n";
  const std::vector<std::string> names = obs::documented_metric_names(md);
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "sched.slots_tried");
  EXPECT_EQ(names[1], "sim.squashes");
}

TEST(DocSync, CompleteCatalogIsInSync) {
  const obs::DocSyncReport r = obs::check_counter_catalog(catalog_markdown_table());
  EXPECT_TRUE(r.ok()) << r.to_string();
}

TEST(DocSync, RemovedCounterIsReportedMissing) {
  // Negative fixture: the doc lacks one live metric.
  const obs::DocSyncReport r =
      obs::check_counter_catalog(catalog_markdown_table(/*skip=*/"sched.slots_tried"));
  ASSERT_EQ(r.missing.size(), 1u);
  EXPECT_EQ(r.missing[0], "sched.slots_tried");
  EXPECT_FALSE(r.ok());
}

TEST(DocSync, StaleDocumentedNameIsReported) {
  // Negative fixture: the doc names a metric that no longer exists.
  const obs::DocSyncReport r =
      obs::check_counter_catalog(catalog_markdown_table(nullptr, /*extra=*/"sched.retired_metric"));
  ASSERT_EQ(r.stale.size(), 1u);
  EXPECT_EQ(r.stale[0], "sched.retired_metric");
  EXPECT_FALSE(r.ok());
}

TEST(DocSync, LiveObservabilityDocMatchesRegistry) {
  // The real contract: docs/OBSERVABILITY.md's catalog table must match
  // the live registry exactly. This is the test that fails when a
  // counter is added, renamed, or removed without updating the docs.
  const std::string path = std::string(TMS_SOURCE_DIR) + "/docs/OBSERVABILITY.md";
  std::ifstream f(path);
  ASSERT_TRUE(f.good()) << "cannot open " << path;
  std::stringstream ss;
  ss << f.rdbuf();
  const obs::DocSyncReport r = obs::check_counter_catalog(ss.str());
  EXPECT_TRUE(r.ok()) << r.to_string();
}

// ---------------------------------------------------------------- trace

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!obs::trace_compiled()) GTEST_SKIP() << "built with TMS_TRACE=0";
  }
  void TearDown() override { obs::trace_disable(); }
};

TEST_F(TraceTest, DisabledTracerRecordsNothing) {
  EXPECT_FALSE(obs::trace_on());
  TMS_TRACE_INSTANT("t", "nothing", obs::targ("k", 1));
  EXPECT_EQ(obs::trace_event_count(), 0u);
}

TEST_F(TraceTest, SpansAndInstantsAreRecordedWithArgs) {
  obs::trace_enable(64);
  {
    TMS_TRACE_SPAN(s, "cat", "outer");
    TMS_TRACE_SPAN_ARG(s, obs::targ("ii", 7), obs::targ("p", 0.25), obs::targ("why", "mrt"));
    TMS_TRACE_INSTANT("cat", "inner", obs::targ("n", std::size_t{3}));
  }
  const std::vector<obs::TraceEvent> evs = obs::trace_snapshot();
  ASSERT_EQ(evs.size(), 2u);
  // Arrival order: the instant fires before the span closes.
  EXPECT_STREQ(evs[0].name, "inner");
  EXPECT_EQ(evs[0].phase, 'i');
  EXPECT_STREQ(evs[1].name, "outer");
  EXPECT_EQ(evs[1].phase, 'X');
  ASSERT_EQ(evs[1].nargs, 3);
  EXPECT_STREQ(evs[1].args[0].key, "ii");
  EXPECT_EQ(evs[1].args[0].i, 7);
  EXPECT_EQ(evs[1].args[1].kind, obs::TraceArg::Kind::kDouble);
  EXPECT_STREQ(evs[1].args[2].s, "mrt");
  EXPECT_GE(evs[1].dur_us, 0);

  const std::string chrome = obs::trace_chrome_json();
  EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(chrome.find("\"outer\""), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\":\"X\""), std::string::npos);
}

TEST_F(TraceTest, FullBufferDropsNewEventsInsteadOfOverwriting) {
  obs::trace_enable(4);
  for (int i = 0; i < 10; ++i) {
    TMS_TRACE_INSTANT("t", "e", obs::targ("i", i));
  }
  EXPECT_EQ(obs::trace_event_count(), 4u);
  EXPECT_EQ(obs::trace_dropped(), 6u);
  // The retained prefix is the first four events, untouched.
  const std::vector<obs::TraceEvent> evs = obs::trace_snapshot();
  ASSERT_EQ(evs.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(evs[static_cast<std::size_t>(i)].args[0].i, i);
}

TEST_F(TraceTest, ScopedContextStampsAndRestores) {
  obs::trace_enable(64);
  {
    obs::ScopedContext outer(obs::kCtxJob, 5);
    TMS_TRACE_INSTANT("t", "a");
    {
      obs::ScopedContext inner(obs::kCtxExplain, 9);
      TMS_TRACE_INSTANT("t", "b");
    }
    TMS_TRACE_INSTANT("t", "c");
  }
  TMS_TRACE_INSTANT("t", "d");
  const std::vector<obs::TraceEvent> evs = obs::trace_snapshot();
  ASSERT_EQ(evs.size(), 4u);
  EXPECT_EQ(evs[0].ctx_phase, obs::kCtxJob);
  EXPECT_EQ(evs[0].ctx_item, 5);
  EXPECT_EQ(evs[0].seq, 0u);
  EXPECT_EQ(evs[1].ctx_phase, obs::kCtxExplain);
  EXPECT_EQ(evs[1].ctx_item, 9);
  EXPECT_EQ(evs[2].ctx_phase, obs::kCtxJob);
  EXPECT_EQ(evs[2].seq, 1u) << "inner context must not disturb the outer sequence";
  EXPECT_EQ(evs[3].ctx_phase, -1);
}

TEST_F(TraceTest, CanonicalExportSortsByLogicalPositionNotArrival) {
  obs::trace_enable(64);
  // Record contexts out of order, as parallel workers would.
  {
    obs::ScopedContext c(obs::kCtxJob, 2);
    TMS_TRACE_INSTANT("t", "job2.first");
  }
  {
    obs::ScopedContext c(obs::kCtxJob, 0);
    TMS_TRACE_INSTANT("t", "job0.first");
    TMS_TRACE_INSTANT("t", "job0.second");
  }
  const std::string canon = obs::trace_canonical_json();
  const std::size_t p0 = canon.find("job0.first");
  const std::size_t p1 = canon.find("job0.second");
  const std::size_t p2 = canon.find("job2.first");
  ASSERT_NE(p0, std::string::npos);
  ASSERT_NE(p1, std::string::npos);
  ASSERT_NE(p2, std::string::npos);
  EXPECT_LT(p0, p1);
  EXPECT_LT(p1, p2);
  // Volatile fields are absent from the canonical form.
  EXPECT_EQ(canon.find("\"ts\""), std::string::npos);
  EXPECT_EQ(canon.find("\"tid\""), std::string::npos);
}

TEST_F(TraceTest, ConcurrentWritersEachKeepTheirOwnSequence) {
  obs::trace_enable(1u << 12);
  std::vector<std::thread> threads;
  constexpr int kPerThread = 100;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([t] {
      obs::ScopedContext ctx(obs::kCtxJob, t);
      for (int i = 0; i < kPerThread; ++i) {
        TMS_TRACE_INSTANT("t", "e", obs::targ("i", i));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(obs::trace_dropped(), 0u);
  const std::vector<obs::TraceEvent> evs = obs::trace_snapshot();
  ASSERT_EQ(evs.size(), 4u * kPerThread);
  // Within each context, sequence numbers are exactly 0..kPerThread-1.
  std::vector<std::set<std::uint32_t>> seqs(4);
  for (const obs::TraceEvent& e : evs) {
    ASSERT_GE(e.ctx_item, 0);
    ASSERT_LT(e.ctx_item, 4);
    EXPECT_TRUE(seqs[static_cast<std::size_t>(e.ctx_item)].insert(e.seq).second)
        << "duplicate seq in one context";
  }
  for (const auto& s : seqs) {
    EXPECT_EQ(s.size(), static_cast<std::size_t>(kPerThread));
    EXPECT_EQ(*s.rbegin(), static_cast<std::uint32_t>(kPerThread - 1));
  }
}

TEST_F(TraceTest, ResetKeepsArmedStateAndClearsEvents) {
  obs::trace_enable(8);
  TMS_TRACE_INSTANT("t", "before");
  ASSERT_EQ(obs::trace_event_count(), 1u);
  obs::trace_reset();
  EXPECT_TRUE(obs::trace_on());
  EXPECT_EQ(obs::trace_event_count(), 0u);
  TMS_TRACE_INSTANT("t", "after");
  const std::vector<obs::TraceEvent> evs = obs::trace_snapshot();
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_STREQ(evs[0].name, "after");
}

TEST_F(TraceTest, InternReturnsStablePointers) {
  const char* a = obs::intern("loop_alpha");
  const char* b = obs::intern(std::string("loop_") + "alpha");
  EXPECT_EQ(a, b);
  EXPECT_STREQ(a, "loop_alpha");
}

// -------------------------------------------- distributed trace context

TEST(TraceIds, MintedIdsAreNonZeroAndUnique) {
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 4096; ++i) {
    const std::uint64_t id = obs::mint_id();
    EXPECT_NE(id, 0u) << "zero means 'no trace' on the wire";
    EXPECT_TRUE(seen.insert(id).second) << "minted ids must be process-unique";
  }
}

TEST_F(TraceTest, ScopedContextIsAdoptedByTheFirstSpanAndChildrenNest) {
  obs::trace_enable(64);
  const std::uint64_t remote_trace = obs::mint_id();
  const std::uint64_t remote_parent = obs::mint_id();
  std::uint64_t continuation = 0;
  {
    obs::ScopedTraceContext tctx(remote_trace, remote_parent);
    continuation = tctx.span_id();
    EXPECT_NE(continuation, 0u) << "pre-minted so it can be echoed before the span closes";
    TMS_TRACE_SPAN(s, "t", "serve.request");
    { TMS_TRACE_SPAN(c, "t", "serve.schedule"); }
  }
  const std::vector<obs::TraceEvent> evs = obs::trace_snapshot();
  ASSERT_EQ(evs.size(), 2u);
  // Spans close inside-out: the child lands first.
  EXPECT_STREQ(evs[0].name, "serve.schedule");
  EXPECT_EQ(evs[0].trace_id, remote_trace);
  EXPECT_EQ(evs[0].parent_span_id, continuation) << "children hang under the adopted span";
  EXPECT_STREQ(evs[1].name, "serve.request");
  EXPECT_EQ(evs[1].trace_id, remote_trace);
  EXPECT_EQ(evs[1].span_id, continuation) << "first span adopts the pre-minted id";
  EXPECT_EQ(evs[1].parent_span_id, remote_parent) << "stitched to the remote caller's span";
}

TEST_F(TraceTest, EmptyContextRecordsZeroIdsAndChromeJsonCarriesHex) {
  obs::trace_enable(64);
  {
    obs::ScopedTraceContext tctx(0, 0);
    EXPECT_EQ(tctx.span_id(), 0u);
    TMS_TRACE_SPAN(s, "t", "untraced");
  }
  {
    obs::ScopedTraceContext tctx(0x12abULL, 0);
    TMS_TRACE_SPAN(s, "t", "traced");
  }
  const std::vector<obs::TraceEvent> evs = obs::trace_snapshot();
  ASSERT_EQ(evs.size(), 2u);
  EXPECT_EQ(evs[0].trace_id, 0u);
  EXPECT_EQ(evs[0].span_id, 0u);
  EXPECT_EQ(evs[1].trace_id, 0x12abULL);
  const std::string chrome = obs::trace_chrome_json();
  EXPECT_NE(chrome.find("00000000000012ab"), std::string::npos)
      << "chrome export must carry the hex ids for stitching";
  // The canonical form omits minted ids (they would break byte-identity).
  const std::string canonical = obs::trace_canonical_json();
  EXPECT_EQ(canonical.find("00000000000012ab"), std::string::npos);
}

// -------------------------------------------------------------- explain

obs::TraceEvent attempt_event(int ii, int c_delay, double p_max, bool feasible) {
  obs::TraceEvent e;
  e.cat = "sched";
  e.name = "tms.attempt";
  e.phase = 'X';
  e.nargs = 4;
  e.args[0] = obs::targ("ii", ii);
  e.args[1] = obs::targ("c_delay", c_delay);
  e.args[2] = obs::targ("p_max", p_max);
  e.args[3] = obs::targ("feasible", feasible ? 1 : 0);
  return e;
}

obs::TraceEvent reject_event(int node, const char* reason) {
  obs::TraceEvent e;
  e.cat = "sched";
  e.name = "slot.reject";
  e.phase = 'i';
  e.nargs = 3;
  e.args[0] = obs::targ("node", node);
  e.args[1] = obs::targ("row", 0);
  e.args[2] = obs::targ("reason", reason);
  return e;
}

TEST(Explain, RendersLadderTotalsHardestNodesAndResult) {
  obs::ExplainInput in;
  in.loop_name = "demo";
  in.scheduler = "tms";
  in.mii = 4;
  in.node_names = {"load_a", "mul", "store_b"};
  in.events.push_back(reject_event(1, "mrt"));
  in.events.push_back(reject_event(1, "c_delay"));
  in.events.push_back(reject_event(2, "c_delay"));
  in.events.push_back(attempt_event(4, 3, 0.1, false));
  in.events.push_back(reject_event(1, "p_max"));
  in.events.push_back(attempt_event(5, 6, 0.1, true));
  in.result = obs::ExplainInput::Landing{5, 2, 0.1};

  const std::string out = obs::render_tms_explain(in);
  EXPECT_NE(out.find("tms explain: demo"), std::string::npos);
  EXPECT_NE(out.find("MII = 4"), std::string::npos);
  EXPECT_NE(out.find("II = 4 (MII+0)"), std::string::npos);
  EXPECT_NE(out.find("II = 5 (MII+1)"), std::string::npos);
  EXPECT_NE(out.find("infeasible"), std::string::npos);
  EXPECT_NE(out.find("mrt=1"), std::string::npos);
  EXPECT_NE(out.find("c_delay=2"), std::string::npos);
  EXPECT_NE(out.find("2 threshold attempts"), std::string::npos);
  EXPECT_NE(out.find("mul"), std::string::npos);  // hardest node by name
  EXPECT_NE(out.find("schedule found at II = 5 (MII+1), C_delay = 2, p_max = 0.10"),
            std::string::npos);
  EXPECT_EQ(out.find("cut short"), std::string::npos);
}

// A full trace buffer keeps the oldest events, so a long ladder loses
// its tail, tms.result included. The Result line still comes from the
// input, and a line under the ladder says the ladder is partial.
TEST(Explain, SaysWhenDroppedEventsCutTheLadderShort) {
  obs::ExplainInput in;
  in.loop_name = "long";
  in.mii = 6;
  in.events.push_back(attempt_event(6, 4, 0.01, false));
  in.dropped_events = 9949021;
  in.result = obs::ExplainInput::Landing{9, 65, 0.1};

  const std::string out = obs::render_tms_explain(in);
  EXPECT_NE(out.find("  C_delay <= 4   p_max = 0.01  ->  infeasible\n"
                     "Ladder cut short: the trace buffer dropped 9949021 event(s), so the "
                     "ladder and its totals are partial\n"
                     "\nTotals: 1 threshold attempts"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("\nResult: schedule found at II = 9 (MII+3), C_delay = 65, p_max = 0.10\n"),
            std::string::npos)
      << out;

  in.result.reset();
  EXPECT_NE(obs::render_tms_explain(in).find("Result: no feasible schedule"), std::string::npos);
}

TEST(Explain, RendersTheIiCutoffAsTheReasonTheSweepStopped) {
  obs::ExplainInput in;
  in.loop_name = "acc";
  in.mii = 10;
  in.events.push_back(attempt_event(35, 5, 0.01, true));
  obs::TraceEvent cut;
  cut.cat = "sched";
  cut.name = "tms.ii_cutoff";
  cut.phase = 'i';
  cut.nargs = 3;
  cut.args[0] = obs::targ("ii", 36);
  cut.args[1] = obs::targ("cd_floor", 5);
  cut.args[2] = obs::targ("pairs_floor", 3);
  in.events.push_back(cut);

  const std::string out = obs::render_tms_explain(in);
  EXPECT_NE(out.find("Sweep stopped before II = 36 (MII+26)"), std::string::npos) << out;
  EXPECT_NE(out.find("recurrence floors (C_delay 5, 3 comm pairs)"), std::string::npos) << out;
}

TEST(Explain, RendersARungBelowTheMemoryFloorWithItsFloor) {
  obs::ExplainInput in;
  in.loop_name = "memrec";
  in.mii = 62;
  in.events.push_back(attempt_event(62, 67, 0.01, true));
  obs::TraceEvent below;
  below.cat = "sched";
  below.name = "tms.rung_below_floor";
  below.phase = 'i';
  below.nargs = 4;
  below.args[0] = obs::targ("ii", 62);
  below.args[1] = obs::targ("c_delay", 36);
  below.args[2] = obs::targ("p_max", 0.01);
  below.args[3] = obs::targ("floor", 62);
  in.events.push_back(below);

  const std::string out = obs::render_tms_explain(in);
  EXPECT_NE(out.find("C_delay <= 36  p_max = 0.01  ->  infeasible  [not run: below the "
                     "memory-recurrence floor C_delay 62]"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("1 threshold attempts, 1 rungs below the floor not run"), std::string::npos)
      << out;
}

TEST(Explain, RendersASkippedPmaxSweep) {
  obs::ExplainInput in;
  in.loop_name = "clean";
  in.mii = 8;
  in.events.push_back(attempt_event(8, 11, 0.01, true));
  obs::TraceEvent skipped;
  skipped.cat = "sched";
  skipped.name = "tms.sweep_skipped";
  skipped.phase = 'i';
  skipped.nargs = 2;
  skipped.args[0] = obs::targ("ii", 8);
  skipped.args[1] = obs::targ("p_max", 0.1);
  in.events.push_back(skipped);

  const std::string out = obs::render_tms_explain(in);
  EXPECT_NE(out.find("II = 8 (MII+0):\n  C_delay <= 11  p_max = 0.01  ->  feasible  \n"
                     "  p_max = 0.10 sweep skipped: a stricter sweep met no C2 rejection"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("1 threshold attempts, 1 P_max sweeps skipped"), std::string::npos) << out;
}

TEST(Explain, EmptyTraceSaysSo) {
  obs::ExplainInput in;
  in.loop_name = "empty";
  in.mii = 1;
  in.result = obs::ExplainInput::Landing{1, 0, 0.01};
  const std::string out = obs::render_tms_explain(in);
  EXPECT_NE(out.find("no scheduling attempts recorded"), std::string::npos);
  EXPECT_NE(out.find("Result: schedule found at II = 1 (MII+0)"), std::string::npos) << out;
}

}  // namespace
}  // namespace tms
