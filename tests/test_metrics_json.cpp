// Round-trip and schema tests for the machine-readable metrics
// (obs/metrics_json.hpp): an emitted row must validate against the
// documented v2 schema and survive emit → dump → parse → reconstruct with
// every field intact; the negative cases pin the validator's messages to
// actual violations rather than accidents of field order.
#include <gtest/gtest.h>

#include "obs/json.hpp"
#include "obs/metrics_json.hpp"

namespace ppscan::obs {
namespace {

MetricsReport sample_report() {
  MetricsReport r;
  r.tool = "ppscan_cli";
  r.algorithm = "ppSCAN";
  r.dataset = "livejournal-sim";
  r.eps = "0.6";
  r.mu = 5;
  r.threads = 16;
  r.kernel = "avx2";
  r.runtime_kind = "worksteal";
  r.num_vertices = 4000000;
  r.num_edges = 34000000;
  r.total_seconds = 12.5;
  r.similarity_seconds = 8.25;
  r.pruning_seconds = 1.75;
  r.stage_prune_seconds = 2.0;
  r.stage_check_seconds = 7.0;
  r.stage_core_cluster_seconds = 2.5;
  r.stage_noncore_cluster_seconds = 1.0;
  r.busy_seconds = 180.0;
  r.idle_seconds = 20.0;
  r.compsim_invocations = 29000000;
  r.tasks_submitted = 5000;
  r.tasks_executed = 5000;
  r.steals = 321;
  r.num_clusters = 12345;
  r.num_cores = 987654;
  r.abort_reason = "none";
  r.abort_phase = "";
  r.phases_completed = 7;
  r.peak_governed_bytes = 1ull << 30;
  r.counters.arcs_touched = 68000000;
  r.counters.arcs_predicate_pruned = 10000000;
  r.counters.sims_computed = 29000000;
  r.counters.sims_bound_rejected = 21000000;
  r.counters.sims_reused = 29000000;
  r.counters.core_early_exits = 3000000;
  r.counters.uf_unions = 900000;
  r.counters.uf_finds = 4000000;
  r.counters.uf_find_steps = 4100000;
  return r;
}

// A serving row on top of the base report: queries[] plus a consistent
// latency histogram (bucket counts summing to count, as the validator
// requires).
MetricsReport serving_report() {
  MetricsReport r = sample_report();
  r.algorithm = "GsIndex-serve";
  QueryRowMetrics q0;
  q0.id = 0;
  q0.eps = "3/5";
  q0.mu = 5;
  q0.latency_ms = 4.25;
  q0.queue_ms = 0.5;
  q0.execute_ms = 3.5;
  q0.num_clusters = 12345;
  q0.num_cores = 987654;
  q0.abort_reason = "none";
  q0.cache_hit = false;
  QueryRowMetrics q1;
  q1.id = 1;
  q1.eps = "1/5";
  q1.mu = 2;
  q1.latency_ms = 0.031;
  q1.queue_ms = 0.02;
  q1.execute_ms = 0.0;
  q1.num_clusters = 12345;
  q1.num_cores = 987654;
  q1.abort_reason = "deadline";
  q1.cache_hit = true;
  r.queries = {q0, q1};
  r.latency.count = 2;
  r.latency.p50_ms = 0.032;
  r.latency.p90_ms = 4.25;
  r.latency.p99_ms = 4.25;
  r.latency.max_ms = 4.25;
  r.latency.sum_ms = 4.281;
  r.latency.buckets = {{32.0, 1}, {8192.0, 1}};
  return r;
}

TEST(MetricsJson, EmittedRowValidatesAgainstSchema) {
  const auto row = metrics_to_json(sample_report());
  EXPECT_EQ(validate_metrics_json(row), "");
}

TEST(MetricsJson, RoundTripPreservesEveryField) {
  const MetricsReport original = sample_report();
  // Through the full pipeline: emit, serialize, parse, reconstruct.
  const auto parsed = JsonValue::parse(metrics_to_json(original).dump(2));
  const MetricsReport back = metrics_from_json(parsed);

  EXPECT_EQ(back.tool, original.tool);
  EXPECT_EQ(back.algorithm, original.algorithm);
  EXPECT_EQ(back.dataset, original.dataset);
  EXPECT_EQ(back.eps, original.eps);
  EXPECT_EQ(back.mu, original.mu);
  EXPECT_EQ(back.threads, original.threads);
  EXPECT_EQ(back.kernel, original.kernel);
  EXPECT_EQ(back.runtime_kind, original.runtime_kind);
  EXPECT_EQ(back.num_vertices, original.num_vertices);
  EXPECT_EQ(back.num_edges, original.num_edges);
  EXPECT_DOUBLE_EQ(back.total_seconds, original.total_seconds);
  EXPECT_DOUBLE_EQ(back.similarity_seconds, original.similarity_seconds);
  EXPECT_DOUBLE_EQ(back.pruning_seconds, original.pruning_seconds);
  EXPECT_DOUBLE_EQ(back.stage_prune_seconds, original.stage_prune_seconds);
  EXPECT_DOUBLE_EQ(back.stage_check_seconds, original.stage_check_seconds);
  EXPECT_DOUBLE_EQ(back.stage_core_cluster_seconds,
                   original.stage_core_cluster_seconds);
  EXPECT_DOUBLE_EQ(back.stage_noncore_cluster_seconds,
                   original.stage_noncore_cluster_seconds);
  EXPECT_DOUBLE_EQ(back.busy_seconds, original.busy_seconds);
  EXPECT_DOUBLE_EQ(back.idle_seconds, original.idle_seconds);
  EXPECT_EQ(back.compsim_invocations, original.compsim_invocations);
  EXPECT_EQ(back.tasks_submitted, original.tasks_submitted);
  EXPECT_EQ(back.tasks_executed, original.tasks_executed);
  EXPECT_EQ(back.steals, original.steals);
  EXPECT_EQ(back.num_clusters, original.num_clusters);
  EXPECT_EQ(back.num_cores, original.num_cores);
  EXPECT_EQ(back.abort_reason, original.abort_reason);
  EXPECT_EQ(back.abort_phase, original.abort_phase);
  EXPECT_EQ(back.phases_completed, original.phases_completed);
  EXPECT_EQ(back.peak_governed_bytes, original.peak_governed_bytes);
  EXPECT_EQ(back.counters.arcs_touched, original.counters.arcs_touched);
  EXPECT_EQ(back.counters.arcs_predicate_pruned,
            original.counters.arcs_predicate_pruned);
  EXPECT_EQ(back.counters.sims_computed, original.counters.sims_computed);
  EXPECT_EQ(back.counters.sims_bound_rejected,
            original.counters.sims_bound_rejected);
  EXPECT_EQ(back.counters.sims_reused, original.counters.sims_reused);
  EXPECT_EQ(back.counters.core_early_exits,
            original.counters.core_early_exits);
  EXPECT_EQ(back.counters.uf_unions, original.counters.uf_unions);
  EXPECT_EQ(back.counters.uf_finds, original.counters.uf_finds);
  EXPECT_EQ(back.counters.uf_find_steps, original.counters.uf_find_steps);
}

TEST(MetricsJson, FileEnvelopeValidates) {
  const auto doc =
      metrics_file_json("fig2", {sample_report(), sample_report()});
  EXPECT_EQ(validate_metrics_file_json(doc), "");
  // And survives serialization.
  EXPECT_EQ(validate_metrics_file_json(JsonValue::parse(doc.dump())), "");
  EXPECT_EQ(doc.at("figure").as_string(), "fig2");
  EXPECT_EQ(doc.at("rows").size(), 2u);
}

TEST(MetricsJson, MissingKeyIsReported) {
  auto row = metrics_to_json(sample_report());
  auto broken = JsonValue::object();
  for (const auto& [key, value] : row.members()) {
    if (key != "steals") broken.set(key, value);
  }
  const auto violation = validate_metrics_json(broken);
  EXPECT_NE(violation.find("steals"), std::string::npos) << violation;
}

TEST(MetricsJson, WrongTypeIsReported) {
  auto row = metrics_to_json(sample_report());
  row.set("threads", JsonValue::string("sixteen"));
  const auto violation = validate_metrics_json(row);
  EXPECT_NE(violation.find("threads"), std::string::npos) << violation;
}

TEST(MetricsJson, WrongSchemaVersionIsReported) {
  auto row = metrics_to_json(sample_report());
  row.set("schema_version", JsonValue::number_u64(99));
  const auto violation = validate_metrics_json(row);
  EXPECT_NE(violation.find("schema_version"), std::string::npos) << violation;
}

TEST(MetricsJson, BrokenFunnelInvariantIsReported) {
  MetricsReport r = sample_report();
  r.counters.arcs_touched += 1;  // pruned + computed + reused no longer adds up
  const auto violation = validate_metrics_json(metrics_to_json(r));
  EXPECT_NE(violation.find("arcs_touched"), std::string::npos) << violation;
}

TEST(MetricsJson, BoundRejectionsAboveComputedAreReported) {
  MetricsReport r = sample_report();
  r.counters.sims_bound_rejected = r.counters.sims_computed + 1;
  const auto violation = validate_metrics_json(metrics_to_json(r));
  EXPECT_NE(violation.find("sims_bound_rejected"), std::string::npos)
      << violation;
}

TEST(MetricsJson, ServingBlockIsOmittedWhenEmpty) {
  const auto row = metrics_to_json(sample_report());
  EXPECT_FALSE(row.has("queries"));
  EXPECT_FALSE(row.has("latency_histogram"));
}

TEST(MetricsJson, ServingRowValidatesAndRoundTrips) {
  const MetricsReport original = serving_report();
  const auto row = metrics_to_json(original);
  ASSERT_TRUE(row.has("queries"));
  ASSERT_TRUE(row.has("latency_histogram"));
  EXPECT_EQ(validate_metrics_json(row), "");

  const MetricsReport back =
      metrics_from_json(JsonValue::parse(row.dump(2)));
  ASSERT_EQ(back.queries.size(), original.queries.size());
  for (std::size_t i = 0; i < back.queries.size(); ++i) {
    EXPECT_EQ(back.queries[i].id, original.queries[i].id);
    EXPECT_EQ(back.queries[i].eps, original.queries[i].eps);
    EXPECT_EQ(back.queries[i].mu, original.queries[i].mu);
    EXPECT_DOUBLE_EQ(back.queries[i].latency_ms,
                     original.queries[i].latency_ms);
    EXPECT_EQ(back.queries[i].num_clusters, original.queries[i].num_clusters);
    EXPECT_EQ(back.queries[i].num_cores, original.queries[i].num_cores);
    EXPECT_EQ(back.queries[i].abort_reason, original.queries[i].abort_reason);
    EXPECT_EQ(back.queries[i].cache_hit, original.queries[i].cache_hit);
    EXPECT_DOUBLE_EQ(back.queries[i].queue_ms, original.queries[i].queue_ms);
    EXPECT_DOUBLE_EQ(back.queries[i].execute_ms,
                     original.queries[i].execute_ms);
  }
  EXPECT_EQ(back.latency.count, original.latency.count);
  EXPECT_DOUBLE_EQ(back.latency.sum_ms, original.latency.sum_ms);
  EXPECT_DOUBLE_EQ(back.latency.p50_ms, original.latency.p50_ms);
  EXPECT_DOUBLE_EQ(back.latency.p90_ms, original.latency.p90_ms);
  EXPECT_DOUBLE_EQ(back.latency.p99_ms, original.latency.p99_ms);
  EXPECT_DOUBLE_EQ(back.latency.max_ms, original.latency.max_ms);
  ASSERT_EQ(back.latency.buckets.size(), original.latency.buckets.size());
  for (std::size_t i = 0; i < back.latency.buckets.size(); ++i) {
    EXPECT_DOUBLE_EQ(back.latency.buckets[i].le_us,
                     original.latency.buckets[i].le_us);
    EXPECT_EQ(back.latency.buckets[i].count,
              original.latency.buckets[i].count);
  }
}

TEST(MetricsJson, MalformedQueryRowIsReported) {
  auto row = metrics_to_json(serving_report());
  auto queries = JsonValue::array();
  auto entry = JsonValue::object();
  entry.set("id", JsonValue::number_u64(0));  // every other key missing
  queries.push(std::move(entry));
  row.set("queries", std::move(queries));
  const auto violation = validate_metrics_json(row);
  EXPECT_NE(violation.find("queries[0]"), std::string::npos) << violation;
}

TEST(MetricsJson, QueryRowWithoutCacheHitIsReported) {
  auto row = metrics_to_json(serving_report());
  // Rebuild queries[] without the boolean field.
  auto queries = JsonValue::array();
  const auto& original = row.at("queries").at(0);
  auto entry = JsonValue::object();
  for (const auto& [key, value] : original.members()) {
    if (key != "cache_hit") entry.set(key, value);
  }
  queries.push(std::move(entry));
  row.set("queries", std::move(queries));
  const auto violation = validate_metrics_json(row);
  EXPECT_NE(violation.find("cache_hit"), std::string::npos) << violation;
}

TEST(MetricsJson, QueueSplitExceedingLatencyIsReported) {
  // The sanity check behind the queue_ms/execute_ms split: the parts may
  // not exceed the whole (beyond the documented delivery-overhead slack).
  MetricsReport r = serving_report();
  r.queries[0].queue_ms = 3.0;
  r.queries[0].execute_ms = 2.0;  // 5.0 > 4.25 * 1.05 + 0.5
  const auto violation = validate_metrics_json(metrics_to_json(r));
  EXPECT_NE(violation.find("queue_ms"), std::string::npos) << violation;
}

TEST(MetricsJson, QueueSplitIsAdditiveOptional) {
  // Rows emitted before the split existed (committed BENCH files) carry
  // neither key and must keep validating — the v2 schema is unchanged.
  auto row = metrics_to_json(serving_report());
  auto queries = JsonValue::array();
  for (std::size_t i = 0; i < row.at("queries").size(); ++i) {
    const auto& original = row.at("queries").at(i);
    auto entry = JsonValue::object();
    for (const auto& [key, value] : original.members()) {
      if (key != "queue_ms" && key != "execute_ms") entry.set(key, value);
    }
    queries.push(std::move(entry));
  }
  row.set("queries", std::move(queries));
  auto histogram = JsonValue::object();
  for (const auto& [key, value] : row.at("latency_histogram").members()) {
    if (key != "sum_ms") histogram.set(key, value);
  }
  row.set("latency_histogram", std::move(histogram));
  EXPECT_EQ(validate_metrics_json(row), "");
  // And the reconstruction defaults the absent fields to zero.
  const MetricsReport back = metrics_from_json(row);
  EXPECT_DOUBLE_EQ(back.queries[0].queue_ms, 0.0);
  EXPECT_DOUBLE_EQ(back.queries[0].execute_ms, 0.0);
  EXPECT_DOUBLE_EQ(back.latency.sum_ms, 0.0);
}

TEST(MetricsJson, NonNumericQueueSplitIsReported) {
  auto row = metrics_to_json(serving_report());
  auto queries = JsonValue::array();
  auto entry = JsonValue::object();
  for (const auto& [key, value] : row.at("queries").at(0).members()) {
    if (key == "queue_ms")
      entry.set(key, JsonValue::string("fast"));
    else
      entry.set(key, value);
  }
  queries.push(std::move(entry));
  row.set("queries", std::move(queries));
  const auto violation = validate_metrics_json(row);
  EXPECT_NE(violation.find("queue_ms"), std::string::npos) << violation;
}

TEST(MetricsJson, InconsistentHistogramBucketsAreReported) {
  MetricsReport r = serving_report();
  r.latency.buckets[0].count += 1;  // sum no longer equals count
  const auto violation = validate_metrics_json(metrics_to_json(r));
  EXPECT_NE(violation.find("bucket counts sum"), std::string::npos)
      << violation;
}

TEST(MetricsJson, ExtraRowKeysAreIgnoredByValidator) {
  // Harnesses decorate rows with derived figures (queries_per_second etc.)
  // via metrics_file_envelope; the validator must not reject them.
  auto row = metrics_to_json(serving_report());
  row.set("queries_per_second", JsonValue::number(1234.5));
  EXPECT_EQ(validate_metrics_json(row), "");
  std::vector<JsonValue> rows;
  rows.push_back(std::move(row));
  const auto doc = metrics_file_envelope("serving", std::move(rows));
  EXPECT_EQ(validate_metrics_file_json(doc), "");
  EXPECT_EQ(doc.at("figure").as_string(), "serving");
  EXPECT_TRUE(doc.at("rows").at(0).has("queries_per_second"));
}

TEST(MetricsJson, RowWithRetiredNumaBlockStillValidates) {
  // The first row of the committed BENCH_fig6.json, verbatim. Rows written
  // before the NUMA layer was removed carry numa_mode, placement,
  // numa_nodes, the steal split and per_node; the validator ignores keys
  // outside the schema, so old committed rows stay readable.
  const auto row = JsonValue::parse(R"json(
    {"schema_version": 2, "tool": "bench_fig6_scalability",
    "algorithm": "ppSCAN", "dataset": "twitter-sim", "eps": "0.2", "mu": 5,
    "threads": 1, "kernel": "avx512", "runtime_kind": "worksteal",
    "num_vertices": 2048, "num_edges": 23873, "total_seconds": 0.005268576,
    "similarity_seconds": 0, "pruning_seconds": 0,
    "stage_prune_seconds": 0.00076912, "stage_check_seconds": 0.002964928,
    "stage_core_cluster_seconds": 0.000481465,
    "stage_noncore_cluster_seconds": 0.00098868,
    "busy_seconds": 0.005077768000000001, "idle_seconds": 0,
    "compsim_invocations": 6483, "tasks_submitted": 13, "tasks_executed": 14,
    "steals": 0, "numa_mode": "auto", "placement": "sharded", "numa_nodes": 1,
    "steals_same_node": 0, "steals_remote": 0, "remote_misses": 0,
    "per_node": [{"node": 0, "workers": 1, "steals_same_node": 0,
    "steals_remote": 0, "remote_misses": 0}], "num_clusters": 1,
    "num_cores": 582, "abort_reason": "none", "abort_phase": "",
    "phases_completed": 7, "peak_governed_bytes": 211464,
    "arcs_touched": 18192, "arcs_predicate_pruned": 5226,
    "sims_computed": 6483, "sims_reused": 6483, "core_early_exits": 955,
    "uf_unions": 581, "uf_finds": 1164, "uf_find_steps": 1162}
  )json");
  ASSERT_TRUE(row.has("per_node"));
  EXPECT_EQ(validate_metrics_json(row), "");
  EXPECT_EQ(metrics_from_json(row).steals, 0u);
  // Written before the sketch bound existed: the optional counter reads 0.
  ASSERT_FALSE(row.has("sims_bound_rejected"));
  EXPECT_EQ(metrics_from_json(row).counters.sims_bound_rejected, 0u);
}

TEST(MetricsJson, ParserRejectsGarbage) {
  EXPECT_THROW(JsonValue::parse("{\"a\": }"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("{} trailing"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse(""), std::runtime_error);
}

}  // namespace
}  // namespace ppscan::obs
