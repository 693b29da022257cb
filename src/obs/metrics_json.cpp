#include "obs/metrics_json.hpp"

#include <stdexcept>
#include <utility>

namespace ppscan::obs {
namespace {

// The v2 schema's flat fields. validate_metrics_json walks exactly this
// table, so adding a flat field here (and in metrics_to_json /
// metrics_from_json and the docs/observability.md table) is the complete
// change. Keys outside the table are ignored, so rows carrying fields a
// later version dropped stay valid.
enum class FieldType : std::uint8_t { String, U64, Double };

struct FieldSpec {
  const char* key;
  FieldType type;
};

constexpr FieldSpec kSchemaV2[] = {
    {"schema_version", FieldType::U64},
    {"tool", FieldType::String},
    {"algorithm", FieldType::String},
    {"dataset", FieldType::String},
    {"eps", FieldType::String},
    {"mu", FieldType::U64},
    {"threads", FieldType::U64},
    {"kernel", FieldType::String},
    {"runtime_kind", FieldType::String},
    {"num_vertices", FieldType::U64},
    {"num_edges", FieldType::U64},
    {"total_seconds", FieldType::Double},
    {"similarity_seconds", FieldType::Double},
    {"pruning_seconds", FieldType::Double},
    {"stage_prune_seconds", FieldType::Double},
    {"stage_check_seconds", FieldType::Double},
    {"stage_core_cluster_seconds", FieldType::Double},
    {"stage_noncore_cluster_seconds", FieldType::Double},
    {"busy_seconds", FieldType::Double},
    {"idle_seconds", FieldType::Double},
    {"compsim_invocations", FieldType::U64},
    {"tasks_submitted", FieldType::U64},
    {"tasks_executed", FieldType::U64},
    {"steals", FieldType::U64},
    {"num_clusters", FieldType::U64},
    {"num_cores", FieldType::U64},
    {"abort_reason", FieldType::String},
    {"abort_phase", FieldType::String},
    {"phases_completed", FieldType::U64},
    {"peak_governed_bytes", FieldType::U64},
    {"arcs_touched", FieldType::U64},
    {"arcs_predicate_pruned", FieldType::U64},
    {"sims_computed", FieldType::U64},
    {"sims_reused", FieldType::U64},
    {"core_early_exits", FieldType::U64},
    {"uf_unions", FieldType::U64},
    {"uf_finds", FieldType::U64},
    {"uf_find_steps", FieldType::U64},
};

// The optional serving block: `queries[]` row keys and their types, and
// the `latency_histogram` scalar keys. Both are additive v2 extensions —
// validated only when the key is present, so non-serving rows never carry
// (or pay for) them.
constexpr FieldSpec kQueryRowSpec[] = {
    {"id", FieldType::U64},
    {"eps", FieldType::String},
    {"mu", FieldType::U64},
    {"latency_ms", FieldType::Double},
    {"num_clusters", FieldType::U64},
    {"num_cores", FieldType::U64},
    {"abort_reason", FieldType::String},
};

constexpr FieldSpec kHistogramSpec[] = {
    {"count", FieldType::U64},       {"p50_ms", FieldType::Double},
    {"p90_ms", FieldType::Double},   {"p99_ms", FieldType::Double},
    {"max_ms", FieldType::Double},
};

// Optional `resilience` object on serving rows: validated field-by-field
// when the key is present (same additive convention as `queries`).
constexpr FieldSpec kResilienceSpec[] = {
    {"exceptions", FieldType::U64},
    {"shed_queue_full", FieldType::U64},
    {"shed_overload", FieldType::U64},
};

JsonValue query_row_to_json(const QueryRowMetrics& q) {
  JsonValue o = JsonValue::object();
  o.set("id", JsonValue::number_u64(q.id));
  o.set("eps", JsonValue::string(q.eps));
  o.set("mu", JsonValue::number_u64(q.mu));
  o.set("latency_ms", JsonValue::number(q.latency_ms));
  o.set("queue_ms", JsonValue::number(q.queue_ms));
  o.set("execute_ms", JsonValue::number(q.execute_ms));
  o.set("num_clusters", JsonValue::number_u64(q.num_clusters));
  o.set("num_cores", JsonValue::number_u64(q.num_cores));
  o.set("abort_reason", JsonValue::string(q.abort_reason));
  o.set("cache_hit", JsonValue::boolean(q.cache_hit));
  return o;
}

JsonValue resilience_to_json(const ResilienceMetrics& r) {
  JsonValue o = JsonValue::object();
  o.set("exceptions", JsonValue::number_u64(r.exceptions));
  o.set("shed_queue_full", JsonValue::number_u64(r.shed_queue_full));
  o.set("shed_overload", JsonValue::number_u64(r.shed_overload));
  return o;
}

JsonValue histogram_to_json(const LatencyHistogramMetrics& h) {
  JsonValue o = JsonValue::object();
  o.set("count", JsonValue::number_u64(h.count));
  o.set("p50_ms", JsonValue::number(h.p50_ms));
  o.set("p90_ms", JsonValue::number(h.p90_ms));
  o.set("p99_ms", JsonValue::number(h.p99_ms));
  o.set("max_ms", JsonValue::number(h.max_ms));
  o.set("sum_ms", JsonValue::number(h.sum_ms));
  JsonValue buckets = JsonValue::array();
  for (const LatencyBucketMetrics& b : h.buckets) {
    JsonValue e = JsonValue::object();
    e.set("le_us", JsonValue::number(b.le_us));
    e.set("count", JsonValue::number_u64(b.count));
    buckets.push(std::move(e));
  }
  o.set("buckets", std::move(buckets));
  return o;
}

std::string type_name(FieldType t) {
  switch (t) {
    case FieldType::String:
      return "string";
    case FieldType::U64:
      return "unsigned integer";
    case FieldType::Double:
      return "number";
  }
  return "?";
}

bool type_matches(const JsonValue& v, FieldType t) {
  switch (t) {
    case FieldType::String:
      return v.is_string();
    case FieldType::U64:
      return v.is_number() && v.is_integer();
    case FieldType::Double:
      // An integral literal is still a valid double field (0 is "0").
      return v.is_number();
  }
  return false;
}

std::string validate_queries(const JsonValue& arr) {
  if (!arr.is_array()) return "key 'queries' is not an array";
  for (std::size_t i = 0; i < arr.size(); ++i) {
    const JsonValue& q = arr.at(i);
    const std::string where = "queries[" + std::to_string(i) + "]";
    if (!q.is_object()) return where + " is not an object";
    for (const FieldSpec& f : kQueryRowSpec) {
      if (!q.has(f.key) || !type_matches(q.at(f.key), f.type)) {
        return where + " missing " + type_name(f.type) + " '" + f.key + "'";
      }
    }
    if (!q.has("cache_hit") || !q.at("cache_hit").is_bool()) {
      return where + " missing boolean 'cache_hit'";
    }
    // Latency decomposition: additive keys, checked only when present so
    // rows committed before the telemetry layer stay valid. When both
    // components are there they must fit inside the end-to-end latency,
    // modulo scheduling slack (the components and the total are measured
    // by different clock reads).
    for (const char* key : {"queue_ms", "execute_ms"}) {
      if (q.has(key) && !q.at(key).is_number()) {
        return where + " key '" + key + "' is not a number";
      }
    }
    if (q.has("queue_ms") && q.has("execute_ms")) {
      const double latency = q.at("latency_ms").as_double();
      const double parts =
          q.at("queue_ms").as_double() + q.at("execute_ms").as_double();
      const double slack = latency * 0.05 + 0.5;
      if (parts > latency + slack) {
        return where + " queue_ms+execute_ms=" + std::to_string(parts) +
               " exceeds latency_ms=" + std::to_string(latency);
      }
    }
  }
  return "";
}

std::string validate_resilience(const JsonValue& r) {
  if (!r.is_object()) return "key 'resilience' is not an object";
  for (const FieldSpec& f : kResilienceSpec) {
    if (!r.has(f.key) || !type_matches(r.at(f.key), f.type)) {
      return std::string("resilience missing ") + type_name(f.type) + " '" +
             f.key + "'";
    }
  }
  return "";
}

std::string validate_latency_histogram(const JsonValue& h) {
  if (!h.is_object()) return "key 'latency_histogram' is not an object";
  for (const FieldSpec& f : kHistogramSpec) {
    if (!h.has(f.key) || !type_matches(h.at(f.key), f.type)) {
      return std::string("latency_histogram missing ") + type_name(f.type) +
             " '" + f.key + "'";
    }
  }
  // Additive: present on rows written by the telemetry layer, absent on
  // older committed artifacts.
  if (h.has("sum_ms")) {
    if (!h.at("sum_ms").is_number()) {
      return "latency_histogram key 'sum_ms' is not a number";
    }
    if (h.at("sum_ms").as_double() < 0) {
      return "latency_histogram sum_ms is negative";
    }
  }
  if (!h.has("buckets") || !h.at("buckets").is_array()) {
    return "latency_histogram missing array 'buckets'";
  }
  const JsonValue& buckets = h.at("buckets");
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const JsonValue& b = buckets.at(i);
    const std::string where =
        "latency_histogram.buckets[" + std::to_string(i) + "]";
    if (!b.is_object()) return where + " is not an object";
    if (!b.has("le_us") || !b.at("le_us").is_number()) {
      return where + " missing number 'le_us'";
    }
    if (!b.has("count") || !b.at("count").is_number() ||
        !b.at("count").is_integer()) {
      return where + " missing unsigned 'count'";
    }
    sum += b.at("count").as_u64();
  }
  if (sum != h.at("count").as_u64()) {
    return "latency_histogram bucket counts sum to " + std::to_string(sum) +
           " but count=" + std::to_string(h.at("count").as_u64());
  }
  return "";
}

}  // namespace

JsonValue metrics_to_json(const MetricsReport& r) {
  JsonValue o = JsonValue::object();
  o.set("schema_version", JsonValue::number_u64(kMetricsSchemaVersion));
  o.set("tool", JsonValue::string(r.tool));
  o.set("algorithm", JsonValue::string(r.algorithm));
  o.set("dataset", JsonValue::string(r.dataset));
  o.set("eps", JsonValue::string(r.eps));
  o.set("mu", JsonValue::number_u64(r.mu));
  o.set("threads", JsonValue::number_u64(r.threads));
  o.set("kernel", JsonValue::string(r.kernel));
  o.set("runtime_kind", JsonValue::string(r.runtime_kind));
  o.set("num_vertices", JsonValue::number_u64(r.num_vertices));
  o.set("num_edges", JsonValue::number_u64(r.num_edges));
  o.set("total_seconds", JsonValue::number(r.total_seconds));
  o.set("similarity_seconds", JsonValue::number(r.similarity_seconds));
  o.set("pruning_seconds", JsonValue::number(r.pruning_seconds));
  o.set("stage_prune_seconds", JsonValue::number(r.stage_prune_seconds));
  o.set("stage_check_seconds", JsonValue::number(r.stage_check_seconds));
  o.set("stage_core_cluster_seconds",
        JsonValue::number(r.stage_core_cluster_seconds));
  o.set("stage_noncore_cluster_seconds",
        JsonValue::number(r.stage_noncore_cluster_seconds));
  o.set("busy_seconds", JsonValue::number(r.busy_seconds));
  o.set("idle_seconds", JsonValue::number(r.idle_seconds));
  o.set("compsim_invocations", JsonValue::number_u64(r.compsim_invocations));
  o.set("tasks_submitted", JsonValue::number_u64(r.tasks_submitted));
  o.set("tasks_executed", JsonValue::number_u64(r.tasks_executed));
  o.set("steals", JsonValue::number_u64(r.steals));
  o.set("num_clusters", JsonValue::number_u64(r.num_clusters));
  o.set("num_cores", JsonValue::number_u64(r.num_cores));
  o.set("abort_reason", JsonValue::string(r.abort_reason));
  o.set("abort_phase", JsonValue::string(r.abort_phase));
  o.set("phases_completed", JsonValue::number_u64(r.phases_completed));
  o.set("peak_governed_bytes", JsonValue::number_u64(r.peak_governed_bytes));
  o.set("arcs_touched", JsonValue::number_u64(r.counters.arcs_touched));
  o.set("arcs_predicate_pruned",
        JsonValue::number_u64(r.counters.arcs_predicate_pruned));
  o.set("sims_computed", JsonValue::number_u64(r.counters.sims_computed));
  o.set("sims_bound_rejected",
        JsonValue::number_u64(r.counters.sims_bound_rejected));
  o.set("sims_reused", JsonValue::number_u64(r.counters.sims_reused));
  o.set("core_early_exits", JsonValue::number_u64(r.counters.core_early_exits));
  o.set("uf_unions", JsonValue::number_u64(r.counters.uf_unions));
  o.set("uf_finds", JsonValue::number_u64(r.counters.uf_finds));
  o.set("uf_find_steps", JsonValue::number_u64(r.counters.uf_find_steps));
  // Optional serving block: only serving rows carry it (see the header).
  if (!r.queries.empty()) {
    JsonValue queries = JsonValue::array();
    for (const QueryRowMetrics& q : r.queries) {
      queries.push(query_row_to_json(q));
    }
    o.set("queries", std::move(queries));
  }
  if (r.latency.count > 0) {
    o.set("latency_histogram", histogram_to_json(r.latency));
  }
  if (r.has_resilience) {
    o.set("resilience", resilience_to_json(r.resilience));
  }
  return o;
}

JsonValue metrics_file_json(const std::string& figure,
                            const std::vector<MetricsReport>& rows) {
  JsonValue doc = JsonValue::object();
  doc.set("schema_version", JsonValue::number_u64(kMetricsSchemaVersion));
  doc.set("figure", JsonValue::string(figure));
  JsonValue arr = JsonValue::array();
  for (const MetricsReport& r : rows) arr.push(metrics_to_json(r));
  doc.set("rows", std::move(arr));
  return doc;
}

JsonValue metrics_file_envelope(const std::string& figure,
                                std::vector<JsonValue> rows) {
  JsonValue doc = JsonValue::object();
  doc.set("schema_version", JsonValue::number_u64(kMetricsSchemaVersion));
  doc.set("figure", JsonValue::string(figure));
  JsonValue arr = JsonValue::array();
  for (JsonValue& r : rows) arr.push(std::move(r));
  doc.set("rows", std::move(arr));
  return doc;
}

std::string validate_metrics_json(const JsonValue& row) {
  if (!row.is_object()) return "metrics row is not a JSON object";
  for (const FieldSpec& f : kSchemaV2) {
    if (!row.has(f.key)) {
      return std::string("missing required key '") + f.key + "'";
    }
    if (!type_matches(row.at(f.key), f.type)) {
      return std::string("key '") + f.key + "' is not a " + type_name(f.type);
    }
  }
  if (row.at("schema_version").as_u64() != kMetricsSchemaVersion) {
    return "schema_version != " + std::to_string(kMetricsSchemaVersion);
  }
  const std::uint64_t touched = row.at("arcs_touched").as_u64();
  const std::uint64_t decided = row.at("arcs_predicate_pruned").as_u64() +
                                row.at("sims_computed").as_u64() +
                                row.at("sims_reused").as_u64();
  if (touched != decided) {
    return "funnel invariant violated: arcs_touched=" +
           std::to_string(touched) + " but pruned+computed+reused=" +
           std::to_string(decided);
  }
  // Optional: rows written before the sketch bound existed lack the key.
  if (row.has("sims_bound_rejected")) {
    if (!type_matches(row.at("sims_bound_rejected"), FieldType::U64)) {
      return "key 'sims_bound_rejected' is not a u64";
    }
    if (row.at("sims_bound_rejected").as_u64() >
        row.at("sims_computed").as_u64()) {
      return "sims_bound_rejected exceeds sims_computed";
    }
  }
  if (row.has("queries")) {
    const std::string queries_err = validate_queries(row.at("queries"));
    if (!queries_err.empty()) return queries_err;
  }
  if (row.has("latency_histogram")) {
    const std::string histogram_err =
        validate_latency_histogram(row.at("latency_histogram"));
    if (!histogram_err.empty()) return histogram_err;
  }
  if (row.has("resilience")) {
    const std::string resilience_err =
        validate_resilience(row.at("resilience"));
    if (!resilience_err.empty()) return resilience_err;
  }
  return "";
}

std::string validate_metrics_file_json(const JsonValue& doc) {
  if (!doc.is_object()) return "metrics file is not a JSON object";
  if (!doc.has("schema_version") || !doc.at("schema_version").is_integer() ||
      doc.at("schema_version").as_u64() != kMetricsSchemaVersion) {
    return "file envelope missing schema_version == " +
           std::to_string(kMetricsSchemaVersion);
  }
  if (!doc.has("figure") || !doc.at("figure").is_string()) {
    return "file envelope missing string 'figure'";
  }
  if (!doc.has("rows") || !doc.at("rows").is_array()) {
    return "file envelope missing array 'rows'";
  }
  const JsonValue& rows = doc.at("rows");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const std::string err = validate_metrics_json(rows.at(i));
    if (!err.empty()) return "rows[" + std::to_string(i) + "]: " + err;
  }
  return "";
}

MetricsReport metrics_from_json(const JsonValue& row) {
  const std::string err = validate_metrics_json(row);
  if (!err.empty()) throw std::runtime_error("metrics schema: " + err);
  MetricsReport r;
  r.tool = row.at("tool").as_string();
  r.algorithm = row.at("algorithm").as_string();
  r.dataset = row.at("dataset").as_string();
  r.eps = row.at("eps").as_string();
  r.mu = row.at("mu").as_u64();
  r.threads = row.at("threads").as_u64();
  r.kernel = row.at("kernel").as_string();
  r.runtime_kind = row.at("runtime_kind").as_string();
  r.num_vertices = row.at("num_vertices").as_u64();
  r.num_edges = row.at("num_edges").as_u64();
  r.total_seconds = row.at("total_seconds").as_double();
  r.similarity_seconds = row.at("similarity_seconds").as_double();
  r.pruning_seconds = row.at("pruning_seconds").as_double();
  r.stage_prune_seconds = row.at("stage_prune_seconds").as_double();
  r.stage_check_seconds = row.at("stage_check_seconds").as_double();
  r.stage_core_cluster_seconds =
      row.at("stage_core_cluster_seconds").as_double();
  r.stage_noncore_cluster_seconds =
      row.at("stage_noncore_cluster_seconds").as_double();
  r.busy_seconds = row.at("busy_seconds").as_double();
  r.idle_seconds = row.at("idle_seconds").as_double();
  r.compsim_invocations = row.at("compsim_invocations").as_u64();
  r.tasks_submitted = row.at("tasks_submitted").as_u64();
  r.tasks_executed = row.at("tasks_executed").as_u64();
  r.steals = row.at("steals").as_u64();
  r.num_clusters = row.at("num_clusters").as_u64();
  r.num_cores = row.at("num_cores").as_u64();
  r.abort_reason = row.at("abort_reason").as_string();
  r.abort_phase = row.at("abort_phase").as_string();
  r.phases_completed = row.at("phases_completed").as_u64();
  r.peak_governed_bytes = row.at("peak_governed_bytes").as_u64();
  r.counters.arcs_touched = row.at("arcs_touched").as_u64();
  r.counters.arcs_predicate_pruned = row.at("arcs_predicate_pruned").as_u64();
  r.counters.sims_computed = row.at("sims_computed").as_u64();
  if (row.has("sims_bound_rejected")) {
    r.counters.sims_bound_rejected = row.at("sims_bound_rejected").as_u64();
  }
  r.counters.sims_reused = row.at("sims_reused").as_u64();
  r.counters.core_early_exits = row.at("core_early_exits").as_u64();
  r.counters.uf_unions = row.at("uf_unions").as_u64();
  r.counters.uf_finds = row.at("uf_finds").as_u64();
  r.counters.uf_find_steps = row.at("uf_find_steps").as_u64();
  if (row.has("queries")) {
    const JsonValue& queries = row.at("queries");
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const JsonValue& q = queries.at(i);
      QueryRowMetrics qr;
      qr.id = q.at("id").as_u64();
      qr.eps = q.at("eps").as_string();
      qr.mu = q.at("mu").as_u64();
      qr.latency_ms = q.at("latency_ms").as_double();
      if (q.has("queue_ms")) qr.queue_ms = q.at("queue_ms").as_double();
      if (q.has("execute_ms")) {
        qr.execute_ms = q.at("execute_ms").as_double();
      }
      qr.num_clusters = q.at("num_clusters").as_u64();
      qr.num_cores = q.at("num_cores").as_u64();
      qr.abort_reason = q.at("abort_reason").as_string();
      qr.cache_hit = q.at("cache_hit").as_bool();
      r.queries.push_back(std::move(qr));
    }
  }
  if (row.has("latency_histogram")) {
    const JsonValue& h = row.at("latency_histogram");
    r.latency.count = h.at("count").as_u64();
    r.latency.p50_ms = h.at("p50_ms").as_double();
    r.latency.p90_ms = h.at("p90_ms").as_double();
    r.latency.p99_ms = h.at("p99_ms").as_double();
    r.latency.max_ms = h.at("max_ms").as_double();
    if (h.has("sum_ms")) r.latency.sum_ms = h.at("sum_ms").as_double();
    const JsonValue& buckets = h.at("buckets");
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      LatencyBucketMetrics b;
      b.le_us = buckets.at(i).at("le_us").as_double();
      b.count = buckets.at(i).at("count").as_u64();
      r.latency.buckets.push_back(b);
    }
  }
  if (row.has("resilience")) {
    const JsonValue& res = row.at("resilience");
    r.has_resilience = true;
    r.resilience.exceptions = res.at("exceptions").as_u64();
    r.resilience.shed_queue_full = res.at("shed_queue_full").as_u64();
    r.resilience.shed_overload = res.at("shed_overload").as_u64();
  }
  return r;
}

}  // namespace ppscan::obs
