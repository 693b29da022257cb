#include "obs/metrics_json.hpp"

#include <cstddef>
#include <stdexcept>
#include <utility>
#include <variant>

namespace ppscan::obs {
namespace {

// One table per record. A row names a JSON key and the struct member that
// carries it; the member's C++ type is the key's JSON type (string,
// unsigned integer, number or boolean). metrics_to_json writes the rows in
// table order, and read_fields — the validator and the parser in one walk —
// checks and loads them in the same order, so adding a field is one row
// here plus its line in the docs/observability.md table. Keys outside the
// tables are ignored, so rows carrying fields a later version dropped stay
// valid. An optional row (required = false) is always written but may be
// absent on read: rows committed before the field existed stay valid and
// read it as 0.
template <class Record>
using Member = std::variant<std::string Record::*, std::uint64_t Record::*,
                            double Record::*, bool Record::*>;

template <class Record>
struct FieldSpec {
  const char* key;
  Member<Record> member;
  bool required = true;
};

// The v2 flat fields, after "schema_version" (written and checked first).
constexpr FieldSpec<MetricsReport> kReportSpec[] = {
    {"tool", &MetricsReport::tool},
    {"algorithm", &MetricsReport::algorithm},
    {"dataset", &MetricsReport::dataset},
    {"eps", &MetricsReport::eps},
    {"mu", &MetricsReport::mu},
    {"threads", &MetricsReport::threads},
    {"kernel", &MetricsReport::kernel},
    {"runtime_kind", &MetricsReport::runtime_kind},
    {"num_vertices", &MetricsReport::num_vertices},
    {"num_edges", &MetricsReport::num_edges},
    {"total_seconds", &MetricsReport::total_seconds},
    {"similarity_seconds", &MetricsReport::similarity_seconds},
    {"pruning_seconds", &MetricsReport::pruning_seconds},
    {"stage_prune_seconds", &MetricsReport::stage_prune_seconds},
    {"stage_check_seconds", &MetricsReport::stage_check_seconds},
    {"stage_core_cluster_seconds", &MetricsReport::stage_core_cluster_seconds},
    {"stage_noncore_cluster_seconds",
     &MetricsReport::stage_noncore_cluster_seconds},
    {"busy_seconds", &MetricsReport::busy_seconds},
    {"idle_seconds", &MetricsReport::idle_seconds},
    {"compsim_invocations", &MetricsReport::compsim_invocations},
    {"tasks_submitted", &MetricsReport::tasks_submitted},
    {"tasks_executed", &MetricsReport::tasks_executed},
    {"steals", &MetricsReport::steals},
    {"num_clusters", &MetricsReport::num_clusters},
    {"num_cores", &MetricsReport::num_cores},
    {"abort_reason", &MetricsReport::abort_reason},
    {"abort_phase", &MetricsReport::abort_phase},
    {"phases_completed", &MetricsReport::phases_completed},
    {"peak_governed_bytes", &MetricsReport::peak_governed_bytes},
};

// The pruning funnel, flat on the row right after kReportSpec.
constexpr FieldSpec<AlgoCounters> kCounterSpec[] = {
    {"arcs_touched", &AlgoCounters::arcs_touched},
    {"arcs_predicate_pruned", &AlgoCounters::arcs_predicate_pruned},
    {"sims_computed", &AlgoCounters::sims_computed},
    // Rows written before the sketch bound existed lack it.
    {"sims_bound_rejected", &AlgoCounters::sims_bound_rejected, false},
    {"sims_reused", &AlgoCounters::sims_reused},
    {"core_early_exits", &AlgoCounters::core_early_exits},
    {"uf_unions", &AlgoCounters::uf_unions},
    {"uf_finds", &AlgoCounters::uf_finds},
    {"uf_find_steps", &AlgoCounters::uf_find_steps},
};

// The optional serving block: `queries[]`, `latency_histogram` (its
// `buckets[]` last) and `resilience`. Each is read only when its key is
// present, so non-serving rows never carry (or pay for) them.
constexpr FieldSpec<QueryRowMetrics> kQueryRowSpec[] = {
    {"id", &QueryRowMetrics::id},
    {"eps", &QueryRowMetrics::eps},
    {"mu", &QueryRowMetrics::mu},
    {"latency_ms", &QueryRowMetrics::latency_ms},
    // The latency split, absent on rows from before the telemetry layer.
    {"queue_ms", &QueryRowMetrics::queue_ms, false},
    {"execute_ms", &QueryRowMetrics::execute_ms, false},
    {"num_clusters", &QueryRowMetrics::num_clusters},
    {"num_cores", &QueryRowMetrics::num_cores},
    {"abort_reason", &QueryRowMetrics::abort_reason},
    {"cache_hit", &QueryRowMetrics::cache_hit},
};

constexpr FieldSpec<LatencyHistogramMetrics> kHistogramSpec[] = {
    {"count", &LatencyHistogramMetrics::count},
    {"p50_ms", &LatencyHistogramMetrics::p50_ms},
    {"p90_ms", &LatencyHistogramMetrics::p90_ms},
    {"p99_ms", &LatencyHistogramMetrics::p99_ms},
    {"max_ms", &LatencyHistogramMetrics::max_ms},
    // Absent on rows from before the telemetry layer.
    {"sum_ms", &LatencyHistogramMetrics::sum_ms, false},
};

constexpr FieldSpec<LatencyBucketMetrics> kBucketSpec[] = {
    {"le_us", &LatencyBucketMetrics::le_us},
    {"count", &LatencyBucketMetrics::count},
};

constexpr FieldSpec<ResilienceMetrics> kResilienceSpec[] = {
    {"exceptions", &ResilienceMetrics::exceptions},
    {"shed_queue_full", &ResilienceMetrics::shed_queue_full},
    {"shed_overload", &ResilienceMetrics::shed_overload},
};

JsonValue to_json(const std::string& v) { return JsonValue::string(v); }
JsonValue to_json(std::uint64_t v) { return JsonValue::number_u64(v); }
JsonValue to_json(double v) { return JsonValue::number(v); }
JsonValue to_json(bool v) { return JsonValue::boolean(v); }

const char* type_name(const std::string&) { return "string"; }
const char* type_name(std::uint64_t) { return "unsigned integer"; }
const char* type_name(double) { return "number"; }
const char* type_name(bool) { return "boolean"; }

bool read_value(const JsonValue& v, std::string& out) {
  if (!v.is_string()) return false;
  out = v.as_string();
  return true;
}
bool read_value(const JsonValue& v, std::uint64_t& out) {
  if (!v.is_number() || !v.is_integer()) return false;
  out = v.as_u64();
  return true;
}
bool read_value(const JsonValue& v, double& out) {
  // An integral literal is still a valid number field (0 is "0").
  if (!v.is_number()) return false;
  out = v.as_double();
  return true;
}
bool read_value(const JsonValue& v, bool& out) {
  if (!v.is_bool()) return false;
  out = v.as_bool();
  return true;
}

template <class Record, std::size_t N>
void write_fields(JsonValue& o, const Record& record,
                  const FieldSpec<Record> (&table)[N]) {
  for (const FieldSpec<Record>& f : table) {
    o.set(f.key, std::visit(
                     [&record](auto member) { return to_json(record.*member); },
                     f.member));
  }
}

template <class Record, std::size_t N>
JsonValue array_to_json(const std::vector<Record>& records,
                        const FieldSpec<Record> (&table)[N]) {
  JsonValue arr = JsonValue::array();
  for (const Record& record : records) {
    JsonValue o = JsonValue::object();
    write_fields(o, record, table);
    arr.push(std::move(o));
  }
  return arr;
}

/// Loads `table`'s keys of the object `obj` into `out`: "" when every
/// required key is present and every present key has its type, else the
/// first violation. `where` names a nested block in messages ("" at the
/// row's top level).
template <class Record, std::size_t N>
std::string read_fields(const JsonValue& obj,
                        const FieldSpec<Record> (&table)[N], Record& out,
                        const std::string& where) {
  if (!obj.is_object()) return where + " is not an object";
  for (const FieldSpec<Record>& f : table) {
    std::string err = std::visit(
        [&](auto member) -> std::string {
          auto& field = out.*member;
          if (!obj.has(f.key)) {
            if (!f.required) return "";
            if (where.empty()) {
              return std::string("missing required key '") + f.key + "'";
            }
            return where + " missing " + type_name(field) + " '" + f.key +
                   "'";
          }
          if (read_value(obj.at(f.key), field)) return "";
          return (where.empty() ? std::string() : where + " ") + "key '" +
                 f.key + "' is not a " + type_name(field);
        },
        f.member);
    if (!err.empty()) return err;
  }
  return "";
}

template <class Record, std::size_t N>
std::string read_array(const JsonValue& arr,
                       const FieldSpec<Record> (&table)[N],
                       std::vector<Record>& out, const std::string& where) {
  if (!arr.is_array()) return "key '" + where + "' is not an array";
  out.resize(arr.size());
  for (std::size_t i = 0; i < arr.size(); ++i) {
    std::string err = read_fields(arr.at(i), table, out[i],
                                  where + "[" + std::to_string(i) + "]");
    if (!err.empty()) return err;
  }
  return "";
}

std::string read_queries(const JsonValue& arr,
                         std::vector<QueryRowMetrics>& out) {
  std::string err = read_array(arr, kQueryRowSpec, out, "queries");
  if (!err.empty()) return err;
  // When both parts of the latency split are present they must fit inside
  // the end-to-end latency, modulo scheduling slack (the parts and the
  // total are measured by different clock reads).
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (!arr.at(i).has("queue_ms") || !arr.at(i).has("execute_ms")) continue;
    const double latency = out[i].latency_ms;
    const double parts = out[i].queue_ms + out[i].execute_ms;
    if (parts > latency + latency * 0.05 + 0.5) {
      return "queries[" + std::to_string(i) + "] queue_ms+execute_ms=" +
             std::to_string(parts) +
             " exceeds latency_ms=" + std::to_string(latency);
    }
  }
  return "";
}

std::string read_latency_histogram(const JsonValue& h,
                                   LatencyHistogramMetrics& out) {
  std::string err = read_fields(h, kHistogramSpec, out, "latency_histogram");
  if (!err.empty()) return err;
  if (out.sum_ms < 0) return "latency_histogram sum_ms is negative";
  if (!h.has("buckets") || !h.at("buckets").is_array()) {
    return "latency_histogram missing array 'buckets'";
  }
  err = read_array(h.at("buckets"), kBucketSpec, out.buckets,
                   "latency_histogram.buckets");
  if (!err.empty()) return err;
  std::uint64_t sum = 0;
  for (const LatencyBucketMetrics& b : out.buckets) sum += b.count;
  if (sum != out.count) {
    return "latency_histogram bucket counts sum to " + std::to_string(sum) +
           " but count=" + std::to_string(out.count);
  }
  return "";
}

/// Validates one row and loads it into `r`; "" or the first violation.
std::string read_row(const JsonValue& row, MetricsReport& r) {
  if (!row.is_object()) return "metrics row is not a JSON object";
  if (!row.has("schema_version")) {
    return "missing required key 'schema_version'";
  }
  std::uint64_t version = 0;
  if (!read_value(row.at("schema_version"), version)) {
    return "key 'schema_version' is not a unsigned integer";
  }
  if (version != kMetricsSchemaVersion) {
    return "schema_version != " + std::to_string(kMetricsSchemaVersion);
  }
  std::string err = read_fields(row, kReportSpec, r, "");
  if (err.empty()) err = read_fields(row, kCounterSpec, r.counters, "");
  if (!err.empty()) return err;
  const AlgoCounters& c = r.counters;
  const std::uint64_t decided =
      c.arcs_predicate_pruned + c.sims_computed + c.sims_reused;
  if (c.arcs_touched != decided) {
    return "funnel invariant violated: arcs_touched=" +
           std::to_string(c.arcs_touched) +
           " but pruned+computed+reused=" + std::to_string(decided);
  }
  if (c.sims_bound_rejected > c.sims_computed) {
    return "sims_bound_rejected exceeds sims_computed";
  }
  if (row.has("queries")) {
    err = read_queries(row.at("queries"), r.queries);
    if (!err.empty()) return err;
  }
  if (row.has("latency_histogram")) {
    err = read_latency_histogram(row.at("latency_histogram"), r.latency);
    if (!err.empty()) return err;
  }
  if (row.has("resilience")) {
    r.has_resilience = true;
    return read_fields(row.at("resilience"), kResilienceSpec, r.resilience,
                       "resilience");
  }
  return "";
}

}  // namespace

JsonValue metrics_to_json(const MetricsReport& r) {
  JsonValue o = JsonValue::object();
  o.set("schema_version", JsonValue::number_u64(kMetricsSchemaVersion));
  write_fields(o, r, kReportSpec);
  write_fields(o, r.counters, kCounterSpec);
  // Optional serving block: only serving rows carry it (see the header).
  if (!r.queries.empty()) {
    o.set("queries", array_to_json(r.queries, kQueryRowSpec));
  }
  if (r.latency.count > 0) {
    JsonValue h = JsonValue::object();
    write_fields(h, r.latency, kHistogramSpec);
    h.set("buckets", array_to_json(r.latency.buckets, kBucketSpec));
    o.set("latency_histogram", std::move(h));
  }
  if (r.has_resilience) {
    JsonValue res = JsonValue::object();
    write_fields(res, r.resilience, kResilienceSpec);
    o.set("resilience", std::move(res));
  }
  return o;
}

JsonValue metrics_file_json(const std::string& figure,
                            const std::vector<MetricsReport>& rows) {
  std::vector<JsonValue> objects;
  objects.reserve(rows.size());
  for (const MetricsReport& r : rows) objects.push_back(metrics_to_json(r));
  return metrics_file_envelope(figure, std::move(objects));
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
  MetricsReport scratch;
  return read_row(row, scratch);
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
  MetricsReport r;
  const std::string err = read_row(row, r);
  if (!err.empty()) throw std::runtime_error("metrics schema: " + err);
  return r;
}

}  // namespace ppscan::obs
