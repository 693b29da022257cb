// ppscan_cli — the library's command-line front end.
//
//   ppscan_cli generate --type er|ba|rmat|lfr --out g.txt [generator flags]
//   ppscan_cli stats    <graph> [--triangles] [--histogram]
//   ppscan_cli convert  <graph> --out <file>      (.txt <-> .bin by suffix)
//   ppscan_cli cluster  <graph> [--eps 0.5] [--mu 5] [--algorithm ppSCAN]
//                       [--threads N] [--kernel auto] [--out result.txt]
//                       [--timeout-ms T] [--mem-budget-mb M]
//
// Run governance: --timeout-ms / --mem-budget-mb bound a cluster or query
// run; SIGINT/SIGTERM trip the same cooperative cancel token. A limited run
// that stops early still writes its partial result (undecided vertices keep
// the 'U' role) and exits nonzero: 124 deadline expired, 125 memory budget
// exceeded, 130 cancelled by signal. `validate --partial` certifies such a
// result.
//   ppscan_cli classify <graph> <result.txt> [--threads N]
//   ppscan_cli query    <graph> [--eps 0.2,0.5] [--mu 2,5] [--threads N]
//                       (builds a GS*-Index once, then answers the grid)
//
// Each subcommand accepts only the flags it reads: any other flag exits 2
// with a message that names it.
//
// Graph files: text edge lists ("u v" per line, SNAP style) or the binary
// CSR snapshot format; the suffix ".bin"/".csrbin" selects binary.
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <future>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <stop_token>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_support/algorithms.hpp"
#include "bench_support/metrics.hpp"
#include "obs/exposition.hpp"
#include "obs/trace.hpp"
#include "obs/trace_json.hpp"
#include "graph/edge_list_io.hpp"
#include "graph/generators.hpp"
#include "graph/graph_stats.hpp"
#include "index/gs_index.hpp"
#include "scan/classification.hpp"
#include "scan/result_io.hpp"
#include "scan/validate_result.hpp"
#include "serve/query_service.hpp"
#include "serve/serving_metrics.hpp"
#include "util/env.hpp"
#include "util/flags.hpp"
#include "util/graph_io_error.hpp"
#include "util/report.hpp"
#include "util/timer.hpp"

namespace {

using namespace ppscan;

/// Process-wide cancel token tripped by SIGINT/SIGTERM. CancelToken::trip
/// is a single lock-free CAS, so calling it from the handler is
/// async-signal-safe; the governed run drains at its next poll.
CancelToken g_signal_cancel;

extern "C" void handle_cancel_signal(int) {
  g_signal_cancel.trip(AbortReason::UserCancelled);
}

/// Installs the cancellation handlers around a governed run; restores the
/// default disposition on destruction so a second signal kills the process
/// the ordinary way once the run is over.
class ScopedCancelSignals {
 public:
  ScopedCancelSignals() {
    std::signal(SIGINT, handle_cancel_signal);
    std::signal(SIGTERM, handle_cancel_signal);
  }
  ~ScopedCancelSignals() {
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
  }
};

/// Shell exit code of an aborted run: 124 mirrors timeout(1), 130 is the
/// shell's 128+SIGINT convention, 125 labels the library-specific budget
/// abort, 70 is sysexits.h EX_SOFTWARE for a firewall-contained internal
/// exception.
int abort_exit_code(AbortReason reason) {
  switch (reason) {
    case AbortReason::None: return 0;
    case AbortReason::DeadlineExpired: return 124;
    case AbortReason::BudgetExceeded: return 125;
    case AbortReason::UserCancelled: return 130;
    case AbortReason::Exception: return 70;
  }
  return 1;
}

/// Reads the governance flags shared by cluster and query.
RunLimits parse_limits(const Flags& flags) {
  RunLimits limits;
  limits.deadline = std::chrono::milliseconds(flags.get_int("timeout-ms", 0));
  limits.memory_budget_bytes =
      static_cast<std::uint64_t>(flags.get_int("mem-budget-mb", 0)) * 1024 *
      1024;
  // Deterministic test hook (undocumented in --help on purpose).
  limits.cancel_at_phase =
      static_cast<int>(flags.get_int("cancel-at-phase", -1));
  return limits;
}

bool is_binary_path(const std::string& path) {
  const auto ends_with = [&](const std::string& suffix) {
    return path.size() >= suffix.size() &&
           path.compare(path.size() - suffix.size(), suffix.size(), suffix) ==
               0;
  };
  return ends_with(".bin") || ends_with(".csrbin");
}

CsrGraph load_graph(const std::string& path) {
  return is_binary_path(path) ? read_csr_binary(path)
                              : read_edge_list_text(path);
}

/// Strict μ parser: the old std::atoi path silently turned "abc", "-3" or
/// "0" into clustering with μ=0. μ must be a positive 32-bit integer.
std::uint32_t parse_mu(const std::string& text) {
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0') {
    throw std::invalid_argument("--mu must be an integer, got '" + text +
                                "'");
  }
  if (errno == ERANGE || value <= 0 ||
      value > static_cast<long long>(
                  std::numeric_limits<std::uint32_t>::max())) {
    throw std::invalid_argument("--mu must be in [1, 2^32): '" + text + "'");
  }
  return static_cast<std::uint32_t>(value);
}

void save_graph(const CsrGraph& graph, const std::string& path) {
  if (is_binary_path(path)) {
    write_csr_binary(graph, path);
  } else {
    write_edge_list_text(graph, path);
  }
}

/// Dataset label for metrics rows: the graph file's stem ("web-uk" from
/// "data/web-uk.bin").
std::string file_stem(const std::string& path) {
  const auto slash = path.find_last_of("/\\");
  const auto begin = slash == std::string::npos ? 0 : slash + 1;
  const auto dot = path.find_last_of('.');
  const auto end = (dot == std::string::npos || dot <= begin) ? path.size()
                                                              : dot;
  return path.substr(begin, end - begin);
}

std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    const auto comma = text.find(',', begin);
    const auto end = comma == std::string::npos ? text.size() : comma;
    if (end > begin) out.push_back(text.substr(begin, end - begin));
    begin = end + 1;
  }
  return out;
}

int cmd_generate(const Flags& flags) {
  const auto type = flags.get_string("type", "lfr");
  const auto out = flags.get_string("out", "");
  if (out.empty()) {
    std::cerr << "generate: --out is required\n";
    return 2;
  }
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  const auto n = static_cast<VertexId>(flags.get_int("n", 10000));

  CsrGraph graph;
  if (type == "er") {
    const auto m = static_cast<EdgeId>(
        flags.get_int("m", static_cast<std::int64_t>(n) * 8));
    graph = erdos_renyi(n, m, seed);
  } else if (type == "ba") {
    const auto m = static_cast<VertexId>(flags.get_int("edges-per-vertex", 8));
    graph = barabasi_albert(n, m, seed);
  } else if (type == "rmat") {
    RmatParams p;
    p.scale = static_cast<int>(flags.get_int("scale", 14));
    p.edge_factor = flags.get_double("edge-factor", 16);
    graph = rmat(p, seed);
  } else if (type == "lfr") {
    LfrParams p;
    p.n = n;
    p.avg_degree = flags.get_double("avg-degree", 20);
    p.mixing = flags.get_double("mixing", 0.2);
    p.min_community = static_cast<VertexId>(flags.get_int("min-community", 16));
    p.max_community =
        static_cast<VertexId>(flags.get_int("max-community", 512));
    graph = lfr_like(p, seed);
  } else {
    std::cerr << "generate: unknown --type '" << type
              << "' (er|ba|rmat|lfr)\n";
    return 2;
  }
  save_graph(graph, out);
  std::cout << "generated " << type << ": " << compute_stats(graph).to_string()
            << " -> " << out << "\n";
  return 0;
}

int cmd_stats(const Flags& flags) {
  if (flags.positionals().size() < 2) {
    std::cerr << "stats: missing graph file\n";
    return 2;
  }
  const auto graph = load_graph(flags.positionals()[1]);
  const auto stats = compute_stats(graph, flags.get_bool("triangles", false));
  std::cout << stats.to_string() << "\n";
  if (flags.get_bool("histogram", false)) {
    const auto hist = degree_histogram(graph);
    Table table({"degree-bucket", "vertices"});
    for (std::size_t k = 0; k < hist.size(); ++k) {
      // Appended piecewise: GCC 12's -O3 -Wrestrict misfires on
      // `"[" + std::to_string(...)`.
      std::string bucket = "[";
      bucket += std::to_string(1u << k);
      bucket += ", ";
      bucket += std::to_string(2u << k);
      bucket += ")";
      table.add_row({bucket, Table::fmt(hist[k])});
    }
    table.print(std::cout, "log2-degree histogram");
  }
  return 0;
}

int cmd_convert(const Flags& flags) {
  if (flags.positionals().size() < 2 || !flags.has("out")) {
    std::cerr << "convert: usage: convert <graph> --out <file>\n";
    return 2;
  }
  const auto graph = load_graph(flags.positionals()[1]);
  save_graph(graph, flags.get_string("out", ""));
  std::cout << "wrote " << flags.get_string("out", "") << " ("
            << graph.num_vertices() << " vertices, " << graph.num_edges()
            << " edges)\n";
  return 0;
}

/// `--trace-out FILE` (cluster and serve): a collector with one slot per
/// worker plus the master's, or nullptr when the flag is absent. Warns
/// when tracing was compiled out, since the file will then hold no events.
std::unique_ptr<obs::TraceCollector> make_trace_collector(
    const char* command, const std::string& path, int num_workers) {
  if (path.empty()) return nullptr;
  if (!obs::kTraceEnabled) {
    std::cerr << command << ": warning: tracing was compiled out "
                 "(PPSCAN_TRACE=OFF); " << path << " will contain no events\n";
  }
  return std::make_unique<obs::TraceCollector>(num_workers);
}

/// Writes the Chrome/Perfetto trace; false (after a message) when `path`
/// cannot be opened. Every thread that recorded into `collector` must have
/// been joined first: the join is the happens-before edge the read needs.
bool write_trace_file(const char* command, const std::string& path,
                      const obs::TraceCollector& collector) {
  std::ofstream stream(path);
  if (!stream) {
    std::cerr << command << ": cannot open " << path << " for writing\n";
    return false;
  }
  write_chrome_trace(stream, collector);
  std::cout << "trace -> " << path
            << " (load in ui.perfetto.dev or chrome://tracing)\n";
  return true;
}

int cmd_cluster(const Flags& flags) {
  if (flags.positionals().size() < 2) {
    std::cerr << "cluster: missing graph file\n";
    return 2;
  }
  const auto graph = load_graph(flags.positionals()[1]);
  const auto params = ScanParams::make(flags.get_string("eps", "0.5"),
                                       parse_mu(flags.get_string("mu", "5")));
  AlgorithmConfig config;
  config.num_threads =
      static_cast<int>(flags.get_int("threads", default_threads()));
  config.kernel = parse_intersect_kind(flags.get_string("kernel", "auto"));
  config.limits = parse_limits(flags);
  config.cancel = &g_signal_cancel;
  const auto algorithm = flags.get_string("algorithm", "ppSCAN");

  // Per-worker event tracing, exported in Chrome/Perfetto trace format.
  const auto trace_out = flags.get_string("trace-out", "");
  const auto collector =
      make_trace_collector("cluster", trace_out, config.num_threads);
  config.trace = collector.get();

  const ScopedCancelSignals signals;
  const auto run = run_algorithm(algorithm, graph, params, config);
  std::cout << algorithm << " eps=" << params.eps.to_double()
            << " mu=" << params.mu << ": " << run.result.num_clusters()
            << " clusters, " << run.result.num_cores() << " cores in "
            << run.stats.total_seconds << " s ("
            << run.stats.compsim_invocations << " intersections)\n";
  if (run.partial()) {
    const RunAborted info{run.stats.abort_reason, run.stats.abort_phase,
                          run.stats.abort_bytes, run.stats.abort_detail};
    std::cout << "PARTIAL: " << info.describe() << "; "
              << run.stats.phases_completed
              << " phases completed, undecided vertices left Unknown\n";
  }

  const auto out = flags.get_string("out", "");
  if (!out.empty()) {
    write_scan_result(run.result, out);
    std::cout << "result -> " << out << "\n";
  }

  if (collector && !write_trace_file("cluster", trace_out, *collector)) {
    return 1;
  }

  const auto metrics_out = flags.get_string("metrics-json", "");
  if (!metrics_out.empty()) {
    auto report = make_metrics_report(
        "ppscan_cli", algorithm, file_stem(flags.positionals()[1]),
        flags.get_string("eps", "0.5"), params.mu,
        static_cast<std::uint64_t>(config.num_threads),
        to_string(resolve_kernel(config.kernel)), graph, run);
    const auto row = obs::metrics_to_json(report);
    // The emitter and the schema validator are kept in lockstep; a
    // violation here is a bug, not a user error.
    const auto violation = obs::validate_metrics_json(row);
    if (!violation.empty()) {
      std::cerr << "cluster: internal error: metrics row fails its own "
                   "schema: " << violation << "\n";
      return 1;
    }
    std::ofstream stream(metrics_out);
    if (!stream) {
      std::cerr << "cluster: cannot open " << metrics_out
                << " for writing\n";
      return 1;
    }
    stream << row.dump(2) << "\n";
    std::cout << "metrics -> " << metrics_out << " (schema v"
              << obs::kMetricsSchemaVersion << ")\n";
  }
  return abort_exit_code(run.stats.abort_reason);
}

int cmd_classify(const Flags& flags) {
  if (flags.positionals().size() < 3) {
    std::cerr << "classify: usage: classify <graph> <result.txt>\n";
    return 2;
  }
  const auto graph = load_graph(flags.positionals()[1]);
  const auto result = read_scan_result(flags.positionals()[2]);
  if (result.roles.size() != graph.num_vertices()) {
    std::cerr << "classify: result has " << result.roles.size()
              << " vertices but graph has " << graph.num_vertices() << "\n";
    return 1;
  }
  const auto classes = classify_hubs_outliers_parallel(
      graph, result,
      static_cast<int>(flags.get_int("threads", default_threads())));
  std::uint64_t members = 0, hubs = 0, outliers = 0;
  for (const auto c : classes) {
    if (c == VertexClass::Member) ++members;
    if (c == VertexClass::Hub) ++hubs;
    if (c == VertexClass::Outlier) ++outliers;
  }
  std::cout << "members " << members << "\nhubs " << hubs << "\noutliers "
            << outliers << "\n";
  if (flags.get_bool("list-hubs", false)) {
    std::cout << "hub-vertices:";
    for (VertexId u = 0; u < graph.num_vertices(); ++u) {
      if (classes[u] == VertexClass::Hub) std::cout << ' ' << u;
    }
    std::cout << "\n";
  }
  return 0;
}

/// `validate <graph>` with no result file: load the graph with full
/// ingestion checks, run the complete invariant pass (including arc
/// symmetry), and print a one-line verdict. Exit 0 = OK, 1 = invalid.
int cmd_validate_graph(const std::string& path) {
  try {
    const auto graph = load_graph(path);
    graph.validate();
    std::cout << "OK: " << path << ": " << graph.num_vertices()
              << " vertices, " << graph.num_edges()
              << " edges, CSR invariants hold\n";
    return 0;
  } catch (const GraphIoError& e) {
    std::cout << "INVALID: " << e.what() << "\n";
    return 1;
  }
}

int cmd_validate(const Flags& flags) {
  if (flags.positionals().size() < 2) {
    std::cerr << "validate: usage: validate <graph> [<result.txt> "
                 "[--eps E] [--mu M]]\n";
    return 2;
  }
  if (flags.positionals().size() == 2) {
    return cmd_validate_graph(flags.positionals()[1]);
  }
  const auto graph = load_graph(flags.positionals()[1]);
  const auto result = read_scan_result(flags.positionals()[2]);
  const auto params = ScanParams::make(flags.get_string("eps", "0.5"),
                                       parse_mu(flags.get_string("mu", "5")));
  const bool partial = flags.get_bool("partial", false);
  const auto report = validate_scan_result(
      graph, params, result,
      partial ? ValidateMode::Partial : ValidateMode::Full);
  if (report.ok) {
    std::cout << "VALID: result satisfies the SCAN definitions for eps="
              << params.eps.to_double() << " mu=" << params.mu
              << (partial ? " (partial mode)" : "") << "\n";
    return 0;
  }
  std::cout << "INVALID: " << report.first_error << "\n";
  return 1;
}

int cmd_query(const Flags& flags) {
  if (flags.positionals().size() < 2) {
    std::cerr << "query: missing graph file\n";
    return 2;
  }
  const auto graph = load_graph(flags.positionals()[1]);
  GsIndex::BuildOptions build;
  build.num_threads =
      static_cast<int>(flags.get_int("threads", default_threads()));
  build.limits = parse_limits(flags);
  build.cancel = &g_signal_cancel;
  const ScopedCancelSignals signals;
  WallTimer build_timer;
  const GsIndex index(graph, build);
  if (!index.complete()) {
    std::cout << "index construction aborted: "
              << index.build_stats().abort.describe() << "\n";
    return abort_exit_code(index.build_stats().abort.reason);
  }
  std::cout << "index built in " << build_timer.elapsed_s() << " s ("
            << index.memory_bytes() / (1024 * 1024) << " MiB)\n";

  Table table({"eps", "mu", "clusters", "cores", "query(s)"});
  for (const auto& eps : split_list(flags.get_string("eps", "0.2,0.5,0.8"))) {
    for (const auto& mu_text : split_list(flags.get_string("mu", "2,5"))) {
      const auto params = ScanParams::make(eps, parse_mu(mu_text));
      const auto run = index.query(params);
      table.add_row({eps, mu_text,
                     Table::fmt(std::uint64_t{run.result.num_clusters()}),
                     Table::fmt(run.result.num_cores()),
                     Table::fmt(run.stats.total_seconds)});
    }
  }
  table.print(std::cout, "GS*-Index query grid");
  return 0;
}

/// `serve <graph>`: build the index once, start a QueryService and answer
/// the queries read from stdin ("<eps> <mu>" per line, EOF ends the
/// session). Every line is submitted before the first answer is collected,
/// so the batch actually exercises the concurrent path; answers print in
/// submission order. --metrics-json writes the serving row (queries[] +
/// latency_histogram + queries_per_second).
int cmd_serve(const Flags& flags) {
  if (flags.positionals().size() < 2) {
    std::cerr << "serve: missing graph file\n";
    return 2;
  }
  const std::int64_t queue = flags.get_int("queue", 1024);
  if (queue < 1) {
    std::cerr << "serve: --queue must be at least 1, got " << queue << "\n";
    return 2;
  }
  // -1 (the default) disables the endpoint, 0 asks for an ephemeral port.
  const std::int64_t metrics_port = flags.get_int("metrics-port", -1);
  if (metrics_port < -1 || metrics_port > 65535) {
    std::cerr << "serve: --metrics-port must be in [-1, 65535], got "
              << metrics_port << "\n";
    return 2;
  }
  const auto graph = load_graph(flags.positionals()[1]);
  const auto threads =
      static_cast<int>(flags.get_int("threads", default_threads()));
  GsIndex::BuildOptions build;
  build.num_threads = threads;
  build.cancel = &g_signal_cancel;
  const ScopedCancelSignals signals;
  WallTimer build_timer;
  const GsIndex index(graph, build);
  if (!index.complete()) {
    std::cout << "index construction aborted: "
              << index.build_stats().abort.describe() << "\n";
    return abort_exit_code(index.build_stats().abort.reason);
  }
  std::cout << "index built in " << build_timer.elapsed_s() << " s ("
            << index.memory_bytes() / (1024 * 1024) << " MiB); serving on "
            << threads << " threads, one \"<eps> <mu>\" query per line\n";

  serve::ServiceOptions options;
  options.num_threads = threads;
  options.queue_capacity = static_cast<std::size_t>(queue);
  options.cache_results = !flags.get_bool("no-cache", false);
  options.default_limits = parse_limits(flags);
  options.shed_target_delay =
      std::chrono::milliseconds(flags.get_int("shed-target-ms", 0));
  // Live telemetry (docs/observability.md, "Live telemetry"). The
  // service records every event into the collector's master slot, so it
  // needs no worker slots.
  const long stats_interval_ms = flags.get_int("stats-interval-ms", 0);
  const auto trace_out = flags.get_string("trace-out", "");
  const auto collector = make_trace_collector("serve", trace_out, 0);
  options.trace = collector.get();
  serve::QueryService service(index, options);

  std::unique_ptr<obs::ExpositionServer> exposition;
  if (metrics_port >= 0) {
    exposition = std::make_unique<obs::ExpositionServer>(
        static_cast<std::uint16_t>(metrics_port),
        [&service] { return serve::exposition_text(service.snapshot()); });
    // The smoke tests (and any local scraper) read the resolved port off
    // this line, so ephemeral --metrics-port 0 stays scriptable.
    std::cerr << "[serve] metrics exposition on 127.0.0.1:"
              << exposition->port() << "\n";
  }

  // Status line: one stderr line per --stats-interval-ms, only when that
  // flag asked for it. Each line covers the interval since the previous
  // one: qps from the completed-count delta, p99 from the histogram delta.
  // A jthread is joined on every exit path, a malformed stdin line's
  // exception included.
  std::jthread status;
  if (stats_interval_ms > 0) {
    status = std::jthread([&service, stats_interval_ms](
                              const std::stop_token& stop) {
      serve::ServiceSnapshot prev = service.snapshot();
      while (!stop.stop_requested()) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(stats_interval_ms));
        if (stop.stop_requested()) break;
        serve::ServiceSnapshot s = service.snapshot();
        const double seconds = s.uptime_seconds - prev.uptime_seconds;
        const double qps =
            seconds > 0
                ? static_cast<double>(s.completed - prev.completed) / seconds
                : 0;
        std::cerr << "[serve] qps=" << qps << " p99="
                  << s.latency.delta_since(prev.latency).quantile_ms(0.99)
                  << "ms shed=" << s.shed_queue_full + s.shed_overload
                  << "\n";
        prev = std::move(s);
      }
    });
  }

  // Submit the whole session up front, then collect in submission order —
  // the point of the service is concurrent execution, not lockstep.
  // With a shed target configured each query is offered once through the
  // non-blocking try_submit_ex, so the CLI exercises the same admission
  // gate the open-loop clients use and prints a refusal's outcome;
  // otherwise blocking submit() provides plain backpressure.
  const bool gated = options.shed_target_delay.count() > 0;
  std::vector<ScanParams> params;
  std::vector<std::future<serve::QueryResponse>> futures;
  std::vector<serve::AdmissionOutcome> outcomes;
  WallTimer serve_timer;
  std::string eps_text, mu_text;
  while (std::cin >> eps_text >> mu_text) {
    const auto p = ScanParams::make(eps_text, parse_mu(mu_text));
    params.push_back(p);
    if (!gated) {
      futures.push_back(service.submit(p));
      outcomes.push_back(serve::AdmissionOutcome::Admitted);
      continue;
    }
    std::future<serve::QueryResponse> future;
    const serve::AdmissionResult admission =
        service.try_submit_ex(p, options.default_limits, &future);
    futures.push_back(std::move(future));
    outcomes.push_back(admission.outcome);
  }
  Table table({"id", "eps", "mu", "clusters", "cores", "latency(ms)",
               "cache", "abort"});
  for (std::size_t i = 0; i < futures.size(); ++i) {
    if (outcomes[i] != serve::AdmissionOutcome::Admitted) {
      table.add_row({"-", std::to_string(params[i].eps.to_double()),
                     Table::fmt(std::uint64_t{params[i].mu}), "-", "-", "-",
                     "-", to_string(outcomes[i])});
      continue;
    }
    const serve::QueryResponse r = futures[i].get();
    table.add_row({Table::fmt(r.id),
                   std::to_string(params[i].eps.to_double()),
                   Table::fmt(std::uint64_t{params[i].mu}),
                   Table::fmt(std::uint64_t{r.run->result.num_clusters()}),
                   Table::fmt(r.run->result.num_cores()),
                   Table::fmt(r.latency_seconds * 1e3),
                   r.cache_hit ? "hit" : "miss",
                   to_string(r.run->stats.abort_reason)});
  }
  const double elapsed = serve_timer.elapsed_s();
  if (status.joinable()) {
    status.request_stop();
    status.join();
  }
  service.stop();
  if (exposition) exposition->stop();
  table.print(std::cout, "QueryService session");

  const auto snap = service.snapshot();
  std::cout << "served " << snap.completed << " queries in " << elapsed
            << " s (" << snap.cache_hits << " cache hits, " << snap.partial
            << " partial); p50=" << snap.latency.quantile_ms(0.5)
            << " ms p99=" << snap.latency.quantile_ms(0.99) << " ms\n";
  std::cout << "resilience: " << snap.exceptions << " exceptions, "
            << snap.shed_queue_full + snap.shed_overload << " shed ("
            << snap.shed_queue_full << " queue-full, " << snap.shed_overload
            << " overload)\n";
  // stop() joined the workers, so the service's events are readable.
  if (collector && !write_trace_file("serve", trace_out, *collector)) {
    return 1;
  }

  const auto metrics_out = flags.get_string("metrics-json", "");
  if (!metrics_out.empty()) {
    const auto report = serve::make_serving_report(
        "ppscan_cli", file_stem(flags.positionals()[1]),
        flags.get_string("eps", "stdin"), graph, snap, elapsed);
    auto row = obs::metrics_to_json(report);
    if (elapsed > 0) {
      row.set("queries_per_second",
              obs::JsonValue::number(
                  static_cast<double>(snap.completed) / elapsed));
    }
    const auto violation = obs::validate_metrics_json(row);
    if (!violation.empty()) {
      std::cerr << "serve: internal error: metrics row fails its own "
                   "schema: " << violation << "\n";
      return 1;
    }
    std::vector<obs::JsonValue> rows;
    rows.push_back(std::move(row));
    const auto doc = obs::metrics_file_envelope("serving", std::move(rows));
    std::ofstream stream(metrics_out);
    if (!stream) {
      std::cerr << "serve: cannot open " << metrics_out << " for writing\n";
      return 1;
    }
    stream << doc.dump(2) << "\n";
    std::cout << "metrics -> " << metrics_out << " (schema v"
              << obs::kMetricsSchemaVersion << ")\n";
  }
  return 0;
}

void usage() {
  std::cerr
      << "usage: ppscan_cli <command> [args]\n"
         "commands:\n"
         "  generate --type er|ba|rmat|lfr --out <file> [params]\n"
         "  stats <graph> [--triangles] [--histogram]\n"
         "  convert <graph> --out <file>\n"
         "  cluster <graph> [--eps E] [--mu M] [--algorithm A] [--out R]\n"
         "          [--timeout-ms T] [--mem-budget-mb M]\n"
         "          (limits / SIGINT yield a partial result; exit codes:\n"
         "           124 deadline, 125 budget, 130 cancelled)\n"
         "          [--trace-out trace.json]   per-worker Perfetto trace\n"
         "          [--metrics-json row.json]  schema-v2 metrics row\n"
         "  classify <graph> <result>\n"
         "  validate <graph>                 (check CSR invariants)\n"
         "  validate <graph> <result> [--eps E] [--mu M] [--partial]\n"
         "  query <graph> [--eps list] [--mu list] [--timeout-ms T]\n"
         "        [--mem-budget-mb M]\n"
         "  serve <graph> [--threads N] [--queue C] [--no-cache]\n"
         "        [--timeout-ms T]\n"
         "        [--metrics-json file]   (reads \"<eps> <mu>\" per stdin\n"
         "        line; concurrent QueryService over one GS*-Index)\n"
         "        [--shed-target-ms D]    CoDel-style overload shedding\n"
         "        (offers each query once via try_submit_ex and prints\n"
         "         a refusal's cause; see docs/resilience.md)\n"
         "        [--metrics-port P]      /metrics + /healthz on\n"
         "                                127.0.0.1:P (0 = ephemeral; the\n"
         "                                bound port prints to stderr)\n"
         "        [--stats-interval-ms M] one stderr status line per M ms:\n"
         "                                the interval's qps, p99 and\n"
         "                                sheds so far (default off)\n"
         "        [--trace-out FILE]      Perfetto trace of the session\n"
         "                                (one serve.query span per query)\n"
         "an unknown flag exits 2\n";
}

/// A subcommand and every flag it reads (parse_limits' three included
/// where it runs); main() rejects any other flag before the command starts.
struct Command {
  int (*run)(const Flags&);
  std::vector<std::string> flags;
};

const Command* find_command(const std::string& name) {
  static const std::map<std::string, Command> kCommands = {
      {"generate",
       {cmd_generate,
        {"type", "out", "seed", "n", "m", "edges-per-vertex", "scale",
         "edge-factor", "avg-degree", "mixing", "min-community",
         "max-community"}}},
      {"stats", {cmd_stats, {"triangles", "histogram"}}},
      {"convert", {cmd_convert, {"out"}}},
      {"cluster",
       {cmd_cluster,
        {"eps", "mu", "threads", "kernel", "algorithm", "out", "trace-out",
         "metrics-json", "timeout-ms", "mem-budget-mb", "cancel-at-phase"}}},
      {"classify", {cmd_classify, {"threads", "list-hubs"}}},
      {"validate", {cmd_validate, {"eps", "mu", "partial"}}},
      {"query",
       {cmd_query,
        {"eps", "mu", "threads", "timeout-ms", "mem-budget-mb",
         "cancel-at-phase"}}},
      {"serve",
       {cmd_serve,
        {"threads", "queue", "no-cache", "shed-target-ms", "metrics-port",
         "stats-interval-ms", "trace-out", "metrics-json", "eps",
         "timeout-ms", "mem-budget-mb", "cancel-at-phase"}}},
  };
  const auto it = kCommands.find(name);
  return it == kCommands.end() ? nullptr : &it->second;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const Flags flags(argc, argv);
  const std::string command = flags.positionals().empty()
                                  ? ""
                                  : flags.positionals().front();
  const Command* cmd = find_command(command);
  if (cmd == nullptr) {
    usage();
    return 2;
  }
  if (const std::string unknown = flags.first_unknown(cmd->flags);
      !unknown.empty()) {
    std::cerr << "ppscan_cli " << command << ": unknown flag --" << unknown
              << "\n";
    return 2;
  }
  try {
    return cmd->run(flags);
  } catch (const ppscan::GraphIoError& e) {
    std::cerr << "ppscan_cli " << command
              << ": invalid graph input: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "ppscan_cli " << command << ": " << e.what() << "\n";
    return 1;
  }
}
