// xclusterctl — command-line front end for the XCluster library.
//
//   xclusterctl generate --dataset imdb|xmark [--scale S] [--seed N]
//               --out data.xml [--paths data.paths]
//       Generates a synthetic data set, writes it as XML, and (optionally)
//       writes the value paths that should receive detailed summaries.
//
//   xclusterctl build --in data.xml --out synopsis.xcsf
//               [--bstr KB] [--bval KB] [--paths data.paths]
//               [--numeric hist|wavelet|sample] [--verbose]
//       Parses an XML file, builds an XCluster synopsis within the given
//       budgets, and saves it as an XCSF image (docs/FORMAT.md).
//
//   xclusterctl estimate --synopsis synopsis.xcsf --query "//a[range(1,9)]/b"
//   xclusterctl estimate --synopsis synopsis.xcsf --queries queries.txt
//       Maps a synopsis image into a SynopsisStore and prints
//       the estimated selectivity of a twig query (see query/parser.h for
//       the syntax); --explain prints the per-variable breakdown instead.
//       With --queries, every line of the file is estimated as one batch
//       against the shared snapshot, reporting the batch's wall time;
//       --workers N fans the batch across a thread pool.
//
//   xclusterctl serve --stdin [--workers N] [--queue N]
//               [--preload name=f.xcsf ...] [--reach-cache-capacity N]
//               [--plan-cache-capacity N] [--quota name=rate:burst,...]
//               [--lane-weights I:B]
//       Runs the in-process estimation service on a line-oriented
//       stdin/stdout protocol (see docs/SERVING.md for the grammar).
//       --quota installs per-collection admission token buckets;
//       --lane-weights tunes the interactive:bulk deficit-round-robin
//       weights of the executor's queue.
//
//   xclusterctl serve --listen host:port [--stdin] [--max-connections N]
//               [--deadline-us N] [--drain-ms N] [--max-install-bytes N]
//               [...shared flags above]
//       Additionally (or instead) serves the binary frame protocol on a
//       TCP socket; stdio and socket clients share the same
//       SynopsisStore and executor. Prints "listening host:port" once
//       bound (port 0 picks an ephemeral port). SIGTERM/SIGINT trigger a
//       graceful drain. Bind/listen failures exit with code 3.
//
//       Observability knobs (docs/OBSERVABILITY.md):
//         --trace-sample R     deterministic span-sampling rate [0,1] for
//                              batches without a client sampling decision
//         --trace-ring N       always-on ring TraceRecorder capacity
//                              (default 65536 spans; 0 disables; ignored
//                              when --trace <path> installs the unbounded
//                              recorder instead)
//         --flight-ring N      flight-recorder capacity (default 4096)
//         --slow-query-ms N    batches slower than N ms append a JSON
//                              line to --slow-query-log (required with it)
//         --dump-prefix P      SIGQUIT writes <P>-<unixtime>.flight.json
//                              and <P>-<unixtime>.trace.json while the
//                              daemon keeps serving (default
//                              xcluster-dump)
//
//   xclusterctl route --listen host:port --peer host:port [--peer ...]
//               [--probe-ms N] [--workers N] [--queue N] [--retries N]
//               [--trace-sample R] [--flight-ring N] [--max-shards N]
//               [--max-install-bytes N]
//       Runs the cluster router (docs/CLUSTER.md): an XNET daemon that
//       rendezvous-hashes each collection over the static --peer fleet,
//       retries sheds per the --retries budget, fails over to the next
//       healthy replica, scatter-gathers `base@N` sharded collections,
//       and fans kInstall replication pushes to every healthy replica
//       under one generation. Same daemon conventions as serve --listen
//       (listening line, SIGTERM/SIGINT drain, exit 3 on bind failure).
//
//   xclusterctl remote <estimate|batch|load|stats|flight> --connect ...
//       Client for a `serve --listen` daemon: estimate --name n --query q;
//       batch --name n --queries f.txt [--deadline-us N] [--explain]
//       [--priority interactive|bulk] [--trace [hexid]] (ships the whole
//       file as one packed frame; --trace attaches a sampled trace
//       context — a 16-digit hex id, or server/client-generated when the
//       value is omitted — and prints the trace_id the server echoes);
//       load --name n --path f.xcsf (server-side path), or with
//       --replicate [--generation N] read the file here and push its
//       bytes as chunked install frames — through a router this
//       replicates to every healthy replica; stats [--prom|--json]
//       (typed scrape frame; the plain form sends the `stats` command
//       and adds the server's role); flight [--limit N] (flight-recorder
//       JSON dump).
//       Shared client flags: --timeout-ms N, --connect-timeout-ms N, and
//       --retries N (bounded exponential-backoff retry of admission sheds
//       and capacity rejections, honoring the server's retry-after hint).
//
//   xclusterctl inspect --synopsis synopsis.xcsf [--detail] [--dump]
//       Prints the image header and its section table, marking sections
//       whose CRC32C fails; --detail adds cluster statistics and --dump
//       the clustering itself.
//
//   xclusterctl verify --synopsis synopsis.xcsf [--quiet]
//       fsck for synopsis images: walks the section table, checks every
//       CRC32C, and decodes every summary. Exits non-zero on any
//       corruption.
//
//   xclusterctl stats [--in metrics.json] [--format text|json|prom]
//       Pretty-prints a metrics snapshot: the live process registry, or a
//       snapshot previously exported with --metrics-json.
//
//   Global flags (any command except `remote`, where --trace is the
//   batch trace-context flag above):
//     --metrics-json <path>   write a registry snapshot (JSON) on exit
//     --metrics-prom <path>   write the snapshot in Prometheus text format
//     --trace <path>          record trace spans, write Chrome trace JSON
//       (see docs/OBSERVABILITY.md; span recording is inert when the
//       library was built with -DXCLUSTER_TELEMETRY=OFF)

#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/router.h"
#include "common/io/file_io.h"
#include "common/json.h"
#include "common/telemetry/metrics.h"
#include "common/telemetry/trace.h"
#include "core/xcluster.h"
#include "data/imdb.h"
#include "data/xmark.h"
#include "net/client.h"
#include "net/server.h"
#include "net/socket.h"
#include "estimate/flat_synopsis.h"
#include "service/harness.h"
#include "service/service.h"
#include "storage/xcsf_format.h"
#include "storage/xcsf_reader.h"
#include "synopsis/reference.h"
#include "synopsis/stats.h"
#include "workload/generator.h"
#include "workload/io.h"
#include "workload/metrics.h"
#include "xml/parser.h"
#include "xml/writer.h"

namespace xcluster {
namespace {

/// Minimal --flag value parser. Flags with no following value get "".
/// Repeated flags accumulate (GetAll); the single-value accessors return
/// the last occurrence, preserving the old last-wins behavior.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) continue;
      std::string key = arg.substr(2);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[key].push_back(argv[++i]);
      } else {
        values_[key].push_back("");
      }
    }
  }

  bool Has(const std::string& key) const { return values_.count(key) > 0; }

  std::string Get(const std::string& key, std::string fallback = "") const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second.back();
  }

  /// Every occurrence of a repeatable flag (e.g. route --peer), in order.
  std::vector<std::string> GetAll(const std::string& key) const {
    auto it = values_.find(key);
    return it == values_.end() ? std::vector<std::string>() : it->second;
  }

  double GetDouble(const std::string& key, double fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : std::stod(it->second.back());
  }

  int64_t GetInt(const std::string& key, int64_t fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : std::stoll(it->second.back());
  }

 private:
  std::map<std::string, std::vector<std::string>> values_;
};

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

int Generate(const Args& args) {
  const std::string kind = args.Get("dataset", "imdb");
  const std::string out = args.Get("out");
  if (out.empty()) return Fail("generate requires --out");
  GeneratedDataset dataset;
  if (kind == "imdb") {
    ImdbOptions options;
    options.scale = args.GetDouble("scale", 1.0);
    options.seed = static_cast<uint64_t>(args.GetInt("seed", 11));
    dataset = GenerateImdb(options);
  } else if (kind == "xmark") {
    XMarkOptions options;
    options.scale = args.GetDouble("scale", 1.0);
    options.seed = static_cast<uint64_t>(args.GetInt("seed", 7));
    dataset = GenerateXMark(options);
  } else {
    return Fail("unknown --dataset '" + kind + "' (imdb|xmark)");
  }

  XmlWriter writer;
  Status status = writer.WriteFile(dataset.doc, out);
  if (!status.ok()) return Fail(status.ToString());
  std::printf("wrote %s: %zu elements, %zu valued\n", out.c_str(),
              dataset.doc.size(), dataset.doc.CountValued());

  const std::string paths_out = args.Get("paths");
  if (!paths_out.empty()) {
    std::ofstream paths_file(paths_out);
    for (const std::string& path : dataset.value_paths) {
      paths_file << path << '\n';
    }
    std::printf("wrote %zu value paths to %s\n", dataset.value_paths.size(),
                paths_out.c_str());
  }
  return 0;
}

int Build(const Args& args) {
  const std::string in = args.Get("in");
  const std::string out = args.Get("out");
  if (in.empty() || out.empty()) return Fail("build requires --in and --out");

  XmlParser parser;
  XmlDocument doc;
  Status status = parser.ParseFile(in, &doc);
  if (!status.ok()) return Fail("parse: " + status.ToString());

  XCluster::Options options;
  options.build.structural_budget =
      static_cast<size_t>(args.GetInt("bstr", 50)) * 1024;
  options.build.value_budget =
      static_cast<size_t>(args.GetInt("bval", 150)) * 1024;
  options.build.verbose = args.Has("verbose");
  const std::string paths = args.Get("paths");
  if (!paths.empty()) options.reference.value_paths = ReadLines(paths);
  const std::string numeric = args.Get("numeric", "hist");
  if (numeric == "wavelet") {
    options.reference.numeric_summary = NumericSummaryKind::kWavelet;
  } else if (numeric == "sample") {
    options.reference.numeric_summary = NumericSummaryKind::kSample;
  } else if (numeric != "hist") {
    return Fail("unknown --numeric '" + numeric + "' (hist|wavelet|sample)");
  }

  XCluster synopsis = XCluster::Build(doc, options);
  status = synopsis.Save(out);
  if (!status.ok()) return Fail("save: " + status.ToString());

  // Structured build report: the full BuildStats plus budgets and final
  // sizes, as one JSON object on stdout (machine-parseable; the bench
  // harness and CI smoke test consume it).
  const BuildStats& stats = synopsis.build_stats();
  auto num = [](size_t v) { return JsonValue::Number(static_cast<double>(v)); };
  JsonValue report = JsonValue::Object();
  report.members()["input"] = JsonValue::String(in);
  report.members()["output"] = JsonValue::String(out);
  report.members()["elements"] = num(doc.size());
  JsonValue budgets = JsonValue::Object();
  budgets.members()["structural_bytes"] = num(options.build.structural_budget);
  budgets.members()["value_bytes"] = num(options.build.value_budget);
  report.members()["budgets"] = std::move(budgets);
  JsonValue result = JsonValue::Object();
  result.members()["clusters"] = num(synopsis.synopsis().NodeCount());
  result.members()["edges"] = num(synopsis.synopsis().EdgeCount());
  result.members()["total_bytes"] = num(synopsis.SizeBytes());
  result.members()["structural_bytes"] =
      num(synopsis.synopsis().StructuralBytes());
  result.members()["value_bytes"] = num(synopsis.synopsis().ValueBytes());
  report.members()["synopsis"] = std::move(result);
  JsonValue build_stats = JsonValue::Object();
  build_stats.members()["reference_nodes"] = num(stats.reference_nodes);
  build_stats.members()["reference_bytes"] = num(stats.reference_bytes);
  build_stats.members()["merges_applied"] = num(stats.merges_applied);
  build_stats.members()["candidates_evaluated"] =
      num(stats.candidates_evaluated);
  build_stats.members()["pool_rebuilds"] = num(stats.pool_rebuilds);
  build_stats.members()["value_bytes_compressed"] =
      num(stats.value_bytes_compressed);
  build_stats.members()["final_structural_bytes"] =
      num(stats.final_structural_bytes);
  build_stats.members()["final_value_bytes"] = num(stats.final_value_bytes);
  report.members()["build_stats"] = std::move(build_stats);
  std::printf("%s\n", report.Dump(2).c_str());
  return 0;
}

/// Multi-query path: the synopsis is loaded (and checksum-verified) once
/// into a SynopsisStore, then every query in the file is estimated against
/// the shared snapshot — instead of the old reload-per-invocation loop.
int EstimateFile(const std::string& synopsis_path,
                 const std::string& queries_path, size_t workers,
                 bool explain) {
  ServiceOptions options;
  options.executor.num_threads = workers;
  EstimationService service(options);
  auto loaded = service.store().LoadFile("default", synopsis_path);
  if (!loaded.ok()) return Fail("load: " + loaded.status().ToString());

  const std::vector<std::string> queries = ReadLines(queries_path);
  if (queries.empty()) return Fail(queries_path + ": no queries");
  BatchOptions batch_options;
  batch_options.explain = explain;
  BatchResult batch = service.EstimateBatch("default", queries, batch_options);

  int rc = 0;
  for (size_t i = 0; i < batch.results.size(); ++i) {
    const QueryResult& result = batch.results[i];
    if (result.status.ok()) {
      std::printf("%-12.6g %s\n", result.estimate, queries[i].c_str());
      if (explain && !result.explanation.empty()) {
        std::printf("%s", result.explanation.c_str());
      }
    } else {
      std::printf("error: %-12s %s\n", result.status.ToString().c_str(),
                  queries[i].c_str());
      rc = 1;
    }
  }
  // The queries ran as one batch, so its wall time is the one measured
  // duration there is to report.
  std::printf("# %zu queries: ok=%zu err=%zu wall_us=%llu\n", queries.size(),
              batch.stats.ok, batch.stats.failed,
              static_cast<unsigned long long>(batch.stats.wall_ns / 1000));
  return rc;
}

int Estimate(const Args& args) {
  const std::string path = args.Get("synopsis");
  const std::string query = args.Get("query");
  const std::string queries = args.Get("queries");
  if (path.empty() || (query.empty() && queries.empty())) {
    return Fail("estimate requires --synopsis and --query or --queries");
  }
  if (!queries.empty()) {
    return EstimateFile(path, queries,
                        static_cast<size_t>(args.GetInt("workers", 0)),
                        args.Has("explain"));
  }
  // One query takes the same load path as --queries (the image mapped by
  // SynopsisStore::LoadFile), then one inline EstimateOne.
  EstimationService service;
  auto loaded = service.store().LoadFile("default", path);
  if (!loaded.ok()) return Fail("load: " + loaded.status().ToString());
  const bool explain = args.Has("explain");
  const QueryResult result = service.EstimateOne("default", query, explain);
  if (!result.status.ok()) {
    return Fail("query: " + result.status.ToString());
  }
  if (explain) {
    // The EXPLAIN rendering leads with the estimate, then the per-variable
    // VarStats table (expected bindings and predicate selectivity).
    std::printf("%s", result.explanation.c_str());
  } else {
    std::printf("%.6g\n", result.estimate);
  }
  return 0;
}

/// Exit code for bind/listen failures, distinct from the generic 1 so
/// scripts can tell "the port is taken" from "the request was malformed".
constexpr int kExitListenFailed = 3;

/// Write end of the serving NetServer's wake pipe; the signal handler is a
/// single async-signal-safe write(2) through it.
std::atomic<int> g_drain_fd{-1};

void HandleDrainSignal(int /*signo*/) {
  const int fd = g_drain_fd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const char byte = 1;
    ssize_t ignored = ::write(fd, &byte, 1);
    (void)ignored;
  }
}

/// Write end of the SIGQUIT dump pipe. The handler writes one byte; a
/// dedicated thread does the actual file I/O so the daemon keeps serving
/// and the handler stays async-signal-safe.
std::atomic<int> g_dump_fd{-1};

void HandleDumpSignal(int /*signo*/) {
  const int fd = g_dump_fd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const char byte = 1;
    ssize_t ignored = ::write(fd, &byte, 1);
    (void)ignored;
  }
}

/// Flight-ring + trace-ring dump to <prefix>-<unixtime>.{flight,trace}.json.
/// Runs on the dump thread (never in signal context). Prints the written
/// paths on stderr so wrappers (scripts/chaos_smoke.sh) can find them.
void WriteDebugDump(const EstimationService* service,
                    telemetry::TraceRecorder* recorder,
                    const std::string& prefix) {
  const std::string stamp = std::to_string(
      static_cast<long long>(::time(nullptr)));
  const std::string flight_path = prefix + "-" + stamp + ".flight.json";
  Status status = WriteFileAtomic(flight_path, service->flight().ToJson());
  if (status.ok()) {
    std::fprintf(stderr, "dump: wrote %s\n", flight_path.c_str());
  } else {
    std::fprintf(stderr, "dump: %s: %s\n", flight_path.c_str(),
                 status.ToString().c_str());
  }
  if (recorder != nullptr) {
    const std::string trace_path = prefix + "-" + stamp + ".trace.json";
    status = recorder->WriteFile(trace_path);
    if (status.ok()) {
      std::fprintf(stderr, "dump: wrote %s\n", trace_path.c_str());
    } else {
      std::fprintf(stderr, "dump: %s: %s\n", trace_path.c_str(),
                   status.ToString().c_str());
    }
  }
  std::fflush(stderr);
}

/// Owns the serve-mode ring recorder and its global registration.
/// Declared before the EstimationService so it is destroyed after it:
/// worker threads are joined first, then the recorder is uninstalled and
/// freed.
struct RingTraceGuard {
  std::unique_ptr<telemetry::TraceRecorder> recorder;

  ~RingTraceGuard() {
    if (recorder != nullptr &&
        telemetry::GlobalTraceRecorder() == recorder.get()) {
      telemetry::InstallGlobalTraceRecorder(nullptr);
    }
  }
};

/// Owns the SIGQUIT dump plumbing (self-pipe + worker thread). Declared
/// after the EstimationService so the dump thread — which reads the
/// service's flight ring — is stopped before the service dies, on every
/// Serve() exit path including the early Fail returns.
struct DumpPipeGuard {
  int pipe_read = -1;
  int pipe_write = -1;
  std::thread dump_thread;

  ~DumpPipeGuard() {
    if (pipe_write < 0) return;
    std::signal(SIGQUIT, SIG_DFL);
    g_dump_fd.store(-1, std::memory_order_relaxed);
    const char sentinel = 0;
    ssize_t ignored = ::write(pipe_write, &sentinel, 1);
    (void)ignored;
    if (dump_thread.joinable()) dump_thread.join();
    ::close(pipe_write);
    ::close(pipe_read);
  }
};

int Serve(const Args& args) {
  const std::string listen = args.Get("listen");
  if (!args.Has("stdin") && listen.empty()) {
    return Fail("serve requires --stdin and/or --listen <host:port>");
  }
  ServiceOptions options;
  options.executor.num_threads = static_cast<size_t>(
      args.GetInt("workers", std::thread::hardware_concurrency()));
  options.executor.queue_capacity =
      static_cast<size_t>(args.GetInt("queue", 1024));
  options.estimator.reach_cache_capacity = static_cast<size_t>(args.GetInt(
      "reach-cache-capacity",
      static_cast<int64_t>(options.estimator.reach_cache_capacity)));
  options.plan_cache_capacity = static_cast<size_t>(args.GetInt(
      "plan-cache-capacity",
      static_cast<int64_t>(options.plan_cache_capacity)));
  options.flight_recorder_capacity = static_cast<size_t>(args.GetInt(
      "flight-ring",
      static_cast<int64_t>(options.flight_recorder_capacity)));
  const int64_t slow_query_ms = args.GetInt("slow-query-ms", 0);
  if (slow_query_ms < 0) return Fail("--slow-query-ms must be >= 0");
  options.slow_query_ns = static_cast<uint64_t>(slow_query_ms) * 1000000;
  options.slow_query_log_path = args.Get("slow-query-log");
  if (slow_query_ms > 0 && options.slow_query_log_path.empty()) {
    return Fail("--slow-query-ms requires --slow-query-log <path>");
  }
  // --xcsf-spool DIR — persist replicated XCSF images there (atomic
  // write + mmap) so a restarted replica cold-starts from disk.
  options.xcsf_spool_dir = args.Get("xcsf-spool");
  // --lane-weights I:B — deficit-round-robin weights of interactive and
  // bulk batches in the executor's queue (default 8:1).
  const std::string lane_weights = args.Get("lane-weights");
  if (!lane_weights.empty()) {
    const size_t colon = lane_weights.find(':');
    char* end = nullptr;
    const long interactive =
        std::strtol(lane_weights.c_str(), &end, 10);
    long bulk = 0;
    if (colon != std::string::npos) {
      bulk = std::strtol(lane_weights.c_str() + colon + 1, &end, 10);
    }
    if (colon == std::string::npos || interactive <= 0 || bulk <= 0) {
      return Fail("--lane-weights expects I:B with positive integers, got '" +
                  lane_weights + "'");
    }
    options.admission.lane_weights[static_cast<size_t>(Lane::kInteractive)] =
        static_cast<uint32_t>(interactive);
    options.admission.lane_weights[static_cast<size_t>(Lane::kBulk)] =
        static_cast<uint32_t>(bulk);
  }
  // Always-on bounded tracing for the daemon: a seqlock ring recorder that
  // overwrites the oldest spans instead of growing. --trace <path> (handled
  // in Run) installs the unbounded recorder instead and wins; --trace-ring 0
  // disables ring tracing entirely.
  const int64_t trace_ring = args.GetInt("trace-ring", 65536);
  if (trace_ring < 0) return Fail("--trace-ring must be >= 0");
  RingTraceGuard ring_trace;
  if (trace_ring > 0 && telemetry::GlobalTraceRecorder() == nullptr) {
    ring_trace.recorder = std::make_unique<telemetry::TraceRecorder>(
        static_cast<size_t>(trace_ring));
    telemetry::InstallGlobalTraceRecorder(ring_trace.recorder.get());
  }

  EstimationService service(options);

  // SIGQUIT → debug dump (flight ring + trace ring) without stopping the
  // daemon. The handler pokes a self-pipe; the dump thread owns the file
  // I/O so the handler stays down to one async-signal-safe write(2).
  DumpPipeGuard dump;
  {
    int dump_pipe[2] = {-1, -1};
    const std::string dump_prefix = args.Get("dump-prefix", "xcluster-dump");
    if (::pipe(dump_pipe) == 0) {
      dump.pipe_read = dump_pipe[0];
      dump.pipe_write = dump_pipe[1];
      g_dump_fd.store(dump.pipe_write, std::memory_order_relaxed);
      dump.dump_thread = std::thread([&service, read_fd = dump.pipe_read,
                                      dump_prefix] {
        for (;;) {
          char byte = 0;
          const ssize_t got = ::read(read_fd, &byte, 1);
          if (got <= 0 || byte == 0) break;  // shutdown sentinel / pipe gone
          WriteDebugDump(&service, telemetry::GlobalTraceRecorder(),
                         dump_prefix);
        }
      });
      std::signal(SIGQUIT, HandleDumpSignal);
    }
  }

  // --quota name=rate:burst[,name=rate:burst...]: per-collection admission
  // token buckets (queries/sec and burst size), installed before serving.
  std::string quota = args.Get("quota");
  while (!quota.empty()) {
    const size_t comma = quota.find(',');
    const std::string spec = quota.substr(0, comma);
    quota = comma == std::string::npos ? "" : quota.substr(comma + 1);
    const size_t eq = spec.find('=');
    const size_t colon = spec.find(':', eq == std::string::npos ? 0 : eq);
    if (eq == std::string::npos || colon == std::string::npos) {
      return Fail("--quota expects name=rate:burst, got '" + spec + "'");
    }
    char* end = nullptr;
    const double rate = std::strtod(spec.c_str() + eq + 1, &end);
    const double burst = std::strtod(spec.c_str() + colon + 1, &end);
    if (!(rate > 0) || !(burst > 0)) {
      return Fail("--quota " + spec + ": rate and burst must be positive");
    }
    service.admission().SetQuota(spec.substr(0, eq), rate, burst);
  }

  // --preload name=path[,name=path...]: install synopses before serving.
  std::string preload = args.Get("preload");
  while (!preload.empty()) {
    const size_t comma = preload.find(',');
    const std::string spec = preload.substr(0, comma);
    preload = comma == std::string::npos ? "" : preload.substr(comma + 1);
    const size_t eq = spec.find('=');
    if (eq == std::string::npos) {
      return Fail("--preload expects name=path, got '" + spec + "'");
    }
    auto loaded =
        service.store().LoadFile(spec.substr(0, eq), spec.substr(eq + 1));
    if (!loaded.ok()) {
      return Fail("preload " + spec + ": " + loaded.status().ToString());
    }
  }

  std::unique_ptr<net::NetServer> server;
  if (!listen.empty()) {
    Result<net::HostPort> host_port = net::ParseHostPort(listen);
    if (!host_port.ok()) {
      std::fprintf(stderr, "error: --listen %s: %s\n", listen.c_str(),
                   host_port.status().ToString().c_str());
      return kExitListenFailed;
    }
    net::NetServerOptions net_options;
    net_options.host = host_port.value().host;
    net_options.port = host_port.value().port;
    net_options.max_connections = static_cast<size_t>(args.GetInt(
        "max-connections", static_cast<int64_t>(net_options.max_connections)));
    net_options.default_deadline_ns =
        static_cast<uint64_t>(args.GetInt("deadline-us", 0)) * 1000;
    net_options.drain_timeout_ms = static_cast<uint64_t>(args.GetInt(
        "drain-ms", static_cast<int64_t>(net_options.drain_timeout_ms)));
    net_options.trace_sample = args.GetDouble("trace-sample", 0.0);
    if (net_options.trace_sample < 0.0 || net_options.trace_sample > 1.0) {
      return Fail("--trace-sample must be in [0, 1]");
    }
    const int64_t max_install = args.GetInt(
        "max-install-bytes", static_cast<int64_t>(net_options.max_install_bytes));
    if (max_install <= 0) return Fail("--max-install-bytes must be positive");
    net_options.max_install_bytes = static_cast<size_t>(max_install);
    server = std::make_unique<net::NetServer>(&service, net_options);
    Status started = server->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "error: %s\n", started.ToString().c_str());
      return kExitListenFailed;
    }
    g_drain_fd.store(server->drain_fd(), std::memory_order_relaxed);
    std::signal(SIGTERM, HandleDrainSignal);
    std::signal(SIGINT, HandleDrainSignal);
    // The bound port on stdout (port 0 resolves to the kernel's pick) so
    // wrappers can scrape it; see scripts/net_smoke.sh.
    std::printf("listening %s:%u\n", net_options.host.c_str(),
                static_cast<unsigned>(server->port()));
    std::fflush(stdout);
  }

  int rc = 0;
  if (args.Has("stdin")) {
    ServiceHarness harness(&service);
    rc = harness.Run(std::cin, std::cout);
    if (server) server->Stop();  // stdio EOF/quit shuts the daemon down too
  } else {
    server->AwaitTermination();
  }
  if (server) {
    g_drain_fd.store(-1, std::memory_order_relaxed);
    std::signal(SIGTERM, SIG_DFL);
    std::signal(SIGINT, SIG_DFL);
  }
  return rc;
}

/// `xclusterctl route --listen host:port --peer host:port [--peer ...]`
/// — the cluster router daemon (docs/CLUSTER.md): same XNET protocol on
/// both sides, rendezvous-hash routing with failover, kInstall fan-out
/// replication, and `base@N` scatter-gather. Same daemon conventions as
/// serve --listen: "listening host:port" on stdout once bound, SIGTERM/
/// SIGINT drain, exit 3 on bind failure.
int Route(const Args& args) {
  const std::string listen = args.Get("listen");
  if (listen.empty()) return Fail("route requires --listen host:port");
  const std::vector<std::string> peers = args.GetAll("peer");
  if (peers.empty()) return Fail("route requires at least one --peer host:port");
  for (const std::string& peer : peers) {
    if (peer.empty()) return Fail("--peer requires host:port");
  }
  Result<net::HostPort> host_port = net::ParseHostPort(listen);
  if (!host_port.ok()) {
    std::fprintf(stderr, "error: --listen %s: %s\n", listen.c_str(),
                 host_port.status().ToString().c_str());
    return kExitListenFailed;
  }

  cluster::RouterOptions options;
  options.server.host = host_port.value().host;
  options.server.port = host_port.value().port;
  options.server.max_connections = static_cast<size_t>(
      args.GetInt("max-connections",
                  static_cast<int64_t>(options.server.max_connections)));
  options.server.drain_timeout_ms = static_cast<uint64_t>(args.GetInt(
      "drain-ms", static_cast<int64_t>(options.server.drain_timeout_ms)));
  options.peers = peers;
  options.replicas.probe_interval_ms = static_cast<uint64_t>(
      args.GetInt("probe-ms",
                  static_cast<int64_t>(options.replicas.probe_interval_ms)));
  options.replicas.client.recv_timeout_ms =
      static_cast<uint64_t>(args.GetInt("timeout-ms", 30000));
  options.replicas.client.connect_timeout_ms = static_cast<uint64_t>(
      args.GetInt("connect-timeout-ms",
                  static_cast<int64_t>(
                      options.replicas.client.connect_timeout_ms)));
  // Shed-retry budget *per replica* before the router fails a batch over
  // to the next replica in HRW order.
  options.replicas.client.retry.max_attempts =
      static_cast<int>(args.GetInt("retries", 2));
  options.workers = static_cast<size_t>(args.GetInt("workers", 4));
  options.queue_capacity = static_cast<size_t>(args.GetInt("queue", 256));
  options.trace_sample = args.GetDouble("trace-sample", 0.0);
  if (options.trace_sample < 0.0 || options.trace_sample > 1.0) {
    return Fail("--trace-sample must be in [0, 1]");
  }
  options.flight_capacity = static_cast<size_t>(args.GetInt(
      "flight-ring", static_cast<int64_t>(options.flight_capacity)));
  options.max_shards = static_cast<uint32_t>(
      args.GetInt("max-shards", static_cast<int64_t>(options.max_shards)));
  const int64_t max_install = args.GetInt(
      "max-install-bytes",
      static_cast<int64_t>(options.server.max_install_bytes));
  if (max_install <= 0) return Fail("--max-install-bytes must be positive");
  options.server.max_install_bytes = static_cast<size_t>(max_install);

  cluster::Router router(std::move(options));
  Status started = router.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "error: %s\n", started.ToString().c_str());
    return kExitListenFailed;
  }
  g_drain_fd.store(router.drain_fd(), std::memory_order_relaxed);
  std::signal(SIGTERM, HandleDrainSignal);
  std::signal(SIGINT, HandleDrainSignal);
  std::printf("listening %s:%u\n", host_port.value().host.c_str(),
              static_cast<unsigned>(router.port()));
  std::fflush(stdout);
  router.AwaitTermination();
  g_drain_fd.store(-1, std::memory_order_relaxed);
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGINT, SIG_DFL);
  return 0;
}

int Remote(const std::string& action, const Args& args) {
  const std::string target = args.Get("connect");
  if (target.empty()) {
    return Fail("remote requires --connect host:port");
  }
  Result<net::HostPort> host_port = net::ParseHostPort(target);
  if (!host_port.ok()) {
    return Fail("--connect " + target + ": " +
                host_port.status().ToString());
  }
  net::NetClientOptions client_options;
  client_options.recv_timeout_ms =
      static_cast<uint64_t>(args.GetInt("timeout-ms", 30000));
  client_options.connect_timeout_ms = static_cast<uint64_t>(args.GetInt(
      "connect-timeout-ms",
      static_cast<int64_t>(client_options.connect_timeout_ms)));
  // --retries N: total attempts for retryable (Unavailable) refusals —
  // connection-capacity rejections at connect and admission sheds on batch.
  client_options.retry.max_attempts =
      static_cast<int>(args.GetInt("retries", 1));
  Result<net::NetClient> client = net::NetClient::ConnectWithRetry(
      host_port.value().host, host_port.value().port, client_options);
  if (!client.ok()) {
    return Fail("connect " + target + ": " + client.status().ToString());
  }

  if (action == "estimate") {
    const std::string name = args.Get("name");
    const std::string query = args.Get("query");
    if (name.empty() || query.empty()) {
      return Fail("remote estimate requires --name and --query");
    }
    Result<std::string> reply =
        client.value().Command("estimate " + name + " " + query);
    if (!reply.ok()) return Fail(reply.status().ToString());
    std::printf("%s", reply.value().c_str());
    return reply.value().rfind("ok", 0) == 0 ? 0 : 1;
  }
  if (action == "batch") {
    const std::string name = args.Get("name");
    const std::string queries_path = args.Get("queries");
    if (name.empty() || queries_path.empty()) {
      return Fail("remote batch requires --name and --queries");
    }
    std::vector<std::string> queries = ReadLines(queries_path);
    if (queries.empty()) return Fail(queries_path + ": no queries");
    BatchOptions batch_options;
    batch_options.explain = args.Has("explain");
    batch_options.deadline_ns =
        static_cast<uint64_t>(args.GetInt("deadline-us", 0)) * 1000;
    const std::string priority = args.Get("priority", "interactive");
    if (!ParseLane(priority, &batch_options.lane)) {
      return Fail("unknown --priority '" + priority +
                  "' (interactive|bulk)");
    }
    // --trace [hexid]: attach a sampled trace context. With no value the
    // client mints the id, so the trace is identifiable even before the
    // server echoes it back.
    if (args.Has("trace")) {
      const std::string hex = args.Get("trace");
      if (hex.empty()) {
        batch_options.trace.trace_id = telemetry::GenerateTraceId();
      } else {
        Status parsed =
            telemetry::ParseTraceIdHex(hex, &batch_options.trace.trace_id);
        if (!parsed.ok()) {
          return Fail("--trace " + hex + ": " + parsed.ToString());
        }
      }
      batch_options.trace.sampled = true;
    }
    Result<net::BatchReplyFrame> reply =
        client.value().Batch(name, queries, batch_options);
    if (!reply.ok()) {
      if (reply.status().code() == Status::Code::kUnavailable) {
        return Fail(reply.status().ToString() + " (after " +
                    std::to_string(client.value().last_attempts()) +
                    " attempts; retry_after_ms=" +
                    std::to_string(client.value().last_retry_after_ms()) +
                    ")");
      }
      return Fail(reply.status().ToString());
    }
    std::printf("%s",
                net::FormatBatchReply(reply.value(), batch_options.explain)
                    .c_str());
    // Only --trace requests print the id: batch output must stay
    // byte-identical to serve --stdin (net_smoke diffs them), and the
    // server echoes an id for every batch.
    if (args.Has("trace")) {
      std::printf("trace_id=%s\n",
                  telemetry::TraceIdHex(client.value().last_trace_id()).c_str());
    }
    return reply.value().stats.failed == 0 ? 0 : 1;
  }
  if (action == "load") {
    const std::string name = args.Get("name");
    const std::string path = args.Get("path");
    if (name.empty() || path.empty()) {
      return Fail("remote load requires --name and --path");
    }
    if (args.Has("replicate")) {
      // --replicate reads the image here and ships the bytes as a chunked
      // kInstall push. Against a router that fans the snapshot out to
      // every healthy replica under one generation; against a single
      // replica it is a plain wire install. Either way the file only has
      // to exist on the *client* machine.
      Result<std::string> bytes = ReadFileToString(path);
      if (!bytes.ok()) {
        return Fail("read " + path + ": " + bytes.status().ToString());
      }
      Status verified = storage::VerifyXcsfBytes(bytes.value(), nullptr);
      if (!verified.ok()) {
        return Fail(path + ": " + verified.ToString());
      }
      const uint64_t generation =
          static_cast<uint64_t>(args.GetInt("generation", 0));
      Result<net::InstallReplyFrame> reply =
          client.value().Install(name, bytes.value(), generation);
      if (!reply.ok()) return Fail(reply.status().ToString());
      if (reply.value().ok) {
        std::printf("ok install %s gen=%llu %s\n", name.c_str(),
                    static_cast<unsigned long long>(reply.value().generation),
                    reply.value().message.c_str());
        return 0;
      }
      std::printf("err install %s: %s\n", name.c_str(),
                  reply.value().message.c_str());
      return 1;
    }
    // The path is resolved by the server process, not this client.
    Result<std::string> reply =
        client.value().Command("load " + name + " " + path);
    if (!reply.ok()) return Fail(reply.status().ToString());
    std::printf("%s", reply.value().c_str());
    return reply.value().rfind("ok", 0) == 0 ? 0 : 1;
  }
  if (action == "stats") {
    // --prom/--json use the typed scrape frame (machine formats straight
    // off the metrics registry); the plain form sends the `stats` command,
    // which a router answers with its fleet view.
    if (args.Has("prom") || args.Has("json")) {
      const net::StatsFormat format = args.Has("prom")
                                          ? net::StatsFormat::kPrometheus
                                          : net::StatsFormat::kJson;
      Result<std::string> scrape = client.value().StatsScrape(format);
      if (!scrape.ok()) return Fail(scrape.status().ToString());
      std::printf("%s", scrape.value().c_str());
      return 0;
    }
    Result<std::string> reply = client.value().Command("stats");
    if (!reply.ok()) return Fail(reply.status().ToString());
    std::printf("%s", reply.value().c_str());
    // Hello-handshake metadata as a trailing comment line.
    std::printf("# server role=%s description=%s\n",
                client.value().server_role().c_str(),
                client.value().server_description().c_str());
    return reply.value().rfind("ok", 0) == 0 ? 0 : 1;
  }
  if (action == "flight") {
    const int64_t limit = args.GetInt("limit", 0);
    if (limit < 0) return Fail("--limit must be >= 0");
    Result<std::string> dump =
        client.value().FlightDump(static_cast<uint32_t>(limit));
    if (!dump.ok()) return Fail(dump.status().ToString());
    std::printf("%s", dump.value().c_str());
    return 0;
  }
  return Fail("unknown remote action '" + action +
              "' (estimate|batch|load|stats|flight)");
}

int Stats(const Args& args) {
  telemetry::MetricsSnapshot snapshot;
  const std::string in = args.Get("in");
  if (!in.empty()) {
    Result<std::string> bytes = ReadFileToString(in);
    if (!bytes.ok()) return Fail("read: " + bytes.status().ToString());
    Result<telemetry::MetricsSnapshot> parsed =
        telemetry::SnapshotFromJson(bytes.value());
    if (!parsed.ok()) return Fail(in + ": " + parsed.status().ToString());
    snapshot = std::move(parsed).value();
  } else {
    snapshot = telemetry::MetricsRegistry::Global().Snapshot();
  }
  const std::string format = args.Get("format", "text");
  if (format == "text") {
    std::printf("%s", snapshot.ToText().c_str());
  } else if (format == "json") {
    std::printf("%s", snapshot.ToJson().c_str());
  } else if (format == "prom") {
    std::printf("%s", snapshot.ToPrometheus().c_str());
  } else {
    return Fail("unknown --format '" + format + "' (text|json|prom)");
  }
  return 0;
}

/// The per-section table shown by inspect.
void PrintSectionTable(
    const std::vector<storage::SynopsisSectionInfo>& sections) {
  std::printf("%-20s %10s %12s  %s\n", "section", "offset", "bytes", "crc");
  for (const storage::SynopsisSectionInfo& info : sections) {
    std::printf("%-20s %10llu %12llu  %s\n", info.name.c_str(),
                static_cast<unsigned long long>(info.offset),
                static_cast<unsigned long long>(info.length),
                info.crc_ok ? "ok" : "BAD");
  }
}

int Inspect(const Args& args) {
  const std::string path = args.Get("synopsis");
  if (path.empty()) return Fail("inspect requires --synopsis");
  // The header and section table come straight from the bytes, tolerant
  // of payload corruption (bad sections print "BAD").
  Result<std::string> bytes = ReadFileToString(path);
  if (!bytes.ok()) return Fail(bytes.status().ToString());
  storage::XcsfHeader header;
  Status status = storage::ParseXcsfHeader(bytes.value(),
                                           bytes.value().size(), &header);
  if (!status.ok()) return Fail(path + ": " + status.ToString());
  std::printf("format:     xcsf v%u (flat mmap image)\n", header.version);
  std::printf("clusters:   %u\n", header.node_count);
  std::printf("edges:      %llu\n",
              static_cast<unsigned long long>(header.edge_count));
  std::printf("terms:      %s\n",
              (header.flags & storage::kXcsfFlagHasTerms) != 0 ? "yes" : "no");
  std::printf("image:      %zu bytes (%u sections)\n", bytes.value().size(),
              header.section_count);
  std::vector<storage::SynopsisSectionInfo> sections;
  status = storage::InspectXcsfSections(bytes.value(), &sections);
  if (!status.ok()) return Fail(path + ": " + status.ToString());
  PrintSectionTable(sections);
  if (!args.Has("detail") && !args.Has("dump")) return 0;
  // Statistics and the clustering need the graph, rebuilt from a sound
  // image.
  Result<XCluster> loaded = XCluster::Load(path);
  if (!loaded.ok()) return Fail("load: " + loaded.status().ToString());
  const GraphSynopsis& synopsis = loaded.value().synopsis();
  if (args.Has("detail")) {
    std::printf("%s", ComputeStats(synopsis).ToString().c_str());
  }
  if (args.Has("dump")) {
    std::printf("%s", synopsis.DebugString().c_str());
  }
  return 0;
}

GeneratedDataset GenerateByName(const Args& args, bool* ok) {
  const std::string kind = args.Get("dataset", "imdb");
  *ok = true;
  if (kind == "imdb") {
    ImdbOptions options;
    options.scale = args.GetDouble("scale", 1.0);
    options.seed = static_cast<uint64_t>(args.GetInt("seed", 11));
    return GenerateImdb(options);
  }
  if (kind == "xmark") {
    XMarkOptions options;
    options.scale = args.GetDouble("scale", 1.0);
    options.seed = static_cast<uint64_t>(args.GetInt("seed", 7));
    return GenerateXMark(options);
  }
  *ok = false;
  return GeneratedDataset();
}

int MakeWorkload(const Args& args) {
  const std::string out = args.Get("out");
  if (out.empty()) return Fail("workload requires --out");
  bool ok = false;
  GeneratedDataset dataset = GenerateByName(args, &ok);
  if (!ok) return Fail("unknown --dataset (imdb|xmark)");
  ReferenceOptions ref_options;
  ref_options.value_paths = dataset.value_paths;
  GraphSynopsis reference = BuildReferenceSynopsis(dataset.doc, ref_options);
  WorkloadOptions wl_options;
  wl_options.num_queries = static_cast<size_t>(args.GetInt("queries", 1000));
  wl_options.seed = static_cast<uint64_t>(args.GetInt("seed", 17));
  wl_options.positive = !args.Has("negative");
  Workload workload = GenerateWorkload(dataset.doc, reference, wl_options);
  Status status = SaveWorkload(workload, out);
  if (!status.ok()) return Fail(status.ToString());
  std::printf("wrote %zu queries to %s\n", workload.queries.size(),
              out.c_str());
  return 0;
}

int Evaluate(const Args& args) {
  const std::string synopsis_path = args.Get("synopsis");
  const std::string workload_path = args.Get("workload");
  if (synopsis_path.empty() || workload_path.empty()) {
    return Fail("evaluate requires --synopsis and --workload");
  }
  Result<XCluster> synopsis = XCluster::Load(synopsis_path);
  if (!synopsis.ok()) return Fail("load: " + synopsis.status().ToString());
  Result<Workload> workload = LoadWorkload(workload_path);
  if (!workload.ok()) return Fail("workload: " + workload.status().ToString());

  std::vector<double> estimates;
  estimates.reserve(workload.value().queries.size());
  for (const WorkloadQuery& query : workload.value().queries) {
    estimates.push_back(synopsis.value().EstimateSelectivity(query.query));
  }
  ErrorReport report = EvaluateErrors(workload.value(), estimates);
  std::printf("queries:  %zu (sanity bound %.1f)\n", report.overall.count,
              report.sanity_bound);
  std::printf("overall:  %.1f%% avg rel error, %.2f avg abs error\n",
              100.0 * report.overall.avg_rel_error,
              report.overall.avg_abs_error);
  for (const auto& [name, stats] : report.by_class) {
    std::printf("%-8s  %.1f%% avg rel error (n=%zu)\n", name.c_str(),
                100.0 * stats.avg_rel_error, stats.count);
  }
  return 0;
}

int Verify(const Args& args) {
  const std::string path = args.Get("synopsis");
  if (path.empty()) return Fail("verify requires --synopsis");
  Result<std::string> bytes = ReadFileToString(path);
  if (!bytes.ok()) return Fail(bytes.status().ToString());
  std::string report;
  Status status = storage::VerifyXcsfBytes(bytes.value(), &report);
  if (!args.Has("quiet") && !report.empty()) {
    std::printf("%s", report.c_str());
  }
  if (!status.ok()) {
    return Fail(path + ": " + status.ToString());
  }
  std::printf("%s: OK\n", path.c_str());
  return 0;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: xclusterctl <command> [flags]\n"
      "  generate --dataset imdb|xmark [--scale S] [--seed N] --out f.xml\n"
      "           [--paths f.paths]\n"
      "  build    --in f.xml --out f.xcsf [--bstr KB] [--bval KB]\n"
      "           [--paths f.paths] [--numeric hist|wavelet|sample]\n"
      "           [--verbose]\n"
      "  estimate --synopsis f.xcsf --query \"//a[range(1,9)]/b\" [--explain]\n"
      "           (or --queries f.txt [--workers N] for a shared-load batch)\n"
      "  serve    --stdin [--workers N] [--queue N]\n"
      "           [--preload name=f.xcsf] [--xcsf-spool DIR]\n"
      "           [--reach-cache-capacity N] [--plan-cache-capacity N]\n"
      "           [--quota name=rate:burst,...] [--lane-weights I:B]\n"
      "           [--trace-sample R] [--trace-ring N] [--flight-ring N]\n"
      "           [--slow-query-ms N --slow-query-log f.log]\n"
      "           [--dump-prefix P]   (SIGQUIT writes flight+trace dumps)\n"
      "           [--listen host:port [--max-connections N]\n"
      "            [--deadline-us N] [--drain-ms N] [--max-install-bytes N]]\n"
      "  route    --listen host:port --peer host:port [--peer ...]\n"
      "           [--probe-ms N] [--workers N] [--queue N] [--retries N]\n"
      "           [--timeout-ms N] [--connect-timeout-ms N]\n"
      "           [--trace-sample R] [--flight-ring N] [--max-shards N]\n"
      "           [--max-connections N] [--drain-ms N]\n"
      "           [--max-install-bytes N]\n"
      "  remote   estimate --connect host:port --name n --query q\n"
      "  remote   batch    --connect host:port --name n --queries f.txt\n"
      "           [--deadline-us N] [--explain] [--trace [hexid]]\n"
      "           [--priority interactive|bulk]\n"
      "  remote   load     --connect host:port --name n --path f.xcsf\n"
      "           [--replicate [--generation N]]  (push bytes over the\n"
      "           wire; via a router, fan out to every healthy replica)\n"
      "  remote   stats    --connect host:port [--prom|--json]\n"
      "  remote   flight   --connect host:port [--limit N]\n"
      "  remote flags: [--timeout-ms N] [--connect-timeout-ms N]\n"
      "           [--retries N]\n"
      "  inspect  --synopsis f.xcsf [--detail] [--dump]\n"
      "  workload --dataset imdb|xmark [--scale S] [--seed N]\n"
      "           [--queries N] [--negative] --out f.tsv\n"
      "  evaluate --synopsis f.xcsf --workload f.tsv\n"
      "  verify   --synopsis f.xcsf [--quiet]\n"
      "  stats    [--in metrics.json] [--format text|json|prom]\n"
      "global flags (any command):\n"
      "  --metrics-json f.json   export a metrics snapshot on exit\n"
      "  --metrics-prom f.prom   export Prometheus text format on exit\n"
      "  --trace f.json          record spans as Chrome trace JSON\n");
  return 2;
}

int Dispatch(const std::string& command, const std::string& action,
             const Args& args) {
  if (command == "generate") return Generate(args);
  if (command == "build") return Build(args);
  if (command == "estimate") return Estimate(args);
  if (command == "inspect") return Inspect(args);
  if (command == "workload") return MakeWorkload(args);
  if (command == "evaluate") return Evaluate(args);
  if (command == "verify") return Verify(args);
  if (command == "stats") return Stats(args);
  if (command == "serve") return Serve(args);
  if (command == "route") return Route(args);
  if (command == "remote") return Remote(action, args);
  return Usage();
}

int Run(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  // `remote` takes its action as a bare word (remote estimate --connect
  // ...); the Args parser skips non-flag tokens, so lift it out here.
  std::string action;
  if (command == "remote" && argc >= 3 &&
      std::string(argv[2]).rfind("--", 0) != 0) {
    action = argv[2];
  }
  Args args(argc, argv);
  for (const char* flag : {"metrics-json", "metrics-prom", "trace"}) {
    // For `remote`, --trace is the batch trace-context flag (optional hex
    // id, no path) — it never names an output file there.
    if (command == "remote" && std::string(flag) == "trace") continue;
    if (args.Has(flag) && args.Get(flag).empty()) {
      return Fail(std::string("--") + flag + " requires a path");
    }
  }

  const std::string trace_path =
      command == "remote" ? "" : args.Get("trace");
  telemetry::TraceRecorder recorder;
  if (!trace_path.empty()) telemetry::InstallGlobalTraceRecorder(&recorder);

  int rc = Dispatch(command, action, args);

  if (!trace_path.empty()) {
    telemetry::InstallGlobalTraceRecorder(nullptr);
    Status status = recorder.WriteFile(trace_path);
    if (!status.ok()) {
      rc = Fail("trace: " + status.ToString());
    }
  }
  const std::string metrics_json = args.Get("metrics-json");
  const std::string metrics_prom = args.Get("metrics-prom");
  if (!metrics_json.empty() || !metrics_prom.empty()) {
    telemetry::MetricsSnapshot snapshot =
        telemetry::MetricsRegistry::Global().Snapshot();
    if (!metrics_json.empty()) {
      Status status = WriteFileAtomic(metrics_json, snapshot.ToJson());
      if (!status.ok()) rc = Fail("metrics-json: " + status.ToString());
    }
    if (!metrics_prom.empty()) {
      Status status = WriteFileAtomic(metrics_prom, snapshot.ToPrometheus());
      if (!status.ok()) rc = Fail("metrics-prom: " + status.ToString());
    }
  }
  return rc;
}

}  // namespace
}  // namespace xcluster

int main(int argc, char** argv) { return xcluster::Run(argc, argv); }
