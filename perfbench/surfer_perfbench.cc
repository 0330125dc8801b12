// The Surfer benchmark: one program that sets up the standard deployment
// (the 2^16-vertex social graph, 64 partitions, the T2(8,2,1) cluster, the
// O4 layout) and drives four workloads over it, checking every answer:
//
//   nr-threads  repeated 10-iteration NetworkRanking jobs on the concurrent
//               engine with 4 worker threads, over one opened session;
//   rs-threads  repeated 8-iteration Recommender jobs on the concurrent
//               engine with 4 worker threads (sparse frontier, 1-byte
//               messages: the shared stager and combine plan used unlike NR);
//   rs-tcp      the same Recommender jobs on the distributed
//               engine with 3 worker processes over localhost TCP (every job
//               forks fresh processes);
//   serve-zipf  Engine::Serve with 2 service workers under an open loop of
//               Zipf-distributed k-hop / rank / partition-path queries at
//               fixed offered rates.
//
// Usage:
//   surfer_perfbench --workload <nr-threads|rs-threads|rs-tcp|serve-zipf|all>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    [--artifact-dir <dir>] [--commit <id>]
//
// --trace 0 times the workload untraced and prints the end-to-end metrics.
// --trace 1 sets up layer by layer (the same public calls, in the same
// order and with the same options, as SurferEngine::Build), then runs all
// four workloads with every other job (every 64th query) inside a span, and
// prints the per-layer metrics plus a Chrome trace; trace.overhead_frac
// compares the named workload's traced and untraced operations. The last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}; a wrong answer
// exits nonzero without printing it.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "apps/network_ranking.h"
#include "apps/recommender.h"
#include "bench_math.h"
#include "core/engine.h"
#include "core/sim_scale.h"
#include "core/surfer.h"
#include "graph/generators.h"
#include "obs/json.h"
#include "obs/metrics_registry.h"
#include "obs/run_report.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "partition/machine_graph.h"
#include "partition/partitioning.h"
#include "partition/recursive_partitioner.h"
#include "runtime/timeline.h"
#include "serve/graph_service.h"
#include "storage/partitioned_graph.h"
#include "storage/replication.h"

namespace {

using namespace surfer;
using perfbench::Ratio;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// The standard input and the workload shapes. None of these depend on the
// seed: the seed only picks the workload's inputs (NR damping, the RS seed
// set, the query stream).

constexpr VertexId kVertices = VertexId{1} << 16;
constexpr double kAvgOutDegree = 12.0;
constexpr uint32_t kCommunities = 32;
constexpr uint64_t kGraphSeed = 2010;
constexpr uint32_t kPartitions = 64;
constexpr uint64_t kEngineSeed = 2010;  // SurferOptions::seed default

constexpr int kNrIterations = 10;
constexpr uint32_t kNrWorkers = 4;
constexpr int kRsIterations = 8;
constexpr uint32_t kRsProcesses = 3;
constexpr uint32_t kServeWorkers = 2;
constexpr int kRankIterations = 3;

// Offered rates of the serving workload, frozen from the parent revision on
// a 4-vCPU x86-64 VM: serve_max_qps (below) had a median of about 160k
// queries/s over 16 runs at 2 service workers with this mix, so "light" is
// 25% of it and "busy" 75%. They are constants so a faster or slower
// service shows as a latency change at the same offered load.
constexpr double kLightQps = 40000.0;
constexpr double kBusyQps = 120000.0;
// The host's scheduler stalls a thread for 4-10 ms a few times per second
// (a lone spinning thread sees such gaps too). The default 256 KiB
// admission window holds ~400 queries, which a stalled worker at the busy
// rate overruns, so the service gets a 4 MiB window: a stall then shows as
// queueing latency, not as shed queries.
constexpr size_t kAdmissionWindowBytes = size_t{4} << 20;
// serve_max_qps: highest offered rate with p99 <= 1 ms, at most 0.1% of
// queries failed, and the queue drained within 1 ms of the last due time.
constexpr double kMaxQpsP99Us = 1000.0;
constexpr double kMaxQpsFailFrac = 0.001;
constexpr double kMaxQpsDrainUs = 1000.0;
// Zipf exponent of query origins over all vertices, and the fixed seed of
// the permutation that ranks vertices by popularity.
constexpr double kZipfExponent = 0.8;
constexpr uint64_t kPopularitySeed = 0x2f1a;
// Partition-path query pairs drawn per run, and how often a k-hop answer is
// kept for the BFS check (every answer of the other kinds is checked).
constexpr size_t kPathPairs = 4096;
constexpr size_t kKHopCheckEvery = 8;
// In traced runs, one query in this many is submitted inside a span.
constexpr size_t kTracedQueryEvery = 64;

// The stated bound on the setup residual: the named setup layers must
// account for all but this share of the traced setup's wall time.
constexpr double kSetupResidualBound = 0.02;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

[[noreturn]] void Fail(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::fflush(stdout);
  std::exit(3);
}

template <typename T>
T Unwrap(Result<T> result, const char* what) {
  if (!result.ok()) {
    Fail(std::string(what) + ": " + result.status().ToString());
  }
  return std::move(result).value();
}

// ---------------------------------------------------------------------------
// Output: metrics in print order, each with its unit.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  /// A line for people only; never part of the JSON result.
  void Note(const std::string& line) { notes_.push_back(line); }
  const std::vector<Metric>& metrics() const { return metrics_; }

  void Print() const {
    for (const std::string& note : notes_) {
      std::printf("  %s\n", note.c_str());
    }
    for (const Metric& m : metrics_) {
      std::printf("  %-34s %18.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }

  obs::JsonValue ToJson() const {
    obs::JsonValue out = obs::JsonValue::MakeObject();
    for (const Metric& m : metrics_) {
      obs::JsonValue entry = obs::JsonValue::MakeObject();
      entry.Set("value", m.value);
      entry.Set("unit", m.unit);
      out.Set(m.name, std::move(entry));
    }
    return out;
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
};

/// Largest resident set of this process (VmHWM) and of any waited-for child
/// (the distributed engine's worker processes), in MiB.
double PeakRssMb() {
  const double self = static_cast<double>(obs::ReadMemoryUsage().peak_rss_bytes);
  rusage usage{};
  double children = 0.0;
  if (getrusage(RUSAGE_CHILDREN, &usage) == 0) {
    children = static_cast<double>(usage.ru_maxrss) * 1024.0;  // KiB on Linux
  }
  return std::max(self, children) / (1024.0 * 1024.0);
}

std::string LoadAverage() {
  std::ifstream in("/proc/loadavg");
  std::string a, b, c;
  if (in >> a >> b >> c) {
    return a + " " + b + " " + c;
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Setup: the standard deployment, built either through SurferEngine::Build
// (untraced) or call by call with a span and a timer around each layer.

struct Deployment {
  Graph graph;
  std::optional<Topology> topology;  // Topology has no public default
  // Untraced path: the facade owns the partitioned graph and placements.
  std::unique_ptr<SurferEngine> engine;
  // Traced path: the same objects, owned here.
  RecursivePartitionResult partition;
  std::unique_ptr<PartitionedGraph> partitioned;
  ReplicatedPlacement ba_placement;
  ReplicatedPlacement random_placement;
  PartitionQuality quality;

  BenchmarkSetup setup;
};

SocialGraphOptions StandardGraphOptions() {
  SocialGraphOptions options;
  options.num_vertices = kVertices;
  options.avg_out_degree = kAvgOutDegree;
  options.num_communities = kCommunities;
  options.seed = kGraphSeed;
  return options;
}

SurferOptions StandardSurferOptions() {
  SurferOptions options;
  options.num_partitions = kPartitions;
  options.seed = kEngineSeed;
  return options;
}

void BuildWithFacade(Deployment& d) {
  d.graph = Unwrap(GenerateSocialGraph(StandardGraphOptions()), "generate");
  d.topology.emplace(MakeScaledT2(8, 2, 1));
  d.engine = Unwrap(SurferEngine::Build(d.graph, *d.topology,
                                        StandardSurferOptions()),
                    "SurferEngine::Build");
  d.setup = d.engine->MakeSetup(OptimizationLevel::kO4);
  d.setup.sim_options = MakeScaledSimOptions();
  d.quality = d.engine->quality();
}

/// Per-layer setup times of the traced path.
struct SetupLayers {
  double generate_s = 0.0;
  double partition_s = 0.0;
  double level0_s = 0.0;
  double storage_s = 0.0;
  double open_s = 0.0;
  double serve_startup_s = 0.0;
};

/// Mirrors SurferEngine::Build step for step (see core/surfer.cc) so each
/// layer can be timed on its own. The partitioner additionally reports to
/// `metrics`, which only observes.
void BuildLayered(Deployment& d, obs::Tracer* tracer,
                  obs::MetricsRegistry* metrics, SetupLayers& layers) {
  auto t = Clock::now();
  {
    obs::ScopedSpan span(tracer, "graph.generate", "setup");
    d.graph = Unwrap(GenerateSocialGraph(StandardGraphOptions()), "generate");
    d.topology.emplace(MakeScaledT2(8, 2, 1));
  }
  layers.generate_s = Seconds(Clock::now() - t);

  const SurferOptions options = StandardSurferOptions();
  uint32_t num_partitions = options.num_partitions;
  num_partitions =
      std::min<uint32_t>(num_partitions, std::bit_floor(d.graph.num_vertices()));

  t = Clock::now();
  {
    obs::ScopedSpan span(tracer, "partition.recursive", "setup");
    RecursivePartitionerOptions part_options;
    part_options.num_partitions = num_partitions;
    part_options.bisection = options.bisection;
    part_options.bisection.seed = options.seed;
    part_options.metrics = metrics;
    d.partition =
        Unwrap(RecursivePartition(d.graph, part_options), "RecursivePartition");
  }
  layers.partition_s = Seconds(Clock::now() - t);

  t = Clock::now();
  {
    obs::ScopedSpan span(tracer, "storage.build", "setup");
    d.partitioned = std::make_unique<PartitionedGraph>(Unwrap(
        PartitionedGraph::Create(d.graph, d.partition.partitioning),
        "PartitionedGraph::Create"));
    d.quality = ComputeQuality(d.graph, d.partition.partitioning);
    const BandwidthAwarePlacement mapping = Unwrap(
        ComputeBandwidthAwarePlacement(*d.topology, d.partition.sketch),
        "ComputeBandwidthAwarePlacement");
    d.ba_placement = Unwrap(MakeReplicatedPlacement(mapping.partition_to_machine,
                                                    *d.topology, options.seed),
                            "MakeReplicatedPlacement");
    d.random_placement = Unwrap(
        MakeReplicatedPlacement(
            RandomPlacement(num_partitions, *d.topology, options.seed),
            *d.topology, options.seed + 1),
        "MakeReplicatedPlacement(random)");
  }
  layers.storage_s = Seconds(Clock::now() - t);

  d.setup.graph = d.partitioned.get();
  d.setup.placement = &d.ba_placement;  // O4 = bandwidth-aware layout
  d.setup.topology = &*d.topology;
  d.setup.sim_options = MakeScaledSimOptions();

  if (metrics != nullptr) {
    for (const obs::MetricSample& sample : metrics->Snapshot()) {
      if (sample.name == "partition_bisection_seconds" &&
          sample.labels == obs::Labels{{"level", "0"}}) {
        layers.level0_s = sample.histogram.sum();
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Sessions.

EngineOptions NrOptions() {
  EngineOptions o;
  o.engine = EngineKind::kConcurrent;
  o.propagation = PropagationConfig::ForLevel(OptimizationLevel::kO4);
  o.propagation.iterations = kNrIterations;
  o.propagation.frontier_gating = true;
  o.runtime.max_workers = kNrWorkers;
  return o;
}

EngineOptions RsThreadsOptions() {
  EngineOptions o;
  o.engine = EngineKind::kConcurrent;
  o.propagation = PropagationConfig::ForLevel(OptimizationLevel::kO4);
  o.propagation.iterations = kRsIterations;
  o.runtime.max_workers = kNrWorkers;
  return o;
}

EngineOptions RsOptions() {
  EngineOptions o;
  o.engine = EngineKind::kDistributed;
  o.propagation = PropagationConfig::ForLevel(OptimizationLevel::kO4);
  o.propagation.iterations = kRsIterations;
  o.distributed.max_processes = kRsProcesses;
  return o;
}

EngineOptions ServeSessionOptions() {
  EngineOptions o;  // analytic: Serve's startup rank pass is one batch run
  o.propagation = PropagationConfig::ForLevel(OptimizationLevel::kO4);
  return o;
}

/// The sequential oracle's options for a real-engine session: same
/// propagation config, analytic engine.
EngineOptions SequentialOf(const EngineOptions& real) {
  EngineOptions o;
  o.propagation = real.propagation;
  return o;
}

/// Workload inputs derived from the seed.
struct Inputs {
  uint64_t seed = 0;
  double damping = kDefaultDamping;
  RecommenderParams rs;
};

Inputs MakeInputs(uint64_t seed) {
  Inputs in;
  in.seed = seed;
  in.damping = 0.80 + 0.001 * static_cast<double>(Mix(seed) % 100);
  in.rs.seed = Mix(seed ^ 0x5eed) % 100000;
  return in;
}

serve::ServeOptions MakeServeOptions(const Inputs& in) {
  serve::ServeOptions o;
  o.num_workers = kServeWorkers;
  o.rank_iterations = kRankIterations;
  o.rank_damping = in.damping;
  o.admission_window_bytes = kAdmissionWindowBytes;
  return o;
}

// ---------------------------------------------------------------------------
// Batch workloads.

struct BatchResult {
  std::vector<double> job_s;  ///< wall time of each timed Engine::Run
  std::vector<bool> traced;   ///< whether job i ran inside a span
  double loop_s = 0.0;        ///< wall time of the timed loop
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<runtime::RuntimeStats> stats;  ///< one per timed job
  std::vector<obs::JsonValue> clusters;      ///< distributed only
};

template <typename App>
struct Oracle {
  std::vector<typename App::VertexState> states;
  std::vector<double> link_bytes;
  double seq_job_s = 0.0;  ///< median of the timed oracle runs
  double sim_response_s = 0.0;
};

template <typename App>
Oracle<App> RunOracle(const BenchmarkSetup& setup, const EngineOptions& real,
                      const App& app, int repeats, obs::Tracer* tracer) {
  const Engine session =
      Unwrap(Engine::Open(setup, SequentialOf(real)), "Engine::Open(oracle)");
  Oracle<App> oracle;
  std::vector<double> times;
  for (int r = 0; r < repeats; ++r) {
    const auto t = Clock::now();
    RunAppResult<App> result = [&] {
      obs::ScopedSpan span(tracer, "propagation.seq_job", "oracle");
      return Unwrap(session.Run(app), "sequential oracle");
    }();
    times.push_back(Seconds(Clock::now() - t));
    oracle.states = std::move(result.states);
    oracle.link_bytes = std::move(result.link_network_bytes);
    oracle.sim_response_s = result.metrics->response_time_s;
  }
  oracle.seq_job_s = perfbench::Median(times);
  return oracle;
}

template <typename App>
void CheckAgainstOracle(const RunAppResult<App>& run, const Oracle<App>& oracle,
                        const char* workload) {
  using State = typename App::VertexState;
  if (run.states.size() != oracle.states.size() ||
      std::memcmp(run.states.data(), oracle.states.data(),
                  run.states.size() * sizeof(State)) != 0) {
    Fail(std::string(workload) +
         ": vertex states differ from the sequential runner");
  }
  if (run.link_network_bytes != oracle.link_bytes) {
    Fail(std::string(workload) +
         ": per-link bytes do not reconcile with the analytic model");
  }
}

/// Batch loops need enough jobs for a tail with ten beyond it.
constexpr size_t kMinJobs = 20;

/// Runs `app` on `session` back to back for `seconds` (at least kMinJobs
/// timed jobs) after one warm-up job, checking every job. With a
/// tracer, every other job runs inside a span, so the traced and untraced
/// jobs interleave and their medians give the tracing overhead.
template <typename App>
BatchResult RunBatch(const Engine& session, const App& app,
                     const Oracle<App>& oracle, double seconds,
                     const char* workload, obs::Tracer* tracer) {
  BatchResult out;
  {
    RunAppResult<App> warm = Unwrap(session.Run(app), workload);
    CheckAgainstOracle(warm, oracle, workload);
  }
  const std::string span_name = std::string(workload) + ".job";
  const auto start = Clock::now();
  while (out.job_s.size() < kMinJobs ||
         Seconds(Clock::now() - start) < seconds) {
    const bool traced = tracer != nullptr && out.attempted % 2 == 1;
    ++out.attempted;
    const auto t = Clock::now();
    Result<RunAppResult<App>> run = [&] {
      obs::ScopedSpan span(traced ? tracer : nullptr, span_name, "job");
      return session.Run(app);
    }();
    const double job_s = Seconds(Clock::now() - t);
    if (!run.ok()) {
      ++out.failed;
      std::fprintf(stderr, "perfbench: %s job failed: %s\n", workload,
                   run.status().ToString().c_str());
      continue;
    }
    CheckAgainstOracle(*run, oracle, workload);
    out.job_s.push_back(job_s);
    out.traced.push_back(traced);
    out.stats.push_back(std::move(*run->runtime_stats));
    if (run->cluster.has_value()) {
      out.clusters.push_back(std::move(*run->cluster));
    }
  }
  out.loop_s = Seconds(Clock::now() - start);
  if (out.job_s.empty()) {
    Fail(std::string(workload) + ": every job failed");
  }
  return out;
}

/// Median over jobs of one figure taken from each job's stats.
template <typename F>
double MedianOver(const std::vector<runtime::RuntimeStats>& stats, F figure) {
  std::vector<double> values;
  values.reserve(stats.size());
  for (const runtime::RuntimeStats& s : stats) {
    values.push_back(static_cast<double>(figure(s)));
  }
  return perfbench::Median(values);
}

double TimelineSum(const runtime::RuntimeStats& s,
                   double runtime::PhaseSeconds::*phase) {
  double total = 0.0;
  for (const runtime::SuperstepProfile& step : s.timeline) {
    for (const runtime::PhaseSeconds& m : step.machines) {
      total += m.*phase;
    }
  }
  return total;
}

double CriticalPathS(const runtime::RuntimeStats& s) {
  double total = 0.0;
  for (const runtime::CriticalPathEntry& e :
       runtime::ComputeCriticalPath(s.timeline)) {
    total += e.busy_s;
  }
  return total;
}

/// Sum over the cluster block's rounds of the slowest process's duration.
double ClusterRoundsS(const obs::JsonValue& cluster) {
  double total = 0.0;
  const obs::JsonValue* rounds = cluster.Find("rounds");
  if (rounds == nullptr || !rounds->is_array()) {
    return 0.0;
  }
  for (const obs::JsonValue& row : rounds->as_array()) {
    const obs::JsonValue* durations = row.Find("proc_duration_s");
    double slowest = 0.0;
    if (durations != nullptr && durations->is_array()) {
      for (const obs::JsonValue& d : durations->as_array()) {
        if (d.is_number()) {
          slowest = std::max(slowest, d.as_number());
        }
      }
    }
    total += slowest;
  }
  return total;
}

double ClusterLinkLatencyMaxUs(const obs::JsonValue& cluster) {
  double worst = 0.0;
  const obs::JsonValue* links = cluster.Find("links");
  if (links == nullptr || !links->is_array()) {
    return 0.0;
  }
  for (const obs::JsonValue& row : links->as_array()) {
    const obs::JsonValue* max = row.Find("max_latency_us");
    if (max != nullptr && max->is_number()) {
      worst = std::max(worst, max->as_number());
    }
  }
  return worst;
}

// ---------------------------------------------------------------------------
// Serving workload: an open loop of generated queries.

enum class Kind : uint8_t { kKHop1, kKHop2, kRank, kPath };

struct Query {
  Kind kind = Kind::kRank;
  VertexId a = 0;         ///< original origin / path source
  VertexId b = 0;         ///< original path destination
  uint32_t expected = 0;  ///< path: distance inside the partition
};

/// Everything the query generator draws from: a permutation that maps Zipf
/// ranks to vertices, the Zipf CDF, and reachable same-partition path pairs
/// with their BFS distances. These are fixed, like the graph: which vertices
/// are hot sets the cost of a query mix (a hub's 2-hop set is thousands of
/// vertices), so a per-seed hot set would make runs differ by more than the
/// service does. The workload seed picks the query sequence (Draw).
class QueryStream {
 public:
  explicit QueryStream(const PartitionedGraph& pg) {
    const VertexId n = pg.encoded_graph().num_vertices();
    std::mt19937_64 rng(Mix(kPopularitySeed));
    perm_.resize(n);
    for (VertexId v = 0; v < n; ++v) {
      perm_[v] = v;
    }
    std::shuffle(perm_.begin(), perm_.end(), rng);
    cdf_.resize(n);
    double total = 0.0;
    for (VertexId r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
      cdf_[r] = total;
    }
    for (double& c : cdf_) {
      c /= total;
    }
    MakePathPairs(pg, rng);
  }

  /// `count` queries of the standard mix, deterministic in (seed, stream).
  std::vector<Query> Draw(size_t count, uint64_t seed, uint64_t stream) const {
    std::mt19937_64 rng(Mix(seed * 131 + stream));
    std::uniform_int_distribution<uint32_t> mix(0, 99);
    std::uniform_int_distribution<size_t> pick_path(0, paths_.size() - 1);
    std::vector<Query> out(count);
    for (Query& q : out) {
      const uint32_t m = mix(rng);
      if (m < 10) {
        q = paths_[pick_path(rng)];
        continue;
      }
      q.kind = m < 70 ? Kind::kKHop1 : m < 85 ? Kind::kKHop2 : Kind::kRank;
      q.a = ZipfVertex(rng);
    }
    return out;
  }

 private:
  VertexId ZipfVertex(std::mt19937_64& rng) const {
    const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
    const size_t rank = std::min<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin(),
        cdf_.size() - 1);
    return perm_[rank];
  }

  /// Reachable same-partition pairs: BFS over the encoded graph restricted
  /// to the source's partition, destination picked among the reached.
  void MakePathPairs(const PartitionedGraph& pg, std::mt19937_64& rng) {
    const Graph& g = pg.encoded_graph();
    const VertexEncoding& enc = pg.encoding();
    std::vector<uint32_t> dist(g.num_vertices(), kUnreached);
    std::vector<VertexId> order;
    while (paths_.size() < kPathPairs) {
      const VertexId src = enc.ToEncoded(ZipfVertex(rng));
      const PartitionMeta& meta = pg.partition(enc.PartitionOf(src));
      order.clear();
      order.push_back(src);
      dist[src] = 0;
      for (size_t head = 0; head < order.size(); ++head) {
        const VertexId u = order[head];
        for (VertexId w : g.OutNeighbors(u)) {
          if (w >= meta.begin && w < meta.end && dist[w] == kUnreached) {
            dist[w] = dist[u] + 1;
            order.push_back(w);
          }
        }
      }
      const VertexId dst =
          order[std::uniform_int_distribution<size_t>(0, order.size() - 1)(rng)];
      Query q;
      q.kind = Kind::kPath;
      q.a = enc.ToOriginal(src);
      q.b = enc.ToOriginal(dst);
      q.expected = dist[dst];
      paths_.push_back(q);
      for (VertexId v : order) {
        dist[v] = kUnreached;
      }
    }
  }

  static constexpr uint32_t kUnreached = std::numeric_limits<uint32_t>::max();
  std::vector<VertexId> perm_;
  std::vector<double> cdf_;
  std::vector<Query> paths_;
};

/// Vertices within k hops of `origin` over out-edges, sorted (a plain BFS
/// on the input graph, independent of the service's frontier code).
std::vector<VertexId> KHopOracle(const Graph& g, VertexId origin, uint32_t k) {
  std::vector<VertexId> frontier = {origin};
  std::vector<VertexId> seen = {origin};
  std::vector<uint8_t> mark(g.num_vertices(), 0);
  mark[origin] = 1;
  for (uint32_t hop = 0; hop < k; ++hop) {
    std::vector<VertexId> next;
    for (VertexId u : frontier) {
      for (VertexId w : g.OutNeighbors(u)) {
        if (mark[w] == 0) {
          mark[w] = 1;
          next.push_back(w);
          seen.push_back(w);
        }
      }
    }
    frontier = std::move(next);
  }
  std::sort(seen.begin(), seen.end());
  return seen;
}

/// One query's measured life, all times in microseconds since phase start.
struct Sample {
  Kind kind = Kind::kRank;
  double due_us = 0.0;
  double submit_us = 0.0;
  double done_us = 0.0;
  bool ok = false;
  bool shed = false;
  bool from_cache = false;
  bool traced = false;  ///< submitted inside a span
};

struct PhaseResult {
  double rate = 0.0;
  std::vector<Sample> samples;
  uint64_t shed = 0;
  uint64_t errors = 0;  ///< failures other than shedding (never expected)

  std::vector<double> Latencies(std::optional<Kind> kind = std::nullopt,
                                std::optional<bool> cached = std::nullopt) const {
    std::vector<double> out;
    for (const Sample& s : samples) {
      if ((kind && s.kind != *kind) ||
          (cached && (!s.ok || s.from_cache != *cached))) {
        continue;
      }
      // A refused query misses every latency limit.
      out.push_back(s.ok ? perfbench::DueLatency(s.due_us, s.done_us)
                         : std::numeric_limits<double>::infinity());
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  std::vector<double> Lateness() const {
    std::vector<double> out;
    out.reserve(samples.size());
    for (const Sample& s : samples) {
      out.push_back(perfbench::Lateness(s.due_us, s.submit_us));
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  /// Time from the last due time until the last answer arrived.
  double DrainUs() const {
    double last_done = 0.0;
    for (const Sample& s : samples) {
      last_done = std::max(last_done, s.done_us);
    }
    return samples.empty() ? 0.0 : last_done - samples.back().due_us;
  }

  double FailFrac() const {
    return Ratio(static_cast<double>(shed + errors),
                 static_cast<double>(samples.size()));
  }
};

struct ServeCheck {
  const Graph* graph = nullptr;
  const std::vector<double>* ranks = nullptr;  ///< original-ID order
  uint64_t khop_checked = 0;
};

/// Drives `queries` at a fixed `rate` from one generator thread while one
/// observer thread collects the answers in submission order, timing each
/// from its due time. Ranks and paths are checked as they arrive; every
/// kKHopCheckEvery-th k-hop answer is kept and checked after the phase.
/// With a tracer, every kTracedQueryEvery-th submission runs inside a span
/// (sparse, so growing the trace buffer never stalls the generator).
PhaseResult RunOpenLoop(serve::GraphService& service,
                        const std::vector<Query>& queries, double rate,
                        ServeCheck& check, obs::Tracer* tracer,
                        const char* phase) {
  obs::ScopedSpan phase_span(tracer, phase, "serve");
  struct Pending {
    size_t index = 0;
    std::future<Result<serve::KHopResponse>> khop;
    std::future<Result<serve::PathResponse>> path;
    std::future<Result<serve::RankResponse>> rank;
  };
  PhaseResult out;
  out.rate = rate;
  out.samples.resize(queries.size());
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> inflight;
  bool done_submitting = false;
  std::vector<std::pair<size_t, std::vector<VertexId>>> kept;
  std::string mismatch;

  const auto start = Clock::now();
  const auto since_us = [&start] {
    return std::chrono::duration<double, std::micro>(Clock::now() - start)
        .count();
  };

  std::thread observer([&] {
    while (true) {
      Pending p;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !inflight.empty() || done_submitting; });
        if (inflight.empty()) {
          return;
        }
        p = std::move(inflight.front());
        inflight.pop_front();
      }
      const Query& q = queries[p.index];
      Sample& s = out.samples[p.index];
      Status status;
      switch (q.kind) {
        case Kind::kKHop1:
        case Kind::kKHop2: {
          Result<serve::KHopResponse> r = p.khop.get();
          s.done_us = since_us();
          status = r.status();
          if (r.ok()) {
            s.from_cache = r->from_cache;
            if (p.index % kKHopCheckEvery == 0) {
              kept.emplace_back(p.index, std::move(r->vertices));
            }
          }
          break;
        }
        case Kind::kRank: {
          Result<serve::RankResponse> r = p.rank.get();
          s.done_us = since_us();
          status = r.status();
          if (r.ok() && std::memcmp(&r->rank, &(*check.ranks)[q.a],
                                    sizeof(double)) != 0) {
            mismatch = "rank of vertex " + std::to_string(q.a) +
                       " differs from the batch NetworkRanking run";
          }
          break;
        }
        case Kind::kPath: {
          Result<serve::PathResponse> r = p.path.get();
          s.done_us = since_us();
          status = r.status();
          if (r.ok() && r->distance != q.expected) {
            mismatch = "partition path " + std::to_string(q.a) + "->" +
                       std::to_string(q.b) + " answered " +
                       std::to_string(r->distance) + ", BFS says " +
                       std::to_string(q.expected);
          }
          break;
        }
      }
      s.ok = status.ok();
      s.shed = status.code() == StatusCode::kResourceExhausted;
      if (s.shed) {
        ++out.shed;
      } else if (!s.ok) {
        ++out.errors;
        mismatch = "query failed: " + status.ToString();
      }
    }
  });

  for (size_t i = 0; i < queries.size(); ++i) {
    const double due_us = 1e6 * perfbench::DueTime(0.0, rate, i);
    for (double now = since_us(); now < due_us; now = since_us()) {
      if (due_us - now > 200.0) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(static_cast<int64_t>(due_us - now - 100)));
      }
    }
    const Query& q = queries[i];
    Pending p;
    p.index = i;
    out.samples[i].kind = q.kind;
    out.samples[i].due_us = due_us;
    out.samples[i].submit_us = since_us();
    out.samples[i].traced = tracer != nullptr && i % kTracedQueryEvery == 1;
    {
      obs::ScopedSpan span(out.samples[i].traced ? tracer : nullptr,
                           "serve.submit", "serve");
      switch (q.kind) {
        case Kind::kKHop1:
          p.khop = service.KHop(q.a, 1);
          break;
        case Kind::kKHop2:
          p.khop = service.KHop(q.a, 2);
          break;
        case Kind::kRank:
          p.rank = service.Rank(q.a);
          break;
        case Kind::kPath:
          p.path = service.PartitionPath(q.a, q.b);
          break;
      }
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      inflight.push_back(std::move(p));
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    done_submitting = true;
  }
  cv.notify_one();
  observer.join();

  if (!mismatch.empty()) {
    Fail(std::string("serve-zipf: ") + mismatch);
  }
  for (const auto& [index, vertices] : kept) {
    const Query& q = queries[index];
    const uint32_t k = q.kind == Kind::kKHop1 ? 1 : 2;
    if (vertices != KHopOracle(*check.graph, q.a, k)) {
      Fail("serve-zipf: " + std::to_string(k) + "-hop answer for vertex " +
           std::to_string(q.a) + " differs from a BFS truncated at k");
    }
    ++check.khop_checked;
  }
  return out;
}

struct ServeResult {
  PhaseResult light;
  PhaseResult busy;
  double max_qps = 0.0;
  std::vector<std::string> search_log;
  serve::ServiceStats stats_before;  ///< at the start of the light phase
  serve::ServiceStats stats_after;   ///< at the end of the busy phase
  uint64_t khop_checked = 0;
};

bool MeetsLimit(const PhaseResult& r) {
  const double p99 = perfbench::NearestRank(r.Latencies(), 99.0);
  return p99 <= kMaxQpsP99Us && r.FailFrac() <= kMaxQpsFailFrac &&
         r.DrainUs() <= kMaxQpsDrainUs;
}

/// Warm-up, the light and busy phases, then (when `search_s` > 0) the
/// serve_max_qps search. Search queries are checked like all others but are
/// not attempted operations: overloading is their point.
ServeResult RunServe(serve::GraphService& service, const QueryStream& stream,
                     const Inputs& in, ServeCheck& check, double warmup_s,
                     double light_s, double busy_s, double search_s,
                     obs::Tracer* tracer) {
  ServeResult out;
  const auto draw = [&](double rate, double seconds, uint64_t phase) {
    return stream.Draw(static_cast<size_t>(rate * seconds), in.seed, phase);
  };
  // Warm-up at the busy rate fills the result cache toward its steady
  // state, so the light phase does not measure the cache filling.
  RunOpenLoop(service, draw(kBusyQps, warmup_s, 0), kBusyQps, check, tracer,
              "serve.warmup");
  out.stats_before = service.stats();
  out.light = RunOpenLoop(service, draw(kLightQps, light_s, 1), kLightQps,
                          check, tracer, "serve.light");
  out.busy = RunOpenLoop(service, draw(kBusyQps, busy_s, 2), kBusyQps, check,
                         tracer, "serve.busy");
  out.stats_after = service.stats();

  if (search_s > 0.0) {
    // Geometric climb from the busy rate, then bisection between the last
    // rate that met the limit and the first that did not.
    constexpr int kSteps = 6;
    const double step_s = search_s / kSteps;
    double lo = 0.0;
    double hi = 0.0;
    double rate = kBusyQps;
    for (int step = 0; step < kSteps; ++step) {
      const PhaseResult r = RunOpenLoop(service, draw(rate, step_s, 10 + step),
                                        rate, check, tracer, "serve.search");
      const bool ok = MeetsLimit(r);
      out.search_log.push_back(
          std::to_string(static_cast<int64_t>(rate)) + "/s " +
          (ok ? "met" : "missed"));
      if (ok) {
        lo = rate;
      } else {
        hi = rate;
      }
      if (hi == 0.0) {
        rate *= 1.25;
      } else if (lo == 0.0) {
        rate /= 1.25;
      } else {
        rate = 0.5 * (lo + hi);
      }
    }
    out.max_qps = lo;
  }
  out.khop_checked = check.khop_checked;
  return out;
}

// ---------------------------------------------------------------------------
// Reporting.

struct Totals {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

// The gated tail (tail_ms) is p75 on every workload. On a 4-vCPU VM the
// host's speed drifts by up to a third within minutes and stalls threads
// for 4-10 ms, and the higher percentiles amplify both: over ten seeds the
// NR job tail at ten jobs beyond spread by 27% (quartile distance over
// median), the serving p90 by 26-45%, and serving p99 swung between 0.15
// and 10 ms. The highest percentile with ten samples beyond it is still
// printed for every run and reported per layer where it exists.
constexpr double kTailCap = 75.0;

/// Batch end to end: job wall times. With `job_names`, also job_p50_s and
/// job_tail_s (the highest percentile with ten jobs beyond it), in seconds.
void AddBatchEndToEnd(Report& report, const BatchResult& r, bool job_names) {
  std::vector<double> ms;
  for (double s : r.job_s) {
    ms.push_back(s * 1e3);
  }
  ms = perfbench::Sorted(ms);
  const perfbench::Tail job_tail = perfbench::TailOf(ms);
  report.Note("jobs: " + std::to_string(ms.size()) + " timed, " +
              std::to_string(Ratio(static_cast<double>(ms.size()), r.loop_s)) +
              " per s; job_tail_s is p" +
              std::to_string(job_tail.percentile).substr(0, 5) + " with " +
              std::to_string(job_tail.beyond) + " jobs beyond it: " +
              std::to_string(job_tail.value / 1e3) + " s");
  report.Add("p50_ms", perfbench::NearestRank(ms, 50.0), "ms");
  report.Add("tail_ms", perfbench::TailOf(ms, kTailCap).value, "ms");
  if (job_names) {
    report.Add("job_p50_s", perfbench::NearestRank(ms, 50.0) / 1e3, "s");
    report.Add("job_tail_s", job_tail.value / 1e3, "s");
  }
}

/// serve-zipf end to end: latency at the light rate, which is steadier than
/// the busy rate, where generator stalls queue up.
void AddServeEndToEnd(Report& report, const ServeResult& r) {
  std::vector<double> light_ms;
  for (double us : r.light.Latencies()) {
    light_ms.push_back(us / 1e3);
  }
  const perfbench::Tail tail = perfbench::TailOf(light_ms, kTailCap);
  report.Note("light phase: " + std::to_string(light_ms.size()) +
              " queries at " + std::to_string(static_cast<int>(kLightQps)) +
              "/s; tail is p" + std::to_string(tail.percentile).substr(0, 5) +
              " with " + std::to_string(tail.beyond) + " beyond it");
  for (const PhaseResult* phase : {&r.light, &r.busy}) {
    const std::vector<double> latency = phase->Latencies();
    const std::vector<double> late = phase->Lateness();
    report.Note(std::to_string(static_cast<int>(phase->rate)) + "/s: " +
                std::to_string(phase->samples.size()) + " queries, p50 " +
                std::to_string(perfbench::NearestRank(latency, 50.0)) +
                " us, p99 " +
                std::to_string(perfbench::NearestRank(latency, 99.0)) +
                " us, " + std::to_string(phase->shed) +
                " shed, generator late p99 " +
                std::to_string(perfbench::NearestRank(late, 99.0)) + " us");
  }
  std::string log = "serve_max_qps search:";
  for (const std::string& step : r.search_log) {
    log += " " + step + ";";
  }
  report.Note(log + " -> " + std::to_string(r.max_qps) + "/s");
  report.Add("p50_ms", perfbench::NearestRank(light_ms, 50.0), "ms");
  report.Add("tail_ms", tail.value, "ms");
}

/// Latency percentiles at the two fixed rates.
void AddServeRateLatencies(Report& report, const ServeResult& r,
                           const std::string& prefix) {
  const std::vector<double> light = r.light.Latencies();
  const std::vector<double> busy = r.busy.Latencies();
  report.Add(prefix + "light_p50_us", perfbench::NearestRank(light, 50.0), "us");
  report.Add(prefix + "light_p99_us", perfbench::NearestRank(light, 99.0), "us");
  report.Add(prefix + "busy_p50_us", perfbench::NearestRank(busy, 50.0), "us");
  report.Add(prefix + "busy_p99_us", perfbench::NearestRank(busy, 99.0), "us");
}

void AddRuntimeLayers(Report& report, const BatchResult& r, double seq_job_s) {
  const auto& s = r.stats;
  report.Add("runtime.job_vs_seq",
             Ratio(perfbench::Median(r.job_s), seq_job_s), "ratio");
  report.Add("runtime.compute_s",
             MedianOver(s, [](const auto& x) {
               return TimelineSum(x, &runtime::PhaseSeconds::compute_s);
             }),
             "s");
  report.Add("runtime.serialize_s",
             MedianOver(s, [](const auto& x) {
               return TimelineSum(x, &runtime::PhaseSeconds::serialize_s);
             }),
             "s");
  // Per worker only: the summed barrier_wait_seconds also counts the main
  // thread's idle time and is deliberately not reported.
  report.Add("runtime.barrier_wait_mean_s",
             MedianOver(s, [](const auto& x) { return x.barrier_wait_mean_s; }),
             "s");
  report.Add("runtime.barrier_wait_max_s",
             MedianOver(s, [](const auto& x) { return x.barrier_wait_max_s; }),
             "s");
  report.Add("runtime.critical_path_s", MedianOver(s, CriticalPathS), "s");
  report.Add("runtime.combine_scatter_s",
             MedianOver(s, [](const auto& x) { return x.combine_scatter_seconds; }),
             "s");
  report.Add("runtime.messages",
             MedianOver(s, [](const auto& x) { return x.messages_sent; }),
             "count");
  report.Add("runtime.network_bytes",
             MedianOver(s, [](const auto& x) { return x.TotalNetworkBytes(); }),
             "bytes");
  report.Add("runtime.wire_batches",
             MedianOver(s, [](const auto& x) { return x.wire_batches_sent; }),
             "count");
  report.Add("runtime.segments_per_batch",
             MedianOver(s, [](const auto& x) {
               return Ratio(static_cast<double>(x.wire_segments_sent),
                            static_cast<double>(x.wire_batches_sent));
             }),
             "ratio");
  report.Add("runtime.send_stalls",
             MedianOver(s, [](const auto& x) { return x.send_stalls; }),
             "count");
  report.Add("runtime.wire_combined_frac",
             MedianOver(s, [](const auto& x) {
               return perfbench::CombinedFrac(
                   static_cast<double>(x.wire_messages_combined),
                   static_cast<double>(x.messages_sent));
             }),
             "fraction");
  report.Add("runtime.pool_reuse_frac",
             MedianOver(s, [](const auto& x) {
               return Ratio(static_cast<double>(x.pool_buffers_reused),
                            static_cast<double>(x.pool_buffers_acquired));
             }),
             "fraction");
}

void AddNetLayers(Report& report, const BatchResult& r) {
  std::vector<double> rounds, fixed, latency;
  for (size_t i = 0; i < r.clusters.size(); ++i) {
    const double rounds_s = ClusterRoundsS(r.clusters[i]);
    rounds.push_back(rounds_s);
    fixed.push_back(r.job_s[i] - rounds_s);
    latency.push_back(ClusterLinkLatencyMaxUs(r.clusters[i]));
  }
  const auto& s = r.stats;
  report.Add("net.rounds_s", perfbench::Median(rounds), "s");
  report.Add("net.fixed_s", perfbench::Median(fixed), "s");
  report.Add("net.tcp_bytes",
             MedianOver(s, [](const auto& x) { return x.tcp_bytes_sent; }),
             "bytes");
  report.Add("net.tcp_frames",
             MedianOver(s, [](const auto& x) { return x.tcp_frames_sent; }),
             "count");
  report.Add("net.bytes_per_frame",
             MedianOver(s, [](const auto& x) {
               return Ratio(static_cast<double>(x.tcp_bytes_sent),
                            static_cast<double>(x.tcp_frames_sent));
             }),
             "bytes");
  report.Add("net.link_latency_max_us", perfbench::Median(latency), "us");
  uint64_t resend = 0;
  for (const runtime::RuntimeStats& x : s) {
    resend += x.resend_bytes;
  }
  if (resend != 0) {
    Fail("rs-tcp: " + std::to_string(resend) +
         " bytes were resent in a run without faults");
  }
  report.Add("net.resend_bytes", static_cast<double>(resend), "bytes");
}

void AddServeLayers(Report& report, const ServeResult& r) {
  const serve::ServiceStats& a = r.stats_before;
  const serve::ServiceStats& b = r.stats_after;
  report.Add("serve.hit_frac",
             perfbench::HitFrac(static_cast<double>(b.cache_hits - a.cache_hits),
                                static_cast<double>(b.cache_misses -
                                                    a.cache_misses)),
             "fraction");
  AddServeRateLatencies(report, r, "serve.");
  // Split by kind and cache outcome over both fixed-rate phases.
  PhaseResult both = r.light;
  both.samples.insert(both.samples.end(), r.busy.samples.begin(),
                      r.busy.samples.end());
  std::vector<double> hit, miss;
  for (Kind k : {Kind::kKHop1, Kind::kKHop2}) {
    for (double v : both.Latencies(k, true)) hit.push_back(v);
    for (double v : both.Latencies(k, false)) miss.push_back(v);
  }
  hit = perfbench::Sorted(hit);
  miss = perfbench::Sorted(miss);
  report.Add("serve.khop_hit_p50_us", perfbench::NearestRank(hit, 50.0), "us");
  report.Add("serve.khop_miss_p50_us", perfbench::NearestRank(miss, 50.0), "us");
  report.Add("serve.khop_miss_p99_us", perfbench::NearestRank(miss, 99.0), "us");
  report.Add("serve.rank_p50_us",
             perfbench::NearestRank(both.Latencies(Kind::kRank), 50.0), "us");
  report.Add("serve.path_p50_us",
             perfbench::NearestRank(both.Latencies(Kind::kPath), 50.0), "us");
  report.Add("serve.shed_admission",
             static_cast<double>(b.shed_admission - a.shed_admission), "count");
  report.Add("serve.shed_deadline",
             static_cast<double>(b.shed_deadline - a.shed_deadline), "count");
  report.Add("serve.gen_late_p99_us",
             perfbench::NearestRank(both.Lateness(), 99.0), "us");
}

void CountServe(Totals& totals, const ServeResult& r) {
  for (const PhaseResult* p : {&r.light, &r.busy}) {
    totals.attempted += p->samples.size();
    totals.failed += p->shed + p->errors;
  }
}

void CountBatch(Totals& totals, const BatchResult& r) {
  totals.attempted += r.attempted;
  totals.failed += r.failed;
}

// ---------------------------------------------------------------------------
// Runs.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string artifact_dir = ".";
  std::string commit = "unknown";
};

const std::vector<std::string>& Workloads() {
  static const std::vector<std::string> names = {"nr-threads", "rs-threads",
                                                 "rs-tcp",
                                                 "serve-zipf"};
  return names;
}

/// All session-level state one process needs for any workload.
struct Sessions {
  std::optional<Engine> nr;
  std::optional<Engine> rs_threads;
  std::optional<Engine> rs;
  std::optional<Engine> serve;
  std::unique_ptr<serve::GraphService> service;
};

void OpenSessions(const Deployment& d, const Inputs& in,
                  const std::vector<std::string>& workloads, Sessions& s,
                  obs::Tracer* tracer, SetupLayers* layers) {
  const bool want_serve =
      std::find(workloads.begin(), workloads.end(), "serve-zipf") !=
      workloads.end();
  auto t = Clock::now();
  {
    obs::ScopedSpan span(tracer, "core.open", "setup");
    for (const std::string& w : workloads) {
      if (w == "nr-threads") {
        s.nr = Unwrap(Engine::Open(d.setup, NrOptions()), "Engine::Open");
      } else if (w == "rs-threads") {
        s.rs_threads =
            Unwrap(Engine::Open(d.setup, RsThreadsOptions()), "Engine::Open");
      } else if (w == "rs-tcp") {
        s.rs = Unwrap(Engine::Open(d.setup, RsOptions()), "Engine::Open");
      } else {
        s.serve =
            Unwrap(Engine::Open(d.setup, ServeSessionOptions()), "Engine::Open");
      }
    }
  }
  if (layers != nullptr) {
    layers->open_s = Seconds(Clock::now() - t);
  }
  if (want_serve) {
    t = Clock::now();
    {
      obs::ScopedSpan span(tracer, "serve.startup", "setup");
      s.service = Unwrap(s.serve->Serve(MakeServeOptions(in)), "Engine::Serve");
    }
    if (layers != nullptr) {
      layers->serve_startup_s = Seconds(Clock::now() - t);
    }
  }
}

/// The inputs and oracles of every workload in `workloads`, built outside
/// any timed region.
struct Prepared {
  std::optional<NetworkRankingApp> nr_app;
  std::optional<Oracle<NetworkRankingApp>> nr_oracle;
  std::optional<RecommenderApp> rs_app;
  std::optional<Oracle<RecommenderApp>> rs_oracle;
  std::unique_ptr<QueryStream> stream;
  std::vector<double> ranks;  ///< batch NR ranks by original ID
};

Prepared Prepare(const Deployment& d, const Inputs& in,
                 const std::vector<std::string>& workloads, int oracle_repeats,
                 obs::Tracer* tracer) {
  Prepared p;
  for (const std::string& w : workloads) {
    if (w == "nr-threads") {
      p.nr_app.emplace(d.graph.num_vertices(), in.damping);
      p.nr_oracle =
          RunOracle(d.setup, NrOptions(), *p.nr_app, oracle_repeats, tracer);
    } else if (w == "rs-threads" || w == "rs-tcp") {
      if (!p.rs_oracle.has_value()) {  // both run the same job
        p.rs_app.emplace(&d.setup.graph->encoding(), in.rs);
        p.rs_oracle = RunOracle(d.setup, RsOptions(), *p.rs_app, 1, tracer);
      }
    } else {
      EngineOptions rank_options = ServeSessionOptions();
      rank_options.propagation.iterations = kRankIterations;
      const NetworkRankingApp app(d.graph.num_vertices(), in.damping);
      const Engine session =
          Unwrap(Engine::Open(d.setup, rank_options), "Engine::Open(ranks)");
      const RunAppResult<NetworkRankingApp> run =
          Unwrap(session.Run(app), "batch NetworkRanking");
      p.ranks.resize(d.graph.num_vertices());
      for (VertexId v = 0; v < d.graph.num_vertices(); ++v) {
        p.ranks[v] = run.StateOfOriginal(v);
      }
      p.stream = std::make_unique<QueryStream>(*d.setup.graph);
    }
  }
  return p;
}

BatchResult RunNr(const Sessions& s, const Prepared& p, double seconds,
                  obs::Tracer* tracer) {
  return RunBatch(*s.nr, *p.nr_app, *p.nr_oracle, seconds, "nr-threads",
                  tracer);
}

BatchResult RunRsThreads(const Sessions& s, const Prepared& p, double seconds,
                         obs::Tracer* tracer) {
  return RunBatch(*s.rs_threads, *p.rs_app, *p.rs_oracle, seconds,
                  "rs-threads", tracer);
}

BatchResult RunRs(const Sessions& s, const Prepared& p, double seconds,
                  obs::Tracer* tracer) {
  return RunBatch(*s.rs, *p.rs_app, *p.rs_oracle, seconds, "rs-tcp", tracer);
}

ServeResult RunServeWorkload(const Deployment& d, const Sessions& s,
                             const Prepared& p, const Inputs& in,
                             double warmup_s, double light_s, double busy_s,
                             double search_s, obs::Tracer* tracer) {
  ServeCheck check;
  check.graph = &d.graph;
  check.ranks = &p.ranks;
  return RunServe(*s.service, *p.stream, in, check, warmup_s, light_s, busy_s,
                  search_s, tracer);
}

void PrintResult(const Report& report, const Totals& totals) {
  obs::JsonValue result = obs::JsonValue::MakeObject();
  result.Set("correct", true);
  result.Set("attempted", totals.attempted);
  result.Set("failed", totals.failed);
  result.Set("metrics", report.ToJson());
  std::printf("%s\n", result.Write().c_str());
  std::fflush(stdout);
}

void WriteArtifact(const Args& args, const std::string& name,
                   const obs::JsonValue& provenance, const Report& report,
                   const Totals& totals) {
  obs::JsonValue doc = obs::JsonValue::MakeObject();
  doc.Set("workload", args.workload);
  doc.Set("seed", args.seed);
  doc.Set("seconds", args.seconds);
  doc.Set("trace", args.trace);
  doc.Set("provenance", provenance);
  doc.Set("attempted", totals.attempted);
  doc.Set("failed", totals.failed);
  doc.Set("metrics", report.ToJson());
  const std::string path = args.artifact_dir + "/" + name;
  if (!obs::WriteRunReport(path, doc).ok()) {
    std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
  } else {
    std::printf("artifact: %s\n", path.c_str());
  }
}

/// --trace 0: end-to-end metrics of one workload (or of all four).
int RunUntraced(const Args& args, const obs::JsonValue& provenance) {
  const Inputs in = MakeInputs(args.seed);
  const std::vector<std::string> workloads =
      args.workload == "all" ? Workloads()
                             : std::vector<std::string>{args.workload};
  Deployment d;
  Sessions s;
  const auto t = Clock::now();
  BuildWithFacade(d);
  OpenSessions(d, in, workloads, s, nullptr, nullptr);
  const double setup_s = Seconds(Clock::now() - t);

  const Prepared p = Prepare(d, in, workloads, 1, nullptr);
  Report report;
  Totals totals;
  const bool all = workloads.size() > 1;
  for (const std::string& w : workloads) {
    Report part;
    if (w == "nr-threads") {
      const BatchResult r = RunNr(s, p, args.seconds, nullptr);
      AddBatchEndToEnd(part, r, all);
      CountBatch(totals, r);
    } else if (w == "rs-threads") {
      const BatchResult r = RunRsThreads(s, p, args.seconds, nullptr);
      AddBatchEndToEnd(part, r, all);
      CountBatch(totals, r);
    } else if (w == "rs-tcp") {
      const BatchResult r = RunRs(s, p, args.seconds, nullptr);
      AddBatchEndToEnd(part, r, all);
      CountBatch(totals, r);
    } else {
      // 1 s warm-up; of the rest, half light, a quarter busy and a quarter
      // search. The light phase carries the gated latencies.
      const double warmup_s = std::min(1.0, 0.125 * args.seconds);
      const double rest_s = args.seconds - warmup_s;
      const ServeResult r =
          RunServeWorkload(d, s, p, in, warmup_s, 0.5 * rest_s, 0.25 * rest_s,
                           0.25 * rest_s, nullptr);
      AddServeEndToEnd(part, r);
      if (all) {
        AddServeRateLatencies(part, r, "serve_");
        part.Add("serve_max_qps", r.max_qps, "1/s");
      }
      part.Note("k-hop answers checked against BFS: " +
                std::to_string(r.khop_checked));
      CountServe(totals, r);
    }
    std::printf("%s:\n", w.c_str());
    part.Print();
    for (const Metric& m : part.metrics()) {
      report.Add(all ? w + "." + m.name : m.name, m.value, m.unit);
    }
  }
  std::printf("setup and process:\n");
  Report common;
  common.Add("setup_s", setup_s, "s");
  common.Add("peak_rss_mb", PeakRssMb(), "MB");
  common.Add("fail_frac",
             Ratio(static_cast<double>(totals.failed),
                   static_cast<double>(totals.attempted)),
             "fraction");
  common.Print();
  for (const Metric& m : common.metrics()) {
    if (m.name != "fail_frac") {  // carried by "failed" / "attempted"
      report.Add(m.name, m.value, m.unit);
    }
  }
  WriteArtifact(args,
                "result_" + args.workload + "_seed" +
                    std::to_string(args.seed) + "_trace0.json",
                provenance, report, totals);
  PrintResult(report, totals);
  return 0;
}

/// Median of the traced and of the untraced samples, for the overhead.
std::pair<double, double> SplitMedians(const std::vector<double>& values,
                                       const std::vector<bool>& traced) {
  std::vector<double> on, off;
  for (size_t i = 0; i < values.size(); ++i) {
    (traced[i] ? on : off).push_back(values[i]);
  }
  return {perfbench::Median(on), perfbench::Median(off)};
}

/// --trace 1: layered setup, then all four workloads with spans on every
/// other operation; per-layer metrics and a Chrome trace.
int RunTraced(const Args& args, const obs::JsonValue& provenance) {
  const Inputs in = MakeInputs(args.seed);
  obs::Tracer tracer;
  obs::MetricsRegistry registry;
  Deployment d;
  Sessions s;
  SetupLayers layers;
  const auto t = Clock::now();
  {
    obs::ScopedSpan span(&tracer, "setup", "setup");
    BuildLayered(d, &tracer, &registry, layers);
    OpenSessions(d, in, Workloads(), s, &tracer, &layers);
  }
  const double setup_total_s = Seconds(Clock::now() - t);
  const std::vector<double> setup_parts = {
      layers.generate_s, layers.partition_s, layers.storage_s, layers.open_s,
      layers.serve_startup_s};
  const double residual_frac =
      perfbench::SetupResidualFrac(setup_total_s, setup_parts);

  const Prepared p = Prepare(d, in, Workloads(), 3, &tracer);
  const double slice = args.seconds / 4.0;
  const BatchResult nr = RunNr(s, p, slice, &tracer);
  const BatchResult rs_threads = RunRsThreads(s, p, slice, &tracer);
  const BatchResult rs = RunRs(s, p, slice, &tracer);
  const ServeResult sv =
      RunServeWorkload(d, s, p, in, 0.25 * slice, 0.4 * slice, 0.35 * slice,
                       0.0, &tracer);

  // trace.overhead_frac on the named workload: traced over untraced median
  // of its operations (jobs, or busy-phase queries), interleaved.
  std::pair<double, double> split;
  if (args.workload == "nr-threads") {
    split = SplitMedians(nr.job_s, nr.traced);
  } else if (args.workload == "rs-threads") {
    split = SplitMedians(rs_threads.job_s, rs_threads.traced);
  } else if (args.workload == "rs-tcp") {
    split = SplitMedians(rs.job_s, rs.traced);
  } else {
    std::vector<double> latency;
    std::vector<bool> traced;
    for (const Sample& q : sv.busy.samples) {
      latency.push_back(q.ok ? perfbench::DueLatency(q.due_us, q.done_us)
                             : std::numeric_limits<double>::infinity());
      traced.push_back(q.traced);
    }
    split = SplitMedians(latency, traced);
  }

  // The result line counts the named workload's operations; fail_frac
  // covers all four.
  Totals all;
  CountBatch(all, nr);
  CountBatch(all, rs_threads);
  CountBatch(all, rs);
  CountServe(all, sv);
  Totals totals;
  if (args.workload == "nr-threads") {
    CountBatch(totals, nr);
  } else if (args.workload == "rs-threads") {
    CountBatch(totals, rs_threads);
  } else if (args.workload == "rs-tcp") {
    CountBatch(totals, rs);
  } else {
    CountServe(totals, sv);
  }

  Report report;
  report.Note("setup layers cover all but " +
              std::to_string(100.0 * residual_frac) + "% of the traced setup (" +
              std::to_string(setup_total_s) + " s); stated residual bound " +
              std::to_string(100.0 * kSetupResidualBound) + "%");
  if (residual_frac > kSetupResidualBound) {
    report.Note("WARNING: setup residual exceeds its stated bound");
  }
  report.Note("runtime.job_vs_seq base: propagation.seq_job_s (sequential "
              "runner, same NR job)");
  report.Note("trace.overhead_frac base: untraced " + args.workload +
              " operations, median " + std::to_string(split.second));
  // Channels never fill at the default window, so this reads 0 on every
  // run; it is printed, not reported as a metric.
  report.Note("runtime.blocked_s " +
              std::to_string(MedianOver(nr.stats, [](const auto& x) {
                return TimelineSum(x, &runtime::PhaseSeconds::blocked_s);
              })) +
              " s");
  report.Add("graph.generate_s", layers.generate_s, "s");
  report.Add("partition.recursive_s", layers.partition_s, "s");
  report.Add("partition.level0_s", layers.level0_s, "s");
  report.Add("partition.inner_edge_ratio", d.quality.inner_edge_ratio, "ratio");
  report.Add("storage.build_s", layers.storage_s, "s");
  report.Add("core.open_s", layers.open_s, "s");
  report.Add("serve.startup_s", layers.serve_startup_s, "s");
  report.Add("setup.total_s", setup_total_s, "s");
  report.Add("setup.residual_frac", residual_frac, "fraction");
  report.Add("propagation.seq_job_s", p.nr_oracle->seq_job_s, "s");
  report.Add("engine.sim_response", p.nr_oracle->sim_response_s, "sim_s");
  AddRuntimeLayers(report, nr, p.nr_oracle->seq_job_s);
  AddNetLayers(report, rs);
  AddServeLayers(report, sv);
  report.Add("fail_frac",
             Ratio(static_cast<double>(all.failed),
                   static_cast<double>(all.attempted)),
             "fraction");
  report.Add("trace.overhead_frac",
             perfbench::OverheadFrac(split.first, split.second), "fraction");

  std::printf("per-layer (%s):\n", args.workload.c_str());
  report.Print();
  const std::string trace_path = args.artifact_dir + "/trace_" + args.workload +
                                 "_seed" + std::to_string(args.seed) + ".json";
  if (tracer.WriteChromeTrace(trace_path).ok()) {
    std::printf("artifact: %s (%zu events)\n", trace_path.c_str(),
                tracer.num_events());
  }
  WriteArtifact(args,
                "result_" + args.workload + "_seed" +
                    std::to_string(args.seed) + "_trace1.json",
                provenance, report, totals);
  PrintResult(report, totals);
  return 0;
}

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--artifact-dir") {
      args.artifact_dir = value;
    } else if (key == "--commit") {
      args.commit = value;
    } else {
      return false;
    }
  }
  if (argc % 2 != 1 || !(args.seconds > 0.0)) {
    return false;
  }
  if (args.workload == "all") {
    return !args.trace;
  }
  return std::find(Workloads().begin(), Workloads().end(), args.workload) !=
         Workloads().end();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload "
                 "<nr-threads|rs-threads|rs-tcp|serve-zipf|all> "
                 "--seed <n> --seconds <s> --trace <0|1> "
                 "[--artifact-dir <dir>] [--commit <id>]\n"
                 "(--workload all runs untraced only)\n",
                 argv[0]);
    return 2;
  }

  // Provenance: recorded with every result, and the gate on build type.
  obs::JsonValue provenance = obs::BuildProvenance();
  const std::string build_type = provenance.Find("build_type")->as_string();
  const std::string sanitizer = provenance.Find("sanitizer")->as_string();
  provenance.Set("nproc",
                 static_cast<uint64_t>(std::thread::hardware_concurrency()));
  provenance.Set("commit", args.commit);
  provenance.Set("seed", args.seed);
  provenance.Set("loadavg_at_start", LoadAverage());
  std::printf(
      "provenance: nproc=%u build=%s sanitizer=%s commit=%s seed=%llu "
      "loadavg=%s\n",
      std::thread::hardware_concurrency(), build_type.c_str(),
      sanitizer.empty() ? "none" : sanitizer.c_str(), args.commit.c_str(),
      static_cast<unsigned long long>(args.seed), LoadAverage().c_str());
#ifndef NDEBUG
  const bool asserts_on = true;
#else
  const bool asserts_on = false;
#endif
  if (!sanitizer.empty() || build_type == "Debug" || build_type.empty() ||
      asserts_on) {
    std::fprintf(stderr,
                 "perfbench: refusing to measure a %s build%s%s; configure "
                 "with -DCMAKE_BUILD_TYPE=Release\n",
                 build_type.empty() ? "unoptimized" : build_type.c_str(),
                 sanitizer.empty() ? "" : " with sanitizer ",
                 sanitizer.c_str());
    return 2;
  }
  return args.trace ? RunTraced(args, provenance)
                    : RunUntraced(args, provenance);
}
