// bench_cods: the end-to-end benchmark of the CODS stack.
//
//   bench_cods --workload=<name> --seed=<n> --seconds=<s> --dir=<work dir>
//              [--trace=<file>]
//
// One process per workload, so setup time and peak RSS are the
// workload's own. The last stdout line is the result JSON; with --trace
// it carries the per-layer metrics of a traced probe instead of the
// end-to-end metrics, and the spans go to <file>. Without --workload the
// binary exits 0 at once, so a loop that runs every bench binary with
// google-benchmark flags passes over it.
//
// Workloads (bench data and load are generated from the seed; the
// system receives only tables and statement text):
//   point_lookup   1M-row R(K, V, P), 100k uniform keys; 2 connections
//                  x window 8 of point COUNT / SELECT / IN statements,
//                  Zipf(0.9) keys. The front door's per-statement cost.
//   analytic_scan  1M-row F(K, V, P) with Zipf(1.0) K over 1000 values
//                  plus a 1000-row dimension D; 2 connections x window 2
//                  of range/nested COUNTs, GROUP BY, projections, ORDER
//                  BY LIMIT and JOIN COUNTs. The codec kernels and query
//                  operators on the heavy lane.
//   evolve_online  R plus E of the same shape; one writer cycling
//                  DECOMPOSE / ADD / RENAME / DROP COLUMN / MERGE /
//                  PARTITION / UNION over E (fsync per commit, frequent
//                  checkpoints) beside an open-loop Poisson reader of R.
//   evolve_bulk    four tables by key cardinality and physical order, no
//                  server; rounds of DECOMPOSE / MERGE / PARTITION /
//                  UNION through DurableDb, then checkpoint, one more
//                  round, and recovery.

#include <malloc.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "bench_data.h"
#include "bench_load.h"
#include "bench_trace.h"
#include "common/env.h"
#include "concurrency/snapshot_catalog.h"
#include "durability/db.h"
#include "exec/exec.h"
#include "query/query_engine.h"
#include "server/client.h"
#include "server/server.h"
#include "smo/parser.h"
#include "storage/serde.h"

namespace cods_bench {
namespace {

namespace fs = std::filesystem;
using TablePtr = std::shared_ptr<const cods::Table>;

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;
/// Database reopens per run (at least kMinReopens, and more until
/// kReopenSeconds have passed, up to kMaxReopens); recovery_s is their
/// median, so a cheap recovery is sampled as often as a dear one.
constexpr int kMinReopens = 5;
constexpr int kMaxReopens = 40;
constexpr double kReopenSeconds = 1.5;
constexpr double kWarmupSeconds = 1.0;
/// The tail percentile of op_tail_us: p90, the highest that repeats
/// within the bound from run to run on a shared 4-vCPU machine (p95 and
/// p99 of the reader in evolve_online spread up to twice as far).
constexpr double kTail = 0.9;
/// Row-returning statements re-answered through the row store per run.
constexpr int kRowStoreChecks = 6;
/// Statements of the stream the traced run replays: point statements,
/// and the dearer analytic ones.
constexpr int kProbePointStatements = 200;
constexpr int kProbeAnalyticStatements = 120;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  std::string dir = "bench_cods_work";
  std::string trace;  // empty: untraced
};

Options ParseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      size_t n = std::strlen(flag);
      return arg.compare(0, n, flag) == 0 ? argv[i] + n : nullptr;
    };
    if (const char* v = value("--workload=")) {
      o.workload = v;
    } else if (const char* v = value("--seed=")) {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--seconds=")) {
      o.seconds = std::strtod(v, nullptr);
    } else if (const char* v = value("--dir=")) {
      o.dir = v;
    } else if (const char* v = value("--trace=")) {
      o.trace = v;
    }
    // Anything else (google-benchmark flags from a bench loop) is ignored.
  }
  return o;
}

/// What a workload reports.
struct RunResult {
  std::vector<Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

// ---- The served stack ------------------------------------------------------

/// A database directory with its tables loaded and checkpointed, and
/// (optionally) a server over it.
struct Stack {
  std::string dir;
  std::unique_ptr<cods::DurableDb> db;
  std::unique_ptr<cods::server::Server> server;

  uint16_t port() const { return server->port(); }
  /// Shuts the server down (draining it) and closes the database.
  void Close() {
    if (server != nullptr) server->Shutdown();
    server.reset();
    db.reset();
  }
  ~Stack() { Close(); }
};

std::unique_ptr<Stack> OpenStack(const std::string& dir,
                                 const std::vector<TablePtr>& tables,
                                 const cods::DurableDbOptions& options,
                                 bool serve) {
  auto stack = std::make_unique<Stack>();
  stack->dir = dir;
  stack->db = Take(cods::DurableDb::Open(cods::Env::Default(), dir, options),
                   "opening " + dir);
  Check(stack->db->versions()->Apply([&](cods::TableStore& store) {
          for (const TablePtr& t : tables) {
            CODS_RETURN_NOT_OK(store.AddTable(t));
          }
          return cods::Status::OK();
        }),
        "loading tables");
  // Raw loads are not WAL-replayable: capture them in a checkpoint.
  Check(stack->db->Checkpoint(), "checkpointing the load");
  if (serve) {
    stack->server = std::make_unique<cods::server::Server>(
        stack->db.get(), cods::server::ServerOptions{});
    Check(stack->server->Start(), "starting the server");
    Check(Connect(stack->port())->Ping(), "pinging the server");
  }
  return stack;
}

/// What the set-ups measured.
struct Setup {
  std::vector<double> seconds;  // one per set-up
  /// Peak RSS when set-up ends: the loaded database, the generated
  /// ground truth and the build's transients, before any load runs.
  double rss_mb = 0;
};

/// Runs `build` (table construction from the ground truth + OpenStack)
/// kSetups times in fresh directories, timing each, and keeps the last.
template <typename Build>
std::unique_ptr<Stack> TimedSetups(const std::string& work_dir,
                                   const Build& build, Setup* setup) {
  Phase("setup");
  std::unique_ptr<Stack> stack;
  for (int i = 0; i < kSetups; ++i) {
    if (stack != nullptr) {
      stack->Close();
      fs::remove_all(stack->dir);
      stack.reset();
    }
    const std::string dir = work_dir + "/db" + std::to_string(i);
    fs::remove_all(dir);
    const int64_t t0 = NowNs();
    stack = build(dir);
    setup->seconds.push_back(NsToS(NowNs() - t0));
  }
  setup->rss_mb = PeakRssMb();
  return stack;
}

std::vector<uint8_t> ImageOf(const cods::DurableDb& db) {
  cods::Snapshot snap = db.GetSnapshot();
  return cods::SerializeCatalogV3(cods::MaterializeCatalog(snap.root()), 0);
}

double SpaceRatio(const std::string& dir, uint64_t cells) {
  return static_cast<double>(DirBytes(dir)) / (static_cast<double>(cells) * 8.0);
}

/// Closes the stack, then reopens the directory repeatedly (timed:
/// checkpoint load + WAL replay). The first recovered root must
/// serialize byte-for-byte like the live root did. Returns the median.
double MeasureRecovery(Stack* stack, const cods::DurableDbOptions& options,
                       CheckCount* checks) {
  Phase("recovery");
  const std::vector<uint8_t> live = ImageOf(*stack->db);
  stack->Close();
  std::vector<double> samples;
  const int64_t until = NowNs() + static_cast<int64_t>(kReopenSeconds * 1e9);
  for (int i = 0; i < kMaxReopens && (i < kMinReopens || NowNs() < until);
       ++i) {
    const int64_t t0 = NowNs();
    auto db = Take(cods::DurableDb::Open(cods::Env::Default(), stack->dir, options),
                   "recovering " + stack->dir);
    samples.push_back(NsToS(NowNs() - t0));
    if (i == 0) {
      ++checks->checked;
      if (ImageOf(*db) != live) {
        ++checks->failed;
        std::fprintf(stderr, "recovered catalog differs from the live one\n");
      }
    }
  }
  return Median(samples);
}

/// The traced probe's inputs every workload shares: the served stack
/// and a seed and scratch directory of its own.
ProbeInputs ProbeOf(const Options& o, const Stack& stack,
                    const cods::DurableDbOptions& db_options) {
  ProbeInputs in;
  in.db = stack.db.get();
  in.db_dir = stack.dir;
  in.db_options = db_options;
  in.port = stack.port();
  in.scratch_dir = o.dir + "/probe";
  in.seed = o.seed + 17;
  return in;
}

void AddChecks(const CheckCount& c, RunResult* r) {
  r->attempted += c.checked;
  r->failed += c.failed;
}

/// Requires each stored table to hold exactly its ground-truth rows.
CheckCount CheckTables(const cods::DurableDb& db,
                       const std::vector<std::pair<std::string, const GenTable*>>& want) {
  CheckCount c;
  cods::Snapshot snap = db.GetSnapshot();
  for (const auto& [name, g] : want) {
    ++c.checked;
    auto t = snap.root().Lookup(name);
    if (t == nullptr || !(DigestOf(*t, g->columns) == DigestOf(*g, g->columns))) {
      ++c.failed;
      std::fprintf(stderr, "table %s does not hold its generated rows\n",
                   name.c_str());
    }
  }
  return c;
}

void ReportLatencyInfo(const std::string& prefix, const LoadStats& load) {
  Info(prefix + "_per_s", static_cast<double>(load.completed) / load.seconds,
       "stmt/s");
  Info(prefix + "_p50_us", Median(load.latency_us), "us");
  Info(prefix + "_p90_us", Percentile(load.latency_us, 0.9), "us");
  Info(prefix + "_p95_us", Percentile(load.latency_us, 0.95), "us");
  Info(prefix + "_p99_us", Percentile(load.latency_us, 0.99), "us");
  Info(prefix + "_samples", static_cast<double>(load.latency_us.size()), "count");
}

/// The end-to-end metrics, in BENCHMARK.json order.
std::vector<Metric> EndToEnd(const Setup& setup, double ops_per_s,
                             double p50_us, double tail_us, double recovery_s,
                             double space_ratio) {
  return {
      {"setup_s", Median(setup.seconds), "s"},
      {"ops_per_s", ops_per_s, "op/s"},
      {"op_p50_us", p50_us, "us"},
      {"op_tail_us", tail_us, "us"},
      {"recovery_s", recovery_s, "s"},
      {"space_ratio", space_ratio, "ratio"},
      {"rss_peak_mb", setup.rss_mb, "MB"},
  };
}

// ---- point_lookup / analytic_scan -------------------------------------------

struct ServedSpec {
  std::vector<const GenTable*> tables;  // [fact, optional dimension]
  const StmtSource* source = nullptr;
  int window = 1;
  int probe_statements = 0;
  int64_t split = 0;  // PARTITION split of the fact's evolution round
};

RunResult RunServed(const Options& o, const ServedSpec& spec) {
  RunResult r;
  Setup setup;
  cods::DurableDbOptions db_options;
  std::vector<TablePtr> built;
  auto stack = TimedSetups(o.dir, [&](const std::string& dir) {
    built.clear();
    for (const GenTable* g : spec.tables) built.push_back(BuildTable(*g));
    return OpenStack(dir, built, db_options, /*serve=*/true);
  }, &setup);

  Phase("load");
  const cods::server::ServerStats before = stack->server->GetStats();
  LoadStats load = RunClosedLoop(stack->port(), 2, spec.window, *spec.source,
                                 o.seed + 11, kWarmupSeconds, o.seconds);
  Info("rss_load_mb", PeakRssMb(), "MB");
  const cods::server::ServerStats after = stack->server->GetStats();
  r.attempted += load.attempted;
  r.failed += load.failed;
  ReportLatencyInfo("stmt", load);
  for (int c = 0; c < spec.source->NumClasses(); ++c) {
    Info(std::string("stmt_p50_us.") + spec.source->ClassName(c),
         Median(load.class_latency_us[static_cast<size_t>(c)]), "us");
  }
  const double statements =
      static_cast<double>(after.batch.statements - before.batch.statements);
  const double hit_ratio =
      statements > 0
          ? static_cast<double>(after.batch.batch_hits - before.batch.batch_hits) /
                statements
          : 0.0;
  Info("batch_hit_ratio", hit_ratio, "ratio");

  Phase("checks");
  AddChecks(RowStoreCrossCheck(*spec.source, kRowStoreChecks, o.seed + 13,
                               Connect(stack->port()).get(), *built[0],
                               built.size() > 1 ? built[1].get() : nullptr),
            &r);
  std::vector<std::pair<std::string, const GenTable*>> want;
  for (const GenTable* g : spec.tables) want.push_back({g->name, g});
  AddChecks(CheckTables(*stack->db, want), &r);
  const std::vector<std::string> round =
      EvolutionRound(spec.tables[0]->name, spec.split);

  if (!o.trace.empty()) {
    ProbeInputs in = ProbeOf(o, *stack, db_options);
    in.statements = spec.source;
    in.n_statements = spec.probe_statements;
    in.smo_round = round;
    in.batch_hit_ratio = hit_ratio;
    in.gen_lag_us = load.gen_lag_us;
    Phase("probe");
    r.metrics = RunTraceProbe(in, o.trace, &r.attempted, &r.failed);
    return r;
  }

  Check(stack->db->Checkpoint(), "final checkpoint");
  uint64_t cells = 0;
  for (const GenTable* g : spec.tables) cells += g->rows() * g->columns.size();
  const double space = SpaceRatio(stack->dir, cells);
  // Recovery replays exactly one evolution round past the checkpoint.
  AddChecks(RunScriptOverWire(stack->port(), round), &r);
  CheckCount recovery_checks;
  const double recovery = MeasureRecovery(stack.get(), db_options, &recovery_checks);
  AddChecks(recovery_checks, &r);
  r.metrics = EndToEnd(setup, static_cast<double>(load.completed) / load.seconds,
                       Median(load.latency_us),
                       Percentile(load.latency_us, kTail), recovery, space);
  return r;
}

RunResult PointLookup(const Options& o) {
  const GenTable table = GenerateKvp(
      "R", {.rows = 1'000'000, .k_distinct = 100'000, .k_zipf = 0,
            .v_distinct = 1000, .p_distinct = 1000, .seed = o.seed});
  const PointSource source(&table, 100'000, 0.9, o.seed + 1);
  ServedSpec spec;
  spec.tables = {&table};
  spec.source = &source;
  spec.window = 8;
  spec.probe_statements = kProbePointStatements;
  spec.split = 50'000;
  return RunServed(o, spec);
}

RunResult AnalyticScan(const Options& o) {
  const GenTable fact = GenerateKvp(
      "F", {.rows = 1'000'000, .k_distinct = 1000, .k_zipf = 1.0,
            .v_distinct = 4, .p_distinct = 16, .seed = o.seed});
  const GenTable dim = GenerateDim("D", 1000, 10, o.seed + 2);
  const PoolSource source(&fact, &dim, 16, o.seed + 1);
  ServedSpec spec;
  spec.tables = {&fact, &dim};
  spec.source = &source;
  spec.window = 2;
  spec.probe_statements = kProbeAnalyticStatements;
  spec.split = 500;
  return RunServed(o, spec);
}

// ---- evolve_online ----------------------------------------------------------

/// The reader's arrival rate: about 15% of what point_lookup's mix
/// sustains unloaded on 4 vCPUs (~200 stmt/s). Beside the writer every
/// read runs several times slower, so this keeps the point lane about
/// half busy: latency shows the writer's interference, not a backlog.
constexpr double kReadRate = 30.0;

/// Geometric mean over cells of each cell's percentile q.
double CellGeoMean(const std::vector<std::vector<double>>& cells, double q) {
  std::vector<double> per_cell;
  for (const auto& c : cells) {
    if (!c.empty()) per_cell.push_back(Percentile(c, q));
  }
  return GeoMean(per_cell);
}

RunResult EvolveOnline(const Options& o) {
  RunResult r;
  const KvpSpec shape{.rows = 1'000'000, .k_distinct = 100'000, .k_zipf = 0,
                      .v_distinct = 1000, .p_distinct = 1000, .seed = o.seed};
  const GenTable read_table = GenerateKvp("R", shape);
  KvpSpec e_shape = shape;
  e_shape.seed = o.seed + 5;
  const GenTable evolved = GenerateKvp("E", e_shape);
  const PointSource source(&read_table, 100'000, 0, o.seed + 1);
  const std::vector<std::string> cycle = OnlineCycle("E", 50'000);

  cods::DurableDbOptions db_options;
  // ~700 WAL bytes per cycle: a checkpoint every ~11 cycles, several
  // per run.
  db_options.auto_checkpoint_wal_bytes = 8 << 10;
  Setup setup;
  std::vector<TablePtr> built;
  auto stack = TimedSetups(o.dir, [&](const std::string& dir) {
    built = {BuildTable(read_table), BuildTable(evolved)};
    return OpenStack(dir, built, db_options, /*serve=*/true);
  }, &setup);

  Phase("load");
  // The writer runs on this thread; the reader's receiver on a second,
  // its sender on a third.
  const int64_t start = NowNs() + 50'000'000;
  LoadStats reads;
  std::thread reader([&] {
    reads = RunOpenLoop(stack->port(), kReadRate, source, o.seed + 11, start,
                        kWarmupSeconds, o.seconds);
  });
  WriterStats writes =
      RunWriter(stack->port(), cycle, start, kWarmupSeconds, o.seconds);
  reader.join();
  Info("rss_load_mb", PeakRssMb(), "MB");
  r.attempted += reads.attempted + writes.attempted;
  r.failed += reads.failed + writes.failed;
  ReportLatencyInfo("read", reads);
  Info("bench.gen_lag_p99_us", Percentile(reads.gen_lag_us, 0.99), "us");
  std::vector<std::vector<double>> heavy, light;
  for (size_t j = 0; j < cycle.size(); ++j) {
    (IsHeavySmo(cycle[j]) ? heavy : light).push_back(writes.latency_us[j]);
    Info("smo_p50_ms." + SmoOpName(cycle[j]), Median(writes.latency_us[j]) / 1e3,
         "ms");
  }
  Info("smo_heavy_p50_ms", CellGeoMean(heavy, 0.5) / 1e3, "ms");
  Info("smo_heavy_p90_ms", CellGeoMean(heavy, 0.9) / 1e3, "ms");
  Info("smo_light_p50_ms", CellGeoMean(light, 0.5) / 1e3, "ms");
  Info("smo_light_p90_ms", CellGeoMean(light, 0.9) / 1e3, "ms");
  Info("writer_cycles", static_cast<double>(writes.cycles), "count");

  Phase("checks");
  AddChecks(RowStoreCrossCheck(source, kRowStoreChecks, o.seed + 13,
                               Connect(stack->port()).get(), *built[0], nullptr),
            &r);
  AddChecks(CheckTables(*stack->db, {{"R", &read_table}, {"E", &evolved}}), &r);

  if (!o.trace.empty()) {
    ProbeInputs in = ProbeOf(o, *stack, db_options);
    in.statements = &source;
    in.n_statements = kProbePointStatements;
    in.smo_round = cycle;
    in.gen_lag_us = reads.gen_lag_us;
    Phase("probe");
    r.metrics = RunTraceProbe(in, o.trace, &r.attempted, &r.failed);
    return r;
  }

  Check(stack->db->Checkpoint(), "final checkpoint");
  const double space = SpaceRatio(stack->dir, 2 * shape.rows * 3);
  // Recovery replays exactly one writer cycle past the checkpoint.
  AddChecks(RunScriptOverWire(stack->port(), cycle), &r);
  CheckCount recovery_checks;
  const double recovery = MeasureRecovery(stack.get(), db_options, &recovery_checks);
  AddChecks(recovery_checks, &r);
  r.metrics = EndToEnd(setup,
                       static_cast<double>(writes.completed) / writes.seconds,
                       Median(reads.latency_us),
                       Percentile(reads.latency_us, kTail), recovery, space);
  return r;
}

// ---- evolve_bulk ------------------------------------------------------------

constexpr uint64_t kBulkRows = 500'000;

RunResult EvolveBulk(const Options& o) {
  RunResult r;
  // Key cardinality spans the paper's Fig. 3 axis; `C100k` is the 100k
  // table clustered on K (physical order), everything else is shuffled.
  const std::vector<std::string> tables = {"B1k", "B100k", "B250k", "C100k"};
  const uint64_t distinct[] = {1'000, 100'000, kBulkRows / 2, 100'000};
  std::vector<GenTable> gen;
  for (size_t i = 0; i < 3; ++i) {
    gen.push_back(GenerateKvp(tables[i], {.rows = kBulkRows,
                                          .k_distinct = distinct[i], .k_zipf = 0,
                                          .v_distinct = 1000, .p_distinct = 1000,
                                          .seed = o.seed + i}));
  }
  GenTable clustered = gen[1];
  clustered.name = "C100k";

  cods::DurableDbOptions db_options;
  Setup setup;
  auto stack = TimedSetups(o.dir, [&](const std::string& dir) {
    std::vector<TablePtr> built;
    for (const GenTable& g : gen) built.push_back(BuildTable(g));
    built.push_back(Take(cods::QueryEngine::SortRows(*built[1], "K", false, -1,
                                                     "C100k"),
                         "clustering C100k"));
    return OpenStack(dir, built, db_options, /*serve=*/false);
  }, &setup);

  // Each table's round splits its key range in half; the scripts are
  // parsed once, so the loop times only ApplyScript.
  std::vector<std::vector<std::string>> texts;
  std::vector<std::vector<cods::Smo>> scripts;
  for (size_t t = 0; t < tables.size(); ++t) {
    texts.push_back(EvolutionRound(tables[t], static_cast<int64_t>(
                                                  distinct[t] / 2)));
    std::string script;
    for (const std::string& s : texts.back()) script += s + "\n";
    scripts.push_back(Take(cods::ParseSmoScript(script), "parsing"));
  }
  // Cells: (table, operator) -> latencies (µs); lag: the gaps between
  // consecutive timed SMOs, the benchmark's own time.
  std::vector<std::vector<std::vector<double>>> cells(
      tables.size(), std::vector<std::vector<double>>(4));
  std::vector<double> lag_us;
  int64_t last_end = 0;
  auto run_round = [&](size_t t, bool timed) {
    for (size_t j = 0; j < scripts[t].size(); ++j) {
      const int64_t t0 = NowNs();
      if (timed && last_end > 0) lag_us.push_back(NsToUs(t0 - last_end));
      cods::Status st = stack->db->ApplyScript({scripts[t][j]});
      const int64_t t1 = NowNs();
      last_end = timed ? t1 : 0;
      ++r.attempted;
      if (!st.ok()) {
        ++r.failed;
        std::fprintf(stderr, "failed: %s: %s\n", texts[t][j].c_str(),
                     st.ToString().c_str());
      } else if (timed) {
        cells[t][j].push_back(NsToUs(t1 - t0));
      }
    }
  };

  Phase("load");
  // One untimed round warms the caches, as the served workloads' warm-up
  // does; then whole rounds until the time is up.
  for (size_t t = 0; t < tables.size(); ++t) run_round(t, false);
  uint64_t smos = 0;
  int rounds = 0;
  const int64_t t_start = NowNs();
  const int64_t t_end = t_start + static_cast<int64_t>(o.seconds * 1e9);
  while (rounds < 3 || NowNs() < t_end) {
    for (size_t t = 0; t < tables.size(); ++t) {
      run_round(t, true);
      smos += scripts[t].size();
    }
    ++rounds;
  }
  const double measured_s = NsToS(NowNs() - t_start);
  Info("rss_load_mb", PeakRssMb(), "MB");
  std::vector<std::vector<double>> flat;
  static const char* const kOps[] = {"DECOMPOSE", "MERGE", "PARTITION", "UNION"};
  for (size_t t = 0; t < tables.size(); ++t) {
    for (size_t j = 0; j < 4; ++j) {
      flat.push_back(cells[t][j]);
      Info(std::string("smo_p50_ms.") + kOps[j] + "." + tables[t],
           Median(cells[t][j]) / 1e3, "ms");
    }
  }
  Info("rounds", rounds, "count");
  Info("smo_heavy_p50_ms", CellGeoMean(flat, 0.5) / 1e3, "ms");
  Info("smo_heavy_p90_ms", CellGeoMean(flat, 0.9) / 1e3, "ms");
  Info("bench.gen_lag_p99_us", Percentile(lag_us, 0.99), "us");

  Phase("checks");
  AddChecks(CheckTables(*stack->db, {{"B1k", &gen[0]}, {"B100k", &gen[1]},
                                     {"B250k", &gen[2]}, {"C100k", &clustered}}),
            &r);

  if (!o.trace.empty()) {
    stack->server = std::make_unique<cods::server::Server>(
        stack->db.get(), cods::server::ServerOptions{});
    Check(stack->server->Start(), "starting the server");
    const GenTable evolved = AfterRound(gen[1], 50'000);
    const PointSource source(&evolved, 100'000, 0, o.seed + 1);
    ProbeInputs in = ProbeOf(o, *stack, db_options);
    in.statements = &source;
    in.n_statements = kProbePointStatements;
    in.smo_round = EvolutionRound("B100k", 50'000);
    in.gen_lag_us = lag_us;
    Phase("probe");
    r.metrics = RunTraceProbe(in, o.trace, &r.attempted, &r.failed);
    return r;
  }

  Check(stack->db->Checkpoint(), "final checkpoint");
  const double space = SpaceRatio(stack->dir, tables.size() * kBulkRows * 3);
  // Recovery replays exactly one round past the checkpoint.
  for (size_t t = 0; t < tables.size(); ++t) run_round(t, false);
  CheckCount recovery_checks;
  const double recovery = MeasureRecovery(stack.get(), db_options, &recovery_checks);
  AddChecks(recovery_checks, &r);
  r.metrics = EndToEnd(setup, static_cast<double>(smos) / measured_s,
                       CellGeoMean(flat, 0.5), CellGeoMean(flat, 0.9), recovery,
                       space);
  return r;
}

}  // namespace
}  // namespace cods_bench

int main(int argc, char** argv) {
  using namespace cods_bench;
  const Options o = ParseArgs(argc, argv);
  if (o.workload.empty()) return 0;
  // Every parallel region of the library runs serially (the repository's
  // bench setting, CODS_THREADS=1): the server's own threads and the load
  // generator decide concurrency, and run-to-run noise from scheduling
  // pool helpers on shared vCPUs stays out of the numbers. CODS_THREADS
  // in the environment still overrides it.
  cods::SetDefaultThreads(1);
  if (!o.trace.empty()) {
    // The probe replays statements on a thread of its own and compares
    // them with the server's runs of the same statements. With glibc's
    // per-thread arenas the replay thread allocates from a young heap
    // and ran big-result statements up to 30% slower than the server's
    // workers did; one shared arena gives every thread the same heap.
    mallopt(M_ARENA_MAX, 1);
  }
  Phase("start");
  // The configuration every served workload runs with.
  const cods::server::ServerOptions server;
  Info("server.point_workers", server.point_workers, "count");
  Info("server.heavy_workers", server.heavy_workers, "count");
  Info("server.exec_threads", server.exec_threads, "count");
  Info("nproc", std::thread::hardware_concurrency(), "count");
  std::filesystem::create_directories(o.dir);
  RunResult r;
  if (o.workload == "point_lookup") {
    r = PointLookup(o);
  } else if (o.workload == "analytic_scan") {
    r = AnalyticScan(o);
  } else if (o.workload == "evolve_online") {
    r = EvolveOnline(o);
  } else if (o.workload == "evolve_bulk") {
    r = EvolveBulk(o);
  } else {
    Die("unknown workload '" + o.workload + "'");
  }
  Phase("done");
  std::filesystem::remove_all(o.dir);
  std::printf("%s\n",
              ResultJson(r.failed == 0, r.attempted, r.failed, r.metrics).c_str());
  return 0;
}
