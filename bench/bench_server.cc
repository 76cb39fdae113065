// The server acceptance storm: N concurrent sessions over loopback TCP,
// each pipelining a point/heavy statement mix through the full stack —
// frame codec, event loop, two-lane admission, shared-eval batching.
//
//   * BM_Server_SessionStorm/sessions:N — N blocking Clients connect to
//     an in-process Server over an ephemeral loopback port. Per
//     iteration every session pipelines kStatementsPerRound statements
//     (ExecuteBatch-style: all frames sent before any response is
//     read): mostly identical point COUNTs — the same text lands in the
//     point lane from every session, so drained batches share one
//     compressed eval — plus one identical heavy-lane COUNT (selectivity
//     past the popcount split) and one per-session point COUNT that
//     cannot be shared. Counters:
//       queries_per_sec  total statement throughput across sessions
//                        (larger is better; the gate inverts the ratio)
//       p99_latency_us   99th-percentile client-observed statement
//                        completion latency, measured from the round's
//                        first send to each response's arrival
//       batch_hits       statements answered from another statement's
//                        eval during the measured run (nonzero is the
//                        acceptance bar at 64 sessions)
//
// The session sweep is 8/64; `--readers=N` pins it to one value, so the
// series register from BenchMain's hook (CODS_BENCH_MAIN_REGISTERED).

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/env.h"
#include "durability/db.h"
#include "server/client.h"
#include "server/server.h"
#include "server/wire.h"

namespace cods {
namespace {

constexpr uint64_t kDistinct = 1000;
constexpr int kStatementsPerRound = 8;

// One session's pipelined round: send every statement, then collect the
// responses in order, recording each statement's completion latency
// relative to the round start (pipelined completion time, which is what
// a batching client observes).
void RunRound(server::Client* client, int session, uint64_t round,
              std::vector<double>* latencies_us) {
  std::vector<std::string> texts;
  texts.reserve(kStatementsPerRound);
  for (int q = 0; q < kStatementsPerRound; ++q) {
    if (q == 0) {
      // Identical across sessions and past the popcount split: the
      // heavy lane's shareable statement.
      texts.push_back("SELECT COUNT(*) FROM R WHERE K < " +
                      std::to_string(kDistinct / 2) + ";");
    } else if (q == 1) {
      // Per-session point statement: never shared.
      texts.push_back(
          "SELECT COUNT(*) FROM R WHERE K = " +
          std::to_string(static_cast<uint64_t>(session) % kDistinct) + ";");
    } else {
      // Identical across sessions within a round: the point lane's
      // shared-eval fodder. Varies per round so no session-local state
      // could fake the sharing.
      texts.push_back("SELECT COUNT(*) FROM R WHERE K = " +
                      std::to_string((round * 7 + static_cast<uint64_t>(q)) %
                                     kDistinct) +
                      ";");
    }
  }
  auto t0 = std::chrono::steady_clock::now();
  std::vector<uint64_t> ids;
  ids.reserve(texts.size());
  std::string out;
  for (const std::string& text : texts) {
    ids.push_back(client->NextRequestId());
    out += server::EncodeExecute(ids.back(), text);
  }
  Status sent = client->SendRaw(out);
  CODS_CHECK(sent.ok()) << sent.ToString();
  for (uint64_t id : ids) {
    auto resp = client->ReceiveFor(id);
    CODS_CHECK(resp.ok()) << resp.status().ToString();
    CODS_CHECK(resp.ValueOrDie().type == server::FrameType::kResultCount)
        << server::FormatWireResponse(resp.ValueOrDie());
    benchmark::DoNotOptimize(resp.ValueOrDie().count);
    latencies_us->push_back(std::chrono::duration<double, std::micro>(
                                std::chrono::steady_clock::now() - t0)
                                .count());
  }
}

void BM_Server_SessionStorm(benchmark::State& state) {
  const int sessions = static_cast<int>(state.range(0));

  // A DurableDb in a fresh temp directory, seeded the way
  // `cods_shell .load` loads a table: a raw versions()->Apply, then a
  // checkpoint. The storm sends only COUNTs, so the WAL stays idle.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("cods_bench_server_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  auto opened = DurableDb::Open(Env::Default(), dir.string());
  CODS_CHECK(opened.ok()) << opened.status().ToString();
  std::unique_ptr<DurableDb> db = std::move(opened).ValueOrDie();
  CODS_CHECK_OK(db->versions()->Apply([](TableStore& store) {
    return store.AddTable(bench::CachedR(kDistinct));
  }));
  CODS_CHECK_OK(db->Checkpoint());

  server::ServerOptions options;
  options.port = 0;  // ephemeral
  server::Server srv(db.get(), options);
  CODS_CHECK_OK(srv.Start());

  std::vector<std::unique_ptr<server::Client>> clients;
  clients.reserve(static_cast<size_t>(sessions));
  for (int s = 0; s < sessions; ++s) {
    auto client = server::Client::Connect("127.0.0.1", srv.port());
    CODS_CHECK(client.ok()) << client.status().ToString();
    clients.push_back(std::move(client).ValueOrDie());
  }

  bench::RunMeta meta(state, sessions);
  const uint64_t hits_before = srv.GetStats().batch.batch_hits;
  std::vector<double> latencies_us;
  uint64_t total_statements = 0;
  double total_seconds = 0.0;
  uint64_t round = 0;
  for (auto _ : state) {
    std::vector<std::vector<double>> per_session(
        static_cast<size_t>(sessions));
    auto round_start = std::chrono::steady_clock::now();
    std::vector<std::thread> pool;
    pool.reserve(static_cast<size_t>(sessions));
    for (int s = 0; s < sessions; ++s) {
      pool.emplace_back(RunRound, clients[static_cast<size_t>(s)].get(), s,
                        round, &per_session[static_cast<size_t>(s)]);
    }
    for (std::thread& t : pool) t.join();
    double elapsed = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - round_start)
                         .count();
    state.SetIterationTime(elapsed);
    total_seconds += elapsed;
    total_statements +=
        static_cast<uint64_t>(sessions) * kStatementsPerRound;
    for (std::vector<double>& mine : per_session) {
      latencies_us.insert(latencies_us.end(), mine.begin(), mine.end());
    }
    ++round;
  }
  const uint64_t hits_after = srv.GetStats().batch.batch_hits;

  clients.clear();  // goodbye before the server drains
  srv.Shutdown();
  std::filesystem::remove_all(dir);

  state.counters["queries_per_sec"] =
      total_seconds > 0
          ? static_cast<double>(total_statements) / total_seconds
          : 0.0;
  state.counters["p99_latency_us"] = bench::Percentile(latencies_us, 0.99);
  state.counters["batch_hits"] =
      static_cast<double>(hits_after - hits_before);
}

}  // namespace

// Registered from BenchMain's hook: the sweep depends on --readers.
void RegisterServerBenches() {
  auto* storm = ::benchmark::RegisterBenchmark("BM_Server_SessionStorm",
                                               BM_Server_SessionStorm);
  storm->ArgName("sessions")->UseManualTime()->Unit(benchmark::kMillisecond);
  if (bench::BenchReaders() > 0) {
    storm->Arg(bench::BenchReaders());
  } else {
    for (int sessions : {8, 64}) storm->Arg(sessions);
  }
}

}  // namespace cods

CODS_BENCH_MAIN_REGISTERED("server", &cods::RegisterServerBenches)
