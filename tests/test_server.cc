// The server subsystem: wire codec round-trips, exhaustive
// StatusCode<->wire mapping, hostile-input frame decoding (torn frames,
// oversized prefixes, CRC flips, seeded fuzz), admission-control
// bounds, and full loopback integration — execute/prepare over TCP,
// shared-eval batching, prepared-statement invalidation across online
// schema evolution, heavy-flood no-starvation, statement timeouts, and
// graceful shutdown that never drops an acked durable commit, retired
// versions freed by the committing writer, and the output bound on a
// client that pipelines without reading.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/env.h"
#include "durability/db.h"
#include "concurrency/versioned_catalog.h"
#include "exec/thread_pool.h"
#include "gtest/gtest.h"
#include "query/expr.h"
#include "server/admission.h"
#include "server/client.h"
#include "server/prepared.h"
#include "server/server.h"
#include "server/wire.h"
#include "test_util.h"
#include "workload/generator.h"

namespace cods {
namespace {

using server::AdmissionController;
using server::AdmissionOptions;
using server::AdmissionTask;
using server::Client;
using server::DecodeStatus;
using server::Frame;
using server::FrameType;
using server::Lane;
using server::WireResponse;

// ---- Wire primitives ------------------------------------------------------

TEST(Wire, PrimitivesRoundTrip) {
  std::string buf;
  server::PutFixed32(&buf, 0xDEADBEEFu);
  server::PutFixed64(&buf, 0x0123456789ABCDEFull);
  server::PutLengthPrefixed(&buf, "hello");
  server::PutValue(&buf, Value());
  server::PutValue(&buf, Value(int64_t{-42}));
  server::PutValue(&buf, Value(2.25));
  server::PutValue(&buf, Value("it's"));

  std::string_view in = buf;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  std::string_view s;
  Value v;
  ASSERT_TRUE(server::GetFixed32(&in, &u32));
  EXPECT_EQ(u32, 0xDEADBEEFu);
  ASSERT_TRUE(server::GetFixed64(&in, &u64));
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  ASSERT_TRUE(server::GetLengthPrefixed(&in, &s));
  EXPECT_EQ(s, "hello");
  ASSERT_TRUE(server::GetValue(&in, &v));
  EXPECT_TRUE(v.is_null());
  ASSERT_TRUE(server::GetValue(&in, &v));
  EXPECT_EQ(v, Value(int64_t{-42}));
  ASSERT_TRUE(server::GetValue(&in, &v));
  EXPECT_EQ(v, Value(2.25));
  ASSERT_TRUE(server::GetValue(&in, &v));
  EXPECT_EQ(v, Value("it's"));
  EXPECT_TRUE(in.empty());

  // Truncations fail cleanly at every cut point.
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    std::string_view t(buf.data(), cut);
    uint32_t a;
    uint64_t b;
    std::string_view c;
    Value d;
    // At most some prefix of the fields decodes; no Get* may read past
    // the truncated view (ASan-checked).
    while (server::GetFixed32(&t, &a) && server::GetFixed64(&t, &b) &&
           server::GetLengthPrefixed(&t, &c) && server::GetValue(&t, &d)) {
      break;
    }
  }
}

TEST(Wire, FrameRoundTrip) {
  std::string buf;
  server::EncodeFrame(&buf, FrameType::kExecute, 42, "SELECT 1");
  server::EncodeFrame(&buf, FrameType::kPong, 43, "");

  Frame frame;
  size_t consumed = 0;
  Status error;
  ASSERT_EQ(server::DecodeFrame(buf, server::kDefaultMaxFrameBytes, &frame,
                                &consumed, &error),
            DecodeStatus::kFrame);
  EXPECT_EQ(frame.type, FrameType::kExecute);
  EXPECT_EQ(frame.request_id, 42u);
  EXPECT_EQ(frame.body, "SELECT 1");

  std::string rest = buf.substr(consumed);
  ASSERT_EQ(server::DecodeFrame(rest, server::kDefaultMaxFrameBytes, &frame,
                                &consumed, &error),
            DecodeStatus::kFrame);
  EXPECT_EQ(frame.type, FrameType::kPong);
  EXPECT_EQ(frame.request_id, 43u);
  EXPECT_TRUE(frame.body.empty());
  EXPECT_EQ(consumed, rest.size());
}

// Satellite (b): every StatusCode has a name, a distinct wire code, and
// a lossless round-trip; unknown wire codes decode to a typed
// corruption, never a crash or a silent kOk.
TEST(Wire, StatusCodeMappingIsExhaustive) {
  std::set<uint32_t> wire_codes;
  for (int c = 0; c < kNumStatusCodes; ++c) {
    StatusCode code = static_cast<StatusCode>(c);
    EXPECT_STRNE(StatusCodeToString(code), "Unknown")
        << "StatusCode " << c << " has no name";
    uint32_t wire = server::WireErrorCode(code);
    wire_codes.insert(wire);
    bool known = false;
    EXPECT_EQ(server::StatusCodeFromWire(wire, &known), code)
        << "wire code " << wire << " does not round-trip";
    EXPECT_TRUE(known);
  }
  EXPECT_EQ(wire_codes.size(), static_cast<size_t>(kNumStatusCodes))
      << "two StatusCodes share a wire code";
  EXPECT_EQ(server::WireErrorCode(StatusCode::kOk), 0u);

  bool known = true;
  EXPECT_EQ(server::StatusCodeFromWire(0xFFFFu, &known),
            StatusCode::kCorruption);
  EXPECT_FALSE(known);
}

TEST(Wire, ErrorResponseCarriesTypedStatus) {
  std::string bytes =
      server::EncodeError(7, Status::KeyError("no such column: Zip"));
  Frame frame;
  size_t consumed = 0;
  Status error;
  ASSERT_EQ(server::DecodeFrame(bytes, server::kDefaultMaxFrameBytes, &frame,
                                &consumed, &error),
            DecodeStatus::kFrame);
  auto resp = server::DecodeResponse(frame);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp.ValueOrDie().type, FrameType::kError);
  EXPECT_EQ(resp.ValueOrDie().request_id, 7u);
  EXPECT_TRUE(resp.ValueOrDie().error.IsKeyError());
  EXPECT_NE(resp.ValueOrDie().error.ToString().find("Zip"),
            std::string::npos);
}

TEST(Wire, ResponseRoundTrips) {
  struct Case {
    std::string bytes;
    FrameType want;
  };
  for (const Case& c : {
           Case{server::EncodeHelloOk(1, 99), FrameType::kHelloOk},
           Case{server::EncodeResultOk(2, "OK"), FrameType::kResultOk},
           Case{server::EncodeResultCount(3, 12), FrameType::kResultCount},
           Case{server::EncodePong(4), FrameType::kPong},
           Case{server::EncodePrepareOk(5, 8, 2), FrameType::kPrepareOk},
       }) {
    Frame frame;
    size_t consumed = 0;
    Status error;
    ASSERT_EQ(server::DecodeFrame(c.bytes, server::kDefaultMaxFrameBytes,
                                  &frame, &consumed, &error),
              DecodeStatus::kFrame);
    auto resp = server::DecodeResponse(frame);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_EQ(resp.ValueOrDie().type, c.want);
  }
  std::string count = server::EncodeResultCount(3, 12);
  Frame frame;
  size_t consumed = 0;
  Status error;
  ASSERT_EQ(server::DecodeFrame(count, server::kDefaultMaxFrameBytes, &frame,
                                &consumed, &error),
            DecodeStatus::kFrame);
  EXPECT_EQ(server::DecodeResponse(frame).ValueOrDie().count, 12u);
}

// Satellite (c): torn frames ask for more bytes; every single-bit
// corruption of a valid frame is detected (never decodes as a frame).
TEST(Wire, TornAndCorruptFrames) {
  std::string bytes;
  server::EncodeFrame(&bytes, FrameType::kExecute, 9, "SELECT * FROM R;");

  Frame frame;
  size_t consumed = 0;
  Status error;
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_EQ(server::DecodeFrame(std::string_view(bytes.data(), cut),
                                  server::kDefaultMaxFrameBytes, &frame,
                                  &consumed, &error),
              DecodeStatus::kNeedMore)
        << "prefix of " << cut << " bytes";
  }
  for (size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = bytes;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
      DecodeStatus ds = server::DecodeFrame(
          flipped, server::kDefaultMaxFrameBytes, &frame, &consumed, &error);
      EXPECT_NE(ds, DecodeStatus::kFrame)
          << "bit " << bit << " of byte " << i << " undetected";
    }
  }
}

TEST(Wire, OversizedAndUndersizedPrefixesAreErrors) {
  Frame frame;
  size_t consumed = 0;
  Status error;

  // Length prefix far past the cap: typed error, no allocation attempt.
  std::string huge;
  server::PutFixed32(&huge, 0x7FFFFFFFu);
  server::PutFixed32(&huge, 0);  // bogus CRC; length check fires first
  EXPECT_EQ(server::DecodeFrame(huge, server::kDefaultMaxFrameBytes, &frame,
                                &consumed, &error),
            DecodeStatus::kError);
  EXPECT_TRUE(error.IsInvalidArgument()) << error.ToString();

  // Length below the minimum payload (type + request id).
  std::string tiny;
  server::PutFixed32(&tiny, 1);
  server::PutFixed32(&tiny, 0);
  EXPECT_EQ(server::DecodeFrame(tiny, server::kDefaultMaxFrameBytes, &frame,
                                &consumed, &error),
            DecodeStatus::kError);
  EXPECT_TRUE(error.IsInvalidArgument()) << error.ToString();
}

// Satellite (c): the seeded fuzz loop. No input may crash, hang, or
// over-read the decoder; garbage after a valid frame never corrupts the
// frame in front of it.
TEST(Wire, SeededFuzzDecodeNeverCrashes) {
  std::mt19937 rng(0xC0D5u);
  Frame frame;
  size_t consumed = 0;
  Status error;
  for (int iter = 0; iter < 5000; ++iter) {
    size_t len = rng() % 96;
    std::string buf(len, '\0');
    for (char& c : buf) c = static_cast<char>(rng());
    DecodeStatus ds = server::DecodeFrame(
        buf, server::kDefaultMaxFrameBytes, &frame, &consumed, &error);
    if (ds == DecodeStatus::kFrame) {
      EXPECT_LE(consumed, buf.size());
    }
  }
  for (int iter = 0; iter < 200; ++iter) {
    std::string buf;
    server::EncodeFrame(&buf, FrameType::kPing, rng(), "");
    size_t tail = rng() % 32;
    for (size_t i = 0; i < tail; ++i) {
      buf.push_back(static_cast<char>(rng()));
    }
    ASSERT_EQ(server::DecodeFrame(buf, server::kDefaultMaxFrameBytes, &frame,
                                  &consumed, &error),
              DecodeStatus::kFrame);
    EXPECT_EQ(frame.type, FrameType::kPing);
  }
}

// ---- Placeholder rewriting ------------------------------------------------

TEST(Prepared, RewritePlaceholders) {
  uint32_t n = 0;
  auto rewritten = server::RewritePlaceholders(
      "SELECT * FROM R WHERE a = $1 AND b = $2;", &n);
  ASSERT_TRUE(rewritten.ok()) << rewritten.status().ToString();
  EXPECT_EQ(n, 2u);
  // Each placeholder became a sentinel string literal.
  EXPECT_EQ(std::count(rewritten.ValueOrDie().begin(),
                       rewritten.ValueOrDie().end(),
                       server::kParamSentinelPrefix),
            2);

  // `$1` inside a string literal (with quote doubling) is literal text.
  auto quoted = server::RewritePlaceholders(
      "SELECT * FROM R WHERE a = 'it''s $1';", &n);
  ASSERT_TRUE(quoted.ok()) << quoted.status().ToString();
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(quoted.ValueOrDie(), "SELECT * FROM R WHERE a = 'it''s $1';");

  // The sentinel byte is reserved in input text.
  EXPECT_FALSE(server::RewritePlaceholders("SELECT '\x01$1';", &n).ok());
  // Parameter indexes are bounded.
  EXPECT_FALSE(
      server::RewritePlaceholders("SELECT * FROM R WHERE a = $1000;", &n)
          .ok());
}

// ---- Admission classification and bounds ---------------------------------

TEST(Admission, EstimatesFromPopcountHistograms) {
  auto table = testing::Figure1TableR();  // 7 rows; Jones x3, Ellis x2
  auto eq = [](const char* col, const char* v) {
    return Expr::Compare(col, CompareOp::kEq, Value(v));
  };
  EXPECT_EQ(server::EstimateExprRows(*table, eq("Employee", "Jones")), 3u);
  EXPECT_EQ(server::EstimateExprRows(*table, eq("Employee", "Nobody")), 0u);
  EXPECT_EQ(server::EstimateExprRows(
                *table, Expr::Not(eq("Employee", "Jones"))),
            4u);
  {
    std::vector<ExprPtr> both;
    both.push_back(eq("Employee", "Jones"));
    both.push_back(eq("Skill", "Typing"));
    EXPECT_EQ(server::EstimateExprRows(*table, Expr::And(std::move(both))),
              1u);  // min(3, 1)
  }
  {
    std::vector<ExprPtr> either;
    either.push_back(eq("Employee", "Jones"));
    either.push_back(eq("Employee", "Ellis"));
    EXPECT_EQ(server::EstimateExprRows(*table, Expr::Or(std::move(either))),
              5u);  // 3 + 2
  }
  // Unknown column: conservative full-table estimate.
  EXPECT_EQ(server::EstimateExprRows(*table, eq("Nope", "x")), 7u);
  // Null where: full table.
  EXPECT_EQ(server::EstimateExprRows(*table, nullptr), 7u);
}

TEST(Admission, ClassifyStatement) {
  Catalog seed;
  CODS_CHECK_OK(seed.AddTable(testing::Figure1TableR()));
  SnapshotCatalog serving;
  serving.Reset(seed);
  Snapshot snap = serving.GetSnapshot();

  auto classify = [&](const std::string& text, uint64_t threshold) {
    auto stmt = ParseStatement(text);
    CODS_CHECK(stmt.ok()) << stmt.status().ToString();
    return server::ClassifyStatement(stmt.ValueOrDie(), snap.root(),
                                     threshold);
  };
  // SMOs and analytic shapes are heavy regardless of estimates.
  EXPECT_EQ(classify("DROP COLUMN Address FROM R;", 1 << 20), Lane::kHeavy);
  EXPECT_EQ(classify("SELECT Employee, COUNT(*) FROM R GROUP BY Employee;",
                     1 << 20),
            Lane::kHeavy);
  EXPECT_EQ(classify("SELECT * FROM R ORDER BY Employee;", 1 << 20),
            Lane::kHeavy);
  EXPECT_EQ(classify("SELECT * FROM R;", 1 << 20), Lane::kHeavy);
  // A bare COUNT is O(1) on the row count: point.
  EXPECT_EQ(classify("SELECT COUNT(*) FROM R;", 1), Lane::kPoint);
  // Threshold splits on the estimate (Jones matches 3 rows).
  const std::string jones =
      "SELECT COUNT(*) FROM R WHERE Employee = 'Jones';";
  uint64_t est = 0;
  auto stmt = ParseStatement(jones).ValueOrDie();
  EXPECT_EQ(server::ClassifyStatement(stmt, snap.root(), 10, &est),
            Lane::kPoint);
  EXPECT_EQ(est, 3u);
  EXPECT_EQ(server::ClassifyStatement(stmt, snap.root(), 2, &est),
            Lane::kHeavy);
  // Unknown table: point (it fails fast at execution).
  EXPECT_EQ(classify("SELECT COUNT(*) FROM Nope WHERE a = 1;", 1),
            Lane::kPoint);
}

// A batch group's SELECTs project the group's one shared selection
// through QueryEngine::ProjectSelection: each answer equals the
// statement executed alone — rows, compact dictionaries, code words and
// error text alike.
TEST(Batch, SharedSelectionProjectsLikeTheEngine) {
  Catalog catalog;
  CODS_CHECK_OK(catalog.AddTable(testing::RandomFdTable(2000, 300, 11)));
  auto where = [] {
    return Expr::In("K", {Value(int64_t{5}), Value(int64_t{77}),
                          Value(int64_t{299})});
  };
  const std::vector<QueryRequest> requests = {
      QueryRequest::Select("R", {"K", "V"}, where(), "a"),
      QueryRequest::Select("R", {"P"}, where(), "b"),
      QueryRequest::Count("R", where()),
      QueryRequest::Select("R", {"K", "V"}, where(), "a"),
      QueryRequest::Select("R", {"K", "R.K"}, where(), "dup"),
  };
  std::vector<const QueryRequest*> batch;
  for (const QueryRequest& q : requests) batch.push_back(&q);
  server::BatchStats stats;
  std::vector<server::BatchOutcome> outcomes =
      server::ExecuteQueryBatch(catalog, batch, nullptr, &stats);
  ASSERT_EQ(outcomes.size(), requests.size());
  EXPECT_EQ(stats.shared_groups, 1u);
  EXPECT_EQ(stats.batch_hits, requests.size() - 1);
  QueryEngine engine(&catalog);
  for (size_t i = 0; i < requests.size(); ++i) {
    Result<QueryResult> alone = engine.Execute(requests[i]);
    ASSERT_EQ(outcomes[i].status.ok(), alone.ok()) << i;
    if (!alone.ok()) {
      EXPECT_EQ(outcomes[i].status.ToString(), alone.status().ToString());
      continue;
    }
    if (requests[i].verb == QueryRequest::Verb::kCount) {
      EXPECT_EQ(outcomes[i].result.count, alone->count);
      continue;
    }
    const Table& shared = *outcomes[i].result.table;
    const Table& own = *alone->table;
    ASSERT_GT(own.rows(), 0u);
    EXPECT_EQ(shared.schema().ToString(), own.schema().ToString()) << i;
    ASSERT_EQ(shared.num_columns(), own.num_columns());
    for (size_t c = 0; c < own.num_columns(); ++c) {
      EXPECT_EQ(shared.column(c)->dict().values(),
                own.column(c)->dict().values())
          << i << " col " << c;
      EXPECT_EQ(shared.column(c)->bitmaps(), own.column(c)->bitmaps())
          << i << " col " << c;
    }
  }
}

TEST(Admission, BoundedQueueBackpressureAndDrain) {
  std::mutex mu;
  std::condition_variable cv;
  bool entered = false;
  bool release = false;
  std::atomic<int> ran{0};

  AdmissionOptions options;
  options.point_workers = 1;
  options.heavy_workers = 1;
  options.queue_limit = 2;
  options.max_batch = 1;
  AdmissionController ctrl(
      [&](Lane, std::vector<AdmissionTask> tasks) {
        {
          std::unique_lock<std::mutex> lk(mu);
          entered = true;
          cv.notify_all();
          cv.wait(lk, [&] { return release; });
        }
        ran += static_cast<int>(tasks.size());
      },
      options);

  auto task = [] {
    return AdmissionTask{std::make_shared<int>(0),
                         std::chrono::steady_clock::time_point::max()};
  };
  ASSERT_TRUE(ctrl.Submit(Lane::kPoint, task()).ok());
  {
    // Wait for the single point worker to pull the task and block.
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return entered; });
  }
  ASSERT_TRUE(ctrl.Submit(Lane::kPoint, task()).ok());
  ASSERT_TRUE(ctrl.Submit(Lane::kPoint, task()).ok());
  // Queue is at its limit of 2: backpressure, not an unbounded queue.
  Status full = ctrl.Submit(Lane::kPoint, task());
  EXPECT_TRUE(full.IsUnavailable()) << full.ToString();
  // The heavy lane has its own queue and worker budget.
  EXPECT_TRUE(ctrl.Submit(Lane::kHeavy, task()).ok());

  {
    std::unique_lock<std::mutex> lk(mu);
    release = true;
    cv.notify_all();
  }
  ctrl.Drain();
  EXPECT_EQ(ran.load(), 4);  // 3 point + 1 heavy; the rejected one never ran

  // After Drain, intake stays closed.
  EXPECT_TRUE(ctrl.Submit(Lane::kPoint, task()).IsUnavailable());

  server::AdmissionStats stats = ctrl.GetStats();
  EXPECT_EQ(stats.point.submitted, 3u);
  EXPECT_EQ(stats.point.rejected_full, 1u);
  EXPECT_EQ(stats.point.executed, 3u);
  EXPECT_EQ(stats.heavy.executed, 1u);
}

// ---- Loopback integration -------------------------------------------------

// An in-process server over a DurableDb in a fresh temp directory,
// seeded the way `cods_shell .load` loads tables: a raw versions()->Apply
// per table, then a checkpoint (loads are not WAL-replayable).
struct TestServer {
  explicit TestServer(server::ServerOptions options = {},
                      bool with_big_table = false) {
    static std::atomic<int> instances{0};
    dir = ::testing::TempDir() + "cods_test_server_" +
          std::to_string(::getpid()) + "_" + std::to_string(instances++);
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    auto opened = DurableDb::Open(Env::Default(), dir);
    CODS_CHECK(opened.ok()) << opened.status().ToString();
    db = std::move(opened).ValueOrDie();

    std::vector<std::shared_ptr<const Table>> seed = {
        testing::Figure1TableR()};
    if (with_big_table) {
      WorkloadSpec spec;
      spec.num_rows = 20'000;
      spec.num_distinct = 2'000;
      auto big = GenerateEvolutionTable(spec, "B");
      CODS_CHECK(big.ok()) << big.status().ToString();
      seed.push_back(big.ValueOrDie());
    }
    for (const auto& table : seed) {
      CODS_CHECK_OK(db->versions()->Apply(
          [&](TableStore& store) { return store.AddTable(table); }));
    }
    CODS_CHECK_OK(db->Checkpoint());
    options.port = 0;
    srv = std::make_unique<server::Server>(db.get(), options);
    CODS_CHECK_OK(srv->Start());
  }
  ~TestServer() {
    srv->Shutdown();
    srv.reset();
    db.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }

  std::unique_ptr<Client> Connect() {
    auto client = Client::Connect("127.0.0.1", srv->port());
    CODS_CHECK(client.ok()) << client.status().ToString();
    return std::move(client).ValueOrDie();
  }

  std::string dir;
  std::unique_ptr<DurableDb> db;
  std::unique_ptr<server::Server> srv;
};

TEST(Server, HelloPingGoodbye) {
  TestServer ts;
  auto a = ts.Connect();
  EXPECT_NE(a->session_id(), 0u);
  EXPECT_TRUE(a->Ping().ok());
  auto b = ts.Connect();
  EXPECT_NE(b->session_id(), a->session_id());
  a->Close();
  EXPECT_TRUE(b->Ping().ok());  // unaffected by a's goodbye
}

TEST(Server, ExecutesStatementsOverLoopback) {
  TestServer ts;
  auto client = ts.Connect();

  auto count = client->Execute(
      "SELECT COUNT(*) FROM R WHERE Employee = 'Jones';");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  ASSERT_EQ(count.ValueOrDie().type, FrameType::kResultCount)
      << server::FormatWireResponse(count.ValueOrDie());
  EXPECT_EQ(count.ValueOrDie().count, 3u);

  auto select = client->Execute(
      "SELECT Employee, Skill FROM R WHERE Address = '425 Grant Ave';");
  ASSERT_TRUE(select.ok()) << select.status().ToString();
  ASSERT_EQ(select.ValueOrDie().type, FrameType::kResultTable);
  EXPECT_EQ(select.ValueOrDie().columns,
            (std::vector<std::string>{"Employee", "Skill"}));
  EXPECT_EQ(select.ValueOrDie().rows.size(), 4u);

  auto groups = client->Execute(
      "SELECT Employee, COUNT(*) FROM R GROUP BY Employee;");
  ASSERT_TRUE(groups.ok()) << groups.status().ToString();
  ASSERT_EQ(groups.ValueOrDie().type, FrameType::kResultGroups);
  EXPECT_EQ(groups.ValueOrDie().group_rows.size(), 4u);  // 4 employees

  // An SMO through the wire becomes visible to the next statement.
  auto smo = client->Execute("ADD COLUMN Pay INT64 TO R DEFAULT 7;");
  ASSERT_TRUE(smo.ok()) << smo.status().ToString();
  ASSERT_EQ(smo.ValueOrDie().type, FrameType::kResultOk)
      << server::FormatWireResponse(smo.ValueOrDie());
  auto paid = client->Execute("SELECT COUNT(*) FROM R WHERE Pay = 7;");
  ASSERT_TRUE(paid.ok()) << paid.status().ToString();
  EXPECT_EQ(paid.ValueOrDie().count, 7u);
}

TEST(Server, StatementErrorsAreTypedNotFatal) {
  TestServer ts;
  auto client = ts.Connect();

  auto missing = client->Execute("SELECT COUNT(*) FROM Nope;");
  ASSERT_TRUE(missing.ok()) << missing.status().ToString();
  ASSERT_EQ(missing.ValueOrDie().type, FrameType::kError);
  EXPECT_TRUE(missing.ValueOrDie().error.IsKeyError())
      << missing.ValueOrDie().error.ToString();

  auto garbage = client->Execute("FROBNICATE THE BITS;");
  ASSERT_TRUE(garbage.ok()) << garbage.status().ToString();
  ASSERT_EQ(garbage.ValueOrDie().type, FrameType::kError);

  // The session survives statement errors.
  auto ok = client->Execute("SELECT COUNT(*) FROM R;");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok.ValueOrDie().count, 7u);
}

// Compatible pipelined statements against the same root share one
// compressed eval; the counters prove it. The admission workers run on
// the shared pool, so holding every pool thread until all 32 statements
// are admitted makes the point worker find them queued together (two
// max_batch batches of 16) — no dependence on timing.
TEST(Server, PipelinedStatementsShareEvals) {
  server::ServerOptions options;
  TestServer ts(options);
  auto client = ts.Connect();
  constexpr uint64_t kStatements = 32;

  ThreadPool* pool =
      SharedPool(std::max(1, options.point_workers + options.heavy_workers));
  const int held = pool->num_threads();
  std::mutex mu;
  std::condition_variable cv;
  int holding = 0;
  bool release = false;
  for (int i = 0; i < held; ++i) {
    pool->Submit([&] {
      std::unique_lock<std::mutex> lock(mu);
      ++holding;
      cv.notify_all();
      cv.wait(lock, [&] { return release; });
      --holding;
      cv.notify_all();
    });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return holding == held; });
  }
  std::thread releaser([&] {
    // The deadline only bounds a failing run (a statement never
    // admitted); a passing run releases as soon as all 32 are queued.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (ts.srv->GetStats().admission.point.submitted < kStatements &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::lock_guard<std::mutex> lock(mu);
    release = true;
    cv.notify_all();
  });
  std::vector<std::string> texts(
      kStatements, "SELECT COUNT(*) FROM R WHERE Employee = 'Jones';");
  auto responses = client->ExecuteBatch(texts);
  releaser.join();
  {
    // The holders touch this frame's mutex until they leave.
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return holding == 0; });
  }
  ASSERT_TRUE(responses.ok()) << responses.status().ToString();
  for (const WireResponse& resp : responses.ValueOrDie()) {
    ASSERT_EQ(resp.type, FrameType::kResultCount)
        << server::FormatWireResponse(resp);
    EXPECT_EQ(resp.count, 3u);
  }
  const server::ServerStats stats = ts.srv->GetStats();
  EXPECT_EQ(stats.admission.point.batches, kStatements / options.max_batch);
  EXPECT_GT(stats.batch.batch_hits, 0u)
      << "pipelined identical statements never shared";
}

TEST(Server, PreparedStatements) {
  TestServer ts;
  auto client = ts.Connect();

  auto prep = client->Prepare(
      "SELECT COUNT(*) FROM R WHERE Employee = $1;");
  ASSERT_TRUE(prep.ok()) << prep.status().ToString();
  ASSERT_EQ(prep.ValueOrDie().type, FrameType::kPrepareOk)
      << server::FormatWireResponse(prep.ValueOrDie());
  EXPECT_EQ(prep.ValueOrDie().n_params, 1u);
  uint64_t stmt_id = prep.ValueOrDie().stmt_id;

  auto jones = client->ExecutePrepared(stmt_id, {Value("Jones")});
  ASSERT_TRUE(jones.ok()) << jones.status().ToString();
  ASSERT_EQ(jones.ValueOrDie().type, FrameType::kResultCount)
      << server::FormatWireResponse(jones.ValueOrDie());
  EXPECT_EQ(jones.ValueOrDie().count, 3u);
  auto ellis = client->ExecutePrepared(stmt_id, {Value("Ellis")});
  ASSERT_TRUE(ellis.ok());
  EXPECT_EQ(ellis.ValueOrDie().count, 2u);

  // Arity mismatch and unknown ids are typed errors.
  auto none = client->ExecutePrepared(stmt_id, {});
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(none.ValueOrDie().type, FrameType::kError);
  auto unknown = client->ExecutePrepared(9999, {Value("x")});
  ASSERT_TRUE(unknown.ok());
  EXPECT_EQ(unknown.ValueOrDie().type, FrameType::kError);
  EXPECT_TRUE(unknown.ValueOrDie().error.IsKeyError());

  // SMOs do not take parameters.
  auto smo = client->Prepare("DROP COLUMN $1 FROM R;");
  ASSERT_TRUE(smo.ok());
  EXPECT_EQ(smo.ValueOrDie().type, FrameType::kError);

  auto closed = client->ClosePrepared(stmt_id);
  ASSERT_TRUE(closed.ok());
  EXPECT_EQ(closed.ValueOrDie().type, FrameType::kResultOk);
  auto after = client->ExecutePrepared(stmt_id, {Value("Jones")});
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.ValueOrDie().type, FrameType::kError);
}

// Satellite (d): a prepared statement never answers from a stale
// resolution after the schema evolves. Unrelated evolution re-resolves
// silently; dropping or renaming a referenced column is a typed error.
TEST(Server, PreparedInvalidationAcrossSchemaEvolution) {
  TestServer ts;
  auto client = ts.Connect();

  auto prep =
      client->Prepare("SELECT COUNT(*) FROM R WHERE Address = $1;");
  ASSERT_TRUE(prep.ok()) << prep.status().ToString();
  ASSERT_EQ(prep.ValueOrDie().type, FrameType::kPrepareOk)
      << server::FormatWireResponse(prep.ValueOrDie());
  uint64_t stmt_id = prep.ValueOrDie().stmt_id;

  auto before =
      client->ExecutePrepared(stmt_id, {Value("425 Grant Ave")});
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before.ValueOrDie().type, FrameType::kResultCount);
  EXPECT_EQ(before.ValueOrDie().count, 4u);

  // Unrelated evolution: the entry re-resolves silently on the new root
  // and keeps answering correctly.
  auto unrelated = client->Execute("ADD COLUMN Grade INT64 TO R DEFAULT 1;");
  ASSERT_TRUE(unrelated.ok());
  ASSERT_EQ(unrelated.ValueOrDie().type, FrameType::kResultOk);
  auto still = client->ExecutePrepared(stmt_id, {Value("425 Grant Ave")});
  ASSERT_TRUE(still.ok());
  ASSERT_EQ(still.ValueOrDie().type, FrameType::kResultCount)
      << server::FormatWireResponse(still.ValueOrDie());
  EXPECT_EQ(still.ValueOrDie().count, 4u);

  // Renaming the referenced column invalidates: typed error, never a
  // stale answer.
  auto rename = client->Execute("RENAME COLUMN Address TO Addr IN R;");
  ASSERT_TRUE(rename.ok());
  ASSERT_EQ(rename.ValueOrDie().type, FrameType::kResultOk);
  auto stale = client->ExecutePrepared(stmt_id, {Value("425 Grant Ave")});
  ASSERT_TRUE(stale.ok());
  ASSERT_EQ(stale.ValueOrDie().type, FrameType::kError)
      << server::FormatWireResponse(stale.ValueOrDie());
  EXPECT_TRUE(stale.ValueOrDie().error.IsKeyError())
      << stale.ValueOrDie().error.ToString();
  EXPECT_NE(stale.ValueOrDie().error.ToString().find("invalidated"),
            std::string::npos)
      << stale.ValueOrDie().error.ToString();

  // Re-preparing against the new schema works.
  auto reprep = client->Prepare("SELECT COUNT(*) FROM R WHERE Addr = $1;");
  ASSERT_TRUE(reprep.ok());
  ASSERT_EQ(reprep.ValueOrDie().type, FrameType::kPrepareOk);
  auto fresh = client->ExecutePrepared(reprep.ValueOrDie().stmt_id,
                                       {Value("425 Grant Ave")});
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh.ValueOrDie().count, 4u);

  // Dropping the column invalidates the re-prepared entry too.
  auto drop = client->Execute("DROP COLUMN Addr FROM R;");
  ASSERT_TRUE(drop.ok());
  ASSERT_EQ(drop.ValueOrDie().type, FrameType::kResultOk);
  auto dropped = client->ExecutePrepared(reprep.ValueOrDie().stmt_id,
                                         {Value("425 Grant Ave")});
  ASSERT_TRUE(dropped.ok());
  ASSERT_EQ(dropped.ValueOrDie().type, FrameType::kError);
  EXPECT_TRUE(dropped.ValueOrDie().error.IsKeyError());
}

// Satellite (c), live-socket half: hostile bytes get a typed error and
// a clean close; the server survives and keeps serving new sessions.
TEST(Server, HostileBytesCloseConnectionCleanly) {
  TestServer ts;

  {
    // An HTTP request's first bytes decode as an absurd length prefix.
    auto victim = ts.Connect();
    ASSERT_TRUE(victim->SendRaw("GET / HTTP/1.1\r\nHost: x\r\n\r\n").ok());
    auto resp = victim->ReceiveAny();
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_EQ(resp.ValueOrDie().type, FrameType::kError);
    // The server closes after flushing the error.
    auto eof = victim->ReceiveAny();
    EXPECT_FALSE(eof.ok());
  }
  {
    // A CRC flip is a typed corruption error.
    auto victim = ts.Connect();
    std::string ping = server::EncodePing(5);
    ping[ping.size() - 1] =
        static_cast<char>(ping[ping.size() - 1] ^ 0x20);
    ASSERT_TRUE(victim->SendRaw(ping).ok());
    auto resp = victim->ReceiveAny();
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    ASSERT_EQ(resp.ValueOrDie().type, FrameType::kError);
    EXPECT_TRUE(resp.ValueOrDie().error.IsCorruption())
        << resp.ValueOrDie().error.ToString();
    EXPECT_FALSE(victim->ReceiveAny().ok());
  }

  // The server is unharmed.
  auto fresh = ts.Connect();
  EXPECT_TRUE(fresh->Ping().ok());
  EXPECT_GE(ts.srv->GetStats().protocol_errors, 2u);
}

// A statement nesting 100 000 NOTs (400 KB, well under the frame limit)
// is parsed on the event-loop thread; it must come back as a typed
// error, not overflow the stack, and other sessions keep being served.
TEST(Server, DeeplyNestedWhereIsATypedErrorNotACrash) {
  TestServer ts;
  auto bystander = ts.Connect();
  auto hostile = ts.Connect();
  std::string nots;
  for (int i = 0; i < 100'000; ++i) nots += "NOT ";
  std::string parens(100'000, '(');
  const std::string attacks[] = {
      "SELECT COUNT(*) FROM R WHERE " + nots + "Employee = 'Jones';",
      "SELECT COUNT(*) FROM R WHERE " + parens + "Employee = 'Jones';"};
  for (const std::string& attack : attacks) {
    auto resp = hostile->Execute(attack);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    ASSERT_EQ(resp.ValueOrDie().type, FrameType::kError)
        << server::FormatWireResponse(resp.ValueOrDie());
    EXPECT_TRUE(resp.ValueOrDie().error.IsInvalidArgument())
        << resp.ValueOrDie().error.ToString();
    EXPECT_NE(resp.ValueOrDie().error.message().find("nesting exceeds"),
              std::string::npos)
        << resp.ValueOrDie().error.ToString();
    auto count =
        bystander->Execute("SELECT COUNT(*) FROM R WHERE Employee = 'Jones';");
    ASSERT_TRUE(count.ok()) << count.status().ToString();
    EXPECT_EQ(count.ValueOrDie().count, 3u);
  }
  // The hostile session itself stays usable too.
  auto again = hostile->Execute("SELECT COUNT(*) FROM R;");
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again.ValueOrDie().count, 7u);
}

// A result larger than the frame limit would make the peer drop the
// whole connection as a protocol error. The server answers just that
// statement with a typed error naming the size and the limit; the
// session and its bystanders keep being served.
TEST(Server, OversizedResultIsATypedErrorNotADroppedConnection) {
  server::ServerOptions options;
  options.max_frame_bytes = 4096;
  TestServer ts(options, /*with_big_table=*/true);
  auto bystander = ts.Connect();
  auto hostile = ts.Connect();

  auto resp = hostile->Execute("SELECT * FROM B;");
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  ASSERT_EQ(resp.ValueOrDie().type, FrameType::kError)
      << server::FormatWireResponse(resp.ValueOrDie());
  const Status& error = resp.ValueOrDie().error;
  EXPECT_TRUE(error.IsOutOfRange()) << error.ToString();
  EXPECT_NE(error.message().find("exceeds the frame limit of 4096 bytes"),
            std::string::npos)
      << error.ToString();
  EXPECT_NE(error.message().find("result frame of "), std::string::npos)
      << error.ToString();

  // The same session's next statement is answered.
  auto small = hostile->Execute("SELECT COUNT(*) FROM R;");
  ASSERT_TRUE(small.ok()) << small.status().ToString();
  EXPECT_EQ(small.ValueOrDie().count, 7u);
  // A result under the limit still goes out whole.
  auto groups = hostile->Execute("SELECT Employee, COUNT(*) FROM R "
                                 "GROUP BY Employee;");
  ASSERT_TRUE(groups.ok()) << groups.status().ToString();
  EXPECT_EQ(groups.ValueOrDie().type, FrameType::kResultGroups);
  // The bystander keeps being served.
  auto count =
      bystander->Execute("SELECT COUNT(*) FROM R WHERE Employee = 'Jones';");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(count.ValueOrDie().count, 3u);
  EXPECT_EQ(ts.srv->GetStats().protocol_errors, 0u);
}

// Satellite (c), fuzz half: seeded garbage blasted at raw sockets (no
// handshake) never crashes or wedges the server.
TEST(Server, SeededSocketFuzzLoop) {
  TestServer ts;
  std::mt19937 rng(0xFADEu);
  for (int iter = 0; iter < 30; ++iter) {
    int fd = socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr;
    memset(&addr, 0, sizeof addr);
    addr.sin_family = AF_INET;
    addr.sin_port = htons(ts.srv->port());
    ASSERT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
              0);
    size_t len = 1 + rng() % 128;
    std::string garbage(len, '\0');
    for (char& c : garbage) c = static_cast<char>(rng());
    (void)send(fd, garbage.data(), garbage.size(), MSG_NOSIGNAL);
    close(fd);
  }
  // Still serving after the storm.
  auto client = ts.Connect();
  EXPECT_TRUE(client->Ping().ok());
  auto count = client->Execute("SELECT COUNT(*) FROM R;");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(count.ValueOrDie().count, 7u);
}

// The acceptance's directed starvation test: a heavy-analytic flood
// saturating the heavy lane cannot keep point statements from
// answering well within their timeout.
TEST(Server, HeavyFloodDoesNotStarvePointQueries) {
  server::ServerOptions options;
  options.point_workers = 1;
  options.heavy_workers = 1;
  options.statement_timeout_ms = 30'000;
  TestServer ts(options, /*with_big_table=*/true);

  auto flooder = ts.Connect();
  std::vector<uint64_t> flood_ids;
  std::string flood;
  for (int i = 0; i < 48; ++i) {
    flood_ids.push_back(flooder->NextRequestId());
    flood += server::EncodeExecute(flood_ids.back(),
                                   "SELECT K, COUNT(*) FROM B GROUP BY K;");
  }
  ASSERT_TRUE(flooder->SendRaw(flood).ok());

  // While the heavy lane chews, point statements keep flowing.
  auto pointer = ts.Connect();
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 10; ++i) {
    auto resp = pointer->Execute(
        "SELECT COUNT(*) FROM R WHERE Employee = 'Jones';");
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    ASSERT_EQ(resp.ValueOrDie().type, FrameType::kResultCount)
        << server::FormatWireResponse(resp.ValueOrDie());
    EXPECT_EQ(resp.ValueOrDie().count, 3u);
  }
  double point_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  EXPECT_LT(point_ms, 10'000.0)
      << "point statements queued behind the heavy flood";

  for (uint64_t id : flood_ids) {
    auto resp = flooder->ReceiveFor(id);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_EQ(resp.ValueOrDie().type, FrameType::kResultGroups)
        << server::FormatWireResponse(resp.ValueOrDie());
  }
  EXPECT_EQ(ts.srv->GetStats().statements_timed_out, 0u);
  EXPECT_GE(ts.srv->GetStats().admission.heavy.submitted, 48u);
}

// Statements still queued past their deadline answer kTimedOut instead
// of executing late.
TEST(Server, QueuedStatementsTimeOut) {
  server::ServerOptions options;
  options.point_workers = 1;
  options.heavy_workers = 1;
  options.max_batch = 1;
  options.statement_timeout_ms = 1;
  TestServer ts(options, /*with_big_table=*/true);

  auto client = ts.Connect();
  std::vector<uint64_t> ids;
  std::string out;
  for (int i = 0; i < 60; ++i) {
    ids.push_back(client->NextRequestId());
    out += server::EncodeExecute(ids.back(),
                                 "SELECT K, COUNT(*) FROM B GROUP BY K;");
  }
  ASSERT_TRUE(client->SendRaw(out).ok());

  int timed_out = 0;
  for (uint64_t id : ids) {
    auto resp = client->ReceiveFor(id);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    if (resp.ValueOrDie().type == FrameType::kError) {
      EXPECT_TRUE(resp.ValueOrDie().error.IsTimedOut())
          << resp.ValueOrDie().error.ToString();
      ++timed_out;
    }
  }
  EXPECT_GT(timed_out, 0) << "1ms deadline never fired across 60 queued "
                             "heavy statements";
  EXPECT_EQ(ts.srv->GetStats().statements_timed_out,
            static_cast<uint64_t>(timed_out));
}

// Responses larger than the socket buffers, queued while the client is
// not reading: the server drains them by partial sends under
// backpressure, and every byte arrives in order — each pipelined answer
// equals the one a lone request gets.
TEST(Server, LargeResultsDrainInOrderUnderBackpressure) {
  TestServer ts({}, /*with_big_table=*/true);
  auto client = ts.Connect();
  auto want = client->Execute("SELECT * FROM B;");
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_EQ(want.ValueOrDie().type, FrameType::kResultTable);
  ASSERT_EQ(want.ValueOrDie().rows.size(), 20'000u);
  std::vector<uint64_t> ids;
  std::string out;
  for (int i = 0; i < 12; ++i) {
    ids.push_back(client->NextRequestId());
    out += server::EncodeExecute(ids.back(), "SELECT * FROM B;");
  }
  ASSERT_TRUE(client->SendRaw(out).ok());
  // Let the answers pile up in the server's write buffer.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  for (uint64_t id : ids) {
    auto resp = client->ReceiveFor(id);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    ASSERT_EQ(resp.ValueOrDie().type, FrameType::kResultTable);
    EXPECT_EQ(resp.ValueOrDie().rows, want.ValueOrDie().rows) << id;
  }
  EXPECT_EQ(ts.srv->GetStats().protocol_errors, 0u);
}

// One send far past the session's in-flight cap: frames beyond the cap
// wait in the read buffer until answers free slots, so none overflows
// the lane queue (which alone would answer kUnavailable). The WHEREs
// differ, so no batch shares an eval, and each costs more to run than to
// admit.
TEST(Server, PipelinedBurstPastTheSessionCapIsAdmittedInTurn) {
  server::ServerOptions options;
  options.session_queue_limit = 4;
  options.lane_queue_limit = 8;
  TestServer ts(options, /*with_big_table=*/true);
  auto client = ts.Connect();
  constexpr int kStatements = 200;
  std::vector<uint64_t> ids;
  std::vector<uint64_t> want;
  std::string out;
  for (int i = 0; i < kStatements; ++i) {
    const std::string where = "K >= " + std::to_string(i * 7);
    auto alone = client->Execute("SELECT COUNT(*) FROM B WHERE " + where + ";");
    ASSERT_TRUE(alone.ok()) << alone.status().ToString();
    want.push_back(alone.ValueOrDie().count);
    ids.push_back(client->NextRequestId());
    out += server::EncodeExecute(
        ids.back(), "SELECT COUNT(*) FROM B WHERE " + where + ";");
  }
  ASSERT_TRUE(client->SendRaw(out).ok());
  for (size_t i = 0; i < ids.size(); ++i) {
    auto resp = client->ReceiveFor(ids[i]);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    ASSERT_EQ(resp.ValueOrDie().type, FrameType::kResultCount)
        << server::FormatWireResponse(resp.ValueOrDie());
    EXPECT_EQ(resp.ValueOrDie().count, want[i]);
  }
}

// A session pins no snapshot between statements, so the version a
// commit retires is freed by the writer before its ack, not by some
// reader's next statement: once DROP TABLE is acked, the dropped table
// is gone, whoever else is connected.
TEST(Server, RetiredVersionsDieOnTheWriterNotOnTheNextRead) {
  TestServer ts({}, /*with_big_table=*/true);
  auto idle = ts.Connect();
  auto reader = ts.Connect();
  auto writer = ts.Connect();

  auto count = reader->Execute("SELECT COUNT(*) FROM B;");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  ASSERT_EQ(count.ValueOrDie().type, FrameType::kResultCount)
      << server::FormatWireResponse(count.ValueOrDie());
  EXPECT_EQ(count.ValueOrDie().count, 20'000u);

  // The reader's batch drops its pin after answering; no session keeps
  // one.
  const SnapshotCatalog* serving = ts.db->versions()->serving();
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (serving->GetStats().live_pins != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(serving->GetStats().live_pins, 0);

  std::weak_ptr<const Table> b;
  {
    Snapshot snap = ts.db->GetSnapshot();
    b = snap.root().Lookup("B");
  }
  ASSERT_FALSE(b.expired());

  auto dropped = writer->Execute("DROP TABLE B;");
  ASSERT_TRUE(dropped.ok()) << dropped.status().ToString();
  ASSERT_EQ(dropped.ValueOrDie().type, FrameType::kResultOk)
      << server::FormatWireResponse(dropped.ValueOrDie());
  EXPECT_TRUE(b.expired()) << "a session still pins the retired root";

  auto gone = reader->Execute("SELECT COUNT(*) FROM B;");
  ASSERT_TRUE(gone.ok()) << gone.status().ToString();
  ASSERT_EQ(gone.ValueOrDie().type, FrameType::kError)
      << server::FormatWireResponse(gone.ValueOrDie());
  EXPECT_TRUE(gone.ValueOrDie().error.IsKeyError())
      << gone.ValueOrDie().error.ToString();
  auto r = reader->Execute("SELECT COUNT(*) FROM R;");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.ValueOrDie().count, 7u);
}

// A client that pipelines statements and never reads its answers: an
// in-flight slot is released when its answer is queued, so without an
// output bound the server would keep reading, executing and buffering
// for as long as the client keeps sending. With one frame's worth of
// answers unsent the loop stops reading that socket; the rest of the
// client's statements wait in TCP, the statements executed stop
// growing, and other sessions are served throughout.
TEST(Server, PipeliningClientThatNeverReadsIsBounded) {
  server::ServerOptions options;
  options.max_frame_bytes = 4096;
  TestServer ts(options);
  auto bystander = ts.Connect();

  int fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  int rcvbuf = 4096;  // keep the kernel from absorbing many answers
  setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
  sockaddr_in addr;
  memset(&addr, 0, sizeof addr);
  addr.sin_family = AF_INET;
  addr.sin_port = htons(ts.srv->port());
  ASSERT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  ASSERT_EQ(fcntl(fd, F_SETFL, fcntl(fd, F_GETFL, 0) | O_NONBLOCK), 0);

  // Each answer (all 7 rows of R) is a few hundred bytes.
  constexpr size_t kStatements = 100'000;
  std::string out;
  for (size_t i = 0; i < kStatements; ++i) {
    out += server::EncodeExecute(i + 1, "SELECT * FROM R;");
  }
  size_t sent = 0;
  while (sent < out.size()) {
    ssize_t n = send(fd, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    ASSERT_TRUE(n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
        << strerror(errno);
    pollfd p{fd, POLLOUT, 0};
    if (poll(&p, 1, 500) == 0) break;  // the server stopped reading
  }

  // Executions stop growing once the answers fill the socket buffers
  // and one frame's worth of wbuf.
  uint64_t executed = 0;
  int stable = 0;
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (stable < 5 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    uint64_t now = ts.srv->GetStats().statements_ok;
    stable = now == executed ? stable + 1 : 0;
    executed = now;
  }
  // What runs is what fits in the kernel's socket buffers (about 6.5k
  // answers on a 4 MB tcp_wmem host) plus one frame's worth of wbuf and
  // one read; without the bound all 100k execute.
  EXPECT_EQ(stable, 5) << "executions kept growing: " << executed;
  EXPECT_LT(executed, kStatements / 4);

  auto count =
      bystander->Execute("SELECT COUNT(*) FROM R WHERE Employee = 'Jones';");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(count.ValueOrDie().count, 3u);
  close(fd);
}

// Graceful shutdown: every admitted statement executes, every response
// flushes, and an acked SMO is crash-durable across reopen.
TEST(Server, GracefulShutdownDrainsAndPersistsAckedCommits) {
  std::string dir = ::testing::TempDir() + "cods_server_shutdown";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  Env* env = Env::Default();

  auto db = DurableDb::Open(env, dir);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  server::ServerOptions options;
  auto srv = std::make_unique<server::Server>(db.ValueOrDie().get(), options);
  ASSERT_TRUE(srv->Start().ok());

  auto client = Client::Connect("127.0.0.1", srv->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  Client* c = client.ValueOrDie().get();

  // An acked SMO: by the time the response arrives, the WAL commit has
  // been fsync'd (DurableDb's contract), so shutdown must not lose it.
  auto created = c->Execute("CREATE TABLE Durable (a INT64, b STRING);");
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  ASSERT_EQ(created.ValueOrDie().type, FrameType::kResultOk)
      << server::FormatWireResponse(created.ValueOrDie());

  // Pipeline statements, wait until all are admitted, then shut down:
  // drain must answer every one of them before the socket closes.
  std::vector<uint64_t> ids;
  std::string out;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(c->NextRequestId());
    out +=
        server::EncodeExecute(ids.back(), "SELECT COUNT(*) FROM Durable;");
  }
  ASSERT_TRUE(c->SendRaw(out).ok());
  for (int spin = 0; spin < 1000; ++spin) {
    server::AdmissionStats stats = srv->GetStats().admission;
    if (stats.point.submitted + stats.heavy.submitted >= 9) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  srv->Shutdown();
  for (uint64_t id : ids) {
    auto resp = c->ReceiveFor(id);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    ASSERT_EQ(resp.ValueOrDie().type, FrameType::kResultCount)
        << server::FormatWireResponse(resp.ValueOrDie());
    EXPECT_EQ(resp.ValueOrDie().count, 0u);  // Durable is empty
  }
  c->Close();
  srv.reset();

  // Reopen: the acked commit survived.
  db = DurableDb::Open(env, dir);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_TRUE(
      db.ValueOrDie()->GetSnapshot().root().HasTable("Durable"));
}

}  // namespace
}  // namespace cods
