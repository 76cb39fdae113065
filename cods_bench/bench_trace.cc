#include "bench_trace.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <thread>

#include "bench_load.h"
#include "bitmap/codec.h"
#include "concurrency/snapshot_catalog.h"
#include "durability/checkpoint.h"
#include "durability/wal.h"
#include "evolution/observer.h"
#include "query/expr.h"
#include "server/admission.h"
#include "server/batch.h"
#include "server/client.h"
#include "server/server.h"
#include "smo/parser.h"
#include "storage/serde.h"

namespace cods_bench {

namespace fs = std::filesystem;
using cods::server::FrameType;
using cods::server::WireResponse;

// ---- Tracer -----------------------------------------------------------------

int Tracer::Add(const char* name, int parent, uint64_t request,
                int64_t start_ns, int64_t end_ns) {
  spans_.push_back(Span{name, start_ns, end_ns, parent, request});
  child_ns_.push_back(0);
  if (parent >= 0 && end_ns > 0) {
    child_ns_[static_cast<size_t>(parent)] += end_ns - start_ns;
  }
  return static_cast<int>(spans_.size() - 1);
}

int Tracer::Begin(const char* name, int parent, uint64_t request) {
  return Add(name, parent, request, NowNs(), 0);
}

const char* Tracer::Intern(const std::string& name) {
  return names_.insert(name).first->c_str();
}

void Tracer::End(int id) {
  Span& s = spans_[static_cast<size_t>(id)];
  s.end_ns = NowNs();
  if (s.parent >= 0) {
    child_ns_[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
}

int64_t Tracer::SelfNs(int id) const {
  const Span& s = spans_[static_cast<size_t>(id)];
  return s.end_ns - s.start_ns - child_ns_[static_cast<size_t>(id)];
}

void Tracer::Write(const std::string& path) const {
  std::error_code ec;
  fs::create_directories(fs::path(path).parent_path(), ec);
  std::ofstream out(path);
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"spans\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i > 0 ? ",\n" : "") << "{\"id\": " << i
        << ", \"name\": " << JsonString(s.name)
        << ", \"start_ns\": " << s.start_ns - origin
        << ", \"end_ns\": " << s.end_ns - origin
        << ", \"parent\": " << s.parent << ", \"request\": " << s.request
        << ", \"self_ns\": " << SelfNs(static_cast<int>(i)) << "}";
  }
  out << "\n]}\n";
  if (!out) Die("writing the trace file " + path);
}

// ---- The probe --------------------------------------------------------------

namespace {

struct CodecCounts {
  uint64_t array = 0, wah = 0, bitset = 0, popcount = 0;
};

CodecCounts ReadCodecCounts() {
  const cods::CodecStats& s = cods::GlobalCodecStats();
  return {s.array_built.load(), s.wah_built.load(), s.bitset_built.load(),
          s.popcount_hits.load()};
}

bool DecodeOneFrame(const std::string& bytes, cods::server::Frame* frame) {
  size_t consumed = 0;
  cods::Status error;
  return cods::server::DecodeFrame(bytes, cods::server::kDefaultMaxFrameBytes,
                                   frame, &consumed, &error) ==
         cods::server::DecodeStatus::kFrame;
}

std::string Lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

// "DECOMPOSE R" + "key lookup" -> "evolution.decompose.key_lookup".
std::string StepName(const std::string& op, const std::string& step) {
  std::string out = "evolution." + Lower(op.substr(0, op.find(' '))) + '.';
  for (char c : step) out += c == ' ' ? '_' : c;
  return out;
}

double SumMs(const std::map<std::string, double>& ms, const std::string& name) {
  auto it = ms.find(name);
  return it == ms.end() ? 0.0 : it->second;
}

/// Repetitions of each probe path per statement and per SMO. Every
/// layer number is taken from the fastest repetition, the one the rest
/// of the machine disturbed least, so a layer's self time and the
/// end-to-end time it is compared with are estimated alike.
constexpr int kStmtProbeReps = 5;
constexpr int kSmoProbeReps = 9;

/// The statement shapes query.engine.<shape>_us is split by.
constexpr const char* kShapes[] = {"count", "select", "group_by", "order_by",
                                   "join"};

int ShapeOf(const cods::QueryRequest& q) {
  if (!q.join_table.empty()) return 4;
  if (q.verb == cods::QueryRequest::Verb::kCount) return 0;
  if (q.verb == cods::QueryRequest::Verb::kGroupBy) return 2;
  return q.order_by.empty() ? 1 : 3;
}

struct StatementProbe {
  // Per statement, µs.
  std::vector<double> decode, encode, parse, classify, eval, wire_e2e,
      unattributed, response_bytes, est_ratio;
  std::vector<double> engine_self[std::size(kShapes)];
  uint64_t heavy = 0;
  CodecCounts codec;
  double traced_ns = 0, untraced_ns = 0;
};

// One in-process pass of a statement through the layers, in the order
// the server calls them: frame decode, parse, pin + classify (admission
// on the event loop), pin + execute (the batch runner), result encode.
// Only the span ids and small facts outlive the pass: a kept result
// would make the next pass allocate afresh, which the server never does.
struct InProcessRun {
  int root = -1, decode = -1, parse = -1, classify = -1, engine = -1,
      encode = -1;
  cods::server::Lane lane = cods::server::Lane::kPoint;
  uint64_t est = 0;     // the admission estimate (0: none computed)
  uint64_t actual = 0;  // rows counted or returned
  size_t response_bytes = 0;
  cods::Statement stmt;
  WireResponse answer;  // the encoded response, decoded again
  CodecCounts codec;    // built during the engine span
};

InProcessRun RunInProcess(const ProbeInputs& in, const cods::ExecContext& exec,
                          const std::string& text, uint64_t req, Tracer* tr) {
  const cods::server::ServerOptions server_defaults;
  InProcessRun run;
  const std::string frame_bytes = cods::server::EncodeExecute(req, text);
  std::string response;
  {
    run.root = tr->Begin("stmt.inproc", -1, req);
    run.decode = tr->Begin("server.wire.decode", run.root, req);
    cods::server::Frame frame;
    if (!DecodeOneFrame(frame_bytes, &frame)) Die("decoding a request frame");
    auto wreq = Take(cods::server::DecodeRequest(frame), "decoding a request");
    tr->End(run.decode);
    run.parse = tr->Begin("smo.parse", run.root, req);
    run.stmt = Take(cods::ParseStatement(wreq.text), "parsing " + text);
    tr->End(run.parse);
    int pin = tr->Begin("concurrency.snapshot.pin", run.root, req);
    cods::Snapshot snap = in.db->GetSnapshot();
    tr->End(pin);
    run.classify = tr->Begin("server.admission.classify", run.root, req);
    run.lane = cods::server::ClassifyStatement(
        run.stmt, snap.root(), server_defaults.heavy_row_threshold, &run.est);
    tr->End(run.classify);
    pin = tr->Begin("concurrency.snapshot.pin", run.root, req);
    snap = in.db->GetSnapshot();
    tr->End(pin);
    const CodecCounts c0 = ReadCodecCounts();
    run.engine = tr->Begin("query.engine", run.root, req);
    std::vector<cods::server::BatchOutcome> outcomes =
        cods::server::ExecuteQueryBatch(*snap.store(), {&run.stmt.query},
                                        &exec, nullptr);
    tr->End(run.engine);
    const CodecCounts c1 = ReadCodecCounts();
    run.codec = {c1.array - c0.array, c1.wah - c0.wah, c1.bitset - c0.bitset,
                 c1.popcount - c0.popcount};
    const cods::server::BatchOutcome& out = outcomes[0];
    run.encode = tr->Begin("server.wire.encode", run.root, req);
    response = out.status.ok() ? cods::server::EncodeQueryResult(req, out.result)
                               : cods::server::EncodeError(req, out.status);
    tr->End(run.encode);
    tr->End(run.root);
    if (out.status.ok()) {
      run.actual = out.result.verb == cods::QueryRequest::Verb::kCount
                       ? out.result.count
                       : (out.result.table != nullptr ? out.result.table->rows()
                                                      : 0);
    }
  }
  run.response_bytes = response.size();
  cods::server::Frame resp_frame;
  if (!DecodeOneFrame(response, &resp_frame)) Die("decoding a response frame");
  run.answer =
      Take(cods::server::DecodeResponse(resp_frame), "decoding a response");
  return run;
}

StatementProbe ProbeStatements(const ProbeInputs& in, Tracer* tr,
                               cods::server::Client* client,
                               uint64_t* attempted, uint64_t* failed) {
  StatementProbe p;
  StmtStream stream(*in.statements, in.seed);
  const cods::ExecContext exec(
      std::max(1, cods::server::ServerOptions{}.exec_threads));
  std::map<int, std::vector<double>> class_e2e, class_layers;
  auto verify = [&](const Stmt& s, const WireResponse& resp) {
    ++*attempted;
    std::string why;
    if (!in.statements->Verify(s, resp, &why)) {
      ++*failed;
      std::fprintf(stderr, "probe failed: %s: %s\n", s.text.c_str(), why.c_str());
    }
  };
  for (int i = 0; i < in.n_statements; ++i) {
    const Stmt s = stream.Next();
    const uint64_t req = static_cast<uint64_t>(i) + 1;

    // Each repetition runs the statement twice over the wire (untraced
    // and traced, the order alternating) and twice in-process (the first
    // unrecorded), so every kept run directly follows a run of the same
    // statement on the same path: the server's worker and the replay
    // thread each start from their own warm caches. The paths alternate
    // within a repetition, so each samples the same stretch of the
    // machine's speed.
    int64_t untraced_ns = INT64_MAX, wire_ns = INT64_MAX;
    InProcessRun run;
    for (int rep = 0; rep < kStmtProbeReps; ++rep) {
      for (int k = 0; k < 2; ++k) {
        if ((rep + k) % 2 == 0) {
          const int64_t u0 = NowNs();
          auto plain = Take(client->Execute(s.text), "probe statement");
          untraced_ns = std::min(untraced_ns, NowNs() - u0);
          verify(s, plain);
        } else {
          const int wire = tr->Begin("stmt.wire", -1, req);
          auto traced = Take(client->Execute(s.text), "probe statement");
          tr->End(wire);
          verify(s, traced);
          wire_ns = std::min(wire_ns, tr->DurationNs(wire));
        }
      }
      {
        Tracer unrecorded;
        RunInProcess(in, exec, s.text, req, &unrecorded);
      }
      InProcessRun again = RunInProcess(in, exec, s.text, req, tr);
      verify(s, again.answer);
      if (rep == 0 || tr->DurationNs(again.root) < tr->DurationNs(run.root)) {
        run = std::move(again);
      }
    }
    p.untraced_ns += static_cast<double>(untraced_ns);
    p.traced_ns += static_cast<double>(wire_ns);

    // Expression eval, attributed inside the engine span by a separate
    // timed call on the same table (joins evaluate on the join result,
    // which only the engine builds; their eval stays in engine self).
    const cods::QueryRequest& q = run.stmt.query;
    if (q.where != nullptr && q.join_table.empty()) {
      auto table =
          Take(in.db->GetSnapshot().store()->GetTable(q.table), "probe table");
      int64_t eval_ns = tr->DurationNs(run.engine);
      for (int rep = 0; rep < kStmtProbeReps; ++rep) {
        const int64_t e0 = NowNs();
        if (q.verb == cods::QueryRequest::Verb::kCount) {
          Take(cods::EvalExprCount(*table, q.where, &exec), "eval");
        } else {
          Take(cods::EvalExpr(*table, q.where, &exec), "eval");
        }
        eval_ns = std::min(eval_ns, NowNs() - e0);
      }
      const int64_t engine_start = tr->span(run.engine).start_ns;
      tr->Add("query.expr.eval", run.engine, req, engine_start,
              engine_start + eval_ns);
      p.eval.push_back(NsToUs(eval_ns));
    }


    const double layers_us =
        NsToUs(tr->DurationNs(run.root) - tr->SelfNs(run.root));
    p.decode.push_back(NsToUs(tr->SelfNs(run.decode)));
    p.parse.push_back(NsToUs(tr->SelfNs(run.parse)));
    p.classify.push_back(NsToUs(tr->SelfNs(run.classify)));
    p.engine_self[ShapeOf(q)].push_back(NsToUs(tr->SelfNs(run.engine)));
    p.encode.push_back(NsToUs(tr->SelfNs(run.encode)));
    p.response_bytes.push_back(static_cast<double>(run.response_bytes));
    p.codec.array += run.codec.array;
    p.codec.wah += run.codec.wah;
    p.codec.bitset += run.codec.bitset;
    p.codec.popcount += run.codec.popcount;
    p.wire_e2e.push_back(NsToUs(wire_ns));
    p.unattributed.push_back(p.wire_e2e.back() - layers_us);
    class_e2e[s.cls].push_back(p.wire_e2e.back());
    class_layers[s.cls].push_back(layers_us);
    if (run.lane == cods::server::Lane::kHeavy) ++p.heavy;
    if (run.est > 0 && run.actual > 0) {
      p.est_ratio.push_back(static_cast<double>(run.est) /
                            static_cast<double>(run.actual));
    }
  }
  for (const auto& [cls, e2e] : class_e2e) {
    const std::string name = in.statements->ClassName(cls);
    Info("probe.stmt_e2e_us." + name, Median(e2e), "us");
    Info("probe.stmt_layers_us." + name, Median(class_layers[cls]), "us");
  }
  return p;
}

/// The heavy operators evolution.<op>.{apply,unattributed}_ms split by.
constexpr const char* kHeavyOps[] = {"DECOMPOSE", "MERGE", "PARTITION",
                                     "UNION"};

struct SmoProbe {
  std::map<std::string, double> step_ms;  // summed over the round
  double parse_us = 0;                    // per statement, median
  double apply_ms = 0, log_ms = 0, wire_ms = 0, unattributed_smo_ms = 0;
  double op_apply_ms[std::size(kHeavyOps)] = {};
  double op_steps_ms[std::size(kHeavyOps)] = {};
  std::vector<double> pin_idle_us;
  std::vector<double> wal_commit_us, wal_bytes;
};

std::vector<cods::Smo> ParseRound(const std::vector<std::string>& texts,
                                  Tracer* tr, std::vector<double>* parse_us) {
  std::vector<cods::Smo> smos;
  for (const std::string& text : texts) {
    const int sp = tr->Begin("smo.parse_script", -1, 0);
    std::vector<cods::Smo> one = Take(cods::ParseSmoScript(text), "parsing " + text);
    tr->End(sp);
    parse_us->push_back(NsToUs(tr->SelfNs(sp)));
    smos.push_back(std::move(one.at(0)));
  }
  return smos;
}

SmoProbe ProbeSmos(const ProbeInputs& in, Tracer* tr,
                   cods::server::Client* client, uint64_t* attempted,
                   uint64_t* failed) {
  SmoProbe p;
  // Uncontended pins first, batched like the contended ones below.
  for (int b = 0; b < 2000; ++b) {
    const int64_t t0 = NowNs();
    for (int k = 0; k < 16; ++k) {
      cods::Snapshot snap = in.db->GetSnapshot();
    }
    p.pin_idle_us.push_back(NsToUs(NowNs() - t0) / 16);
  }
  std::vector<double> parse_us;
  const std::vector<cods::Smo> smos = ParseRound(in.smo_round, tr, &parse_us);
  p.parse_us = Median(parse_us);
  const size_t n = smos.size();
  // Per statement of the round: the fastest repetition of each path,
  // and of each evolution step (ns).
  std::vector<int64_t> apply_ns(n, INT64_MAX), durable_ns(n, INT64_MAX),
      wire_ns(n, INT64_MAX);
  std::vector<std::map<std::string, int64_t>> step_ns(n);
  auto fail = [&](const std::string& what, const cods::Status& st) {
    ++*failed;
    std::fprintf(stderr, "probe failed: %s: %s\n", what.c_str(),
                 st.ToString().c_str());
  };
  auto request = [](int rep, size_t j) {
    return 1'000'000 * (static_cast<uint64_t>(rep) + 1) + j;
  };

  // Each path runs a whole round, which restores the schema, so every
  // path starts from the same tables; no path's results stay alive
  // while another runs.
  // (a) Engine only, on a private copy of the served root: evolution
  // steps via the observer, no WAL.
  auto engine_only = [&](int rep) {
    cods::SnapshotCatalog copy;
    copy.Reset(cods::MaterializeCatalog(in.db->GetSnapshot().root()));
    cods::RecordingObserver observer;
    cods::EngineOptions options = in.db_options.engine;
    options.wal = nullptr;
    cods::EvolutionEngine engine(&copy, &observer, options);
    for (size_t j = 0; j < n; ++j) {
      const size_t first_step = observer.steps().size();
      const int ap = tr->Begin("evolution.apply", -1, request(rep, j));
      cods::Status st = engine.Apply(smos[j]);
      tr->End(ap);
      ++*attempted;
      if (!st.ok()) fail(in.smo_round[j], st);
      int64_t cursor = tr->span(ap).start_ns;
      std::map<std::string, int64_t> steps;
      for (size_t k = first_step; k < observer.steps().size(); ++k) {
        const auto& step = observer.steps()[k];
        const int64_t ns = static_cast<int64_t>(step.seconds * 1e9);
        const std::string name = StepName(step.op, step.step);
        tr->Add(tr->Intern(name), ap, request(rep, j), cursor, cursor + ns);
        cursor += ns;
        steps[name] += ns;
      }
      apply_ns[j] = std::min(apply_ns[j], tr->DurationNs(ap));
      for (const auto& [name, ns] : steps) {
        auto [it, fresh] = step_ns[j].emplace(name, ns);
        if (!fresh) it->second = std::min(it->second, ns);
      }
    }
  };
  // (b) The durable apply on the real database: (a) plus WAL + fsync.
  auto durable = [&](int rep) {
    for (size_t j = 0; j < n; ++j) {
      const int sp = tr->Begin("durability.apply_script", -1, request(rep, j));
      cods::Status st = in.db->ApplyScript({smos[j]});
      tr->End(sp);
      ++*attempted;
      if (!st.ok()) fail(in.smo_round[j], st);
      durable_ns[j] = std::min(durable_ns[j], tr->DurationNs(sp));
    }
  };
  // (c) Over the wire: the heavy-lane queue and the server's write lock
  // on top of (b).
  auto over_wire = [&](int rep) {
    for (size_t j = 0; j < n; ++j) {
      const int sp = tr->Begin("smo.wire", -1, request(rep, j));
      auto resp = Take(client->Execute(in.smo_round[j]), "probe SMO");
      tr->End(sp);
      ++*attempted;
      if (resp.type != FrameType::kResultOk) {
        fail(in.smo_round[j], cods::Status::Corruption(
                                  cods::server::FormatWireResponse(resp)));
      }
      wire_ns[j] = std::min(wire_ns[j], tr->DurationNs(sp));
    }
  };
  // The order rotates, so no path always runs on another's warm caches.
  const std::function<void(int)> paths[] = {engine_only, durable, over_wire};
  for (int rep = 0; rep < kSmoProbeReps; ++rep) {
    for (int k = 0; k < 3; ++k) paths[(rep + k) % 3](rep);
  }

  for (size_t j = 0; j < n; ++j) {
    const std::string op = SmoOpName(in.smo_round[j]);
    const double apply = NsToMs(apply_ns[j]);
    const double dur = NsToMs(durable_ns[j]);
    const double wire = NsToMs(wire_ns[j]);
    double steps = 0;
    for (const auto& [name, ns] : step_ns[j]) {
      p.step_ms[name] += NsToMs(ns);
      steps += NsToMs(ns);
    }
    p.apply_ms += apply;
    p.log_ms += dur - apply;
    p.wire_ms += wire;
    p.unattributed_smo_ms += wire - dur;
    for (size_t o = 0; o < std::size(kHeavyOps); ++o) {
      if (op == kHeavyOps[o]) {
        p.op_apply_ms[o] += apply;
        p.op_steps_ms[o] += steps;
      }
    }
    Info("probe.smo_e2e_ms." + op, wire, "ms");
    Info("probe.smo_layers_ms." + op, parse_us[j] / 1e3 + dur, "ms");
  }

  // WAL commit cost alone, on a scratch log in the same file system.
  {
    const std::string path = in.scratch_dir + "/wal.log";
    auto wal = Take(cods::WalWriter::Open(cods::Env::Default(), path, 1),
                    "opening the scratch WAL");
    for (const cods::Smo& smo : smos) {
      const uint64_t before = wal->size_bytes();
      const int64_t t0 = NowNs();
      Check(wal->BeginScript(), "scratch WAL");
      Check(wal->AppendStatement(smo.ToString()), "scratch WAL");
      Check(wal->CommitScript(1), "scratch WAL");
      p.wal_commit_us.push_back(NsToUs(NowNs() - t0));
      p.wal_bytes.push_back(static_cast<double>(wal->size_bytes() - before));
    }
  }
  return p;
}

struct DurabilityProbe {
  double checkpoint_ms = 0, checkpoint_bytes = 0, serialize_ms = 0;
  double checkpoint_read_ms = 0, wal_read_ms = 0, replay_ms = 0;
  std::vector<double> pin_busy_us;  // pins beside committing writes
};

DurabilityProbe ProbeDurability(const ProbeInputs& in, Tracer* tr,
                                const std::string& db_dir,
                                uint64_t* attempted, uint64_t* failed) {
  DurabilityProbe p;
  cods::Env* env = cods::Env::Default();
  int sp = tr->Begin("durability.checkpoint", -1, 0);
  Check(in.db->Checkpoint(), "probe checkpoint");
  tr->End(sp);
  p.checkpoint_ms = NsToMs(tr->SelfNs(sp));
  p.checkpoint_bytes = static_cast<double>(
      Take(env->GetFileSize(db_dir + "/" + cods::kCheckpointFileName), "size"));
  {
    cods::Snapshot snap = in.db->GetSnapshot();
    cods::Catalog catalog = cods::MaterializeCatalog(snap.root());
    sp = tr->Begin("storage.serde.serialize", -1, 0);
    std::vector<uint8_t> image = cods::SerializeCatalogV3(catalog, 0);
    tr->End(sp);
    p.serialize_ms = NsToMs(tr->SelfNs(sp));
  }
  // One round past the checkpoint, with a reader pinning snapshots
  // beside the commits; then recover a copy of the directory.
  std::vector<double> ignored;
  std::atomic<bool> done{false};
  std::thread pinner([&] {
    // Pins in batches of 16, so the clock reads do not swamp a pin.
    while (!done.load()) {
      const int64_t t0 = NowNs();
      for (int k = 0; k < 16; ++k) {
        cods::Snapshot snap = in.db->GetSnapshot();
      }
      p.pin_busy_us.push_back(NsToUs(NowNs() - t0) / 16);
    }
  });
  for (const cods::Smo& smo : ParseRound(in.smo_round, tr, &ignored)) {
    ++*attempted;
    cods::Status st = in.db->ApplyScript({smo});
    if (!st.ok()) {
      ++*failed;
      std::fprintf(stderr, "probe failed: %s\n", st.ToString().c_str());
    }
  }
  done.store(true);
  pinner.join();
  const std::string copy = in.scratch_dir + "/recover";
  fs::remove_all(copy);
  fs::create_directories(copy);
  for (const char* f : {cods::kCheckpointFileName, cods::kWalFileName}) {
    fs::copy_file(db_dir + "/" + f, copy + "/" + f);
  }
  const int open = tr->Begin("durability.recovery", -1, 0);
  sp = tr->Begin("durability.recovery.checkpoint_read", open, 0);
  Take(cods::ReadCheckpoint(env, copy), "reading the checkpoint");
  tr->End(sp);
  p.checkpoint_read_ms = NsToMs(tr->SelfNs(sp));
  sp = tr->Begin("durability.recovery.wal_read", open, 0);
  Take(cods::ReadWal(env, copy + "/" + cods::kWalFileName), "reading the WAL");
  tr->End(sp);
  p.wal_read_ms = NsToMs(tr->SelfNs(sp));
  sp = tr->Begin("durability.recovery.open", open, 0);
  Take(cods::DurableDb::Open(env, copy, in.db_options), "recovering");
  tr->End(sp);
  tr->End(open);
  // Open = checkpoint read + WAL read + replay; the reads were timed
  // separately above, so replay is the remainder.
  p.replay_ms = NsToMs(tr->SelfNs(sp)) - p.checkpoint_read_ms - p.wal_read_ms;
  return p;
}

}  // namespace

std::vector<Metric> RunTraceProbe(const ProbeInputs& in,
                                  const std::string& trace_path,
                                  uint64_t* attempted, uint64_t* failed) {
  fs::create_directories(in.scratch_dir);
  Tracer tr;
  StatementProbe st;
  SmoProbe smo;
  DurabilityProbe dur;
  // The in-process passes run on a thread of their own, as the server's
  // do on its workers, not on the thread that generated the tables.
  std::thread prober([&] {
    std::unique_ptr<cods::server::Client> client = Connect(in.port);
    st = ProbeStatements(in, &tr, client.get(), attempted, failed);
    smo = ProbeSmos(in, &tr, client.get(), attempted, failed);
    client.reset();
    dur = ProbeDurability(in, &tr, in.db_dir, attempted, failed);
  });
  prober.join();
  tr.Write(trace_path);

  const double n = std::max(1.0, static_cast<double>(in.n_statements));
  double steps_ms = 0;
  for (const auto& [name, ms] : smo.step_ms) steps_ms += ms;
  const double overhead =
      st.untraced_ns > 0 ? (st.traced_ns - st.untraced_ns) / st.untraced_ns : 0;
  std::vector<Metric> out = {
      {"server.wire.decode_us", Median(st.decode), "us"},
      {"server.wire.encode_us", Median(st.encode), "us"},
      {"server.wire.response_bytes", Median(st.response_bytes), "B"},
      {"smo.parse_us", Median(st.parse), "us"},
      {"server.admission.classify_us", Median(st.classify), "us"},
      {"server.admission.est_ratio_p50", Median(st.est_ratio), "ratio"},
      {"server.admission.est_ratio_p99", Percentile(st.est_ratio, 0.99), "ratio"},
      {"server.admission.heavy_frac", static_cast<double>(st.heavy) / n, "ratio"},
      {"server.batch.hit_ratio", in.batch_hit_ratio, "ratio"},
      {"concurrency.snapshot.pin_us", Median(smo.pin_idle_us), "us"},
      {"concurrency.snapshot.pin_busy_us", Median(dur.pin_busy_us), "us"},
      {"query.expr.eval_us", Median(st.eval), "us"},
  };
  for (size_t k = 0; k < std::size(kShapes); ++k) {
    out.push_back({std::string("query.engine.") + kShapes[k] + "_us",
                   Median(st.engine_self[k]), "us"});
  }
  out.insert(out.end(), {
      {"bitmap.codec.array_built_per_stmt", static_cast<double>(st.codec.array) / n, "count"},
      {"bitmap.codec.wah_built_per_stmt", static_cast<double>(st.codec.wah) / n, "count"},
      {"bitmap.codec.bitset_built_per_stmt", static_cast<double>(st.codec.bitset) / n, "count"},
      {"bitmap.codec.popcount_hits_per_stmt", static_cast<double>(st.codec.popcount) / n, "count"},
      {"server.stmt_e2e_us", Median(st.wire_e2e), "us"},
      {"server.unattributed_us", Median(st.unattributed), "us"},
      {"smo.parse_script_us", smo.parse_us, "us"},
      {"evolution.decompose.distinction_ms", SumMs(smo.step_ms, "evolution.decompose.distinction"), "ms"},
      {"evolution.decompose.filtering_ms", SumMs(smo.step_ms, "evolution.decompose.filtering"), "ms"},
      {"evolution.decompose.reuse_ms", SumMs(smo.step_ms, "evolution.decompose.reuse"), "ms"},
      {"evolution.merge.key_lookup_ms", SumMs(smo.step_ms, "evolution.merge.key_lookup"), "ms"},
      {"evolution.merge.append_ms", SumMs(smo.step_ms, "evolution.merge.append"), "ms"},
      {"evolution.merge.reuse_ms", SumMs(smo.step_ms, "evolution.merge.reuse"), "ms"},
      {"evolution.partition.select_ms", SumMs(smo.step_ms, "evolution.partition.select"), "ms"},
      {"evolution.partition.filtering_ms", SumMs(smo.step_ms, "evolution.partition.filtering"), "ms"},
      {"evolution.union.concat_ms", SumMs(smo.step_ms, "evolution.union.concat"), "ms"},
      {"evolution.apply_ms", smo.apply_ms, "ms"},
      {"evolution.unattributed_ms", smo.apply_ms - steps_ms, "ms"},
  });
  for (size_t o = 0; o < std::size(kHeavyOps); ++o) {
    const std::string op = Lower(kHeavyOps[o]);
    out.push_back({"evolution." + op + ".apply_ms", smo.op_apply_ms[o], "ms"});
    out.push_back({"evolution." + op + ".unattributed_ms",
                   smo.op_apply_ms[o] - smo.op_steps_ms[o], "ms"});
  }
  out.insert(out.end(), {
      {"durability.log_ms", smo.log_ms, "ms"},
      {"durability.wal.commit_us", Median(smo.wal_commit_us), "us"},
      {"durability.wal.bytes_per_script", Median(smo.wal_bytes), "B"},
      {"durability.checkpoint_ms", dur.checkpoint_ms, "ms"},
      {"durability.checkpoint_bytes", dur.checkpoint_bytes, "B"},
      {"durability.recovery.checkpoint_read_ms", dur.checkpoint_read_ms, "ms"},
      {"durability.recovery.wal_read_ms", dur.wal_read_ms, "ms"},
      {"durability.recovery.replay_ms", dur.replay_ms, "ms"},
      {"storage.serde.serialize_ms", dur.serialize_ms, "ms"},
      {"server.smo_e2e_ms", smo.wire_ms, "ms"},
      {"server.unattributed_smo_ms", smo.unattributed_smo_ms, "ms"},
      {"bench.gen_lag_p99_us", Percentile(in.gen_lag_us, 0.99), "us"},
      {"bench.trace_overhead_frac", overhead, "ratio"},
  });
  return out;
}

}  // namespace cods_bench
