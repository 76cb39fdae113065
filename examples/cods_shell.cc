// cods_shell: an interactive (or piped) shell for the CODS platform —
// the command-line counterpart of the paper's demo UI. It combines the
// statement language (SMOs and SELECT queries through one parser) with
// dot-commands for loading data, displaying tables, persistence,
// versioning, and the cost advisor.
//
//   $ ./build/examples/cods_shell            # interactive, in-memory
//   $ ./build/examples/cods_shell --db mydb  # crash-safe directory
//   $ echo 'LOAD r.csv INTO R; ...' | ./build/examples/cods_shell
//
// With --db <dir> the shell opens a durable database directory
// (durability/db.h): recovery replays the WAL onto the last good
// checkpoint at startup, every SMO script and .commit is WAL-logged and
// fsync'd before being acknowledged, and the log auto-checkpoints as it
// grows. `.checkpoint` forces a checkpoint; `.wal` shows durability
// status. `.open`/`.checkout` are refused in --db mode because they
// replace the catalog wholesale, which the statement WAL cannot
// capture.
//
// Commands (';'-terminated SMO or SELECT statements, or one of):
//   .load <csv-path> <table>     load a CSV file (schema inferred)
//   .tables                      list tables
//   .show <table>                display a table
//   .stats <table>               storage statistics
//   .count <table> <col> <op> <lit>   bitmap-index COUNT(*)
//   .advise decompose <t> (cols) (cols)  cost advisor
//   .save <path> / .open <path>  persist / load the whole catalog
//   .commit <msg> / .log / .checkout <v>  versioning
//   .checkpoint / .wal           durability (--db mode)
//   .snapshot                    serving stats: root id, commits, pins
//   .session open|close|run      named pinned snapshots
//   .sessions                    list pinned sessions
//   .undo                        undo the last invertible operator
//   .plan <file|script>          EXPLAIN a script's dependency DAG
//   .runplan <file|script>       execute a script via the planner
//   .help / .quit
//
// Every query pins the current snapshot root for its whole execution
// (one pointer copy), so a concurrently committing script never tears a
// result. `.session open` keeps such a pin alive across statements:
// `.session run <name> SELECT ...` reads the database as it was when
// the session was opened, no matter what has evolved since.

#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <system_error>

#include "common/string_util.h"
#include "durability/db.h"
#include "evolution/advisor.h"
#include "evolution/engine.h"
#include "evolution/inverse.h"
#include "concurrency/versioned_catalog.h"
#include "plan/script_planner.h"
#include "query/query_engine.h"
#include "server/client.h"
#include "smo/parser.h"
#include "storage/csv.h"
#include "storage/printer.h"
#include "storage/serde.h"

using namespace cods;

namespace {

// Splits a dot-command into whitespace-separated words, keeping
// parenthesized groups together.
std::vector<std::string> Words(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream in(line);
  std::string w;
  while (in >> w) out.push_back(w);
  return out;
}

std::vector<std::string> ParseNameGroup(const std::string& group) {
  std::string inner = group;
  if (!inner.empty() && inner.front() == '(') inner = inner.substr(1);
  if (!inner.empty() && inner.back() == ')') inner.pop_back();
  std::vector<std::string> names;
  for (const std::string& part : Split(inner, ',')) {
    std::string t(Trim(part));
    if (!t.empty()) names.push_back(t);
  }
  return names;
}

// Reads a whole file through std::ifstream with errno detail on failure.
Result<std::string> SlurpFile(const std::string& path) {
  errno = 0;
  std::ifstream in(path);
  if (!in) {
    std::string detail =
        errno != 0 ? ": " + std::generic_category().message(errno) : "";
    return Status::IOError("cannot open '" + path + "'" + detail);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

class Shell {
 public:
  // `db` non-null switches the shell to durable (--db) mode; the plain
  // members stay around but unused so both modes share one code path
  // through versions()/ApplySmo().
  explicit Shell(std::unique_ptr<DurableDb> db = nullptr)
      : db_(std::move(db)), engine_(local_versions_.serving(), &observer_) {}

  int Run(std::istream& in, bool interactive) {
    std::string line;
    if (interactive) std::cout << "cods> " << std::flush;
    std::string pending;
    while (std::getline(in, line)) {
      std::string_view trimmed = Trim(line);
      if (!trimmed.empty() && trimmed[0] == '.') {
        if (!DotCommand(std::string(trimmed))) return 0;
      } else {
        pending += line;
        pending += "\n";
        if (trimmed.ends_with(";")) {
          RunScript(pending);
          pending.clear();
        }
      }
      if (interactive) std::cout << "cods> " << std::flush;
    }
    if (!Trim(pending).empty()) RunScript(pending);
    return 0;
  }

 private:
  VersionedCatalog& versions() {
    return db_ != nullptr ? *db_->versions() : local_versions_;
  }

  // One SMO through whichever engine is live: the durable db's (logged,
  // fsync'd) or the plain in-memory one.
  Status ApplySmo(const Smo& smo) {
    if (db_ != nullptr) return db_->ApplyScript({smo});
    return engine_.Apply(smo);
  }

  void RunScript(const std::string& text) {
    auto script = ParseStatementScript(text);
    if (!script.ok()) {
      std::cout << "parse error: " << script.status().ToString() << "\n";
      return;
    }
    for (const Statement& stmt : *script) {
      if (stmt.kind == Statement::Kind::kQuery) {
        Status st = RunQuery(stmt.query);
        if (!st.ok()) {
          std::cout << "error: " << st.ToString() << "\n";
          return;
        }
        continue;
      }
      const Smo& smo = stmt.smo;
      if (IsInvertible(smo.kind)) {
        // Best-effort logging against the pre-application snapshot;
        // lossy ops simply are not undoable.
        log_.Record(smo, versions().GetSnapshot().root()).IgnoreError();
      }
      Status st = ApplySmo(smo);
      if (!st.ok()) {
        std::cout << "error: " << st.ToString() << "\n";
        return;
      }
      std::cout << "ok: " << smo.ToString() << "\n";
    }
  }

  // Executes one SELECT against a freshly pinned snapshot and prints
  // the result: the table itself for a projection, the number for
  // COUNT(*), value/sum lines for GROUP BY.
  Status RunQuery(const QueryRequest& request) {
    return RunQueryOn(versions().GetSnapshot(), request);
  }

  Status RunQueryOn(const Snapshot& snap, const QueryRequest& request) {
    QueryEngine engine(snap.store());
    CODS_ASSIGN_OR_RETURN(QueryResult result, engine.Execute(request));
    switch (result.verb) {
      case QueryRequest::Verb::kSelect:
        std::cout << FormatTable(*result.table);
        break;
      case QueryRequest::Verb::kCount:
        std::cout << result.count << "\n";
        break;
      case QueryRequest::Verb::kGroupBy:
        std::cout << result.ToString();
        break;
    }
    return Status::OK();
  }

  // Returns false to quit.
  bool DotCommand(const std::string& line) {
    std::vector<std::string> w = Words(line);
    const std::string& cmd = w[0];
    if (cmd == ".quit" || cmd == ".exit") return false;
    if (cmd == ".help") {
      std::cout << kHelp;
    } else if (cmd == ".tables") {
      Snapshot snap = versions().GetSnapshot();
      for (const auto& [name, t] : snap.root().tables()) {
        std::cout << "  " << name << " " << t->schema().ToString() << " ["
                  << t->rows() << " rows]\n";
      }
    } else if (cmd == ".load" && w.size() == 4 && w[2] == "INTO") {
      Report(LoadCsv(w[1], w[3]));
    } else if (cmd == ".load" && w.size() == 3) {
      Report(LoadCsv(w[1], w[2]));
    } else if (cmd == ".show" && w.size() == 2) {
      WithTable(w[1], [](const Table& t) {
        std::cout << FormatTable(t);
      });
    } else if (cmd == ".stats" && w.size() == 2) {
      WithTable(w[1], [](const Table& t) {
        std::cout << FormatTableStats(t);
      });
    } else if (cmd == ".count" && w.size() == 5) {
      Report(Count(w[1], w[2], w[3], w[4]));
    } else if (cmd == ".advise" && w.size() == 5 && w[1] == "decompose") {
      Report(Advise(w[2], w[3], w[4]));
    } else if (cmd == ".save" && w.size() == 2) {
      Snapshot snap = versions().GetSnapshot();
      Report(SaveCatalog(MaterializeCatalog(snap.root()), w[1]));
    } else if (cmd == ".open" && w.size() == 2) {
      if (db_ != nullptr) {
        Report(Status::InvalidArgument(
            ".open replaces the catalog outside the WAL; not available "
            "in --db mode"));
      } else {
        Report(Open(w[1]));
      }
    } else if (cmd == ".commit") {
      std::string msg = w.size() > 1 ? line.substr(line.find(w[1])) : "";
      Report(Commit(msg));
    } else if (cmd == ".log") {
      for (const auto& info : versions().History()) {
        std::cout << "  v" << info.id << ": " << info.message << " ("
                  << info.table_names.size() << " tables, "
                  << info.total_rows << " rows)\n";
      }
    } else if (cmd == ".checkout" && w.size() == 2) {
      if (db_ != nullptr) {
        Report(Status::InvalidArgument(
            ".checkout replaces the catalog outside the WAL; not "
            "available in --db mode"));
      } else {
        Report(local_versions_.Checkout(
            std::strtoull(w[1].c_str(), nullptr, 10)));
        log_.Clear();  // the undo log refers to the abandoned timeline
      }
    } else if (cmd == ".checkpoint") {
      if (db_ == nullptr) {
        Report(Status::InvalidArgument(".checkpoint requires --db <dir>"));
      } else {
        Status st = db_->Checkpoint();
        Report(st);
        if (st.ok()) {
          std::cout << "checkpointed at LSN "
                    << db_->GetStats().checkpoint_lsn << "\n";
        }
      }
    } else if (cmd == ".wal") {
      if (db_ == nullptr) {
        Report(Status::InvalidArgument(".wal requires --db <dir>"));
      } else {
        PrintWalStats();
      }
    } else if (cmd == ".snapshot") {
      SnapshotCatalog::Stats s = versions().serving()->GetStats();
      std::cout << "serving root " << s.root_id << " (" << s.tables
                << " tables)\n"
                << "commits: " << s.commits << ", aborts: " << s.aborts
                << ", live pins: " << s.live_pins << "\n";
    } else if (cmd == ".sessions") {
      for (const auto& [name, snap] : sessions_) {
        std::cout << "  " << name << ": root " << snap.id() << " ("
                  << snap.root().size() << " tables)\n";
      }
      if (sessions_.empty()) std::cout << "  (none)\n";
    } else if (cmd == ".session" && w.size() >= 2) {
      Report(Session(w, line));
    } else if (cmd == ".undo") {
      Report(Undo());
    } else if ((cmd == ".plan" || cmd == ".runplan") && w.size() >= 2) {
      Report(Plan(std::string(Trim(line.substr(cmd.size()))),
                  cmd == ".runplan"));
    } else {
      std::cout << "unknown command; try .help\n";
    }
    return true;
  }

  // .session open <name> | .session close <name> |
  // .session run <name> <query;>
  Status Session(const std::vector<std::string>& w, const std::string& line) {
    const std::string& verb = w[1];
    if (verb == "open" && w.size() == 3) {
      Snapshot snap = versions().GetSnapshot();
      std::cout << "session '" << w[2] << "' pinned root " << snap.id()
                << "\n";
      sessions_[w[2]] = std::move(snap);
      return Status::OK();
    }
    if (verb == "close" && w.size() == 3) {
      if (sessions_.erase(w[2]) == 0) {
        return Status::KeyError("no session '" + w[2] + "'");
      }
      return Status::OK();
    }
    if (verb == "run" && w.size() >= 4) {
      auto it = sessions_.find(w[2]);
      if (it == sessions_.end()) {
        return Status::KeyError("no session '" + w[2] + "'");
      }
      // Everything after the session name is the statement text.
      std::string text = line.substr(line.find(w[2]) + w[2].size());
      CODS_ASSIGN_OR_RETURN(auto script, ParseStatementScript(text));
      for (const Statement& stmt : script) {
        if (stmt.kind != Statement::Kind::kQuery) {
          return Status::InvalidArgument(
              "sessions are read pins; SMOs must run on the live catalog");
        }
        CODS_RETURN_NOT_OK(RunQueryOn(it->second, stmt.query));
      }
      return Status::OK();
    }
    return Status::InvalidArgument(
        "usage: .session open <name> | close <name> | run <name> <query;>");
  }

  Status Commit(const std::string& msg) {
    uint64_t v;
    if (db_ != nullptr) {
      CODS_ASSIGN_OR_RETURN(v, db_->CommitVersion(msg));
    } else {
      v = local_versions_.Commit(msg);
    }
    std::cout << "committed version " << v << "\n";
    return Status::OK();
  }

  void PrintWalStats() {
    DurableDbStats s = db_->GetStats();
    std::cout << "wal: " << s.wal_bytes << " bytes, next LSN " << s.next_lsn
              << ", durable LSN " << s.durable_lsn << "\n";
    if (s.checkpoint_exists) {
      std::cout << "checkpoint: covers LSN " << s.checkpoint_lsn << "\n";
    } else {
      std::cout << "checkpoint: none\n";
    }
    std::cout << "recovered at open: " << s.replayed_scripts << " scripts, "
              << s.replayed_version_marks << " version marks"
              << (s.recovered_torn_tail ? ", torn tail truncated" : "")
              << "\n";
    std::cout << "health: " << (s.healthy ? "ok" : s.health_message) << "\n";
  }

  Status LoadCsv(const std::string& path, const std::string& table) {
    CODS_ASSIGN_OR_RETURN(std::string text, SlurpFile(path));
    CODS_ASSIGN_OR_RETURN(auto t, CsvToTableInferred(text, table));
    // Loads go through the snapshot commit protocol like any writer.
    CODS_RETURN_NOT_OK(versions().Apply(
        [&](TableStore& store) { return store.AddTable(t); }));
    std::cout << "loaded " << t->rows() << " rows into " << table << "\n";
    // CSV loads are raw data, not statements — the WAL cannot replay
    // them, so capture the new table in a checkpoint right away.
    if (db_ != nullptr) {
      CODS_RETURN_NOT_OK(db_->Checkpoint());
      std::cout << "checkpointed (loads are not WAL-replayable)\n";
    }
    return Status::OK();
  }

  Status Count(const std::string& table, const std::string& column,
               const std::string& op_text, const std::string& literal) {
    CODS_ASSIGN_OR_RETURN(auto t,
                          versions().GetSnapshot().root().GetTable(table));
    CompareOp op;
    if (op_text == "=") {
      op = CompareOp::kEq;
    } else if (op_text == "!=") {
      op = CompareOp::kNe;
    } else if (op_text == "<") {
      op = CompareOp::kLt;
    } else if (op_text == "<=") {
      op = CompareOp::kLe;
    } else if (op_text == ">") {
      op = CompareOp::kGt;
    } else if (op_text == ">=") {
      op = CompareOp::kGe;
    } else {
      return Status::InvalidArgument("bad operator '" + op_text + "'");
    }
    CODS_ASSIGN_OR_RETURN(size_t col_idx, t->schema().ColumnIndex(column));
    CODS_ASSIGN_OR_RETURN(
        Value lit, Value::Parse(literal, t->schema().column(col_idx).type));
    // Sugar for SELECT COUNT(*) FROM table WHERE column op lit — same
    // engine, same plan.
    return RunQuery(QueryRequest::Count(
        table, Expr::Compare(column, op, std::move(lit))));
  }

  Status Advise(const std::string& table, const std::string& group1,
                const std::string& group2) {
    CODS_ASSIGN_OR_RETURN(auto t,
                          versions().GetSnapshot().root().GetTable(table));
    CODS_ASSIGN_OR_RETURN(auto est,
                          EstimateDecompose(*t, ParseNameGroup(group1),
                                            ParseNameGroup(group2)));
    std::cout << est.ToString() << "\n";
    return Status::OK();
  }

  Status Open(const std::string& path) {
    CODS_ASSIGN_OR_RETURN(Catalog loaded, LoadCatalog(path));
    local_versions_.Reset(loaded);
    log_.Clear();
    std::cout << "opened " << path << " (" << loaded.size() << " tables)\n";
    return Status::OK();
  }

  // `arg` is inline script text when it contains ';', else a path to a
  // script file. Prints the dependency-DAG plan; with `run`, executes it
  // through the planner + task graph (planned runs are not undoable, so
  // the undo log is cleared).
  Status Plan(const std::string& arg, bool run) {
    std::string text = arg;
    if (arg.find(';') == std::string::npos) {
      CODS_ASSIGN_OR_RETURN(text, SlurpFile(arg));
    }
    CODS_ASSIGN_OR_RETURN(std::vector<Smo> script, ParseSmoScript(text));
    ScriptPlan plan = PlanScript(script);
    std::cout << FormatScriptPlan(script, plan);
    if (!run) return Status::OK();
    // Planned runs are not undoable, and even a failed one commits the
    // serial prefix — the undo log is stale either way, so drop it
    // before executing, not only on success.
    log_.Clear();
    TaskGraphStats stats;
    if (db_ != nullptr) {
      CODS_RETURN_NOT_OK(db_->ApplyScriptPlanned(script, &stats));
    } else {
      CODS_RETURN_NOT_OK(engine_.ApplyAllPlanned(script, &stats));
    }
    std::cout << "ok: " << stats.ran << " SMOs on " << stats.threads
              << " threads, peak " << stats.max_parallel
              << " in flight\n";
    return Status::OK();
  }

  Status Undo() {
    if (log_.size() == 0) {
      return Status::InvalidArgument("nothing to undo");
    }
    Smo inverse = log_.UndoScript().front();
    CODS_RETURN_NOT_OK(ApplySmo(inverse));
    std::cout << "undid via: " << inverse.ToString() << "\n";
    // One-shot undo: recording deeper history would need the pre-states
    // of earlier operators, which are gone once undone.
    log_.Clear();
    return Status::OK();
  }

  template <typename Fn>
  void WithTable(const std::string& name, Fn&& fn) {
    auto t = versions().GetSnapshot().root().GetTable(name);
    if (!t.ok()) {
      std::cout << "error: " << t.status().ToString() << "\n";
      return;
    }
    fn(*t.ValueOrDie());
  }

  void Report(const Status& st) {
    if (!st.ok()) std::cout << "error: " << st.ToString() << "\n";
  }

  static constexpr const char* kHelp =
      "Statements end with ';'. SMOs: CREATE/DROP/RENAME/COPY TABLE, UNION\n"
      "TABLES, PARTITION TABLE, DECOMPOSE TABLE, MERGE TABLES, ADD/DROP/\n"
      "RENAME COLUMN. Queries:\n"
      "  SELECT <cols|*> FROM t [JOIN u ON x = y] [WHERE expr]\n"
      "    [ORDER BY c [DESC]] [LIMIT n];\n"
      "  SELECT COUNT(*) FROM t [JOIN u ON x = y] [WHERE expr];\n"
      "  SELECT g, SUM(m), COUNT(*), MIN(m), MAX(m), AVG(m) FROM t\n"
      "    [WHERE expr] GROUP BY g;\n"
      "Joined columns are qualified (t.c); WHERE expressions nest: =, !=,\n"
      "<, <=, >, >=, IN (..), BETWEEN a AND b, NOT, AND, OR, parens — e.g.\n"
      "  SELECT * FROM R JOIN U ON R.k = U.k WHERE a = 'x' AND (b > 3 OR\n"
      "    NOT c IN (1, 2)) ORDER BY b DESC LIMIT 10;\n"
      "Dot commands:\n"
      "  .load <csv> <table>   .tables   .show <t>   .stats <t>\n"
      "  .count <t> <col> <op> <lit>     .advise decompose <t> (c,..) (c,..)\n"
      "  .save <path>  .open <path>  .commit <msg>  .log  .checkout <v>\n"
      "  .checkpoint             force a checkpoint + WAL reset (--db)\n"
      "  .wal                    durability status: LSNs, sizes (--db)\n"
      "  .snapshot               serving stats: root id, commits/aborts,\n"
      "                          live reader pins\n"
      "  .session open <name>    pin the current snapshot under <name>\n"
      "  .session run <name> <query;>  query that pinned snapshot (reads\n"
      "                          the db as of the pin, ignoring later SMOs)\n"
      "  .session close <name>   release the pin\n"
      "  .sessions               list pinned sessions\n"
      "  .plan <file|script>     show a script's dependency-DAG plan\n"
      "  .runplan <file|script>  execute via planner (overlaps SMOs)\n"
      "  .undo  .help  .quit\n"
      "Queries always run on a pinned snapshot root, so a concurrently\n"
      "committing script never tears a result. Started with --db <dir>,\n"
      "every statement is WAL-logged and fsync'd strictly before its root\n"
      "swap becomes visible ('ok'); reopening the directory recovers the\n"
      "committed state, and sessions/.snapshot work the same way.\n"
      "Started with --connect <host:port> the shell is a thin client of a\n"
      "running cods_server instead: statements execute remotely over the\n"
      "checksummed frame protocol on that server's pinned snapshots.\n";

  std::unique_ptr<DurableDb> db_;
  VersionedCatalog local_versions_;
  LoggingObserver observer_;
  EvolutionEngine engine_;
  EvolutionLog log_;
  // Named reader pins (.session); each holds its root alive.
  std::map<std::string, Snapshot> sessions_;
};

}  // namespace

namespace {

// Thin-client mode (--connect host:port): the same statement surface,
// executed remotely over the server/client.h frame protocol. One
// binary exercises both the embedded and the networked path.
int RunConnected(const std::string& host, uint16_t port, bool interactive) {
  auto client_r = server::Client::Connect(host, port);
  if (!client_r.ok()) {
    std::cerr << "connect " << host << ":" << port << ": "
              << client_r.status().ToString() << "\n";
    return 1;
  }
  std::unique_ptr<server::Client> client = std::move(client_r).ValueOrDie();
  std::cout << "connected to " << host << ":" << port << " (session "
            << client->session_id() << ")\n"
            << "statements end with ';'; .ping checks liveness; .quit "
               "disconnects; .help lists the statement grammar\n";
  std::string pending;
  std::string line;
  while (true) {
    if (interactive) {
      std::cout << (pending.empty() ? "cods> " : "  ... ") << std::flush;
    }
    if (!std::getline(std::cin, line)) break;
    if (pending.empty() && !line.empty() && line[0] == '.') {
      if (line == ".quit" || line == ".exit") break;
      if (line == ".ping") {
        Status st = client->Ping();
        std::cout << (st.ok() ? "pong" : st.ToString()) << "\n";
        continue;
      }
      if (line == ".help") {
        std::cout
            << "Remote session: every statement is sent to the server and\n"
               "answered on its pinned snapshot; SMOs are durably committed\n"
               "before 'OK'. Statement grammar matches the embedded shell\n"
               "(SELECT / COUNT / GROUP BY, CREATE TABLE, PARTITION, ...).\n"
               "Dot commands here: .ping  .help  .quit\n";
        continue;
      }
      std::cout << "unknown command in --connect mode; try .help\n";
      continue;
    }
    pending += line;
    pending += '\n';
    // Execute once the buffer ends in ';' (outside the grammar's string
    // literals this is exactly one-or-more statements; the server
    // parses one statement per EXECUTE, so ship them one at a time).
    std::string trimmed = pending;
    while (!trimmed.empty() &&
           (trimmed.back() == '\n' || trimmed.back() == ' ' ||
            trimmed.back() == '\t' || trimmed.back() == '\r')) {
      trimmed.pop_back();
    }
    if (trimmed.empty() || trimmed.back() != ';') continue;
    pending.clear();
    auto resp = client->Execute(trimmed);
    if (!resp.ok()) {
      std::cout << "transport error: " << resp.status().ToString() << "\n";
      return 1;
    }
    std::cout << server::FormatWireResponse(resp.ValueOrDie()) << "\n";
  }
  client->Close();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // --threads N: worker count for the parallel execution layer (default:
  // CODS_THREADS env var, else hardware concurrency).
  // --db <dir>: open a crash-safe database directory (WAL + checkpoint).
  // --connect host:port: thin-client mode against a running cods_server.
  std::string db_dir;
  std::string connect;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--threads=", 0) == 0 || arg == "--threads") {
      int threads = 0;
      if (arg == "--threads" && i + 1 < argc) {
        threads = std::atoi(argv[++i]);
      } else if (arg != "--threads") {
        threads = std::atoi(arg.c_str() + 10);
      }
      if (threads <= 0) {
        std::cerr << "--threads wants a positive integer\n";
        return 2;
      }
      SetDefaultThreads(threads);
    } else if (arg.rfind("--db=", 0) == 0) {
      db_dir = arg.substr(5);
    } else if (arg == "--db" && i + 1 < argc) {
      db_dir = argv[++i];
    } else if (arg.rfind("--connect=", 0) == 0) {
      connect = arg.substr(10);
    } else if (arg == "--connect" && i + 1 < argc) {
      connect = argv[++i];
    } else {
      std::cerr << "usage: cods_shell [--threads N] [--db <dir>] "
                   "[--connect <host:port>]\n";
      return 2;
    }
  }
  if (!connect.empty()) {
    if (!db_dir.empty()) {
      std::cerr << "--connect and --db are mutually exclusive\n";
      return 2;
    }
    size_t colon = connect.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= connect.size()) {
      std::cerr << "--connect wants host:port\n";
      return 2;
    }
    int port = std::atoi(connect.c_str() + colon + 1);
    if (port <= 0 || port > 65535) {
      std::cerr << "--connect: bad port\n";
      return 2;
    }
    return RunConnected(connect.substr(0, colon),
                        static_cast<uint16_t>(port), isatty(0));
  }
  std::unique_ptr<DurableDb> db;
  if (!db_dir.empty()) {
    auto opened = DurableDb::Open(Env::Default(), db_dir);
    if (!opened.ok()) {
      std::cerr << "cannot open database '" << db_dir
                << "': " << opened.status().ToString() << "\n";
      return 1;
    }
    db = std::move(opened).ValueOrDie();
    DurableDbStats s = db->GetStats();
    std::cout << "opened durable db '" << db_dir << "' (recovered "
              << s.replayed_scripts << " scripts, "
              << s.replayed_version_marks << " version marks"
              << (s.recovered_torn_tail ? ", torn tail truncated" : "")
              << ")\n";
  }
  bool interactive = isatty(0);
  std::cout << "CODS shell — column-oriented database schema evolution\n"
            << "type .help for commands\n";
  Shell shell(std::move(db));
  return shell.Run(std::cin, interactive);
}
