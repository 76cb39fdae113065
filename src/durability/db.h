// DurableDb: the crash-safe database directory. Ties together the WAL
// (durability/wal.h), checksummed checkpoints (durability/checkpoint.h)
// and the evolution engine's WAL commit hook into one recovery story:
//
//   open  = load last good checkpoint (if any) + replay the WAL suffix
//           whose commit LSNs exceed the checkpoint's covering LSN
//   write = engine stages the script against the current root, then —
//           inside the commit critical section — logs BEGIN/STATEMENT*/
//           COMMIT, fsyncs, and swaps the root; (policy) auto-
//           checkpoints once the WAL grows past a size threshold and
//           resets the log
//
// Invariants proved by tests/test_recovery.cc under FaultInjectionEnv:
// after a crash at ANY operation, re-opening the directory yields a
// catalog bit-identical (WAH code words included) to the state after
// the last committed script — no committed script lost, no uncommitted
// script visible. Damage to synced history (bit flips under the last
// commit point, corrupt checkpoints) surfaces as kCorruption, never as
// silently wrong data.
//
// A WAL I/O failure (failed fsync included) poisons the db: the failed
// script is unacknowledged, and every later mutation returns the
// original error. Re-opening the directory recovers to the last
// durable state. Version history (VersionedCatalog) commits are logged
// as self-committing marks and reproduced by replay; marks older than
// the covering checkpoint are not reconstructed (the checkpoint holds
// only the catalog image).
//
// Concurrent serving: the catalog state lives in the VersionedCatalog's
// SnapshotCatalog core, and the engine runs in snapshot-commit mode —
// reader threads pin roots with GetSnapshot() and query them while
// ApplyScript commits. The WAL COMMIT fsync runs inside the commit
// critical section strictly BEFORE the root swap, so a root readers can
// observe always corresponds to a crash-durable script, and recovery
// and concurrency agree on what "committed" means.

#ifndef CODS_DURABILITY_DB_H_
#define CODS_DURABILITY_DB_H_

#include <memory>
#include <string>
#include <vector>

#include "common/env.h"
#include "durability/wal.h"
#include "evolution/engine.h"
#include "concurrency/versioned_catalog.h"

namespace cods {

struct DurableDbOptions {
  /// Options for the wrapped engine; `wal` is overwritten by DurableDb.
  EngineOptions engine;
  /// Checkpoint + reset the WAL when it exceeds this many bytes
  /// (checked after each committed script). 0 disables the policy.
  uint64_t auto_checkpoint_wal_bytes = 4ull << 20;
};

/// Point-in-time counters for `.wal` / monitoring.
struct DurableDbStats {
  uint64_t next_lsn = 0;
  uint64_t durable_lsn = 0;      // last fsync'd record this session
  uint64_t checkpoint_lsn = 0;   // covering LSN of the last checkpoint
  uint64_t wal_bytes = 0;
  uint64_t replayed_scripts = 0;       // recovered at Open
  uint64_t replayed_version_marks = 0;  // recovered at Open
  bool recovered_torn_tail = false;     // Open truncated a torn tail
  bool checkpoint_exists = false;
  bool healthy = true;
  std::string health_message;           // first I/O failure, if any
};

class DurableDb {
 public:
  /// Opens (creating if needed) the database directory `dir`, running
  /// recovery: checkpoint load, torn-tail truncation, WAL replay.
  static Result<std::unique_ptr<DurableDb>> Open(Env* env,
                                                 const std::string& dir,
                                                 DurableDbOptions options = {});

  DurableDb(const DurableDb&) = delete;
  DurableDb& operator=(const DurableDb&) = delete;

  /// Pins the current committed root for reading: a pointer copy under
  /// a shared lock, never blocked by a writer's work. The snapshot stays
  /// consistent (and its tables alive) however many scripts commit after
  /// it.
  Snapshot GetSnapshot() const { return versions_.GetSnapshot(); }
  /// The version history + serving core; commit versions only through
  /// CommitVersion, and route raw (non-statement) mutation through
  /// versions()->Apply — both keep the WAL and the roots in step.
  VersionedCatalog* versions() { return &versions_; }

  /// Durably applies a script: WAL-logged, fsync'd at commit, then
  /// applied. Returns the engine's status; an OK return means the
  /// script is both applied and crash-durable.
  Status ApplyScript(const std::vector<Smo>& script);

  /// ApplyScript through the planner + task graph.
  Status ApplyScriptPlanned(const std::vector<Smo>& script,
                            TaskGraphStats* stats = nullptr);

  /// Durably commits a version snapshot; returns its id.
  Result<uint64_t> CommitVersion(const std::string& message);

  /// Forces a checkpoint covering everything committed so far, then
  /// resets the WAL.
  Status Checkpoint();

  DurableDbStats GetStats() const;

 private:
  DurableDb(Env* env, std::string dir, DurableDbOptions options)
      : env_(env), dir_(std::move(dir)), options_(std::move(options)) {}

  std::string WalPath() const;
  std::string CheckpointPath() const;
  /// Sticky gate: non-OK once any durability operation has failed.
  Status Healthy() const;
  /// (Re)creates the engine bound to the current WAL writer.
  void RebuildEngine();
  void MaybeAutoCheckpoint();

  Env* env_;
  std::string dir_;
  DurableDbOptions options_;
  VersionedCatalog versions_;
  std::unique_ptr<WalWriter> wal_;
  std::unique_ptr<EvolutionEngine> engine_;
  uint64_t checkpoint_lsn_ = 0;
  uint64_t replayed_scripts_ = 0;
  uint64_t replayed_marks_ = 0;
  bool recovered_torn_tail_ = false;
  Status failed_;  // sticky rotation/checkpoint-infrastructure failure
};

}  // namespace cods

#endif  // CODS_DURABILITY_DB_H_
