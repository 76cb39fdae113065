// The CODS evolution engine: interprets Schema Modification Operators
// against a catalog, executing data evolution at the data level. This is
// the component behind the demo's "execution" button.
//
// One execution core runs every call: the script is staged against a
// pinned base (a private overlay records each operator's catalog
// effects; nothing visible changes), then the effects of the applied
// prefix — every operator before the first failure — commit at once.
// Staging is serial (Apply, ApplyAll) or planned (ApplyAllPlanned: the
// script becomes a dependency DAG over the operators' table read/write
// sets, plan/script_planner.h, run on the exec-layer TaskGraph so
// independent operators overlap). Either way the final catalog — schemas
// and per-column WAH code words — is bit-identical at every thread
// count, and a failure leaves exactly the serial prefix committed with
// the same error Status ("<SMO text>: <cause>"); a failing operator
// commits none of its own effects.
//
// The bound store only decides the commit: a Catalog replays the
// effects in place; a SnapshotCatalog commits them through its
// first-writer-wins protocol (optionally logging the script to the WAL
// inside the commit critical section).

#ifndef CODS_EVOLUTION_ENGINE_H_
#define CODS_EVOLUTION_ENGINE_H_

#include <vector>

#include "evolution/decompose.h"
#include "evolution/merge.h"
#include "evolution/observer.h"
#include "evolution/simple_ops.h"
#include "evolution/smo.h"
#include "exec/exec.h"
#include "exec/task_graph.h"
#include "storage/catalog.h"

namespace cods {

class ScriptLog;        // common/script_log.h (durability's WalWriter)
class SnapshotCatalog;  // concurrency/snapshot_catalog.h
class StagedCatalog;    // plan/staged_catalog.h
struct CatalogEffect;   // plan/staged_catalog.h

/// Engine options.
struct EngineOptions {
  /// Check lossless-join / key preconditions on the data before running
  /// DECOMPOSE and the key–FK mergence path.
  bool validate_preconditions = false;
  /// Run Table::ValidateInvariants on every produced table (tests).
  bool validate_outputs = false;
  /// COPY TABLE physically duplicates storage instead of sharing it.
  bool deep_copy = false;
  /// Worker threads for the data-movement phases of DECOMPOSE / MERGE /
  /// UNION / PARTITION, output validation, and — in planned mode — the
  /// script-level task graph. 0: process default (CODS_THREADS env var,
  /// else hardware concurrency); 1: strictly serial. Results are
  /// bit-identical at every thread count.
  int num_threads = 0;
  /// Snapshot mode only (the Catalog constructor checks it is null):
  /// every script is logged as WAL BEGIN / STATEMENT* / COMMIT inside
  /// the commit critical section, after conflict validation and strictly
  /// before the root swap — an aborted script never reaches the log, and
  /// a root can only become visible to readers once the script producing
  /// it is fsync-durable. The commit record counts the statements that
  /// succeeded, which keeps mid-script failures replayable. A WAL write
  /// failure outranks the script's own status. Owned by the caller
  /// (durability/db.h).
  ScriptLog* wal = nullptr;
};

/// Applies SMOs to a catalog.
///
/// Catalog effects per operator:
///   CREATE/COPY add a table; DROP removes one; RENAME renames in place.
///   DECOMPOSE replaces the input with its two outputs; MERGE and UNION
///   replace their two inputs with the output; PARTITION replaces the
///   input with the two parts; the column operators replace the input
///   table with its new version under the same name.
class EvolutionEngine {
 public:
  /// Catalog mode: the applied prefix's effects replay onto `catalog`.
  /// `options.wal` must be null.
  explicit EvolutionEngine(Catalog* catalog,
                           EvolutionObserver* observer = nullptr,
                           EngineOptions options = {});

  /// Snapshot-commit mode: scripts stage against the catalog's current
  /// root (readers keep serving pinned snapshots, unblocked) and commit
  /// through SnapshotCatalog's first-writer-wins protocol — a competing
  /// committed writer aborts the script with kAborted unless the write
  /// sets are disjoint, in which case the effects rebase cleanly.
  explicit EvolutionEngine(SnapshotCatalog* snapshots,
                           EvolutionObserver* observer = nullptr,
                           EngineOptions options = {});

  /// Executes one operator.
  Status Apply(const Smo& smo);

  /// Executes a script serially; stops at the first failure.
  Status ApplyAll(const std::vector<Smo>& script);

  /// Executes a script through the planner + task graph: independent
  /// operators overlap on num_threads workers, and the effects commit in
  /// script order — so on success the catalog is bit-identical to
  /// ApplyAll, and on failure exactly the operators preceding the first
  /// failing SCRIPT POSITION are committed and that operator's Status
  /// is returned (operators with no path from the failure may have run;
  /// their staged effects are discarded). Fills `stats` (optional) with
  /// the task-graph execution statistics.
  Status ApplyAllPlanned(const std::vector<Smo>& script,
                         TaskGraphStats* stats = nullptr);

 private:
  // The execution core and its staging half are declared here but
  // DEFINED one layer up, in concurrency/engine_snapshot.cc: evolution
  // sits below plan and concurrency in the architecture, so the glue
  // that needs their types lives there and this header only
  // forward-declares.

  // Stages `script` (serially, or planned) against a pinned base, then
  // commits the applied prefix's effects to the bound store. The commit
  // failing (conflict abort, WAL error) outranks the script's status.
  Status Run(const std::vector<Smo>& script, TaskGraphStats* stats,
             bool planned);
  // Stages a script against `staged` without committing anything. On
  // return `effects[i]` holds operator i's staged effects, `applied` the
  // length of the commit prefix (every operator before the first
  // script-order failure), and the returned Status is that first
  // failure (OK when all ran).
  Status StageScript(StagedCatalog* staged, const std::vector<Smo>& script,
                     bool planned, TaskGraphStats* stats,
                     std::vector<std::vector<CatalogEffect>>* effects,
                     size_t* applied);
  // Operator interpreters over one staged view. `observer` rather than
  // the member so planned execution can substitute a serializing
  // adapter.
  Status ApplyTo(TableStore& store, const Smo& smo,
                 EvolutionObserver* observer);
  Status ApplyCreateTable(TableStore& store, const Smo& smo);
  Status ApplyDecompose(TableStore& store, const Smo& smo,
                        EvolutionObserver* observer);
  Status ApplyMerge(TableStore& store, const Smo& smo,
                    EvolutionObserver* observer);
  Status ApplyUnion(TableStore& store, const Smo& smo,
                    EvolutionObserver* observer);
  Status ApplyPartition(TableStore& store, const Smo& smo,
                        EvolutionObserver* observer);
  Status ApplyColumnOp(TableStore& store, const Smo& smo);

  // Validates a produced table when validate_outputs is on.
  Status MaybeValidate(const Table& table);

  Catalog* catalog_;            // exactly one of catalog_ /
  SnapshotCatalog* snapshots_;  // snapshots_ is non-null
  EvolutionObserver* observer_;
  EngineOptions options_;
  ExecContext exec_ctx_;
};

}  // namespace cods

#endif  // CODS_EVOLUTION_ENGINE_H_
