// The execution core of EvolutionEngine: stage, then commit.
//
// EvolutionEngine (evolution/engine.h) declares the SnapshotCatalog
// constructor, Run and StageScript, but evolution sits below plan/ and
// concurrency/ in the architecture, so the definitions — which need the
// script planner, the staged-catalog overlay and the MVCC commit
// protocol — live here, with the protocol they integrate. They link into
// the same engine; only the include graph is layered.

#include "common/script_log.h"
#include "concurrency/snapshot_catalog.h"
#include "evolution/engine.h"
#include "evolution/observer.h"
#include "plan/script_planner.h"
#include "plan/staged_catalog.h"

namespace cods {

EvolutionEngine::EvolutionEngine(SnapshotCatalog* snapshots,
                                 EvolutionObserver* observer,
                                 EngineOptions options)
    : catalog_(nullptr),
      snapshots_(snapshots),
      observer_(observer),
      options_(options),
      exec_ctx_(options.num_threads) {
  CODS_CHECK(snapshots_ != nullptr);
}

Status EvolutionEngine::Run(const std::vector<Smo>& script,
                            TaskGraphStats* stats, bool planned) {
  if (stats != nullptr) *stats = {};
  if (script.empty()) return Status::OK();
  // Pin the base and stage the whole script against it; nothing here
  // touches the bound store, so readers keep serving.
  RootPtr base = snapshots_ != nullptr ? snapshots_->current() : nullptr;
  StagedCatalog staged(catalog_ != nullptr
                           ? static_cast<const TableStore*>(catalog_)
                           : base.get());
  std::vector<std::vector<CatalogEffect>> effects(script.size());
  size_t applied = 0;
  Status run = StageScript(&staged, script, planned, stats, &effects, &applied);

  std::vector<CatalogEffect> prefix;
  for (size_t i = 0; i < applied; ++i) {
    prefix.insert(prefix.end(), effects[i].begin(), effects[i].end());
  }
  if (catalog_ != nullptr) {
    for (const CatalogEffect& effect : prefix) {
      CODS_RETURN_NOT_OK(ApplyEffect(effect, catalog_));
    }
    return run;
  }
  // The WAL records the script inside the commit critical section:
  // after conflict validation (an aborted script never reaches the log
  // — it had no effect, so replay must not see it) and strictly before
  // the root swap (readers can only observe roots whose scripts are
  // fsync-durable).
  SnapshotCatalog::PreSwapFn pre_swap;
  if (options_.wal != nullptr) {
    pre_swap = [this, &script, applied]() -> Status {
      ScriptLog& wal = *options_.wal;
      CODS_RETURN_NOT_OK(wal.BeginScript());
      for (const Smo& smo : script) {
        CODS_RETURN_NOT_OK(wal.AppendStatement(smo.ToString()));
      }
      return wal.CommitScript(static_cast<uint32_t>(applied));
    };
  }
  // A conflict abort or durability failure outranks the script's own
  // status: the caller must not treat any part of it as applied.
  CODS_RETURN_NOT_OK(snapshots_->CommitEffects(base, prefix, pre_swap));
  return run;
}

Status EvolutionEngine::StageScript(
    StagedCatalog* staged, const std::vector<Smo>& script, bool planned,
    TaskGraphStats* stats, std::vector<std::vector<CatalogEffect>>* effects,
    size_t* applied) {
  const size_t n = script.size();
  *applied = 0;
  // The statement text prefixes a failure's message; it is rendered
  // only when a statement fails.
  auto stage = [this, staged, effects, &script](
                   size_t i, EvolutionObserver* observer) -> Status {
    StagedCatalog::View view = staged->MakeView(&(*effects)[i]);
    Status st = ApplyTo(view, script[i], observer);
    return st.ok() ? st : st.WithContext(script[i].ToString());
  };

  if (!planned) {
    for (size_t i = 0; i < n; ++i) {
      CODS_RETURN_NOT_OK(stage(i, observer_));
      ++*applied;
    }
    return Status::OK();
  }

  ScriptPlan plan = PlanScript(script);
  // Observers written for serial execution must not see concurrent
  // callbacks from overlapping operators.
  SerializedObserver serialized(observer_);
  EvolutionObserver* observer = observer_ != nullptr ? &serialized : nullptr;

  TaskGraph graph;
  for (size_t i = 0; i < n; ++i) {
    graph.AddTask([&stage, observer, i]() { return stage(i, observer); },
                  SmoKindToString(script[i].kind));
  }
  for (size_t i = 0; i < n; ++i) {
    for (size_t dep : plan.tasks[i].deps) {
      graph.AddDependency(static_cast<int>(i), static_cast<int>(dep));
    }
  }

  Status run_status = graph.Run(exec_ctx_);
  if (stats != nullptr) *stats = graph.stats();

  // Planner graphs are acyclic by construction; a non-OK Run with every
  // task status OK means nothing executed (defensive) — commit nothing.
  if (!run_status.ok()) {
    bool any_task_failed = false;
    for (size_t i = 0; i < n && !any_task_failed; ++i) {
      any_task_failed = !graph.task_status(static_cast<int>(i)).ok();
    }
    if (!any_task_failed) return run_status;
  }

  // The commit prefix stops at the first failed SCRIPT position —
  // exactly the operators serial ApplyAll would have applied.
  for (size_t i = 0; i < n; ++i) {
    CODS_RETURN_NOT_OK(graph.task_status(static_cast<int>(i)));
    ++*applied;
  }
  return Status::OK();
}

}  // namespace cods
