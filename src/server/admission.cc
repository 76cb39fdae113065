#include "server/admission.h"

#include <algorithm>
#include <utility>

#include "exec/thread_pool.h"
#include "storage/table.h"

namespace cods::server {

const char* LaneToString(Lane lane) {
  return lane == Lane::kPoint ? "point" : "heavy";
}

uint64_t EstimateExprRows(const Table& table, const ExprPtr& where) {
  const uint64_t rows = table.rows();
  if (where == nullptr) return rows;
  switch (where->kind) {
    case ExprKind::kCompare:
    case ExprKind::kIn:
    case ExprKind::kBetween: {
      Result<std::shared_ptr<const Column>> col =
          table.ColumnByRef(where->column);
      if (!col.ok()) return rows;  // unknown ref: no estimate
      const Column& column = *col.ValueOrDie();
      uint64_t est = 0;
      for (Vid vid : MatchingVids(column, *where)) {
        est += column.ValueCount(vid);
      }
      return est;
    }
    case ExprKind::kNot: {
      uint64_t child = EstimateExprRows(table, where->children[0]);
      return child >= rows ? 0 : rows - child;
    }
    case ExprKind::kAnd: {
      uint64_t est = rows;
      for (const ExprPtr& child : where->children) {
        est = std::min(est, EstimateExprRows(table, child));
      }
      return est;
    }
    case ExprKind::kOr: {
      uint64_t est = 0;
      for (const ExprPtr& child : where->children) {
        est += EstimateExprRows(table, child);
        if (est >= rows) return rows;
      }
      return est;
    }
  }
  return rows;
}

Lane ClassifyStatement(const Statement& stmt, const CatalogRoot& root,
                       uint64_t heavy_row_threshold,
                       uint64_t* estimated_rows) {
  if (estimated_rows != nullptr) *estimated_rows = 0;
  if (stmt.kind == Statement::Kind::kSmo) return Lane::kHeavy;
  const QueryRequest& q = stmt.query;
  if (!q.join_table.empty() || !q.group_by.empty() ||
      q.verb == QueryRequest::Verb::kGroupBy || !q.order_by.empty()) {
    return Lane::kHeavy;
  }
  if (q.where == nullptr) {
    // COUNT(*) with no predicate is O(1); a bare SELECT ships the whole
    // table over the wire.
    return q.verb == QueryRequest::Verb::kCount ? Lane::kPoint : Lane::kHeavy;
  }
  std::shared_ptr<const Table> table = root.Lookup(q.table);
  if (table == nullptr) return Lane::kPoint;  // fails fast at execution
  uint64_t est = EstimateExprRows(*table, NormalizeExpr(q.where));
  if (estimated_rows != nullptr) *estimated_rows = est;
  return est <= heavy_row_threshold ? Lane::kPoint : Lane::kHeavy;
}

AdmissionController::AdmissionController(BatchRunner runner,
                                         AdmissionOptions options)
    : runner_(std::move(runner)), options_(options) {}

AdmissionController::~AdmissionController() { Drain(); }

int AdmissionController::MaxWorkers(Lane lane) const {
  int n = lane == Lane::kPoint ? options_.point_workers
                               : options_.heavy_workers;
  return std::max(1, n);
}

Status AdmissionController::Submit(Lane lane, AdmissionTask task) {
  std::lock_guard<std::mutex> lock(mu_);
  LaneState& state = lanes_[static_cast<int>(lane)];
  if (draining_) {
    return Status::Unavailable("server is draining");
  }
  if (state.queue.size() >= options_.queue_limit) {
    ++state.stats.rejected_full;
    return Status::Unavailable(std::string(LaneToString(lane)) +
                               " lane queue full (" +
                               std::to_string(options_.queue_limit) +
                               " pending)");
  }
  state.queue.push_back(std::move(task));
  ++state.stats.submitted;
  MaybeSpawnWorkerLocked(lane);
  return Status::OK();
}

void AdmissionController::MaybeSpawnWorkerLocked(Lane lane) {
  LaneState& state = lanes_[static_cast<int>(lane)];
  if (state.queue.empty() || state.active_workers >= MaxWorkers(lane)) {
    return;
  }
  ++state.active_workers;
  // Enough pool threads for every worker slot to run concurrently, so a
  // saturated heavy lane cannot sit on the point lane's slot.
  ThreadPool* pool =
      SharedPool(std::max(1, options_.point_workers + options_.heavy_workers));
  pool->Submit([this, lane] { WorkerLoop(lane); });
}

void AdmissionController::WorkerLoop(Lane lane) {
  LaneState& state = lanes_[static_cast<int>(lane)];
  for (;;) {
    std::vector<AdmissionTask> batch;
    {
      std::lock_guard<std::mutex> lock(mu_);
      size_t n = std::min(state.queue.size(), options_.max_batch);
      if (n == 0) {
        --state.active_workers;
        if (IdleLocked()) drain_cv_.notify_all();
        return;
      }
      batch.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        batch.push_back(std::move(state.queue.front()));
        state.queue.pop_front();
      }
      ++state.stats.batches;
      state.stats.executed += n;
    }
    runner_(lane, std::move(batch));
  }
}

bool AdmissionController::IdleLocked() const {
  for (const LaneState& state : lanes_) {
    if (!state.queue.empty() || state.active_workers > 0) return false;
  }
  return true;
}

void AdmissionController::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  draining_ = true;
  drain_cv_.wait(lock, [this] { return IdleLocked(); });
}

AdmissionStats AdmissionController::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  AdmissionStats stats;
  stats.point = lanes_[static_cast<int>(Lane::kPoint)].stats;
  stats.heavy = lanes_[static_cast<int>(Lane::kHeavy)].stats;
  return stats;
}

}  // namespace cods::server
