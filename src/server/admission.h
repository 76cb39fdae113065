// Admission control for the server: two-lane scheduling with bounded
// queues, backpressure, and graceful drain (the NHtapDB-style OLTP/OLAP
// split, sized down to point-vs-analytic statements).
//
// Statements are classified into the POINT lane (cheap: point lookups
// and low-cardinality predicates) or the HEAVY lane (analytic: SMOs,
// joins, GROUP BY, ORDER BY, full-table SELECTs, high-cardinality
// predicates). Classification is free: the per-value popcount
// histograms the columns already maintain (Column::ValueCount is O(1))
// give an upper-bound cardinality estimate for any WHERE tree with no
// bitmap work. Each leaf costs what MatchingVids (query/expr.h) costs:
// `=` and IN are a few hash probes, whatever the dictionary size, so a
// point statement classifies in O(literals) on the event-loop thread;
// range leaves scan their dictionary once.
//
// Each lane has its own bounded queue and its own worker-slot budget,
// so a flood of heavy statements can saturate only the heavy slots —
// point statements keep flowing through their reserved slot(s). A full
// lane queue rejects with kUnavailable (backpressure, the client
// retries); Drain() stops intake and waits until both lanes are empty
// and every in-flight batch has finished.
//
// Workers are not dedicated threads: a lane with queued work chains
// batch-sized tasks onto the shared ThreadPool, holding at most
// `*_workers` slots at once, so an idle server parks no threads.

#ifndef CODS_SERVER_ADMISSION_H_
#define CODS_SERVER_ADMISSION_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "concurrency/snapshot_catalog.h"
#include "smo/parser.h"

namespace cods::server {

enum class Lane : int { kPoint = 0, kHeavy = 1 };
inline constexpr int kNumLanes = 2;

const char* LaneToString(Lane lane);

/// Upper-bound row estimate for `where` over `table` from the cached
/// per-value popcounts: leaves sum the ValueCount of their
/// MatchingVids, AND takes the child minimum, OR the clamped sum,
/// NOT the complement. Null `where` and unknown columns estimate the
/// full table.
uint64_t EstimateExprRows(const Table& table, const ExprPtr& where);

/// Classifies a statement. SMOs, joins, GROUP BY, ORDER BY, and
/// no-WHERE SELECTs are heavy; a no-WHERE COUNT is a point statement
/// (O(1) on the row count); everything else is point iff its estimate
/// is <= heavy_row_threshold. A statement on an unknown table is point
/// (it fails fast at execution). `estimated_rows` (optional) receives
/// the estimate where one was computed.
Lane ClassifyStatement(const Statement& stmt, const CatalogRoot& root,
                       uint64_t heavy_row_threshold,
                       uint64_t* estimated_rows = nullptr);

struct AdmissionOptions {
  int point_workers = 1;
  int heavy_workers = 2;
  size_t queue_limit = 1024;  // per-lane pending statements
  size_t max_batch = 16;      // statements handed to one batch run
};

/// One queued unit of work. The payload is owner-defined (the server
/// queues its PendingStatement); the controller only orders, batches,
/// bounds, and drains.
struct AdmissionTask {
  std::shared_ptr<void> payload;
  std::chrono::steady_clock::time_point deadline;
};

struct LaneStats {
  uint64_t submitted = 0;
  uint64_t rejected_full = 0;  // kUnavailable: queue at limit
  uint64_t executed = 0;       // tasks handed to the runner
  uint64_t batches = 0;        // runner invocations
};

struct AdmissionStats {
  LaneStats point;
  LaneStats heavy;
};

class AdmissionController {
 public:
  /// Runs one dequeued batch; called on a shared-pool thread with
  /// 1..max_batch tasks from a single lane. Deadline enforcement is the
  /// runner's job (it owns the task responses).
  using BatchRunner = std::function<void(Lane, std::vector<AdmissionTask>)>;

  AdmissionController(BatchRunner runner, AdmissionOptions options);
  ~AdmissionController();

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// Enqueues a task. kUnavailable when the lane queue is full or the
  /// controller is draining.
  Status Submit(Lane lane, AdmissionTask task);

  /// Stops intake (Submit returns kUnavailable) and blocks until both
  /// queues are empty and every in-flight batch has returned.
  /// Idempotent.
  void Drain();

  AdmissionStats GetStats() const;

 private:
  struct LaneState {
    std::deque<AdmissionTask> queue;
    int active_workers = 0;
    LaneStats stats;
  };

  int MaxWorkers(Lane lane) const;
  void MaybeSpawnWorkerLocked(Lane lane);
  void WorkerLoop(Lane lane);
  bool IdleLocked() const;

  const BatchRunner runner_;
  const AdmissionOptions options_;

  mutable std::mutex mu_;
  std::condition_variable drain_cv_;
  bool draining_ = false;
  LaneState lanes_[kNumLanes];
};

}  // namespace cods::server

#endif  // CODS_SERVER_ADMISSION_H_
