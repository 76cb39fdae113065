// The batching executor: compatible queued queries against the same
// pinned root share one compressed predicate eval.
//
// Within one admission batch, statements group by (table, normalized
// WHERE). A group with more than one statement evaluates its predicate
// bitmap ONCE (query/expr.h EvalExpr on the compressed WAH kernels) and
// answers every member off it: COUNT members read the bitmap's O(1)
// popcount, SELECT members project the shared selection through
// QueryEngine::ProjectSelection (the result build every SELECT uses —
// the eval is shared, the projection build is per distinct
// statement), and exact-duplicate statements share one result object
// outright. Statements the sharing rules do not cover (joins, GROUP
// BY, ORDER BY/LIMIT, no-WHERE) execute individually through
// QueryEngine.
//
// Every statement answered without running its own predicate eval
// counts as a `batch_hit` — the observable proof of sharing that
// bench_server and tests/test_server.cc assert on.

#ifndef CODS_SERVER_BATCH_H_
#define CODS_SERVER_BATCH_H_

#include <cstdint>
#include <vector>

#include "query/query_engine.h"

namespace cods::server {

struct BatchStats {
  uint64_t statements = 0;    // queries pushed through the executor
  uint64_t shared_groups = 0; // groups answered off one shared eval
  uint64_t batch_hits = 0;    // statements that reused a shared eval
};

/// Outcome of one statement of a batch.
struct BatchOutcome {
  Status status;       // non-OK: the error answer for this statement
  QueryResult result;  // valid iff status.ok()
  bool shared = false; // answered off a shared eval / shared result
};

/// Executes `requests` against `store` (one pinned root), sharing
/// evals among compatible statements. Returns one outcome per request,
/// in request order; `stats` (optional) accumulates counters.
std::vector<BatchOutcome> ExecuteQueryBatch(
    const TableStore& store, const std::vector<const QueryRequest*>& requests,
    const ExecContext* ctx, BatchStats* stats = nullptr);

}  // namespace cods::server

#endif  // CODS_SERVER_BATCH_H_
