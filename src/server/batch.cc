#include "server/batch.h"

#include <map>
#include <memory>
#include <string>
#include <utility>

#include "query/expr.h"
#include "storage/table.h"

namespace cods::server {

namespace {

/// True when the sharing rules cover this request: single table,
/// plain SELECT/COUNT with a WHERE, no reordering or truncation.
bool Shareable(const QueryRequest& q) {
  if (!q.join_table.empty() || !q.group_by.empty() || !q.order_by.empty()) {
    return false;
  }
  if (q.verb == QueryRequest::Verb::kGroupBy) return false;
  if (q.limit >= 0) return false;
  return q.where != nullptr;
}

BatchOutcome FromResult(Result<QueryResult> r) {
  BatchOutcome out;
  if (r.ok()) {
    out.result = std::move(r).ValueOrDie();
  } else {
    out.status = r.status();
  }
  return out;
}

}  // namespace

std::vector<BatchOutcome> ExecuteQueryBatch(
    const TableStore& store, const std::vector<const QueryRequest*>& requests,
    const ExecContext* ctx, BatchStats* stats) {
  std::vector<BatchOutcome> outcomes(requests.size());
  if (stats != nullptr) stats->statements += requests.size();
  QueryEngine engine(&store);
  ExecContext exec = ResolveContext(ctx);

  // Group shareable statements by (table, normalized WHERE); everything
  // else executes individually.
  std::map<std::string, std::vector<size_t>> groups;
  for (size_t i = 0; i < requests.size(); ++i) {
    const QueryRequest& q = *requests[i];
    if (Shareable(q)) {
      groups[q.table + '\x01' + NormalizeExpr(q.where)->ToString()]
          .push_back(i);
    } else {
      outcomes[i] = FromResult(engine.Execute(q, &exec));
    }
  }

  for (auto& [group_key, members] : groups) {
    (void)group_key;
    if (members.size() == 1) {
      size_t i = members[0];
      outcomes[i] = FromResult(engine.Execute(*requests[i], &exec));
      continue;
    }

    // Shared path: one predicate eval answers every member.
    const QueryRequest& first = *requests[members[0]];
    Result<std::shared_ptr<const Table>> table_r = store.GetTable(first.table);
    if (!table_r.ok()) {
      for (size_t i : members) {
        outcomes[i] = FromResult(engine.Execute(*requests[i], &exec));
      }
      continue;
    }
    const Table& table = *table_r.ValueOrDie();
    Result<ValueBitmap> bitmap_r = EvalExpr(table, first.where, &exec);
    if (!bitmap_r.ok()) {
      for (size_t i : members) {
        BatchOutcome out;
        out.status = bitmap_r.status();
        outcomes[i] = std::move(out);
      }
      continue;
    }
    const ValueBitmap& selection = bitmap_r.ValueOrDie();
    if (stats != nullptr) {
      ++stats->shared_groups;
      stats->batch_hits += members.size() - 1;
    }

    // Distinct SELECT shapes each project the shared selection; exact
    // duplicates share one result.
    std::map<std::string, size_t> by_text;  // stmt text -> first outcome
    bool first_member = true;
    for (size_t i : members) {
      const QueryRequest& q = *requests[i];
      BatchOutcome out;
      out.shared = !first_member;
      first_member = false;
      if (q.verb == QueryRequest::Verb::kCount) {
        out.result.verb = QueryRequest::Verb::kCount;
        out.result.count = selection.CountOnes();
        outcomes[i] = std::move(out);
        continue;
      }
      std::string text = q.ToString();
      auto it = by_text.find(text);
      if (it != by_text.end()) {
        out.status = outcomes[it->second].status;
        out.result = outcomes[it->second].result;
        out.shared = true;
        outcomes[i] = std::move(out);
        continue;
      }
      Result<std::shared_ptr<const Table>> built =
          QueryEngine::ProjectSelection(table, q.columns, selection, q.where,
                                        q.out_name, &exec);
      if (built.ok()) {
        out.result.verb = QueryRequest::Verb::kSelect;
        out.result.table = std::move(built).ValueOrDie();
      } else {
        out.status = built.status();
      }
      by_text.emplace(std::move(text), i);
      outcomes[i] = std::move(out);
    }
  }
  return outcomes;
}

}  // namespace cods::server
