// The unified query front door. A QueryRequest is the typed form of a
// SELECT statement — projection / COUNT(*) / multi-aggregate GROUP BY
// over one table or an equi-join of two — and QueryEngine executes it
// against the TableStore interface (storage/catalog.h). The same
// request therefore runs on the live Catalog or on a
// StagedCatalog::View mid-script: queries and schema evolution share one
// storage contract, one statement parser (smo/parser.h), and the same
// compressed-domain WAH kernels (PAPER.md Figure 2).
//
// Execution shape:
//   * JOIN runs compressed-to-compressed through CompressedEquiJoin
//     (query/join.h): a dictionary vid-intersection classifies the join,
//     the key–FK shape shrinks the scanning side with the PARTITION
//     position-filter builders, the general shape lays value-clustered
//     blocks out as fill runs. The join result carries qualified
//     `<table>.<column>` names; references in the rest of the statement
//     resolve through Schema::ResolveColumnRef.
//   * WHERE compiles through EvalExpr / EvalExprCount — leaves in
//     parallel on the ExecContext, k-way AND/OR combines, count-only
//     kernels when no rows are materialized.
//   * SELECT builds the result compressed-to-compressed through the
//     position-filter machinery, keeping only the values the selection
//     hits (a result dictionary holds exactly its present values), so a
//     point SELECT builds containers only for the values it returns; a
//     request with no WHERE shares the input's column pointers outright
//     (the §2.4 "reuse unchanged columns" move, one pointer copy per
//     column).
//   * GROUP BY runs every aggregate (SUM/COUNT/MIN/MAX/AVG) off ONE
//     compressed AND per (group, measure-value) pair, never
//     materializing rows; a WHERE narrows each group bitmap with one
//     compressed AND first.
//   * ORDER BY ... LIMIT n is a rank-ordered walk (late
//     materialization): the sort column's dictionary ranks on the total
//     Value order (NaN after every real number), ranks are visited ASC
//     or DESC, and each visited value contributes its bitmap ∧ the
//     WHERE selection in row-position order until n rows are picked
//     (order-equal values share a rank, so ties stay stable on input
//     position in both directions). Only the picked rows are projected,
//     then permuted; result dictionaries hold exactly the values present,
//     as for SELECT. No LIMIT is the n = all case of the same walk.
//   * COUNT(*) over a JOIN whose WHERE conjuncts each touch one side
//     stays count-only: each side's conjunction evaluates on its base
//     table and CompressedEquiJoinCount folds the two selections into
//     its per-value popcount products. A conjunct mixing both sides
//     runs the materializing plan.
//
// Results are bit-identical at every thread count (the determinism
// contract of src/exec/).

#ifndef CODS_QUERY_QUERY_ENGINE_H_
#define CODS_QUERY_QUERY_ENGINE_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exec/exec.h"
#include "query/expr.h"
#include "storage/catalog.h"

namespace cods {

/// One aggregate of a GROUP BY select list. `column` is empty only for
/// COUNT(*).
struct AggregateSpec {
  enum class Kind { kSum, kCount, kMin, kMax, kAvg };
  Kind kind = Kind::kSum;
  std::string column;

  static AggregateSpec Sum(std::string column);
  static AggregateSpec Count(std::string column = "");  // "" = COUNT(*)
  static AggregateSpec Min(std::string column);
  static AggregateSpec Max(std::string column);
  static AggregateSpec Avg(std::string column);

  /// "SUM(Salary)", "COUNT(*)" — the statement-grammar rendering.
  std::string ToString() const;
};

bool operator==(const AggregateSpec& a, const AggregateSpec& b);

/// One query, in the shape the statement grammar produces:
///
///   SELECT <columns|*> FROM t [JOIN u ON x = y] [WHERE e]
///     [ORDER BY c [DESC]] [LIMIT n]                        -> kSelect
///   SELECT COUNT(*) FROM t [JOIN u ON x = y] [WHERE e]     -> kCount
///   SELECT [g,] agg, ... FROM t [JOIN u ON x = y] [WHERE e]
///     GROUP BY g                                           -> kGroupBy
struct QueryRequest {
  enum class Verb { kSelect, kCount, kGroupBy };

  Verb verb = Verb::kSelect;
  std::string table;

  /// Optional equi-join: `table JOIN join_table ON join_left =
  /// join_right`. The two references may be qualified (`t.c`); sides
  /// are matched to tables at execution time.
  std::string join_table;
  std::string join_left;
  std::string join_right;

  /// kSelect: projected column references in request order; empty means
  /// all. Duplicates (after resolution) are an error naming the
  /// position.
  std::vector<std::string> columns;

  /// Optional predicate; null selects every row.
  ExprPtr where;

  /// kGroupBy: the grouping column and the aggregate list (request
  /// order).
  std::string group_by;
  std::vector<AggregateSpec> aggregates;

  /// kSelect: optional sort column and direction; rows order on the
  /// total Value order (NaN last ascending), ties broken by input row
  /// position (stable at every thread count). The sort column need not
  /// be projected. Like every SELECT result, an ordered one carries
  /// present-values dictionaries.
  std::string order_by;
  bool order_desc = false;

  /// kSelect: maximum rows of the result; negative = no limit.
  int64_t limit = -1;

  /// kSelect: name of the result table.
  std::string out_name = "result";

  // ---- Factories ---------------------------------------------------------
  static QueryRequest Select(std::string table,
                             std::vector<std::string> columns = {},
                             ExprPtr where = nullptr,
                             std::string out_name = "result");
  static QueryRequest Count(std::string table, ExprPtr where = nullptr);
  /// The single-aggregate back-compat shape: SELECT g, SUM(m) ... .
  static QueryRequest GroupBySum(std::string table, std::string group_by,
                                 std::string sum_column,
                                 ExprPtr where = nullptr);
  static QueryRequest GroupBy(std::string table, std::string group_by,
                              std::vector<AggregateSpec> aggregates,
                              ExprPtr where = nullptr);

  /// Adds the join clause to any request shape.
  QueryRequest& JoinOn(std::string join_table, std::string left_ref,
                       std::string right_ref);
  /// Adds ORDER BY / LIMIT to a kSelect request.
  QueryRequest& OrderBy(std::string column, bool desc = false);
  QueryRequest& Limit(int64_t n);

  /// Renders the request in the statement grammar; re-parses to an
  /// equivalent request (the Statement round-trip contract).
  std::string ToString() const;
};

/// One output row of a GROUP BY query: the group value plus one Value
/// per aggregate, in request order. SUM/AVG are doubles, COUNT is an
/// int64, MIN/MAX carry the measure column's type — or NULL for a
/// dictionary value with no rows (only possible without a WHERE, which
/// keeps dictionary-complete output).
struct GroupRow {
  Value group;
  std::vector<Value> aggregates;
};

bool operator==(const GroupRow& a, const GroupRow& b);

/// The result of one request; the member matching the verb is set.
struct QueryResult {
  QueryRequest::Verb verb = QueryRequest::Verb::kSelect;
  std::shared_ptr<const Table> table;                // kSelect
  uint64_t count = 0;                                // kCount
  std::vector<GroupRow> groups;                      // kGroupBy
  std::vector<AggregateSpec> aggregates;             // kGroupBy header
  /// The join plan that ran (JoinStats::path: "count-only", "fk-right",
  /// "fk-left", "general"); empty without a JOIN.
  std::string join_path;

  /// Short human-readable rendering (the shell's default display). A
  /// 0-row SELECT renders its schema header — an empty result is
  /// distinguishable from a failed query.
  std::string ToString() const;
};

/// Executes QueryRequests against a TableStore. Stateless beyond the
/// store pointer; cheap to construct per script or per statement.
class QueryEngine {
 public:
  /// `store` is not owned and must outlive the engine.
  explicit QueryEngine(const TableStore* store) : store_(store) {}

  /// Resolves the request's table(s) in the store and executes. The
  /// request's references bind (column lookup) at execution time, so an
  /// unknown column is a KeyError naming the column.
  Result<QueryResult> Execute(const QueryRequest& request,
                              const ExecContext* ctx = nullptr) const;

  // ---- Table-level entry points ------------------------------------------
  //
  // Execute() resolves the table(s) and dispatches here; callers with a
  // table in hand call these directly.

  /// SELECT <columns> FROM table WHERE where. Null `where` selects all
  /// rows; empty `columns` projects all. A column listed twice (after
  /// reference resolution) is an error naming both positions; the key
  /// declaration survives when every key column is retained — whether
  /// implicitly or listed explicitly, a key column is projected exactly
  /// once.
  static Result<std::shared_ptr<const Table>> SelectRows(
      const Table& table, const std::vector<std::string>& columns,
      const ExprPtr& where, const std::string& out_name,
      const ExecContext* ctx = nullptr);

  /// The result-build half of SelectRows, for a caller that already
  /// evaluated `where` to `selection` (the server's batch groups share
  /// one eval across statements). An array selection (at most rows/64
  /// rows) gathers each column's selected rows through its cached row →
  /// vid map (Column::RowVidMap), O(selected rows); any other selection
  /// shares one position filter across the columns. `where` may be null;
  /// it only narrows the filter's work: a projected column that a leaf at
  /// the root of the WHERE (or directly under a root AND) constrains
  /// visits just that leaf's MatchingVids. Each result column's
  /// dictionary holds exactly the values present in the selected rows,
  /// in source-vid order.
  static Result<std::shared_ptr<const Table>> ProjectSelection(
      const Table& table, const std::vector<std::string>& columns,
      const ValueBitmap& selection, const ExprPtr& where,
      const std::string& out_name, const ExecContext* ctx = nullptr);

  /// SELECT COUNT(*) FROM table WHERE where — never materializes rows.
  static Result<uint64_t> CountRows(const Table& table, const ExprPtr& where,
                                    const ExecContext* ctx = nullptr);

  /// SELECT group_by, <aggregates> FROM table WHERE where GROUP BY
  /// group_by. Results are in dictionary (first-appearance) order of
  /// the group column. Without a WHERE every distinct value gets an
  /// entry (zero-count dictionary values included, as GroupByCount
  /// does; their MIN/MAX/AVG are NULL); with a WHERE, groups left
  /// without qualifying rows are omitted (SQL GROUP BY semantics).
  ///
  /// One dense contingency pass: the WHERE is evaluated once and
  /// expanded once into dense words, and folded into each group once
  /// (dense g ∧ sel; an array group keeps its qualifying positions).
  /// Every operand probed often enough (DenseSelection::Pays) is
  /// expanded once per statement — bitsets are used in place, arrays
  /// never expand — so each (group, measure value) count is a word
  /// AND + popcount when both sides are dense, one dense probe when one
  /// is, and CodecAndCount when neither is. Transient memory is bounded
  /// by 63 · rows/8 bytes per measure column (at most 63 values of a
  /// column can be WAH), plus one dense group per worker thread.
  ///
  /// Determinism: one task per group writes a pre-sized slot, and SUM
  /// adds value × count over the measure's values in vid order, so
  /// results — SUM/AVG doubles included — are bit-identical at every
  /// thread count.
  static Result<std::vector<GroupRow>> GroupByRows(
      const Table& table, const std::string& group_by,
      const std::vector<AggregateSpec>& aggregates, const ExprPtr& where,
      const ExecContext* ctx = nullptr);

  /// ORDER BY order_by [DESC] LIMIT limit over `table`: rows reorder on
  /// the total Value order of the sort column (NaN after every real
  /// number), stable on input row position; a negative limit keeps
  /// everything. `order_by` may be empty (pure LIMIT). The whole-table
  /// case of the rank-ordered walk SELECT ... ORDER BY runs: output
  /// columns are rebuilt compressed, and their dictionaries hold only
  /// the values present in the returned rows, in source-vid order.
  static Result<std::shared_ptr<const Table>> SortRows(
      const Table& table, const std::string& order_by, bool desc,
      int64_t limit, const std::string& out_name,
      const ExecContext* ctx = nullptr);

 private:
  const TableStore* store_;
};

}  // namespace cods

#endif  // CODS_QUERY_QUERY_ENGINE_H_
