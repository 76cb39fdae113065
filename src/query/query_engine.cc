#include "query/query_engine.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <optional>

#include "bitmap/codec.h"
#include "bitmap/wah_filter.h"
#include "bitmap/wah_ops.h"
#include "common/logging.h"
#include "exec/parallel_build.h"
#include "query/join.h"

namespace cods {

// ---- AggregateSpec ---------------------------------------------------------

AggregateSpec AggregateSpec::Sum(std::string column) {
  return AggregateSpec{Kind::kSum, std::move(column)};
}
AggregateSpec AggregateSpec::Count(std::string column) {
  return AggregateSpec{Kind::kCount, std::move(column)};
}
AggregateSpec AggregateSpec::Min(std::string column) {
  return AggregateSpec{Kind::kMin, std::move(column)};
}
AggregateSpec AggregateSpec::Max(std::string column) {
  return AggregateSpec{Kind::kMax, std::move(column)};
}
AggregateSpec AggregateSpec::Avg(std::string column) {
  return AggregateSpec{Kind::kAvg, std::move(column)};
}

std::string AggregateSpec::ToString() const {
  const char* name = "?";
  switch (kind) {
    case Kind::kSum:
      name = "SUM";
      break;
    case Kind::kCount:
      name = "COUNT";
      break;
    case Kind::kMin:
      name = "MIN";
      break;
    case Kind::kMax:
      name = "MAX";
      break;
    case Kind::kAvg:
      name = "AVG";
      break;
  }
  return std::string(name) + "(" + (column.empty() ? "*" : column) + ")";
}

bool operator==(const AggregateSpec& a, const AggregateSpec& b) {
  return a.kind == b.kind && a.column == b.column;
}

bool operator==(const GroupRow& a, const GroupRow& b) {
  return a.group == b.group && a.aggregates == b.aggregates;
}

// ---- QueryRequest ----------------------------------------------------------

QueryRequest QueryRequest::Select(std::string table,
                                  std::vector<std::string> columns,
                                  ExprPtr where, std::string out_name) {
  QueryRequest req;
  req.verb = Verb::kSelect;
  req.table = std::move(table);
  req.columns = std::move(columns);
  req.where = std::move(where);
  req.out_name = std::move(out_name);
  return req;
}

QueryRequest QueryRequest::Count(std::string table, ExprPtr where) {
  QueryRequest req;
  req.verb = Verb::kCount;
  req.table = std::move(table);
  req.where = std::move(where);
  return req;
}

QueryRequest QueryRequest::GroupBySum(std::string table, std::string group_by,
                                      std::string sum_column, ExprPtr where) {
  return GroupBy(std::move(table), std::move(group_by),
                 {AggregateSpec::Sum(std::move(sum_column))},
                 std::move(where));
}

QueryRequest QueryRequest::GroupBy(std::string table, std::string group_by,
                                   std::vector<AggregateSpec> aggregates,
                                   ExprPtr where) {
  QueryRequest req;
  req.verb = Verb::kGroupBy;
  req.table = std::move(table);
  req.group_by = std::move(group_by);
  req.aggregates = std::move(aggregates);
  req.where = std::move(where);
  return req;
}

QueryRequest& QueryRequest::JoinOn(std::string join_table_name,
                                   std::string left_ref,
                                   std::string right_ref) {
  join_table = std::move(join_table_name);
  join_left = std::move(left_ref);
  join_right = std::move(right_ref);
  return *this;
}

QueryRequest& QueryRequest::OrderBy(std::string column, bool desc) {
  order_by = std::move(column);
  order_desc = desc;
  return *this;
}

QueryRequest& QueryRequest::Limit(int64_t n) {
  limit = n;
  return *this;
}

std::string QueryRequest::ToString() const {
  std::string out = "SELECT ";
  switch (verb) {
    case Verb::kSelect:
      if (columns.empty()) {
        out += "*";
      } else {
        for (size_t i = 0; i < columns.size(); ++i) {
          if (i > 0) out += ", ";
          out += columns[i];
        }
      }
      break;
    case Verb::kCount:
      out += "COUNT(*)";
      break;
    case Verb::kGroupBy:
      // Canonical form always names the group column in the select list,
      // whether or not the original statement did.
      out += group_by;
      for (const AggregateSpec& agg : aggregates) {
        out += ", " + agg.ToString();
      }
      break;
  }
  out += " FROM " + table;
  if (!join_table.empty()) {
    out += " JOIN " + join_table + " ON " + join_left + " = " + join_right;
  }
  if (where != nullptr) out += " WHERE " + where->ToString();
  if (verb == Verb::kGroupBy) out += " GROUP BY " + group_by;
  if (!order_by.empty()) {
    out += " ORDER BY " + order_by;
    if (order_desc) out += " DESC";
  }
  if (limit >= 0) out += " LIMIT " + std::to_string(limit);
  return out;
}

// ---- QueryResult -----------------------------------------------------------

std::string QueryResult::ToString() const {
  switch (verb) {
    case QueryRequest::Verb::kCount:
      return std::to_string(count);
    case QueryRequest::Verb::kSelect:
      if (table == nullptr) return "(no result table)";
      // The schema header prints even for an empty result, so scripts
      // can tell "0 rows matched" from "the query failed".
      return table->name() + " " + table->schema().ToString() + ": " +
             std::to_string(table->rows()) + " row" +
             (table->rows() == 1 ? "" : "s");
    case QueryRequest::Verb::kGroupBy: {
      std::string out;
      for (const GroupRow& row : groups) {
        out += row.group.ToString() + ":";
        for (size_t a = 0; a < row.aggregates.size(); ++a) {
          out += " ";
          if (aggregates.size() == row.aggregates.size()) {
            out += aggregates[a].ToString() + "=";
          }
          out += row.aggregates[a].ToString();
        }
        out += "\n";
      }
      return out;
    }
  }
  return "";
}

// ---- Reference rewriting (join alias) --------------------------------------

namespace {

// How references rewrite over a join result: exact-match aliases map
// references to the ELIDED right join column onto the kept left one;
// `ambiguous` (if set) is a bare name that silently suffix-binding
// would mis-resolve — SQL requires qualification, so it errors.
struct JoinRefRules {
  std::map<std::string, std::string> alias;
  std::string ambiguous;
  std::string ambiguous_msg;
};

Status RemapRef(std::string* ref, const JoinRefRules& rules) {
  if (!rules.ambiguous.empty() && *ref == rules.ambiguous) {
    return Status::InvalidArgument(rules.ambiguous_msg);
  }
  auto it = rules.alias.find(*ref);
  if (it != rules.alias.end()) *ref = it->second;
  return Status::OK();
}

// Returns `expr` with every leaf column reference remapped through the
// rules (exact match); shares unchanged subtrees.
Result<ExprPtr> RewriteExprRefs(const ExprPtr& expr,
                                const JoinRefRules& rules) {
  if (expr == nullptr) return expr;
  switch (expr->kind) {
    case ExprKind::kCompare:
    case ExprKind::kIn:
    case ExprKind::kBetween: {
      std::string column = expr->column;
      CODS_RETURN_NOT_OK(RemapRef(&column, rules));
      if (column == expr->column) return expr;
      switch (expr->kind) {
        case ExprKind::kCompare:
          return Expr::Compare(std::move(column), expr->op, expr->literal);
        case ExprKind::kIn:
          return Expr::In(std::move(column), expr->in_values);
        default:
          return Expr::Between(std::move(column), expr->between_lo,
                               expr->between_hi);
      }
    }
    case ExprKind::kNot:
    case ExprKind::kAnd:
    case ExprKind::kOr: {
      std::vector<ExprPtr> children;
      children.reserve(expr->children.size());
      bool changed = false;
      for (const ExprPtr& child : expr->children) {
        CODS_ASSIGN_OR_RETURN(ExprPtr rewritten,
                              RewriteExprRefs(child, rules));
        changed |= rewritten != child;
        children.push_back(std::move(rewritten));
      }
      if (!changed) return expr;
      if (expr->kind == ExprKind::kNot) return Expr::Not(children[0]);
      return expr->kind == ExprKind::kAnd ? Expr::And(std::move(children))
                                          : Expr::Or(std::move(children));
    }
  }
  return expr;
}

// Row selection preserves key uniqueness, so a projection keeps the
// key declaration iff it retains EVERY key column (else no key).
std::vector<std::string> RetainedKey(const std::vector<ColumnSpec>& specs,
                                     std::vector<std::string> key) {
  for (const std::string& k : key) {
    bool kept = std::any_of(specs.begin(), specs.end(),
                            [&](const ColumnSpec& s) { return s.name == k; });
    if (!kept) return {};
  }
  return key;
}

// Resolves a SELECT list to column indices (request order) and builds
// the result schema. A column named twice — under any pair of
// references resolving to the same column, including an explicitly
// listed key — is an error naming both positions; every retained column
// is projected exactly once.
Status ResolveProjection(const Table& table,
                         const std::vector<std::string>& columns,
                         std::vector<size_t>* indices, Schema* schema) {
  if (columns.empty()) {
    indices->resize(table.num_columns());
    std::iota(indices->begin(), indices->end(), size_t{0});
  } else {
    indices->reserve(columns.size());
    for (size_t c = 0; c < columns.size(); ++c) {
      CODS_ASSIGN_OR_RETURN(size_t idx, table.ResolveColumnRef(columns[c]));
      for (size_t prev = 0; prev < indices->size(); ++prev) {
        if ((*indices)[prev] == idx) {
          return Status::InvalidArgument(
              "duplicate column '" + table.schema().column(idx).name +
              "' in the SELECT list (positions " + std::to_string(prev + 1) +
              " and " + std::to_string(c + 1) + ")");
        }
      }
      indices->push_back(idx);
    }
  }
  std::vector<ColumnSpec> specs;
  specs.reserve(indices->size());
  for (size_t idx : *indices) specs.push_back(table.schema().column(idx));
  std::vector<std::string> key = RetainedKey(specs, table.schema().key());
  CODS_ASSIGN_OR_RETURN(*schema,
                        Schema::Make(std::move(specs), std::move(key)));
  return Status::OK();
}

// The vids a projection of column `idx` needs to hit-test, or nullopt
// for all of them. Every selected row satisfies each leaf at the root
// of the normalized WHERE (or directly under a root AND), so a leaf on
// that column bounds its present values by the leaf's MatchingVids —
// `K IN (a, b, c)` projects K from three candidate bitmaps.
std::optional<std::vector<Vid>> ConstrainedVids(const Table& table,
                                                size_t idx,
                                                const Expr& root) {
  std::vector<const Expr*> leaves;
  if (root.kind == ExprKind::kAnd) {
    for (const ExprPtr& child : root.children) leaves.push_back(child.get());
  } else {
    leaves.push_back(&root);
  }
  std::optional<std::vector<Vid>> best;
  for (const Expr* leaf : leaves) {
    if (leaf->kind != ExprKind::kCompare && leaf->kind != ExprKind::kIn &&
        leaf->kind != ExprKind::kBetween) {
      continue;
    }
    Result<size_t> leaf_idx = table.ResolveColumnRef(leaf->column);
    if (!leaf_idx.ok() || leaf_idx.ValueOrDie() != idx) continue;
    std::vector<Vid> vids = MatchingVids(*table.column(idx), *leaf);
    if (!best.has_value() || vids.size() < best->size()) {
      best = std::move(vids);
    }
  }
  return best;
}

// The result build of a SELECT: each projected column keeps only the
// values `selection` hits (ProjectPresentValues), re-based onto the
// selected rows.
Result<std::shared_ptr<const Table>> BuildSelectResult(
    const Table& table, const std::vector<size_t>& indices, Schema schema,
    const WahBitmap& selection, const ExprPtr& where,
    const std::string& out_name, const ExecContext& exec) {
  const ValueBitmap selected = ValueBitmap::FromWah(selection);
  WahPositionFilter filter(selection.SetPositions(), table.rows());
  const ExprPtr root = where != nullptr ? NormalizeExpr(where) : nullptr;
  std::vector<std::shared_ptr<const Column>> cols(indices.size());
  // Column tasks nest the per-vid tasks inside ProjectPresentValues.
  CODS_RETURN_NOT_OK(
      ParallelFor(exec, 0, indices.size(), 1, [&](uint64_t i) -> Status {
        std::optional<std::vector<Vid>> candidates;
        if (root != nullptr) {
          candidates = ConstrainedVids(table, indices[i], *root);
        }
        CODS_ASSIGN_OR_RETURN(
            cols[i],
            ProjectPresentValues(exec, *table.column(indices[i]), selected,
                                 filter,
                                 candidates ? &*candidates : nullptr));
        return Status::OK();
      }));
  return Table::Make(out_name, std::move(schema), std::move(cols),
                     filter.num_positions());
}

}  // namespace

// ---- Execute ---------------------------------------------------------------

Result<QueryResult> QueryEngine::Execute(const QueryRequest& request,
                                         const ExecContext* ctx) const {
  CODS_CHECK(store_ != nullptr) << "QueryEngine needs a TableStore";
  CODS_ASSIGN_OR_RETURN(auto table, store_->GetTable(request.table));
  if (request.verb != QueryRequest::Verb::kSelect &&
      (!request.order_by.empty() || request.limit >= 0)) {
    return Status::InvalidArgument(
        "ORDER BY / LIMIT apply to row-returning SELECTs only");
  }

  std::shared_ptr<const Table> input = table;
  ExprPtr where = request.where;
  std::vector<std::string> columns = request.columns;
  std::string group_by = request.group_by;
  std::vector<AggregateSpec> aggregates = request.aggregates;
  std::string order_by = request.order_by;

  if (!request.join_table.empty()) {
    if (request.join_table == request.table) {
      return Status::InvalidArgument(
          "self-join: '" + request.table +
          "' appears on both sides; COPY TABLE it under a second name "
          "first");
    }
    CODS_ASSIGN_OR_RETURN(auto right, store_->GetTable(request.join_table));
    // Match the ON references to sides: as written first, then swapped.
    Result<size_t> li = table->ResolveColumnRef(request.join_left);
    Result<size_t> ri = right->ResolveColumnRef(request.join_right);
    if (!li.ok() || !ri.ok()) {
      Result<size_t> li2 = table->ResolveColumnRef(request.join_right);
      Result<size_t> ri2 = right->ResolveColumnRef(request.join_left);
      if (li2.ok() && ri2.ok()) {
        li = li2;
        ri = ri2;
      } else {
        return !li.ok() ? li.status() : ri.status();
      }
    }
    if (request.verb == QueryRequest::Verb::kCount && where == nullptr) {
      // COUNT(*) over an unfiltered join never materializes: the
      // vid-intersection's popcount products are the answer.
      QueryResult counted;
      counted.verb = request.verb;
      CODS_ASSIGN_OR_RETURN(
          counted.count,
          CompressedEquiJoinCount(*table, *right, li.ValueOrDie(),
                                  ri.ValueOrDie()));
      return counted;
    }
    CODS_ASSIGN_OR_RETURN(
        input, CompressedEquiJoin(*table, *right, li.ValueOrDie(),
                                  ri.ValueOrDie(),
                                  request.table + "_" + request.join_table,
                                  ctx));
    // The right join column is elided from the join result (its values
    // equal the left one's); alias references to it onto the kept
    // column so WHERE / GROUP BY / ORDER BY / projections still bind.
    // But when a DIFFERENT left column shares the elided column's bare
    // name, a bare reference must error as ambiguous — suffix
    // resolution would silently bind it to the wrong column.
    JoinRefRules rules;
    const std::string kept = request.table + "." +
                             table->schema().column(li.ValueOrDie()).name;
    const std::string& right_col =
        right->schema().column(ri.ValueOrDie()).name;
    rules.alias[request.join_table + "." + right_col] = kept;
    Result<size_t> bare = input->schema().ResolveColumnRef(right_col);
    if (!bare.ok()) {
      rules.alias[right_col] = kept;
    } else if (input->schema().column(bare.ValueOrDie()).name != kept) {
      rules.ambiguous = right_col;
      rules.ambiguous_msg =
          "ambiguous column '" + right_col + "': both " +
          input->schema().column(bare.ValueOrDie()).name +
          " and the elided join column " + request.join_table + "." +
          right_col + " (kept as " + kept + ") match; qualify the reference";
    }
    for (std::string& c : columns) CODS_RETURN_NOT_OK(RemapRef(&c, rules));
    for (AggregateSpec& agg : aggregates) {
      CODS_RETURN_NOT_OK(RemapRef(&agg.column, rules));
    }
    CODS_RETURN_NOT_OK(RemapRef(&group_by, rules));
    CODS_RETURN_NOT_OK(RemapRef(&order_by, rules));
    CODS_ASSIGN_OR_RETURN(where, RewriteExprRefs(where, rules));
  }

  QueryResult result;
  result.verb = request.verb;
  switch (request.verb) {
    case QueryRequest::Verb::kSelect: {
      if (order_by.empty() && request.limit < 0) {
        CODS_ASSIGN_OR_RETURN(
            result.table,
            SelectRows(*input, columns, where, request.out_name, ctx));
        return result;
      }
      // The sort column must survive filtering + projection; append it
      // when the projection would drop it, and strip it afterwards.
      // The reference is canonicalized against the INPUT table here —
      // the filtered intermediate is renamed to out_name, so a
      // `<table>.<col>` reference would no longer strip there.
      std::vector<std::string> exec_cols = columns;
      bool appended = false;
      if (!order_by.empty()) {
        CODS_ASSIGN_OR_RETURN(size_t order_idx,
                              input->ResolveColumnRef(order_by));
        order_by = input->schema().column(order_idx).name;
        if (!columns.empty()) {
          bool present = false;
          for (const std::string& c : columns) {
            Result<size_t> idx = input->ResolveColumnRef(c);
            if (idx.ok() && idx.ValueOrDie() == order_idx) {
              present = true;
              break;
            }
          }
          if (!present) {
            exec_cols.push_back(order_by);
            appended = true;
          }
        }
      }
      CODS_ASSIGN_OR_RETURN(
          auto filtered,
          SelectRows(*input, exec_cols, where, request.out_name, ctx));
      CODS_ASSIGN_OR_RETURN(
          auto sorted,
          SortRows(*filtered, order_by, request.order_desc, request.limit,
                   request.out_name, ctx));
      if (appended) {
        // Strip the helper sort column: a null-WHERE projection of the
        // first n names is pure column-pointer sharing.
        std::vector<std::string> kept_names;
        for (size_t i = 0; i + 1 < sorted->num_columns(); ++i) {
          kept_names.push_back(sorted->schema().column(i).name);
        }
        CODS_ASSIGN_OR_RETURN(
            sorted,
            SelectRows(*sorted, kept_names, nullptr, request.out_name, ctx));
      }
      result.table = sorted;
      return result;
    }
    case QueryRequest::Verb::kCount: {
      CODS_ASSIGN_OR_RETURN(result.count, CountRows(*input, where, ctx));
      return result;
    }
    case QueryRequest::Verb::kGroupBy: {
      CODS_ASSIGN_OR_RETURN(
          result.groups,
          GroupByRows(*input, group_by, aggregates, where, ctx));
      result.aggregates = std::move(aggregates);
      return result;
    }
  }
  return Status::InvalidArgument("unknown query verb");
}

// ---- SELECT ----------------------------------------------------------------

Result<std::shared_ptr<const Table>> QueryEngine::SelectRows(
    const Table& table, const std::vector<std::string>& columns,
    const ExprPtr& where, const std::string& out_name,
    const ExecContext* ctx) {
  std::vector<size_t> indices;
  Schema schema;
  CODS_RETURN_NOT_OK(ResolveProjection(table, columns, &indices, &schema));
  if (where == nullptr) {
    // No predicate: the projection shares the input's columns outright.
    std::vector<std::shared_ptr<const Column>> cols(indices.size());
    for (size_t i = 0; i < indices.size(); ++i) {
      cols[i] = table.column(indices[i]);
    }
    return Table::Make(out_name, std::move(schema), std::move(cols),
                       table.rows());
  }
  ExecContext exec = ResolveContext(ctx);
  CODS_ASSIGN_OR_RETURN(WahBitmap selection, EvalExpr(table, where, &exec));
  return BuildSelectResult(table, indices, std::move(schema), selection,
                           where, out_name, exec);
}

Result<std::shared_ptr<const Table>> QueryEngine::ProjectSelection(
    const Table& table, const std::vector<std::string>& columns,
    const WahBitmap& selection, const ExprPtr& where,
    const std::string& out_name, const ExecContext* ctx) {
  std::vector<size_t> indices;
  Schema schema;
  CODS_RETURN_NOT_OK(ResolveProjection(table, columns, &indices, &schema));
  return BuildSelectResult(table, indices, std::move(schema), selection,
                           where, out_name, ResolveContext(ctx));
}

Result<uint64_t> QueryEngine::CountRows(const Table& table,
                                        const ExprPtr& where,
                                        const ExecContext* ctx) {
  if (where == nullptr) return table.rows();
  return EvalExprCount(table, where, ctx);
}

// ---- GROUP BY --------------------------------------------------------------

Result<std::vector<GroupRow>> QueryEngine::GroupByRows(
    const Table& table, const std::string& group_by,
    const std::vector<AggregateSpec>& aggregates, const ExprPtr& where,
    const ExecContext* ctx) {
  if (aggregates.empty()) {
    return Status::InvalidArgument("GROUP BY needs at least one aggregate");
  }
  CODS_ASSIGN_OR_RETURN(auto group, table.ColumnByRef(group_by));
  if (group->encoding() != ColumnEncoding::kWahBitmap) {
    return Status::InvalidArgument(
        "GROUP BY requires a WAH-encoded group column");
  }
  // Resolve the measure columns, deduplicated: several aggregates over
  // one column share its per-group AND-count pass.
  std::vector<size_t> measure_idx;                        // table indices
  std::vector<std::shared_ptr<const Column>> measures;    // same order
  constexpr size_t kNoMeasure = static_cast<size_t>(-1);
  std::vector<size_t> measure_of_agg(aggregates.size(), kNoMeasure);
  bool need_group_count = false;
  for (size_t a = 0; a < aggregates.size(); ++a) {
    const AggregateSpec& agg = aggregates[a];
    if (agg.kind == AggregateSpec::Kind::kCount) {
      // COUNT(*) and COUNT(col) agree (no NULLs in this engine), but a
      // named column must still exist.
      if (!agg.column.empty()) {
        CODS_RETURN_NOT_OK(table.ResolveColumnRef(agg.column).status());
      }
      need_group_count = true;
      continue;
    }
    if (agg.column.empty()) {
      return Status::InvalidArgument(agg.ToString() + " needs a column");
    }
    CODS_ASSIGN_OR_RETURN(size_t idx, table.ResolveColumnRef(agg.column));
    auto col = table.column(idx);
    if ((agg.kind == AggregateSpec::Kind::kSum ||
         agg.kind == AggregateSpec::Kind::kAvg) &&
        col->type() == DataType::kString) {
      return Status::TypeError(agg.ToString() +
                               " needs a numeric measure column");
    }
    if (col->encoding() != ColumnEncoding::kWahBitmap) {
      return Status::InvalidArgument(
          "aggregates require WAH-encoded measure columns");
    }
    size_t slot = kNoMeasure;
    for (size_t m = 0; m < measure_idx.size(); ++m) {
      if (measure_idx[m] == idx) {
        slot = m;
        break;
      }
    }
    if (slot == kNoMeasure) {
      slot = measures.size();
      measure_idx.push_back(idx);
      measures.push_back(col);
    }
    measure_of_agg[a] = slot;
  }

  ExecContext exec = ResolveContext(ctx);
  // An optional WHERE narrows each group bitmap with ONE compressed AND
  // before the per-measure counts; evaluated once, shared read-only by
  // every group task.
  WahBitmap selection;
  const bool filtered = where != nullptr;
  if (filtered) {
    CODS_ASSIGN_OR_RETURN(selection, EvalExpr(table, where, &exec));
  }
  // Hoist per-measure emptiness out of the O(v_group · v_measure) loop;
  // the inner combine stays on the count-only kernel (nothing is
  // materialized).
  struct LiveMeasure {
    std::vector<const ValueBitmap*> bitmaps;
    std::vector<Vid> vids;
    std::vector<double> numeric;  // 0 for strings (never summed)
  };
  std::vector<LiveMeasure> live(measures.size());
  for (size_t m = 0; m < measures.size(); ++m) {
    const Column& col = *measures[m];
    for (Vid v = 0; v < col.distinct_count(); ++v) {
      if (col.bitmap(v).IsAllZeros()) continue;
      live[m].bitmaps.push_back(&col.bitmap(v));
      live[m].vids.push_back(v);
      const Value& value = col.dict().value(v);
      live[m].numeric.push_back(value.is_int64()
                                    ? static_cast<double>(value.int64())
                                    : value.is_double() ? value.dbl() : 0.0);
    }
  }
  // One task per group value: the inner AND-counts are independent, and
  // each group writes its own pre-sized slot, so dictionary order (and
  // floating-point summation order) is preserved at every thread count.
  std::vector<GroupRow> out(group->distinct_count());
  std::vector<char> qualifies(group->distinct_count(), 1);
  Status st = ParallelFor(
      exec, 0, group->distinct_count(), 4, [&](uint64_t g) {
        const ValueBitmap& gvb = group->bitmap(static_cast<Vid>(g));
        // With a WHERE, the group bitmap narrows to canonical WAH via
        // one codec AND; unfiltered groups stay in their codec container
        // and the inner counts dispatch on the representation pair.
        WahBitmap narrowed;
        bool use_narrowed = false;
        if (filtered) {
          if (!gvb.IsAllZeros()) {
            narrowed = CodecAndWah(gvb, selection);
            use_narrowed = true;
          }
          if (use_narrowed ? narrowed.IsAllZeros() : gvb.IsAllZeros()) {
            // SQL semantics: a WHERE that leaves a group no qualifying
            // rows drops the group (unlike a group genuinely summing
            // to 0, which stays).
            qualifies[g] = 0;
            return Status::OK();
          }
        }
        const bool empty_group =
            use_narrowed ? narrowed.IsAllZeros() : gvb.IsAllZeros();
        const uint64_t group_count =
            need_group_count && !empty_group
                ? (use_narrowed ? narrowed.CountOnes() : gvb.CountOnes())
                : 0;
        struct Acc {
          double sum = 0;
          uint64_t count = 0;
          const Value* min = nullptr;
          const Value* max = nullptr;
        };
        std::vector<Acc> accs(measures.size());
        if (!empty_group) {
          for (size_t m = 0; m < measures.size(); ++m) {
            const LiveMeasure& lm = live[m];
            Acc& acc = accs[m];
            for (size_t i = 0; i < lm.bitmaps.size(); ++i) {
              uint64_t count =
                  use_narrowed ? CodecAndCountWah(*lm.bitmaps[i], narrowed)
                               : CodecAndCount(gvb, *lm.bitmaps[i]);
              if (count == 0) continue;
              acc.sum += lm.numeric[i] * static_cast<double>(count);
              acc.count += count;
              const Value& v = measures[m]->dict().value(lm.vids[i]);
              if (acc.min == nullptr || v < *acc.min) acc.min = &v;
              if (acc.max == nullptr || *acc.max < v) acc.max = &v;
            }
          }
        }
        GroupRow row;
        row.group = group->dict().value(static_cast<Vid>(g));
        row.aggregates.reserve(aggregates.size());
        for (size_t a = 0; a < aggregates.size(); ++a) {
          const size_t m = measure_of_agg[a];
          switch (aggregates[a].kind) {
            case AggregateSpec::Kind::kCount:
              row.aggregates.push_back(
                  Value(static_cast<int64_t>(group_count)));
              break;
            case AggregateSpec::Kind::kSum:
              // An empty (dictionary-complete) group sums to 0, the
              // GroupBySum back-compat behavior.
              row.aggregates.push_back(Value(accs[m].sum));
              break;
            case AggregateSpec::Kind::kAvg:
              // The measure's value bitmaps partition the group's rows,
              // so acc.count is the group row count.
              row.aggregates.push_back(
                  accs[m].count == 0
                      ? Value::Null()
                      : Value(accs[m].sum /
                              static_cast<double>(accs[m].count)));
              break;
            case AggregateSpec::Kind::kMin:
              row.aggregates.push_back(
                  accs[m].min == nullptr ? Value::Null() : *accs[m].min);
              break;
            case AggregateSpec::Kind::kMax:
              row.aggregates.push_back(
                  accs[m].max == nullptr ? Value::Null() : *accs[m].max);
              break;
          }
        }
        out[g] = std::move(row);
        return Status::OK();
      });
  CODS_CHECK(st.ok()) << st.ToString();
  if (filtered) {
    // Compact in index order — deterministic at every thread count.
    std::vector<GroupRow> kept;
    kept.reserve(out.size());
    for (size_t g = 0; g < out.size(); ++g) {
      if (qualifies[g]) kept.push_back(std::move(out[g]));
    }
    return kept;
  }
  return out;
}

Result<std::vector<std::pair<Value, double>>> QueryEngine::GroupBySumRows(
    const Table& table, const std::string& group_by,
    const std::string& sum_column, const ExprPtr& where,
    const ExecContext* ctx) {
  CODS_ASSIGN_OR_RETURN(
      std::vector<GroupRow> rows,
      GroupByRows(table, group_by, {AggregateSpec::Sum(sum_column)}, where,
                  ctx));
  std::vector<std::pair<Value, double>> out;
  out.reserve(rows.size());
  for (GroupRow& row : rows) {
    out.emplace_back(std::move(row.group), row.aggregates[0].dbl());
  }
  return out;
}

// ---- ORDER BY / LIMIT ------------------------------------------------------

Result<std::shared_ptr<const Table>> QueryEngine::SortRows(
    const Table& table, const std::string& order_by, bool desc,
    int64_t limit, const std::string& out_name, const ExecContext* ctx) {
  ExecContext exec = ResolveContext(ctx);
  const uint64_t rows = table.rows();
  const uint64_t keep =
      limit < 0 ? rows : std::min<uint64_t>(static_cast<uint64_t>(limit), rows);
  std::vector<uint64_t> perm;
  size_t sort_idx = static_cast<size_t>(-1);
  std::vector<Vid> sort_vids;  // decoded once, reused by the rebuild loop
  if (order_by.empty()) {
    // Pure LIMIT: the first `keep` rows in input order.
    perm.resize(keep);
    std::iota(perm.begin(), perm.end(), uint64_t{0});
  } else {
    CODS_ASSIGN_OR_RETURN(sort_idx, table.ResolveColumnRef(order_by));
    const Column& sort_col = *table.column(sort_idx);
    sort_vids = sort_col.DecodeVids(&exec);
    const std::vector<Vid>& vids = sort_vids;
    // Rank the dictionary on the total Value order (NaN after every
    // real number); order-equal values (e.g. int64 3 vs double 3.0
    // cannot share a column, but NaNs can) keep dictionary order —
    // stable, so the result is identical at every thread count.
    const Vid distinct = static_cast<Vid>(sort_col.distinct_count());
    std::vector<Vid> by_value(distinct);
    std::iota(by_value.begin(), by_value.end(), Vid{0});
    std::stable_sort(by_value.begin(), by_value.end(), [&](Vid a, Vid b) {
      return sort_col.dict().value(a) < sort_col.dict().value(b);
    });
    // Order-equal dictionary values (NaNs get one dictionary entry per
    // occurrence, since NaN != NaN) SHARE a rank: the tiebreak within a
    // rank is input row position, in both directions — DESC reverses
    // bucket order, never bucket contents.
    std::vector<uint64_t> rank(distinct);
    uint64_t num_ranks = 0;
    for (Vid i = 0; i < distinct; ++i) {
      if (i > 0 && sort_col.dict().value(by_value[i - 1]) <
                       sort_col.dict().value(by_value[i])) {
        ++num_ranks;
      }
      rank[by_value[i]] = num_ranks;
    }
    if (distinct > 0) ++num_ranks;
    // Counting sort of row positions by rank: stable on input position.
    std::vector<uint64_t> counts(num_ranks, 0);
    for (uint64_t r = 0; r < rows; ++r) ++counts[rank[vids[r]]];
    std::vector<uint64_t> offset(num_ranks, 0);
    uint64_t acc = 0;
    if (!desc) {
      for (uint64_t k = 0; k < num_ranks; ++k) {
        offset[k] = acc;
        acc += counts[k];
      }
    } else {
      for (uint64_t k = num_ranks; k-- > 0;) {
        offset[k] = acc;
        acc += counts[k];
      }
    }
    perm.resize(rows);
    for (uint64_t r = 0; r < rows; ++r) {
      perm[offset[rank[vids[r]]]++] = r;
    }
    perm.resize(keep);
  }

  // Rebuild every column compressed from the row → vid gather; one
  // buffer reused across columns bounds memory at O(keep).
  std::vector<std::shared_ptr<const Column>> cols(table.num_columns());
  std::vector<Vid> out_vid_of_row(keep);
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const Column& src = *table.column(c);
    if (keep == 0) {
      cols[c] = Column::FromBitmaps(
          src.type(), src.dict(),
          std::vector<WahBitmap>(src.distinct_count()), 0);
      continue;
    }
    std::vector<Vid> decoded;
    if (c != sort_idx) decoded = src.DecodeVids(&exec);
    const std::vector<Vid>& vids = c == sort_idx ? sort_vids : decoded;
    Status st = ParallelForChunked(
        exec, 0, keep, 4096, [&](uint64_t lo, uint64_t hi) {
          for (uint64_t j = lo; j < hi; ++j) {
            out_vid_of_row[j] = vids[perm[j]];
          }
          return Status::OK();
        });
    CODS_CHECK(st.ok()) << st.ToString();
    std::vector<WahBitmap> bitmaps = BuildValueBitmaps(
        exec, out_vid_of_row.data(), keep, src.distinct_count());
    cols[c] = Column::FromBitmaps(src.type(), src.dict(), std::move(bitmaps),
                                  keep, &exec);
  }
  // Reordering / truncating rows preserves key uniqueness, so the
  // schema (key included) carries over.
  return Table::Make(out_name, table.schema(), std::move(cols), keep);
}

}  // namespace cods
