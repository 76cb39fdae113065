#include "query/query_engine.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <optional>

#include "bitmap/codec.h"
#include "bitmap/wah_filter.h"
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

// The vids a projection of column `idx` needs to visit, or nullopt
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
// selected rows. An array selection gathers through each column's row →
// vid map; any other selection shares one position filter, and a column
// a root-level leaf constrains (ConstrainedVids) filters only that
// leaf's values.
Result<std::shared_ptr<const Table>> BuildSelectResult(
    const Table& table, const std::vector<size_t>& indices, Schema schema,
    const ValueBitmap& selection, const ExprPtr& where,
    const std::string& out_name, const ExecContext& exec) {
  std::optional<WahPositionFilter> filter;
  std::vector<std::optional<std::vector<Vid>>> candidates(indices.size());
  if (selection.rep() != BitmapRep::kArray && !selection.IsAllZeros()) {
    filter.emplace(selection.SetPositions(), table.rows());
    if (where != nullptr) {
      const ExprPtr root = NormalizeExpr(where);
      for (size_t i = 0; i < indices.size(); ++i) {
        candidates[i] = ConstrainedVids(table, indices[i], *root);
      }
    }
  }
  std::vector<std::shared_ptr<const Column>> cols(indices.size());
  // Column tasks nest the per-vid tasks inside ProjectPresentValues.
  CODS_RETURN_NOT_OK(
      ParallelFor(exec, 0, indices.size(), 1, [&](uint64_t i) -> Status {
        CODS_ASSIGN_OR_RETURN(
            cols[i], ProjectPresentValues(
                         exec, *table.column(indices[i]), selection,
                         filter ? &*filter : nullptr,
                         candidates[i] ? &*candidates[i] : nullptr));
        return Status::OK();
      }));
  return Table::Make(out_name, std::move(schema), std::move(cols),
                     selection.CountOnes());
}

// ---- Join COUNT push-down ---------------------------------------------------

// Per-side row selections of a join WHERE pushed below the join.
struct JoinSides {
  std::optional<ValueBitmap> selection[2];  // [0] left, [1] right

  // Null for an unfiltered side.
  const ValueBitmap* Selection(int side) const {
    return selection[side] ? &*selection[side] : nullptr;
  }
};

// Calls fn(column reference) for every leaf under `node`; false as soon
// as fn returns false.
template <typename Fn>
bool AllLeafRefs(const Expr& node, Fn&& fn) {
  switch (node.kind) {
    case ExprKind::kCompare:
    case ExprKind::kIn:
    case ExprKind::kBetween:
      return fn(node.column);
    case ExprKind::kNot:
    case ExprKind::kAnd:
    case ExprKind::kOr:
      for (const ExprPtr& child : node.children) {
        if (!AllLeafRefs(*child, fn)) return false;
      }
      return true;
  }
  return false;
}

// Splits the (alias-rewritten) WHERE of a join COUNT into one
// conjunction per side and evaluates each on its base table. References
// bind against the join result's schema exactly as on the built join.
// nullopt when a root conjunct of the normalized WHERE mixes the sides,
// a reference does not bind, or a side fails to evaluate — the caller
// then runs the materializing plan.
std::optional<JoinSides> PushDownJoinWhere(
    const ExprPtr& where, const Table& left, const Table& right,
    size_t right_join, const Schema& joined, const std::string& joined_name,
    const ExecContext& exec) {
  const ExprPtr root = NormalizeExpr(where);
  const std::vector<ExprPtr> conjuncts =
      root->kind == ExprKind::kAnd ? root->children
                                   : std::vector<ExprPtr>{root};
  const Table* tables[2] = {&left, &right};
  std::vector<ExprPtr> side_conjuncts[2];
  JoinRefRules to_base;  // join-result reference -> base column name
  for (const ExprPtr& conjunct : conjuncts) {
    int side = -1;
    const bool one_sided = AllLeafRefs(*conjunct, [&](const std::string& ref) {
      Result<size_t> idx = Table::ResolveColumnRef(joined, joined_name, ref);
      if (!idx.ok()) return false;
      const size_t j = idx.ValueOrDie();
      const int s = j < left.num_columns() ? 0 : 1;
      if (side >= 0 && side != s) return false;
      side = s;
      // Right columns follow the left ones, minus the elided join column.
      size_t base = j;
      if (s == 1) {
        base = j - left.num_columns();
        if (base >= right_join) ++base;
      }
      to_base.alias[ref] = tables[s]->schema().column(base).name;
      return true;
    });
    if (!one_sided) return std::nullopt;
    side_conjuncts[side].push_back(conjunct);
  }
  JoinSides out;
  for (int s = 0; s < 2; ++s) {
    if (side_conjuncts[s].empty()) continue;
    Result<ExprPtr> base_where =
        RewriteExprRefs(Expr::And(std::move(side_conjuncts[s])), to_base);
    if (!base_where.ok()) return std::nullopt;
    Result<ValueBitmap> selection =
        EvalExpr(*tables[s], base_where.ValueOrDie(), &exec);
    if (!selection.ok()) return std::nullopt;
    out.selection[s] = std::move(selection).ValueOrDie();
  }
  return out;
}

// ---- ORDER BY / LIMIT ------------------------------------------------------

// The rows an ORDER BY ... LIMIT returns, in output order, with the sort
// column's vid of each (empty without a sort column).
struct PickedRows {
  std::vector<uint64_t> positions;
  std::vector<Vid> sort_vids;
};

// Top-k as a rank-ordered walk. The sort column's dictionary ranks on
// the total Value order (NaN after every real number); the ranks are
// visited ASC or DESC and each visited value contributes its selected
// rows in position order, until `keep` rows are picked. Order-equal
// values (NaNs get one dictionary entry per occurrence) share a rank and
// are unioned first, so ties stay in input-position order in both
// directions. `candidates` (sorted vids, or null for all) bounds the
// walk when a WHERE leaf constrains the sort column.
PickedRows WalkRanks(const Column& sort_col, bool desc, uint64_t keep,
                     const ValueBitmap* selection,
                     const std::vector<Vid>* candidates) {
  PickedRows out;
  if (keep == 0) return out;
  std::vector<Vid> order;
  if (candidates != nullptr) {
    order = *candidates;
  } else {
    order.resize(sort_col.distinct_count());
    std::iota(order.begin(), order.end(), Vid{0});
  }
  const Dictionary& dict = sort_col.dict();
  std::stable_sort(order.begin(), order.end(), [&](Vid a, Vid b) {
    return dict.value(a) < dict.value(b);
  });
  std::vector<size_t> rank_start;  // index in `order` where each rank begins
  for (size_t i = 0; i < order.size(); ++i) {
    if (i == 0 || dict.value(order[i - 1]) < dict.value(order[i])) {
      rank_start.push_back(i);
    }
  }
  const size_t ranks = rank_start.size();
  rank_start.push_back(order.size());
  // The rows of a value bitmap the selection keeps (all of them without
  // one), increasing. CodecAnd re-walks a WAH selection per probe; once
  // those walks would cost more than one dense copy, the selection is
  // densified (a bitset one is used in place at once). Output never
  // depends on the switch.
  std::optional<DenseSelection> dense;
  uint64_t probes = 0;
  auto probe = [&](const ValueBitmap& vb, std::vector<uint64_t>* out) {
    if (selection == nullptr) {
      vb.ForEachSetBit([out](uint64_t pos) { out->push_back(pos); });
      return;
    }
    if (!dense && DenseSelection::Pays(*selection, ++probes)) {
      dense.emplace(*selection);
    }
    if (dense) {
      dense->AndPositions(vb, out);
      return;
    }
    CodecAnd(vb, *selection).ForEachSetBit([out](uint64_t pos) {
      out->push_back(pos);
    });
  };
  out.positions.reserve(keep);
  std::vector<std::pair<uint64_t, Vid>> tied;
  for (size_t g = 0; g < ranks && out.positions.size() < keep; ++g) {
    const size_t r = desc ? ranks - 1 - g : g;
    const size_t done = out.positions.size();
    if (rank_start[r + 1] - rank_start[r] == 1) {
      probe(sort_col.bitmap(order[rank_start[r]]), &out.positions);
      out.positions.resize(std::min<uint64_t>(out.positions.size(), keep));
      out.sort_vids.resize(out.positions.size(), order[rank_start[r]]);
      continue;
    }
    // Order-equal values: union their rows in position order.
    tied.clear();
    for (size_t i = rank_start[r]; i < rank_start[r + 1]; ++i) {
      probe(sort_col.bitmap(order[i]), &out.positions);
      for (size_t j = done; j < out.positions.size(); ++j) {
        tied.emplace_back(out.positions[j], order[i]);
      }
      out.positions.resize(done);
    }
    std::sort(tied.begin(), tied.end());
    for (size_t j = 0; j < tied.size() && done + j < keep; ++j) {
      out.positions.push_back(tied[j].first);
      out.sort_vids.push_back(tied[j].second);
    }
  }
  return out;
}

// SELECT ... [WHERE] [ORDER BY] [LIMIT] at O(selected rows + visited
// values): the walk picks at most `limit` rows in output order, and each
// projected column gathers just those rows — the sort column from the
// vids the walk visited, every other column from its row → vid map.
Result<std::shared_ptr<const Table>> OrderedSelect(
    const Table& table, const std::vector<std::string>& columns,
    const ExprPtr& where, const std::string& order_by, bool desc,
    int64_t limit, const std::string& out_name, const ExecContext& exec) {
  constexpr size_t kNoColumn = static_cast<size_t>(-1);
  size_t sort_idx = kNoColumn;
  if (!order_by.empty()) {
    CODS_ASSIGN_OR_RETURN(sort_idx, table.ResolveColumnRef(order_by));
  }
  std::vector<size_t> indices;
  Schema schema;
  CODS_RETURN_NOT_OK(ResolveProjection(table, columns, &indices, &schema));
  std::optional<ValueBitmap> selection;
  ExprPtr root;
  if (where != nullptr) {
    CODS_ASSIGN_OR_RETURN(selection, EvalExpr(table, where, &exec));
    root = NormalizeExpr(where);
  }
  const uint64_t rows = table.rows();
  const uint64_t selected = selection ? selection->CountOnes() : rows;
  const uint64_t keep =
      limit < 0 ? selected
                : std::min<uint64_t>(static_cast<uint64_t>(limit), selected);

  PickedRows picked;
  if (sort_idx != kNoColumn) {
    const std::shared_ptr<const Column>& sort_col = table.column(sort_idx);
    std::optional<std::vector<Vid>> candidates;
    if (root != nullptr) candidates = ConstrainedVids(table, sort_idx, *root);
    picked = WalkRanks(*sort_col, desc, keep,
                       selection ? &*selection : nullptr,
                       candidates ? &*candidates : nullptr);
  } else if (selection) {
    // Pure LIMIT: the first `keep` selected rows.
    selection->ForEachSetBit([&](uint64_t pos) {
      if (picked.positions.size() == keep) return false;
      picked.positions.push_back(pos);
      return true;
    });
  } else {
    picked.positions.resize(keep);
    std::iota(picked.positions.begin(), picked.positions.end(), uint64_t{0});
  }

  std::vector<std::shared_ptr<const Column>> cols(indices.size());
  CODS_RETURN_NOT_OK(
      ParallelFor(exec, 0, indices.size(), 1, [&](uint64_t i) -> Status {
        const Column& src = *table.column(indices[i]);
        if (indices[i] == sort_idx) {
          cols[i] = GatherPresentValues(exec, src, picked.sort_vids);
          return Status::OK();
        }
        std::vector<Vid> vids(keep);
        if (keep > 0) {
          const PackedVids& map = src.RowVidMap();
          for (uint64_t j = 0; j < keep; ++j) {
            vids[j] = map[picked.positions[j]];
          }
        }
        cols[i] = GatherPresentValues(exec, src, std::move(vids));
        return Status::OK();
      }));
  return Table::Make(out_name, std::move(schema), std::move(cols), keep);
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
  QueryResult result;
  result.verb = request.verb;

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
    const std::string joined_name = request.table + "_" + request.join_table;
    // The right join column is elided from the join result (its values
    // equal the left one's); alias references to it onto the kept
    // column so WHERE / GROUP BY / ORDER BY / projections still bind.
    // But when a DIFFERENT left column shares the elided column's bare
    // name, a bare reference must error as ambiguous — suffix
    // resolution would silently bind it to the wrong column.
    const std::string kept = request.table + "." +
                             table->schema().column(li.ValueOrDie()).name;
    const std::string& right_col =
        right->schema().column(ri.ValueOrDie()).name;
    auto rules_over = [&](const Schema& joined) {
      JoinRefRules rules;
      rules.alias[request.join_table + "." + right_col] = kept;
      Result<size_t> bare = joined.ResolveColumnRef(right_col);
      if (!bare.ok()) {
        rules.alias[right_col] = kept;
      } else if (joined.column(bare.ValueOrDie()).name != kept) {
        rules.ambiguous = right_col;
        rules.ambiguous_msg =
            "ambiguous column '" + right_col + "': both " +
            joined.column(bare.ValueOrDie()).name +
            " and the elided join column " + request.join_table + "." +
            right_col + " (kept as " + kept +
            ") match; qualify the reference";
      }
      return rules;
    };
    if (request.verb == QueryRequest::Verb::kCount) {
      // COUNT(*) never materializes the join when every root conjunct
      // of the WHERE touches one side: the vid-intersection's
      // per-value products of the side selections are the answer. The
      // references bind against the join's schema, never built.
      std::optional<JoinSides> sides;
      if (where == nullptr) {
        sides.emplace();
      } else if (Result<Schema> joined =
                     JoinResultSchema(*table, *right, ri.ValueOrDie());
                 joined.ok()) {
        Result<ExprPtr> rewritten =
            RewriteExprRefs(where, rules_over(joined.ValueOrDie()));
        if (rewritten.ok()) {
          sides = PushDownJoinWhere(rewritten.ValueOrDie(), *table, *right,
                                    ri.ValueOrDie(), joined.ValueOrDie(),
                                    joined_name, ResolveContext(ctx));
        }
      }
      if (sides.has_value()) {
        JoinStats stats;
        CODS_ASSIGN_OR_RETURN(
            result.count,
            CompressedEquiJoinCount(*table, *right, li.ValueOrDie(),
                                    ri.ValueOrDie(), &stats,
                                    sides->Selection(0), sides->Selection(1),
                                    ctx));
        result.join_path = stats.path;
        return result;
      }
      // A conjunct mixing the sides, or a reference that does not bind
      // cleanly: the materializing plan below answers (and reports
      // errors exactly as before).
    }
    JoinStats stats;
    CODS_ASSIGN_OR_RETURN(
        input, CompressedEquiJoin(*table, *right, li.ValueOrDie(),
                                  ri.ValueOrDie(), joined_name, ctx, &stats));
    result.join_path = stats.path;
    const JoinRefRules rules = rules_over(input->schema());
    for (std::string& c : columns) CODS_RETURN_NOT_OK(RemapRef(&c, rules));
    for (AggregateSpec& agg : aggregates) {
      CODS_RETURN_NOT_OK(RemapRef(&agg.column, rules));
    }
    CODS_RETURN_NOT_OK(RemapRef(&group_by, rules));
    CODS_RETURN_NOT_OK(RemapRef(&order_by, rules));
    CODS_ASSIGN_OR_RETURN(where, RewriteExprRefs(where, rules));
  }

  switch (request.verb) {
    case QueryRequest::Verb::kSelect: {
      if (order_by.empty() && request.limit < 0) {
        CODS_ASSIGN_OR_RETURN(
            result.table,
            SelectRows(*input, columns, where, request.out_name, ctx));
      } else {
        CODS_ASSIGN_OR_RETURN(
            result.table,
            OrderedSelect(*input, columns, where, order_by,
                          request.order_desc, request.limit,
                          request.out_name, ResolveContext(ctx)));
      }
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
  CODS_ASSIGN_OR_RETURN(ValueBitmap selection, EvalExpr(table, where, &exec));
  return BuildSelectResult(table, indices, std::move(schema), selection,
                           where, out_name, exec);
}

Result<std::shared_ptr<const Table>> QueryEngine::ProjectSelection(
    const Table& table, const std::vector<std::string>& columns,
    const ValueBitmap& selection, const ExprPtr& where,
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
  // Resolve the measure columns, deduplicated: several aggregates over
  // one column share its per-group AND-count pass.
  std::vector<size_t> measure_idx;                        // table indices
  std::vector<std::shared_ptr<const Column>> measures;    // same order
  constexpr size_t kNoMeasure = static_cast<size_t>(-1);
  std::vector<size_t> measure_of_agg(aggregates.size(), kNoMeasure);
  for (size_t a = 0; a < aggregates.size(); ++a) {
    const AggregateSpec& agg = aggregates[a];
    if (agg.kind == AggregateSpec::Kind::kCount) {
      // COUNT(*) and COUNT(col) agree (no NULLs in this engine), but a
      // named column must still exist.
      if (!agg.column.empty()) {
        CODS_RETURN_NOT_OK(table.ResolveColumnRef(agg.column).status());
      }
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
  // The WHERE is evaluated once and expanded once into dense words; each
  // group folds it in once below, and every group task shares it
  // read-only. A bitset `sel` is borrowed in place, so it must outlive
  // `selection`.
  ValueBitmap sel;
  std::optional<DenseSelection> selection;
  const bool filtered = where != nullptr;
  if (filtered) {
    CODS_ASSIGN_OR_RETURN(sel, EvalExpr(table, where, &exec));
    selection.emplace(sel);
  }
  // Hoist per-measure emptiness out of the O(v_group · v_measure) loop.
  // A measure value probed by enough groups is expanded once into dense
  // words (DenseSelection::Pays; bitsets are used in place, arrays never
  // expand). The values of a column partition its rows, so at most 63 of
  // them are WAH (each holds more than rows/64 ones): the expansion is
  // bounded by 63 · rows/8 bytes per measure column.
  struct LiveMeasure {
    std::vector<const ValueBitmap*> bitmaps;
    std::vector<Vid> vids;
    std::vector<double> numeric;  // 0 for strings (never summed)
    std::vector<std::optional<DenseSelection>> dense;  // same order
  };
  uint64_t probing_groups = 0;
  for (Vid v = 0; v < group->distinct_count(); ++v) {
    if (!group->bitmap(v).IsAllZeros()) ++probing_groups;
  }
  std::vector<LiveMeasure> live(measures.size());
  uint64_t live_values = 0;
  for (size_t m = 0; m < measures.size(); ++m) {
    const Column& col = *measures[m];
    for (Vid v = 0; v < col.distinct_count(); ++v) {
      const ValueBitmap& vb = col.bitmap(v);
      if (vb.IsAllZeros()) continue;
      live[m].dense.emplace_back();
      if (DenseSelection::Pays(vb, probing_groups)) {
        live[m].dense.back().emplace(vb);
      }
      live[m].bitmaps.push_back(&vb);
      live[m].vids.push_back(v);
      const Value& value = col.dict().value(v);
      live[m].numeric.push_back(value.is_int64()
                                    ? static_cast<double>(value.int64())
                                    : value.is_double() ? value.dbl() : 0.0);
    }
    live_values += live[m].bitmaps.size();
  }
  // One task per group value: the inner AND-counts are independent, and
  // each group writes its own pre-sized slot, so dictionary order (and
  // floating-point summation order) is preserved at every thread count.
  std::vector<GroupRow> out(group->distinct_count());
  std::vector<char> qualifies(group->distinct_count(), 1);
  Status st = ParallelFor(
      exec, 0, group->distinct_count(), 4, [&](uint64_t g) {
        const ValueBitmap& gvb = group->bitmap(static_cast<Vid>(g));
        // The group operand of the contingency row: dense words when
        // folded with the WHERE (non-array groups) or probed often
        // enough, else a compressed container — the group itself, or,
        // for an array group under a WHERE, its qualifying positions.
        std::optional<DenseSelection> dense_group;
        ValueBitmap sparse_group;
        const ValueBitmap* compressed_group = &gvb;
        if (!gvb.IsAllZeros()) {
          if (selection && gvb.rep() == BitmapRep::kArray) {
            sparse_group = selection->AndArray(gvb);
            compressed_group = &sparse_group;
          } else if (selection) {
            dense_group.emplace(*selection, gvb);
          } else if (DenseSelection::Pays(gvb, live_values)) {
            dense_group.emplace(gvb);
          }
        }
        const uint64_t group_count = dense_group
                                         ? dense_group->CountOnes()
                                         : compressed_group->CountOnes();
        if (filtered && group_count == 0) {
          // SQL semantics: a WHERE that leaves a group no qualifying
          // rows drops the group (unlike a group genuinely summing to
          // 0, which stays).
          qualifies[g] = 0;
          return Status::OK();
        }
        struct Acc {
          double sum = 0;
          uint64_t count = 0;
          const Value* min = nullptr;
          const Value* max = nullptr;
        };
        std::vector<Acc> accs(measures.size());
        if (group_count != 0) {
          for (size_t m = 0; m < measures.size(); ++m) {
            const LiveMeasure& lm = live[m];
            Acc& acc = accs[m];
            for (size_t i = 0; i < lm.bitmaps.size(); ++i) {
              // Word AND + popcount when both sides are dense, one
              // dense probe when one is, the codec pair kernel when
              // neither is.
              const std::optional<DenseSelection>& dense_value = lm.dense[i];
              const uint64_t count =
                  dense_group
                      ? (dense_value ? dense_group->AndCount(*dense_value)
                                     : dense_group->AndCount(*lm.bitmaps[i]))
                      : (dense_value
                             ? dense_value->AndCount(*compressed_group)
                             : CodecAndCount(*compressed_group,
                                             *lm.bitmaps[i]));
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

// ---- ORDER BY / LIMIT ------------------------------------------------------

Result<std::shared_ptr<const Table>> QueryEngine::SortRows(
    const Table& table, const std::string& order_by, bool desc,
    int64_t limit, const std::string& out_name, const ExecContext* ctx) {
  return OrderedSelect(table, {}, nullptr, order_by, desc, limit, out_name,
                       ResolveContext(ctx));
}

}  // namespace cods
