#include "query/expr.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "bitmap/codec.h"
#include "common/logging.h"
#include "storage/value_compare.h"

namespace cods {

namespace {

std::shared_ptr<Expr> MakeLeaf(ExprKind kind, std::string column) {
  auto e = std::make_shared<Expr>();
  e->kind = kind;
  e->column = std::move(column);
  return e;
}

// Grammar precedence, used to emit minimal parentheses: OR < AND < NOT
// < leaf. AND/OR are associative, so a same-kind child prints bare (it
// re-parses flattened, which is equivalent).
int Precedence(ExprKind kind) {
  switch (kind) {
    case ExprKind::kOr:
      return 1;
    case ExprKind::kAnd:
      return 2;
    case ExprKind::kNot:
      return 3;
    default:
      return 4;
  }
}

std::string ToStringWithParens(const Expr& child, int parent_prec) {
  std::string s = child.ToString();
  if (Precedence(child.kind) < parent_prec) return "(" + s + ")";
  return s;
}

}  // namespace

const char* ExprKindToString(ExprKind kind) {
  switch (kind) {
    case ExprKind::kCompare:
      return "COMPARE";
    case ExprKind::kIn:
      return "IN";
    case ExprKind::kBetween:
      return "BETWEEN";
    case ExprKind::kNot:
      return "NOT";
    case ExprKind::kAnd:
      return "AND";
    case ExprKind::kOr:
      return "OR";
  }
  return "?";
}

ExprPtr Expr::Compare(std::string column, CompareOp op, Value literal) {
  auto e = MakeLeaf(ExprKind::kCompare, std::move(column));
  e->op = op;
  e->literal = std::move(literal);
  return e;
}

ExprPtr Expr::In(std::string column, std::vector<Value> values) {
  // An empty list would render as "c IN ()", which the grammar rejects
  // — enforce non-emptiness here like And/Or do, so every constructible
  // expression round-trips through ToString.
  CODS_CHECK(!values.empty()) << "IN needs at least one value";
  auto e = MakeLeaf(ExprKind::kIn, std::move(column));
  e->in_values = std::move(values);
  return e;
}

ExprPtr Expr::Between(std::string column, Value lo, Value hi) {
  auto e = MakeLeaf(ExprKind::kBetween, std::move(column));
  e->between_lo = std::move(lo);
  e->between_hi = std::move(hi);
  return e;
}

ExprPtr Expr::Not(ExprPtr child) {
  CODS_CHECK(child != nullptr) << "NOT needs a child expression";
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kNot;
  e->children.push_back(std::move(child));
  return e;
}

ExprPtr Expr::And(std::vector<ExprPtr> children) {
  CODS_CHECK(!children.empty()) << "AND needs at least one child";
  for (const ExprPtr& c : children) CODS_CHECK(c != nullptr);
  if (children.size() == 1) return children[0];
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kAnd;
  e->children = std::move(children);
  return e;
}

ExprPtr Expr::Or(std::vector<ExprPtr> children) {
  CODS_CHECK(!children.empty()) << "OR needs at least one child";
  for (const ExprPtr& c : children) CODS_CHECK(c != nullptr);
  if (children.size() == 1) return children[0];
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kOr;
  e->children = std::move(children);
  return e;
}

bool Expr::LeafMatches(const Value& v) const {
  switch (kind) {
    case ExprKind::kCompare:
      return EvalCompare(v, op, literal);
    case ExprKind::kIn:
      for (const Value& candidate : in_values) {
        // Order-equivalence, like EvalCompare's kEq: int64 3 matches a
        // double 3.0 list entry.
        if (EvalCompare(v, CompareOp::kEq, candidate)) return true;
      }
      return false;
    case ExprKind::kBetween:
      return !(v < between_lo) && !(between_hi < v);
    default:
      CODS_CHECK(false) << "LeafMatches on non-leaf " << ExprKindToString(kind);
      return false;
  }
}

std::string Expr::ToString() const {
  switch (kind) {
    case ExprKind::kCompare:
      return column + " " + CompareOpToString(op) + " " +
             FormatScriptLiteral(literal);
    case ExprKind::kIn: {
      std::string out = column + " IN (";
      for (size_t i = 0; i < in_values.size(); ++i) {
        if (i > 0) out += ", ";
        out += FormatScriptLiteral(in_values[i]);
      }
      return out + ")";
    }
    case ExprKind::kBetween:
      return column + " BETWEEN " + FormatScriptLiteral(between_lo) +
             " AND " + FormatScriptLiteral(between_hi);
    case ExprKind::kNot:
      return "NOT " + ToStringWithParens(*children[0], Precedence(kind));
    case ExprKind::kAnd:
    case ExprKind::kOr: {
      const char* sep = kind == ExprKind::kAnd ? " AND " : " OR ";
      std::string out;
      for (size_t i = 0; i < children.size(); ++i) {
        if (i > 0) out += sep;
        out += ToStringWithParens(*children[i], Precedence(kind));
      }
      return out;
    }
  }
  return "?";
}

bool ExprEquals(const Expr& a, const Expr& b) {
  if (a.kind != b.kind || a.column != b.column || a.op != b.op ||
      a.literal != b.literal || a.in_values != b.in_values ||
      a.between_lo != b.between_lo || a.between_hi != b.between_hi ||
      a.children.size() != b.children.size()) {
    return false;
  }
  for (size_t i = 0; i < a.children.size(); ++i) {
    if (!ExprEquals(*a.children[i], *b.children[i])) return false;
  }
  return true;
}

namespace {

// The recursive normalizer: `negate` carries a pending NOT down the
// tree. Comparisons absorb it (total Value order makes the negated
// operator exact), AND/OR flip De Morgan-style, IN/BETWEEN keep a
// residual NOT directly above the leaf (evaluated as a complement).
ExprPtr Normalize(const ExprPtr& node, bool negate) {
  switch (node->kind) {
    case ExprKind::kCompare:
      if (!negate) return node;
      return Expr::Compare(node->column, NegateCompareOp(node->op),
                           node->literal);
    case ExprKind::kIn:
    case ExprKind::kBetween:
      return negate ? Expr::Not(node) : node;
    case ExprKind::kNot:
      return Normalize(node->children[0], !negate);
    case ExprKind::kAnd:
    case ExprKind::kOr: {
      bool is_and = (node->kind == ExprKind::kAnd) != negate;
      ExprKind kind = is_and ? ExprKind::kAnd : ExprKind::kOr;
      std::vector<ExprPtr> flat;
      flat.reserve(node->children.size());
      for (const ExprPtr& child : node->children) {
        ExprPtr n = Normalize(child, negate);
        if (n->kind == kind) {
          // Same-kind child: splice its children in (flattening), so
          // the whole run feeds ONE k-way kernel call.
          flat.insert(flat.end(), n->children.begin(), n->children.end());
        } else {
          flat.push_back(std::move(n));
        }
      }
      return is_and ? Expr::And(std::move(flat)) : Expr::Or(std::move(flat));
    }
  }
  return node;
}

// Leaves of the normalized tree, in DFS order: kCompare/kIn/kBetween
// nodes, plus kNot nodes (whose single child is an IN/BETWEEN leaf).
// Each OCCURRENCE gets its own slot so evaluation can move results out.
void CollectLeaves(const Expr& node, std::vector<const Expr*>* leaves) {
  switch (node.kind) {
    case ExprKind::kCompare:
    case ExprKind::kIn:
    case ExprKind::kBetween:
    case ExprKind::kNot:
      leaves->push_back(&node);
      return;
    case ExprKind::kAnd:
    case ExprKind::kOr:
      for (const ExprPtr& child : node.children) {
        CollectLeaves(*child, leaves);
      }
      return;
  }
}

// 2^53: every integer of smaller magnitude is exact as a double, and no
// int64 of magnitude 2^53 or more rounds to a double below it.
constexpr double kExactIntegerBound = 9007199254740992.0;

// Appends the vids of the dictionary values order-equal to `literal`
// (EvalCompare's kEq). Within one type, variant equality is
// order-equality (and -0.0 == 0.0 hash alike), so each image of the
// literal is one hash probe. Returns false when probes cannot answer:
// NaN never hash-matches, and a double at or beyond 2^53 in magnitude
// equals many int64s.
bool ProbeOrderEqual(const Dictionary& dict, const Value& literal,
                     std::vector<Vid>* vids) {
  auto probe = [&](const Value& image) {
    if (std::optional<Vid> vid = dict.Lookup(image)) vids->push_back(*vid);
  };
  if (literal.is_double()) {
    const double d = literal.dbl();
    if (std::isnan(d) || std::fabs(d) >= kExactIntegerBound) return false;
    if (d == std::trunc(d)) probe(Value(static_cast<int64_t>(d)));
  } else if (literal.is_int64()) {
    probe(Value(static_cast<double>(literal.int64())));
  }
  probe(literal);
  return true;
}

// One leaf to its selection bitmap: the qualifying value bitmaps into a
// single-pass k-way union, then an optional complement for a residual
// NOT.
Result<ValueBitmap> EvalLeafBitmap(const Table& table, const Expr& leaf) {
  const Expr* inner = &leaf;
  bool negate = false;
  if (leaf.kind == ExprKind::kNot) {
    negate = true;
    inner = leaf.children[0].get();
  }
  // References bind loosely: exact name, unique qualified suffix, or
  // `<table>.<col>` of the probed table (cross-table WHERE clauses).
  CODS_ASSIGN_OR_RETURN(auto col, table.ColumnByRef(inner->column));
  std::vector<const ValueBitmap*> qualifying;
  for (Vid vid : MatchingVids(*col, *inner)) {
    qualifying.push_back(&col->bitmap(vid));
  }
  ValueBitmap bm = CodecOrMany(qualifying, table.rows());
  if (negate) return CodecNot(bm);
  return bm;
}

// Evaluates every leaf of the normalized tree in parallel (one task per
// leaf). Every leaf always runs, so invalid leaves error identically at
// every thread count; the first error in DFS leaf order wins.
Result<std::vector<ValueBitmap>> EvalAllLeaves(
    const ExecContext& ctx, const Table& table,
    const std::vector<const Expr*>& leaves) {
  std::vector<Result<ValueBitmap>> slots(leaves.size(),
                                         Result<ValueBitmap>(ValueBitmap()));
  Status st = ParallelFor(ctx, 0, leaves.size(), 1, [&](uint64_t i) {
    slots[i] = EvalLeafBitmap(table, *leaves[i]);
    return Status::OK();
  });
  CODS_CHECK(st.ok()) << st.ToString();
  std::vector<ValueBitmap> evaluated;
  evaluated.reserve(leaves.size());
  for (Result<ValueBitmap>& slot : slots) {
    CODS_RETURN_NOT_OK(slot.status());
    evaluated.push_back(std::move(slot).ValueOrDie());
  }
  return evaluated;
}

ValueBitmap Combine(const Expr& node, uint64_t rows,
                    std::vector<ValueBitmap>& slots, size_t& cursor);

// The combined children of an AND/OR node, in child order.
std::vector<ValueBitmap> CombineChildren(const Expr& node, uint64_t rows,
                                         std::vector<ValueBitmap>& slots,
                                         size_t& cursor) {
  std::vector<ValueBitmap> kids;
  kids.reserve(node.children.size());
  for (const ExprPtr& child : node.children) {
    kids.push_back(Combine(*child, rows, slots, cursor));
  }
  return kids;
}

std::vector<const ValueBitmap*> Pointers(const std::vector<ValueBitmap>& v) {
  std::vector<const ValueBitmap*> out;
  out.reserve(v.size());
  for (const ValueBitmap& vb : v) out.push_back(&vb);
  return out;
}

// Bottom-up combine over the normalized tree. `cursor` walks the leaf
// slots in the same DFS order CollectLeaves produced; each slot is
// consumed (moved) exactly once.
ValueBitmap Combine(const Expr& node, uint64_t rows,
                    std::vector<ValueBitmap>& slots, size_t& cursor) {
  switch (node.kind) {
    case ExprKind::kCompare:
    case ExprKind::kIn:
    case ExprKind::kBetween:
    case ExprKind::kNot:
      return std::move(slots[cursor++]);
    case ExprKind::kAnd:
    case ExprKind::kOr: {
      const std::vector<ValueBitmap> kids =
          CombineChildren(node, rows, slots, cursor);
      return node.kind == ExprKind::kAnd ? CodecAndMany(Pointers(kids), rows)
                                         : CodecOrMany(Pointers(kids), rows);
    }
  }
  return ValueBitmap();
}

}  // namespace

std::vector<Vid> MatchingVids(const Column& column, const Expr& leaf) {
  const Dictionary& dict = column.dict();
  std::vector<Vid> vids;
  bool probed = false;
  if (leaf.kind == ExprKind::kCompare && leaf.op == CompareOp::kEq) {
    probed = ProbeOrderEqual(dict, leaf.literal, &vids);
  } else if (leaf.kind == ExprKind::kIn) {
    probed = std::all_of(
        leaf.in_values.begin(), leaf.in_values.end(),
        [&](const Value& v) { return ProbeOrderEqual(dict, v, &vids); });
  }
  if (probed) {
    // IN (3, 3.0) probes the same entry twice.
    std::sort(vids.begin(), vids.end());
    vids.erase(std::unique(vids.begin(), vids.end()), vids.end());
    return vids;
  }
  vids.clear();
  for (Vid vid = 0; vid < dict.size(); ++vid) {
    if (leaf.LeafMatches(dict.value(vid))) vids.push_back(vid);
  }
  return vids;
}

ExprPtr NormalizeExpr(const ExprPtr& expr) {
  CODS_CHECK(expr != nullptr) << "NormalizeExpr on null expression";
  return Normalize(expr, false);
}

Result<ValueBitmap> EvalExpr(const Table& table, const ExprPtr& expr,
                             const ExecContext* ctx) {
  ExprPtr root = NormalizeExpr(expr);
  std::vector<const Expr*> leaves;
  CollectLeaves(*root, &leaves);
  CODS_ASSIGN_OR_RETURN(
      std::vector<ValueBitmap> slots,
      EvalAllLeaves(ResolveContext(ctx), table, leaves));
  size_t cursor = 0;
  return Combine(*root, table.rows(), slots, cursor);
}

Result<uint64_t> EvalExprCount(const Table& table, const ExprPtr& expr,
                               const ExecContext* ctx) {
  ExprPtr root = NormalizeExpr(expr);
  std::vector<const Expr*> leaves;
  CollectLeaves(*root, &leaves);
  CODS_ASSIGN_OR_RETURN(
      std::vector<ValueBitmap> slots,
      EvalAllLeaves(ResolveContext(ctx), table, leaves));
  size_t cursor = 0;
  // The root node's bitmap is never materialized: its children combine
  // normally, then the count-only kernel folds them.
  switch (root->kind) {
    case ExprKind::kAnd:
    case ExprKind::kOr: {
      const std::vector<ValueBitmap> kids =
          CombineChildren(*root, table.rows(), slots, cursor);
      return root->kind == ExprKind::kAnd
                 ? CodecAndManyCount(Pointers(kids), table.rows())
                 : CodecOrManyCount(Pointers(kids), table.rows());
    }
    default:
      return Combine(*root, table.rows(), slots, cursor).CountOnes();
  }
}

}  // namespace cods
