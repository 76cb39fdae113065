// The composable predicate AST of the query layer: compare, IN, BETWEEN,
// NOT, and arbitrarily nested AND/OR over single-column leaves. An Expr
// compiles onto the compressed-domain codec kernels instead of a row
// scan:
//
//   1. Normalize: NOT is pushed down De Morgan-style (NOT over AND/OR
//      distributes, double NOT cancels) and NOT over a comparison folds
//      into the negated comparison operator (NegateCompareOp), so the
//      only surviving NOTs sit directly over IN/BETWEEN leaves. Same-kind
//      AND/AND and OR/OR children are flattened into one node, exposing
//      the maximal fan-in to the single-pass k-way kernels.
//   2. Leaf evaluation: MatchingVids resolves the leaf to its qualifying
//      dictionary values — `=` and IN probe the dictionary's hash index
//      (O(literals), independent of the dictionary size), every other
//      leaf is one dictionary scan — then a k-way union of those value
//      bitmaps. Leaves evaluate in parallel on the ExecContext (one task
//      per leaf, pre-sized slots, first error in leaf order), so results
//      and errors are bit-identical at every thread count.
//   3. Combine: AND/OR nodes feed their children to CodecAndMany /
//      CodecOrMany (bitmap/codec.h); a residual NOT is a CodecNot
//      complement on top of its leaf. The complement is exact because
//      every row holds exactly one non-null value per column, so a
//      column's value bitmaps partition the row domain. Every
//      intermediate and the result is a canonical ValueBitmap, so the
//      selection is representation-identical at every thread count.

#ifndef CODS_QUERY_EXPR_H_
#define CODS_QUERY_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "bitmap/codec.h"
#include "common/compare.h"
#include "exec/exec.h"
#include "storage/table.h"

namespace cods {

struct Expr;
/// Nodes are immutable and shared; subtrees can be reused across
/// requests (and across threads) freely.
using ExprPtr = std::shared_ptr<const Expr>;

enum class ExprKind { kCompare, kIn, kBetween, kNot, kAnd, kOr };

const char* ExprKindToString(ExprKind kind);

/// One node of a predicate expression. Leaves (kCompare, kIn, kBetween)
/// name a column and carry literals; kNot has exactly one child; kAnd
/// and kOr have one or more. The factories below construct well-formed
/// nodes — use them instead of aggregate initialization.
struct Expr {
  ExprKind kind = ExprKind::kCompare;

  // Leaf payload.
  std::string column;
  CompareOp op = CompareOp::kEq;     // kCompare
  Value literal;                     // kCompare right-hand side
  std::vector<Value> in_values;      // kIn candidate set
  Value between_lo, between_hi;      // kBetween inclusive bounds

  // kNot: exactly one; kAnd/kOr: one or more.
  std::vector<ExprPtr> children;

  // ---- Factories ---------------------------------------------------------
  static ExprPtr Compare(std::string column, CompareOp op, Value literal);
  static ExprPtr In(std::string column, std::vector<Value> values);
  static ExprPtr Between(std::string column, Value lo, Value hi);
  static ExprPtr Not(ExprPtr child);
  static ExprPtr And(std::vector<ExprPtr> children);
  static ExprPtr Or(std::vector<ExprPtr> children);

  /// True when a row whose `column` holds `v` satisfies this LEAF
  /// (kCompare/kIn/kBetween only) — the dictionary-scan qualifier and
  /// the row-level oracle tests check against.
  bool LeafMatches(const Value& v) const;

  /// Renders the expression in the statement grammar of smo/parser.h
  /// ("a = 'x' AND (b > 3 OR NOT c IN (1, 2))"). Minimal parentheses;
  /// the output re-parses to an equivalent expression.
  std::string ToString() const;
};

/// Structural equality (same shape, columns, operators, literals).
bool ExprEquals(const Expr& a, const Expr& b);

/// The normalization pass described above, exposed for tests and for
/// plan display. Idempotent. Never errors: unknown columns are caught
/// at evaluation (bind) time.
ExprPtr NormalizeExpr(const ExprPtr& expr);

/// The vids of `column` whose dictionary values satisfy `leaf` (a
/// kCompare/kIn/kBetween node; the column is not re-resolved), sorted
/// and deduplicated. `=` and IN probe the dictionary's hash index with
/// every order-equal image of each literal: an int64 also probes its
/// double image, an integral double below 2^53 in magnitude also probes
/// its int64 image, and -0.0 finds 0.0. A NaN literal (each NaN row
/// value keeps its own dictionary entry) or a double at or beyond 2^53
/// in magnitude (many int64s round to it) makes the leaf scan instead,
/// as every other leaf does: LeafMatches over the whole dictionary.
std::vector<Vid> MatchingVids(const Column& column, const Expr& leaf);

/// Evaluates `expr` to a selection bitmap of length table.rows().
/// Normalizes, evaluates every leaf in parallel on `ctx`, and combines
/// with the k-way kernels. Unknown columns error; the first error in
/// leaf order wins at every thread count.
Result<ValueBitmap> EvalExpr(const Table& table, const ExprPtr& expr,
                             const ExecContext* ctx = nullptr);

/// Number of selected rows, using the count-only k-way kernels at the
/// root (the selection bitmap of the root node is never materialized
/// when the root is AND/OR after normalization).
Result<uint64_t> EvalExprCount(const Table& table, const ExprPtr& expr,
                               const ExecContext* ctx = nullptr);

}  // namespace cods

#endif  // CODS_QUERY_EXPR_H_
