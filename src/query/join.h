// Compressed-domain equi-join for the query layer — the SELECT ... JOIN
// counterpart of MERGE TABLES (§2.5), built from the same machinery but
// with SQL inner-join semantics (unmatched rows drop instead of raising
// a foreign-key violation) and without touching the evolution layer.
//
// The plan is dictionary-first: a vid-intersection on the two join
// columns (dictionary translate + per-value popcounts, all on compressed
// words) classifies the join before any row is produced:
//
//   * One side's matched values are all unique: the key–FK shape of
//     §2.5.1. The scanning side is shrunk to its matching rows with the
//     PARTITION position-filter builders (one compressed filter per
//     value bitmap) — or reused by pointer outright when every row
//     matches — and the keyed side's payload columns are generated by
//     one sequential row → vid gather per column, appended in increasing
//     row order (the paper's sequential-append optimization).
//   * Both sides carry duplicates: the general two-pass shape of §2.5.2.
//     Each matched value v occupies n1(v)·n2(v) consecutive output rows
//     clustered by value in left-dictionary order; join-column bitmaps
//     are pure fill runs, payload bitmaps are built from row → vid maps
//     in increasing position.
//
// Either way the output bitmaps are produced compressed-to-compressed
// and are bit-identical at every thread count (the determinism contract
// of src/exec/).

#ifndef CODS_QUERY_JOIN_H_
#define CODS_QUERY_JOIN_H_

#include <memory>
#include <string>

#include "bitmap/codec.h"
#include "exec/exec.h"
#include "storage/table.h"

namespace cods {

/// Statistics of one join execution (plan introspection for tests and
/// benches).
struct JoinStats {
  /// Which shape ran: "fk-right" (right join column unique), "fk-left",
  /// "general", or "count-only" (CompressedEquiJoinCount).
  std::string path;
  /// Distinct join values present on both sides.
  uint64_t matched_values = 0;
};

/// Inner equi-join of `left` and `right` on `left.column(left_join) ==
/// right.column(right_join)`. Output columns: every column of `left`
/// (in order), then every column of `right` except the join column,
/// with every output column renamed `<table name>.<column name>` (the
/// qualified form Schema::ResolveColumnRef understands). The join
/// columns must share one DataType. The declared key of the output is
/// empty.
///
/// Row order: left row order when the right join column's matched
/// values are unique; right row order in the mirrored case; otherwise
/// clustered by join value (left-dictionary order), left rows before
/// right rows within a value — deterministic for given inputs at every
/// thread count.
Result<std::shared_ptr<const Table>> CompressedEquiJoin(
    const Table& left, const Table& right, size_t left_join,
    size_t right_join, const std::string& out_name,
    const ExecContext* ctx = nullptr, JoinStats* stats = nullptr);

/// The join result's schema — every column of `left`, then every column
/// of `right` but its join column, each renamed `<table>.<column>` —
/// without building the join (references bind against it up front).
Result<Schema> JoinResultSchema(const Table& left, const Table& right,
                                size_t right_join);

/// Output cardinality of the same join WITHOUT building any output
/// column: the vid-intersection's per-value popcount products
/// Σ n1·n2 are the answer (SELECT COUNT(*) over an unfiltered join
/// never materializes). Per-side selections (rows of `left` / `right`,
/// null = every row) narrow it to Σ |selL ∧ L[v]|·|selR ∧ R[v']| over
/// the matched values — a WHERE whose conjuncts each touch one side
/// stays count-only. A selection that many values probe is densified
/// once (DenseSelection). `stats->path` reports "count-only". Exact
/// at every thread count.
Result<uint64_t> CompressedEquiJoinCount(
    const Table& left, const Table& right, size_t left_join,
    size_t right_join, JoinStats* stats = nullptr,
    const ValueBitmap* left_selection = nullptr,
    const ValueBitmap* right_selection = nullptr,
    const ExecContext* ctx = nullptr);

}  // namespace cods

#endif  // CODS_QUERY_JOIN_H_
