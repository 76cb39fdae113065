// Parallel construction of a column's value bitmaps from a row → vid
// mapping — the shape shared by Column::FromVids, the mergence append
// step and the general mergence's output build: scan rows in order,
// append each row's bit to the builder of its value.
//
// The serial scan has a per-value sequential dependency (appends must
// arrive in increasing positions), so the parallel version splits the
// row range into group-aligned chunks, builds one partial builder set
// per chunk with chunk-relative positions, then concatenates the
// partials per value in chunk order. WahBitmap's canonical form
// guarantees the concatenation is bit-identical to the serial build:
// equal logical content implies equal code words.
//
// The position-filter builders shrink columns onto a row subset:
// FilterColumnBitmaps for catalog tables, ProjectPresentValues for
// SELECT results. The latter keeps only the values the selection hits,
// so a point SELECT over a high-cardinality column builds a few bitmaps
// instead of one per dictionary value, and under a sparse selection it
// gathers the selected rows' vids from the column's row → vid map
// instead of filtering each value's rows.

#ifndef CODS_EXEC_PARALLEL_BUILD_H_
#define CODS_EXEC_PARALLEL_BUILD_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "bitmap/wah_bitmap.h"
#include "bitmap/wah_filter.h"
#include "exec/exec.h"
#include "storage/column.h"
#include "storage/dictionary.h"

namespace cods {

/// Builds `num_values` WAH bitmaps of `rows` bits each, where bitmap
/// `vid_of_row[r]` has bit r set (exactly one value per row; every
/// vid_of_row[r] < num_values). Maximal runs of rows mapping to the same
/// value append as a single fill. Bit-identical at every thread count.
std::vector<WahBitmap> BuildValueBitmaps(const ExecContext& ctx,
                                         const Vid* vid_of_row,
                                         uint64_t rows, uint64_t num_values);

/// Appends `count` one-bits at [start, start + count) to a builder whose
/// current size must be <= start (zero-padding the gap): the per-value
/// run appends of the join and mergence output builders.
void AppendOnesAt(WahBitmap* bm, uint64_t start, uint64_t count);

/// Pads every builder to `rows` and wraps them in a Column.
std::shared_ptr<const Column> FinishColumn(DataType type,
                                           const Dictionary& dict,
                                           std::vector<WahBitmap> builders,
                                           uint64_t rows);

/// Shrinks every value bitmap of `column` through `filter` (one task per
/// vid) and rebuilds the column at filter.num_positions() rows with the
/// full source dictionary, zero-count values included — the
/// position-filtering shape of PARTITION TABLE, DECOMPOSE and JOIN,
/// whose outputs are catalog tables: their dictionaries are part of the
/// checkpoint image and of bit-identical WAL replay. Bit-identical at
/// every thread count.
Result<std::shared_ptr<const Column>> FilterColumnBitmaps(
    const ExecContext& ctx, const Column& column,
    const WahPositionFilter& filter);

/// The result column whose row i holds `vids[i]` (vids of `column`). Its
/// dictionary keeps only the values present, in source-vid order, so the
/// result is a pure function of (column, vids) — bit-identical at every
/// thread count. O(vids · log vids); the source dictionary is never
/// scanned.
std::shared_ptr<const Column> GatherPresentValues(const ExecContext& ctx,
                                                  const Column& column,
                                                  std::vector<Vid> vids);

/// The SELECT-result projection of `column` onto the rows `selection`
/// holds, keeping only the values present, in source-vid order. It runs
/// one of two ways, and both yield the same column:
///   * with a null `filter` it gathers: each selected row reads its vid
///     from the column's cached row → vid map (Column::RowVidMap), and
///     GatherPresentValues builds the result — O(selected rows), no
///     per-value work and no domain-sized filter. Callers gather under
///     array selections (at most rows/64 rows);
///   * with a `filter` (indexing the same positions) it shrinks each
///     value bitmap through the filter in the compressed domain;
///     `candidates` (sorted, or null for every vid) restricts that work
///     when the caller knows each selected row holds one of those vids.
/// SELECT results are never catalog tables; catalog outputs use
/// FilterColumnBitmaps.
Result<std::shared_ptr<const Column>> ProjectPresentValues(
    const ExecContext& ctx, const Column& column, const ValueBitmap& selection,
    const WahPositionFilter* filter, const std::vector<Vid>* candidates);

}  // namespace cods

#endif  // CODS_EXEC_PARALLEL_BUILD_H_
