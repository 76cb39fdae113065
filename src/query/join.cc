#include "query/join.h"

#include <optional>
#include <utility>
#include <vector>

#include "bitmap/codec.h"
#include "bitmap/wah_filter.h"
#include "common/logging.h"
#include "exec/parallel_build.h"

namespace cods {

namespace {

// Maps every vid of `from` to the vid of the equal value in `to`, or
// kNoVid when the value is absent there — the dictionary-level
// vid-intersection that classifies the join before any row is touched.
std::vector<Vid> TranslateDict(const Dictionary& from, const Dictionary& to) {
  std::vector<Vid> out(from.size(), kNoVid);
  for (Vid vid = 0; vid < from.size(); ++vid) {
    std::optional<Vid> mapped = to.Lookup(from.value(vid));
    if (mapped.has_value()) out[vid] = *mapped;
  }
  return out;
}

// One matched join value: the vids it holds on each side and the
// per-side row counts.
struct Match {
  Vid left_vid = 0;
  Vid right_vid = 0;
  uint64_t n1 = 0;  // left rows holding the value
  uint64_t n2 = 0;  // right rows holding the value
};

// ---- Key–FK shape (§2.5.1, SQL semantics) ---------------------------------
//
// Every matched value is unique on the `keyed` side, so each scan row
// has at most one partner. Output rows follow scan row order, filtered
// to rows whose value matched (or the scan columns are reused by
// pointer when every row did).

struct FkOut {
  // All scan-side columns, filtered (or shared) — scan schema order.
  std::vector<std::shared_ptr<const Column>> scan_cols;
  // Keyed-side columns except its join column — keyed schema order.
  std::vector<std::shared_ptr<const Column>> keyed_cols;
  uint64_t rows = 0;
};

Result<FkOut> FkJoin(const ExecContext& exec, const Table& scan,
                     size_t scan_join, const Table& keyed, size_t keyed_join,
                     const std::vector<std::pair<Vid, Vid>>& matches) {
  const Column& sj = *scan.column(scan_join);
  const Column& kj = *keyed.column(keyed_join);
  FkOut out;
  // Scan rows with a partner: one single-pass k-way union of the
  // matched value bitmaps (the vid-intersection, materialized).
  std::vector<const ValueBitmap*> matched;
  matched.reserve(matches.size());
  for (const auto& [sv, kv] : matches) matched.push_back(&sj.bitmap(sv));
  const ValueBitmap selection = CodecOrMany(matched, scan.rows());
  const bool all_rows = selection.IsAllOnes();
  std::vector<uint64_t> positions;
  out.scan_cols.resize(scan.num_columns());
  if (all_rows) {
    // Every scan row matches: reuse the scan columns by pointer (the
    // §2.4 Property 1 move — one pointer copy per column).
    out.rows = scan.rows();
    for (size_t i = 0; i < scan.num_columns(); ++i) {
      out.scan_cols[i] = scan.column(i);
    }
  } else {
    positions = selection.SetPositions();
    out.rows = positions.size();
    WahPositionFilter filter(positions, scan.rows());
    // Column tasks nest the per-vid filter tasks inside
    // FilterColumnBitmaps, exactly as PARTITION does.
    CODS_RETURN_NOT_OK(
        ParallelFor(exec, 0, scan.num_columns(), 1, [&](uint64_t i) -> Status {
          CODS_ASSIGN_OR_RETURN(
              out.scan_cols[i],
              FilterColumnBitmaps(exec, *scan.column(i), filter));
          return Status::OK();
        }));
  }
  if (keyed.num_columns() <= 1) return out;  // nothing to generate
  // The keyed row of each matched scan vid: the single set bit of the
  // keyed value bitmap, probed on compressed words.
  std::vector<uint64_t> keyed_row_of_scan_vid(sj.distinct_count(), 0);
  Status probe_st =
      ParallelFor(exec, 0, matches.size(), 64, [&](uint64_t m) {
        keyed_row_of_scan_vid[matches[m].first] =
            kj.bitmap(matches[m].second).FirstSetBit();
        return Status::OK();
      });
  CODS_CHECK(probe_st.ok()) << probe_st.ToString();
  // Output row -> keyed row, via the scan join column's vids.
  std::vector<Vid> svids = sj.DecodeVids(&exec);
  std::vector<uint64_t> keyed_row_of_out(out.rows);
  Status map_st = ParallelForChunked(
      exec, 0, out.rows, 4096, [&](uint64_t lo, uint64_t hi) {
        for (uint64_t j = lo; j < hi; ++j) {
          uint64_t scan_row = all_rows ? j : positions[j];
          keyed_row_of_out[j] = keyed_row_of_scan_vid[svids[scan_row]];
        }
        return Status::OK();
      });
  CODS_CHECK(map_st.ok()) << map_st.ToString();
  // Generate the keyed payload columns: one row -> vid gather per
  // column, then the chunked parallel builder appends bits in
  // increasing row order (maximal same-value runs append as one fill).
  std::vector<Vid> out_vid_of_row(out.rows);
  for (size_t i = 0; i < keyed.num_columns(); ++i) {
    if (i == keyed_join) continue;
    const Column& src = *keyed.column(i);
    std::vector<Vid> kvids = src.DecodeVids(&exec);
    Status st = ParallelForChunked(
        exec, 0, out.rows, 4096, [&](uint64_t lo, uint64_t hi) {
          for (uint64_t j = lo; j < hi; ++j) {
            out_vid_of_row[j] = kvids[keyed_row_of_out[j]];
          }
          return Status::OK();
        });
    CODS_CHECK(st.ok()) << st.ToString();
    out.keyed_cols.push_back(
        Column::FromVids(src.type(), src.dict(), out_vid_of_row, &exec));
  }
  return out;
}

// ---- General shape (§2.5.2) ------------------------------------------------
//
// Both sides may carry duplicates: matched value k occupies
// n1(k)·n2(k) consecutive output rows (left rows outer, right rows
// inner), clustered by value in left-dictionary order.

Result<std::shared_ptr<const Table>> GeneralJoin(
    const ExecContext& exec, const Table& left, size_t left_join,
    const Table& right, size_t right_join, const std::vector<Match>& matches,
    Schema out_schema, const std::string& out_name) {
  const uint64_t num = matches.size();
  std::vector<uint64_t> off(num + 1, 0);
  for (uint64_t k = 0; k < num; ++k) {
    off[k + 1] = off[k] + matches[k].n1 * matches[k].n2;
  }
  const uint64_t out_rows = off[num];
  // Per-match row buckets, decoded once from the compressed join
  // columns (set-position streams; one slot per match).
  std::vector<std::vector<uint64_t>> lrows(num), rrows(num);
  Status pos_st = ParallelFor(exec, 0, num, 16, [&](uint64_t k) {
    lrows[k] = left.column(left_join)->bitmap(matches[k].left_vid)
                   .SetPositions();
    rrows[k] = right.column(right_join)->bitmap(matches[k].right_vid)
                   .SetPositions();
    return Status::OK();
  });
  CODS_CHECK(pos_st.ok()) << pos_st.ToString();

  std::vector<std::shared_ptr<const Column>> out_cols;
  out_cols.reserve(left.num_columns() + right.num_columns() - 1);
  // One row -> vid buffer reused across columns bounds memory at
  // O(out_rows) regardless of arity.
  std::vector<Vid> out_vid_of_row(out_rows);
  auto build_mapped = [&](const Column& src, auto&& fill_match) {
    Status st = ParallelFor(exec, 0, num, 64, [&](uint64_t k) {
      fill_match(k);
      return Status::OK();
    });
    CODS_CHECK(st.ok()) << st.ToString();
    out_cols.push_back(
        Column::FromVids(src.type(), src.dict(), out_vid_of_row, &exec));
  };
  for (size_t i = 0; i < left.num_columns(); ++i) {
    const Column& src = *left.column(i);
    if (i == left_join) {
      // Join column: one fill run per match — cheap enough serially.
      std::vector<WahBitmap> builders(src.distinct_count());
      for (uint64_t k = 0; k < num; ++k) {
        AppendOnesAt(&builders[matches[k].left_vid], off[k],
                     matches[k].n1 * matches[k].n2);
      }
      out_cols.push_back(FinishColumn(src.type(), src.dict(),
                                      std::move(builders), out_rows));
      continue;
    }
    // Left non-join values lay out consecutively, each row's value
    // repeated n2 times.
    std::vector<Vid> vids = src.DecodeVids(&exec);
    build_mapped(src, [&](uint64_t k) {
      for (uint64_t i1 = 0; i1 < matches[k].n1; ++i1) {
        Vid v = vids[lrows[k][i1]];
        uint64_t base = off[k] + i1 * matches[k].n2;
        for (uint64_t j1 = 0; j1 < matches[k].n2; ++j1) {
          out_vid_of_row[base + j1] = v;
        }
      }
    });
  }
  for (size_t i = 0; i < right.num_columns(); ++i) {
    if (i == right_join) continue;
    // Right non-join values repeat at constant stride n2.
    const Column& src = *right.column(i);
    std::vector<Vid> vids = src.DecodeVids(&exec);
    build_mapped(src, [&](uint64_t k) {
      for (uint64_t i1 = 0; i1 < matches[k].n1; ++i1) {
        uint64_t base = off[k] + i1 * matches[k].n2;
        for (uint64_t j1 = 0; j1 < matches[k].n2; ++j1) {
          out_vid_of_row[base + j1] = vids[rrows[k][j1]];
        }
      }
    });
  }
  return Table::Make(out_name, std::move(out_schema), std::move(out_cols),
                     out_rows);
}

// Type agreement of the join columns, with a naming error otherwise.
Status CheckJoinTypes(const Table& left, const Table& right,
                      size_t left_join, size_t right_join) {
  const Column& lcol = *left.column(left_join);
  const Column& rcol = *right.column(right_join);
  if (lcol.type() == rcol.type()) return Status::OK();
  return Status::TypeError(
      "join columns must share a type: " +
      left.name() + "." + left.schema().column(left_join).name + " is " +
      DataTypeToString(lcol.type()) + ", " + right.name() + "." +
      right.schema().column(right_join).name + " is " +
      DataTypeToString(rcol.type()));
}

// Vid-intersection of the join columns: dictionary translate, then
// per-value popcounts on compressed words. The counts both classify
// the join (unique side => key-FK shape) and size the general one —
// and their products Σ n1·n2 ARE the output cardinality, so a
// count-only join stops here.
std::vector<Match> IntersectJoinColumns(const Column& lcol,
                                        const Column& rcol,
                                        bool* left_unique,
                                        bool* right_unique) {
  std::vector<Vid> trans = TranslateDict(lcol.dict(), rcol.dict());
  std::vector<Match> matches;
  *left_unique = *right_unique = true;
  for (Vid lv = 0; lv < lcol.distinct_count(); ++lv) {
    if (trans[lv] == kNoVid) continue;
    Match m;
    m.left_vid = lv;
    m.right_vid = trans[lv];
    m.n1 = lcol.bitmap(m.left_vid).CountOnes();
    if (m.n1 == 0) continue;
    m.n2 = rcol.bitmap(m.right_vid).CountOnes();
    if (m.n2 == 0) continue;
    *left_unique &= m.n1 == 1;
    *right_unique &= m.n2 == 1;
    matches.push_back(m);
  }
  return matches;
}

}  // namespace

Result<Schema> JoinResultSchema(const Table& left, const Table& right,
                                size_t right_join) {
  // Every output column is qualified `<table>.<column>`, the reference
  // shape Schema::ResolveColumnRef matches by suffix; the right join
  // column is elided (its values equal the left one's).
  std::vector<ColumnSpec> specs;
  specs.reserve(left.num_columns() + right.num_columns() - 1);
  for (size_t i = 0; i < left.num_columns(); ++i) {
    ColumnSpec spec = left.schema().column(i);
    spec.name = left.name() + "." + spec.name;
    specs.push_back(std::move(spec));
  }
  for (size_t i = 0; i < right.num_columns(); ++i) {
    if (i == right_join) continue;
    ColumnSpec spec = right.schema().column(i);
    spec.name = right.name() + "." + spec.name;
    specs.push_back(std::move(spec));
  }
  return Schema::Make(std::move(specs), {});
}

Result<uint64_t> CompressedEquiJoinCount(
    const Table& left, const Table& right, size_t left_join,
    size_t right_join, JoinStats* stats, const ValueBitmap* left_selection,
    const ValueBitmap* right_selection, const ExecContext* ctx) {
  CODS_CHECK(left_join < left.num_columns());
  CODS_CHECK(right_join < right.num_columns());
  CODS_RETURN_NOT_OK(CheckJoinTypes(left, right, left_join, right_join));
  auto lcol = left.column(left_join);
  auto rcol = right.column(right_join);
  bool left_unique, right_unique;
  std::vector<Match> matches =
      IntersectJoinColumns(*lcol, *rcol, &left_unique, &right_unique);
  if (stats != nullptr) {
    stats->matched_values = matches.size();
    stats->path = "count-only";
  }
  // A side's count per matched value: its popcount, or |selection ∧
  // value| when the side is filtered. A selection that many values
  // probe is densified once, so each probe costs the value's own words.
  struct Side {
    const ValueBitmap* selection = nullptr;
    std::optional<DenseSelection> dense;
    uint64_t Count(const ValueBitmap& vb, uint64_t ones) const {
      if (selection == nullptr) return ones;
      return dense ? dense->AndCount(vb) : CodecAndCount(vb, *selection);
    }
  };
  Side sides[2];
  const ValueBitmap* selections[2] = {left_selection, right_selection};
  const uint64_t rows[2] = {left.rows(), right.rows()};
  for (int s = 0; s < 2; ++s) {
    const ValueBitmap* sel = selections[s];
    if (sel != nullptr && sel->size() != rows[s]) {
      return Status::InvalidArgument(
          "join selection covers " + std::to_string(sel->size()) +
          " rows, its side has " + std::to_string(rows[s]));
    }
    if (sel == nullptr || sel->IsAllOnes()) continue;
    if (sel->IsAllZeros()) return uint64_t{0};
    sides[s].selection = sel;
    if (DenseSelection::Pays(*sel, matches.size())) {
      sides[s].dense.emplace(*sel);
    }
  }
  // One product slot per matched value, summed afterwards: integer
  // addition, so the total is exact at every thread count.
  std::vector<uint64_t> products(matches.size(), 0);
  CODS_RETURN_NOT_OK(
      ParallelFor(ResolveContext(ctx), 0, matches.size(), 64, [&](uint64_t k) {
        const Match& m = matches[k];
        // The smaller side first: a zero there skips the other probe.
        const bool left_first = m.n1 <= m.n2;
        const uint64_t a =
            left_first ? sides[0].Count(lcol->bitmap(m.left_vid), m.n1)
                       : sides[1].Count(rcol->bitmap(m.right_vid), m.n2);
        if (a == 0) return Status::OK();
        const uint64_t b =
            left_first ? sides[1].Count(rcol->bitmap(m.right_vid), m.n2)
                       : sides[0].Count(lcol->bitmap(m.left_vid), m.n1);
        products[k] = a * b;
        return Status::OK();
      }));
  uint64_t count = 0;
  for (uint64_t p : products) count += p;
  return count;
}

Result<std::shared_ptr<const Table>> CompressedEquiJoin(
    const Table& left, const Table& right, size_t left_join,
    size_t right_join, const std::string& out_name, const ExecContext* ctx,
    JoinStats* stats) {
  CODS_CHECK(left_join < left.num_columns());
  CODS_CHECK(right_join < right.num_columns());
  const Column& lcol = *left.column(left_join);
  const Column& rcol = *right.column(right_join);
  CODS_RETURN_NOT_OK(CheckJoinTypes(left, right, left_join, right_join));
  CODS_ASSIGN_OR_RETURN(Schema out_schema,
                        JoinResultSchema(left, right, right_join));
  ExecContext exec = ResolveContext(ctx);

  bool left_unique, right_unique;
  std::vector<Match> matches =
      IntersectJoinColumns(lcol, rcol, &left_unique, &right_unique);
  if (stats != nullptr) stats->matched_values = matches.size();

  if (right_unique) {
    // Left rows each have at most one partner: scan left, generate
    // right's payload — output in left row order.
    if (stats != nullptr) stats->path = "fk-right";
    std::vector<std::pair<Vid, Vid>> fk;
    fk.reserve(matches.size());
    for (const Match& m : matches) fk.emplace_back(m.left_vid, m.right_vid);
    CODS_ASSIGN_OR_RETURN(FkOut fkout,
                          FkJoin(exec, left, left_join, right, right_join, fk));
    std::vector<std::shared_ptr<const Column>> cols = std::move(fkout.scan_cols);
    for (auto& c : fkout.keyed_cols) cols.push_back(std::move(c));
    return Table::Make(out_name, std::move(out_schema), std::move(cols),
                       fkout.rows);
  }
  if (left_unique) {
    // Mirrored: scan right, generate left's payload — output in right
    // row order, but the column order of the result is unchanged (left
    // columns first); the join column's data comes from the scanned
    // right side (equal values by construction).
    if (stats != nullptr) stats->path = "fk-left";
    std::vector<std::pair<Vid, Vid>> fk;
    fk.reserve(matches.size());
    for (const Match& m : matches) fk.emplace_back(m.right_vid, m.left_vid);
    CODS_ASSIGN_OR_RETURN(FkOut fkout,
                          FkJoin(exec, right, right_join, left, left_join, fk));
    std::vector<std::shared_ptr<const Column>> cols;
    cols.reserve(left.num_columns() + right.num_columns() - 1);
    size_t keyed_i = 0;
    for (size_t i = 0; i < left.num_columns(); ++i) {
      if (i == left_join) {
        cols.push_back(fkout.scan_cols[right_join]);
      } else {
        cols.push_back(std::move(fkout.keyed_cols[keyed_i++]));
      }
    }
    for (size_t i = 0; i < right.num_columns(); ++i) {
      if (i == right_join) continue;
      cols.push_back(std::move(fkout.scan_cols[i]));
    }
    return Table::Make(out_name, std::move(out_schema), std::move(cols),
                       fkout.rows);
  }
  if (stats != nullptr) stats->path = "general";
  return GeneralJoin(exec, left, left_join, right, right_join, matches,
                     std::move(out_schema), out_name);
}

}  // namespace cods
