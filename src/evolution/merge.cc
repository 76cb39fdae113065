#include "evolution/merge.h"

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "evolution/fd.h"
#include "evolution/simple_ops.h"
#include "exec/exec.h"
#include "exec/parallel_build.h"

namespace cods {

namespace {

// Maps every vid of `from` to the vid of the equal value in `to`, or
// kNoVid when the value is absent there. Dictionary-level join: O(v).
std::vector<Vid> TranslateDict(const Dictionary& from, const Dictionary& to) {
  std::vector<Vid> out(from.size(), kNoVid);
  for (Vid vid = 0; vid < from.size(); ++vid) {
    std::optional<Vid> mapped = to.Lookup(from.value(vid));
    if (mapped.has_value()) out[vid] = *mapped;
  }
  return out;
}

Result<std::vector<size_t>> ResolveIndices(
    const Schema& schema, const std::vector<std::string>& names) {
  std::vector<size_t> out;
  out.reserve(names.size());
  for (const std::string& n : names) {
    CODS_ASSIGN_OR_RETURN(size_t idx, schema.ColumnIndex(n));
    out.push_back(idx);
  }
  return out;
}

// Hash map over vid tuples stored row-major in `cols`.
struct TupleHasher {
  const std::vector<std::vector<Vid>>* cols;
  size_t operator()(uint64_t row) const {
    uint64_t h = 0x9e3779b97f4a7c15ull;
    for (const auto& c : *cols) {
      h ^= c[row] + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    }
    return static_cast<size_t>(h);
  }
};
struct TupleEq {
  const std::vector<std::vector<Vid>>* cols;
  bool operator()(uint64_t a, uint64_t b) const {
    for (const auto& c : *cols) {
      if (c[a] != c[b]) return false;
    }
    return true;
  }
};

}  // namespace

// ---- Key–foreign-key mergence (§2.5.1) -------------------------------------

Result<std::shared_ptr<const Table>> CodsMergeKeyFk(
    const Table& s, const Table& t,
    const std::vector<std::string>& join_columns,
    const std::vector<std::string>& out_key, const std::string& out_name,
    EvolutionObserver* observer, const ExecContext* ctx) {
  ExecContext exec = ResolveContext(ctx);
  const std::string op = "MERGE " + s.name() + "⋈" + t.name();
  CODS_ASSIGN_OR_RETURN(std::vector<size_t> sj,
                        ResolveIndices(s.schema(), join_columns));
  CODS_ASSIGN_OR_RETURN(std::vector<size_t> tj,
                        ResolveIndices(t.schema(), join_columns));
  std::vector<size_t> t_payload;
  for (size_t i = 0; i < t.schema().num_columns(); ++i) {
    if (std::find(tj.begin(), tj.end(), i) == tj.end()) {
      t_payload.push_back(i);
    }
  }

  // Map each S row to the T row holding its key.
  std::vector<uint64_t> t_row_of_s_row(s.rows());
  {
    ScopedStep step(observer, op, "key lookup",
                    "sequential scan of " + s.name() +
                        "'s key, resolving rows of " + t.name());
    if (sj.size() == 1) {
      // Single-attribute key: T's bitmap index gives the row of each key
      // value as the (single) set bit of its vector — compressed-native.
      const Column& su = *s.column(sj[0]);
      const Column& tu = *t.column(tj[0]);
      std::vector<Vid> trans = TranslateDict(su.dict(), tu.dict());
      std::vector<uint64_t> t_row_of_tvid(tu.distinct_count());
      Status probe_st = ParallelFor(
          exec, 0, tu.distinct_count(), 64, [&](uint64_t v) {
            t_row_of_tvid[v] = tu.bitmap(static_cast<Vid>(v)).FirstSetBit();
            return Status::OK();
          });
      CODS_CHECK(probe_st.ok()) << probe_st.ToString();
      std::vector<Vid> svids = su.DecodeVids(&exec);
      // Row-chunked resolution; each chunk reports its first violation,
      // and chunk-order aggregation makes the returned error the first
      // violating row, exactly as in the serial scan.
      CODS_RETURN_NOT_OK(ParallelForChunked(
          exec, 0, s.rows(), 4096,
          [&](uint64_t lo, uint64_t hi) -> Status {
            for (uint64_t j = lo; j < hi; ++j) {
              Vid tvid = trans[svids[j]];
              if (tvid == kNoVid) {
                return Status::ConstraintViolation(
                    "foreign key violation: value " +
                    su.dict().value(svids[j]).ToString() + " of " +
                    s.name() + " has no match in " + t.name());
              }
              t_row_of_s_row[j] = t_row_of_tvid[tvid];
            }
            return Status::OK();
          }));
    } else {
      // Composite key: hash T's key tuples to rows, then translate S's
      // tuples into T's vid space and probe.
      std::vector<std::vector<Vid>> t_cols;
      for (size_t idx : tj) t_cols.push_back(t.column(idx)->DecodeVids());
      TupleHasher hasher{&t_cols};
      TupleEq eq{&t_cols};
      std::unordered_map<uint64_t, uint64_t, TupleHasher, TupleEq> t_map(
          1024, hasher, eq);
      for (uint64_t r = 0; r < t.rows(); ++r) {
        auto [it, inserted] = t_map.try_emplace(r, r);
        if (!inserted) {
          return Status::ConstraintViolation(
              "join attributes are not a key of " + t.name());
        }
      }
      std::vector<std::vector<Vid>> s_cols;
      std::vector<std::vector<Vid>> trans;
      for (size_t c = 0; c < sj.size(); ++c) {
        s_cols.push_back(s.column(sj[c])->DecodeVids());
        trans.push_back(TranslateDict(s.column(sj[c])->dict(),
                                      t.column(tj[c])->dict()));
      }
      // Probe by writing the translated tuple into scratch row t.rows()
      // of the decoded T columns (extend by one slot).
      for (auto& c : t_cols) c.push_back(0);
      const uint64_t scratch = t.rows();
      for (uint64_t j = 0; j < s.rows(); ++j) {
        bool ok = true;
        for (size_t c = 0; c < sj.size(); ++c) {
          Vid tv = trans[c][s_cols[c][j]];
          if (tv == kNoVid) {
            ok = false;
            break;
          }
          t_cols[c][scratch] = tv;
        }
        auto it = ok ? t_map.find(scratch) : t_map.end();
        if (it == t_map.end()) {
          return Status::ConstraintViolation(
              "foreign key violation: row " + std::to_string(j) + " of " +
              s.name() + " has no match in " + t.name());
        }
        t_row_of_s_row[j] = it->second;
      }
    }
  }

  // Generate T's non-key columns for the output by appending, in S's row
  // order, each row's bit to the builder of its value.
  std::vector<ColumnSpec> specs = s.schema().columns();
  std::vector<std::shared_ptr<const Column>> out_cols;
  {
    ScopedStep step(observer, op, "reuse",
                    "reusing all " + std::to_string(s.num_columns()) +
                        " columns of " + s.name());
    for (size_t i = 0; i < s.num_columns(); ++i) out_cols.push_back(s.column(i));
  }
  {
    ScopedStep step(observer, op, "append",
                    "generating " + std::to_string(t_payload.size()) +
                        " columns over " + std::to_string(s.rows()) +
                        " rows");
    // One pass per payload column: materialize the output row → vid map
    // (a gather through t_row_of_s_row, row-chunk parallel), then build
    // the value bitmaps with the chunked parallel builder — maximal runs
    // of S rows mapping to the same value still append as single fills,
    // so S clustered by its FK degenerates to a handful of fill appends
    // per value, at every thread count.
    std::vector<Vid> out_vid_of_row(s.rows());
    for (size_t p = 0; p < t_payload.size(); ++p) {
      const Column& src = *t.column(t_payload[p]);
      std::vector<Vid> vids = src.DecodeVids(&exec);
      Status st = ParallelForChunked(
          exec, 0, s.rows(), 4096, [&](uint64_t lo, uint64_t hi) {
            for (uint64_t j = lo; j < hi; ++j) {
              out_vid_of_row[j] = vids[t_row_of_s_row[j]];
            }
            return Status::OK();
          });
      CODS_CHECK(st.ok()) << st.ToString();
      specs.push_back(t.schema().column(t_payload[p]));
      out_cols.push_back(
          Column::FromVids(src.type(), src.dict(), out_vid_of_row, &exec));
    }
  }
  CODS_ASSIGN_OR_RETURN(Schema out_schema,
                        Schema::Make(std::move(specs), out_key));
  return Table::Make(out_name, std::move(out_schema), std::move(out_cols),
                     s.rows());
}

// ---- General mergence (§2.5.2) ---------------------------------------------

Result<std::shared_ptr<const Table>> CodsMergeGeneral(
    const Table& s, const Table& t,
    const std::vector<std::string>& join_columns,
    const std::vector<std::string>& out_key, const std::string& out_name,
    EvolutionObserver* observer, const ExecContext* ctx) {
  ExecContext exec = ResolveContext(ctx);
  const std::string op = "MERGE(general) " + s.name() + "⋈" + t.name();
  CODS_ASSIGN_OR_RETURN(std::vector<size_t> sj,
                        ResolveIndices(s.schema(), join_columns));
  CODS_ASSIGN_OR_RETURN(std::vector<size_t> tj,
                        ResolveIndices(t.schema(), join_columns));

  // Per-tuple state built by pass 1.
  uint64_t num_tuples = 0;
  std::vector<std::vector<Vid>> tuple_svids(sj.size());  // per join col
  std::vector<uint64_t> n1, n2;
  // Flat row buckets grouped by tuple.
  std::vector<uint64_t> s_start{0}, t_start{0};
  std::vector<uint64_t> s_rows_flat, t_rows_flat;

  {
    ScopedStep step(observer, op, "pass1",
                    "counting occurrences of each distinct join value");
    if (sj.size() == 1) {
      // Single join attribute: counts are bitmap popcounts and buckets
      // are set-position streams — all on compressed words.
      const Column& su = *s.column(sj[0]);
      const Column& tu = *t.column(tj[0]);
      std::vector<Vid> trans = TranslateDict(su.dict(), tu.dict());
      for (Vid sv = 0; sv < su.distinct_count(); ++sv) {
        Vid tv = trans[sv];
        if (tv == kNoVid) continue;
        uint64_t c1 = su.bitmap(sv).CountOnes();
        uint64_t c2 = tu.bitmap(tv).CountOnes();
        if (c1 == 0 || c2 == 0) continue;
        tuple_svids[0].push_back(sv);
        n1.push_back(c1);
        n2.push_back(c2);
        su.bitmap(sv).ForEachSetBit(
            [&](uint64_t pos) { s_rows_flat.push_back(pos); });
        s_start.push_back(s_rows_flat.size());
        tu.bitmap(tv).ForEachSetBit(
            [&](uint64_t pos) { t_rows_flat.push_back(pos); });
        t_start.push_back(t_rows_flat.size());
        ++num_tuples;
      }
    } else {
      // Composite join: hash-group S's tuples, then T's (translated into
      // S's vid space), and keep tuples present on both sides.
      std::vector<std::vector<Vid>> s_cols, t_cols_translated;
      for (size_t c = 0; c < sj.size(); ++c) {
        s_cols.push_back(s.column(sj[c])->DecodeVids());
        std::vector<Vid> raw = t.column(tj[c])->DecodeVids();
        std::vector<Vid> trans = TranslateDict(t.column(tj[c])->dict(),
                                               s.column(sj[c])->dict());
        for (Vid& v : raw) v = (v == kNoVid) ? kNoVid : trans[v];
        t_cols_translated.push_back(std::move(raw));
      }
      TupleHasher hasher{&s_cols};
      TupleEq eq{&s_cols};
      std::unordered_map<uint64_t, uint64_t, TupleHasher, TupleEq> tuple_id(
          1024, hasher, eq);
      std::vector<uint64_t> s_tuple_of_row(s.rows());
      std::vector<uint64_t> count1;
      for (uint64_t r = 0; r < s.rows(); ++r) {
        auto [it, inserted] = tuple_id.try_emplace(r, count1.size());
        if (inserted) count1.push_back(0);
        s_tuple_of_row[r] = it->second;
        ++count1[it->second];
      }
      const uint64_t total_s_tuples = count1.size();
      // T side: probe via a scratch row appended to s_cols.
      for (auto& c : s_cols) c.push_back(0);
      const uint64_t scratch = s.rows();
      std::vector<uint64_t> count2(total_s_tuples, 0);
      std::vector<uint64_t> t_tuple_of_row(t.rows(), UINT64_MAX);
      for (uint64_t r = 0; r < t.rows(); ++r) {
        bool ok = true;
        for (size_t c = 0; c < sj.size(); ++c) {
          Vid v = t_cols_translated[c][r];
          if (v == kNoVid) {
            ok = false;
            break;
          }
          s_cols[c][scratch] = v;
        }
        if (!ok) continue;
        auto it = tuple_id.find(scratch);
        if (it == tuple_id.end() || it->second >= total_s_tuples) continue;
        t_tuple_of_row[r] = it->second;
        ++count2[it->second];
      }
      // Keep tuples with matches on both sides; renumber densely.
      std::vector<uint64_t> dense(total_s_tuples, UINT64_MAX);
      std::vector<uint64_t> first_s_row(total_s_tuples, 0);
      for (uint64_t r = 0; r < s.rows(); ++r) {
        uint64_t k0 = s_tuple_of_row[r];
        if (count2[k0] == 0 || dense[k0] != UINT64_MAX) continue;
        dense[k0] = num_tuples++;
        first_s_row[dense[k0]] = r;
        n1.push_back(count1[k0]);
        n2.push_back(count2[k0]);
      }
      for (size_t c = 0; c < sj.size(); ++c) {
        tuple_svids[c].resize(num_tuples);
        for (uint64_t k = 0; k < num_tuples; ++k) {
          tuple_svids[c][k] = s_cols[c][first_s_row[k]];
        }
      }
      // Counting-sort rows into flat buckets grouped by dense tuple id.
      s_start.assign(num_tuples + 1, 0);
      t_start.assign(num_tuples + 1, 0);
      for (uint64_t r = 0; r < s.rows(); ++r) {
        uint64_t k0 = s_tuple_of_row[r];
        if (count2[k0] > 0) ++s_start[dense[k0] + 1];
      }
      for (uint64_t r = 0; r < t.rows(); ++r) {
        if (t_tuple_of_row[r] != UINT64_MAX) {
          ++t_start[dense[t_tuple_of_row[r]] + 1];
        }
      }
      for (uint64_t k = 0; k < num_tuples; ++k) {
        s_start[k + 1] += s_start[k];
        t_start[k + 1] += t_start[k];
      }
      s_rows_flat.resize(s_start[num_tuples]);
      t_rows_flat.resize(t_start[num_tuples]);
      std::vector<uint64_t> s_fill(s_start.begin(), s_start.end() - 1);
      std::vector<uint64_t> t_fill(t_start.begin(), t_start.end() - 1);
      for (uint64_t r = 0; r < s.rows(); ++r) {
        uint64_t k0 = s_tuple_of_row[r];
        if (count2[k0] > 0) s_rows_flat[s_fill[dense[k0]]++] = r;
      }
      for (uint64_t r = 0; r < t.rows(); ++r) {
        if (t_tuple_of_row[r] != UINT64_MAX) {
          t_rows_flat[t_fill[dense[t_tuple_of_row[r]]]++] = r;
        }
      }
    }
  }

  // Output offsets: tuple k occupies [off[k], off[k] + n1*n2).
  std::vector<uint64_t> off(num_tuples + 1, 0);
  for (uint64_t k = 0; k < num_tuples; ++k) {
    off[k + 1] = off[k] + n1[k] * n2[k];
  }
  const uint64_t out_rows = off[num_tuples];

  std::vector<ColumnSpec> specs;
  std::vector<std::shared_ptr<const Column>> out_cols;
  {
    ScopedStep step(observer, op, "pass2",
                    "emitting " + std::to_string(out_rows) +
                        " rows clustered by join value");
    // Non-join columns are built by materializing the output row → vid
    // map (tuple-chunk parallel: tuple k owns the disjoint output range
    // [off[k], off[k+1])) and handing it to the chunked parallel bitmap
    // builder. One map array is reused across columns to bound memory at
    // O(out_rows) regardless of arity.
    std::vector<Vid> out_vid_of_row;
    auto build_mapped =
        [&](const Column& src,
            const std::function<void(uint64_t)>& fill_tuple) {
          if (out_vid_of_row.size() < out_rows) {
            out_vid_of_row.resize(out_rows);
          }
          Status st = ParallelFor(exec, 0, num_tuples, 64, [&](uint64_t k) {
            fill_tuple(k);
            return Status::OK();
          });
          CODS_CHECK(st.ok()) << st.ToString();
          std::vector<WahBitmap> bitmaps = BuildValueBitmaps(
              exec, out_vid_of_row.data(), out_rows, src.distinct_count());
          out_cols.push_back(Column::FromBitmaps(
              src.type(), src.dict(), std::move(bitmaps), out_rows, &exec));
        };
    // S's columns (join columns become fill runs; non-join columns are
    // laid out consecutively, each S row's value repeated n2 times).
    for (size_t i = 0; i < s.num_columns(); ++i) {
      const Column& src = *s.column(i);
      specs.push_back(s.schema().column(i));
      auto join_pos = std::find(sj.begin(), sj.end(), i);
      if (join_pos != sj.end()) {
        // Join column: one fill run per tuple — cheap enough serially.
        size_t c = static_cast<size_t>(join_pos - sj.begin());
        std::vector<WahBitmap> builders(src.distinct_count());
        for (uint64_t k = 0; k < num_tuples; ++k) {
          AppendOnesAt(&builders[tuple_svids[c][k]], off[k],
                       n1[k] * n2[k]);
        }
        out_cols.push_back(FinishColumn(src.type(), src.dict(),
                                        std::move(builders), out_rows));
        continue;
      }
      std::vector<Vid> svids = src.DecodeVids(&exec);
      build_mapped(src, [&](uint64_t k) {
        for (uint64_t i1 = 0; i1 < n1[k]; ++i1) {
          Vid v = svids[s_rows_flat[s_start[k] + i1]];
          uint64_t base = off[k] + i1 * n2[k];
          for (uint64_t j1 = 0; j1 < n2[k]; ++j1) {
            out_vid_of_row[base + j1] = v;
          }
        }
      });
    }
    // T's non-join columns: strided placement with distance n2.
    for (size_t i = 0; i < t.num_columns(); ++i) {
      if (std::find(tj.begin(), tj.end(), i) != tj.end()) continue;
      const Column& src = *t.column(i);
      specs.push_back(t.schema().column(i));
      std::vector<Vid> tvids = src.DecodeVids(&exec);
      build_mapped(src, [&](uint64_t k) {
        for (uint64_t i1 = 0; i1 < n1[k]; ++i1) {
          uint64_t base = off[k] + i1 * n2[k];
          for (uint64_t j1 = 0; j1 < n2[k]; ++j1) {
            out_vid_of_row[base + j1] =
                tvids[t_rows_flat[t_start[k] + j1]];
          }
        }
      });
    }
  }
  CODS_ASSIGN_OR_RETURN(Schema out_schema,
                        Schema::Make(std::move(specs), out_key));
  return Table::Make(out_name, std::move(out_schema), std::move(out_cols),
                     out_rows);
}

// ---- Dispatcher -------------------------------------------------------------

Result<MergeResult> CodsMerge(const Table& s, const Table& t,
                              const std::vector<std::string>& join_columns,
                              const std::vector<std::string>& out_key,
                              const std::string& out_name,
                              EvolutionObserver* observer,
                              const MergeOptions& options) {
  MergeResult result;
  if (!options.force_general) {
    bool t_keyed = t.schema().IsKey(join_columns);
    bool s_keyed = s.schema().IsKey(join_columns);
    if (options.validate_key && (t_keyed || s_keyed)) {
      const Table& keyed = t_keyed ? t : s;
      CODS_ASSIGN_OR_RETURN(bool really,
                            IsCandidateKey(keyed, join_columns));
      if (!really) {
        return Status::ConstraintViolation(
            "declared key of " + keyed.name() +
            " has duplicates; refusing key–FK mergence");
      }
    }
    if (t_keyed) {
      CODS_ASSIGN_OR_RETURN(result.table,
                            CodsMergeKeyFk(s, t, join_columns, out_key,
                                           out_name, observer, options.exec));
      result.used_key_fk = true;
      return result;
    }
    if (s_keyed) {
      // Swap sides: S becomes the reusable one... i.e. T is scanned and
      // S provides the keyed lookup. Output column order: all of T, then
      // S's non-join columns.
      CODS_ASSIGN_OR_RETURN(result.table,
                            CodsMergeKeyFk(t, s, join_columns, out_key,
                                           out_name, observer, options.exec));
      result.used_key_fk = true;
      return result;
    }
  }
  CODS_ASSIGN_OR_RETURN(result.table,
                        CodsMergeGeneral(s, t, join_columns, out_key,
                                         out_name, observer, options.exec));
  return result;
}

}  // namespace cods
