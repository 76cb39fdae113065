#include "evolution/decompose.h"

#include <algorithm>
#include <unordered_map>

#include "bitmap/wah_filter.h"
#include "evolution/fd.h"
#include "exec/exec.h"
#include "exec/parallel_build.h"

namespace cods {

Result<std::vector<uint64_t>> DistinctionPositions(
    const Table& table, const std::vector<std::string>& key_columns,
    const ExecContext* ctx) {
  ExecContext exec = ResolveContext(ctx);
  if (key_columns.empty()) {
    return Status::InvalidArgument("distinction needs at least one column");
  }
  std::vector<uint64_t> positions;
  if (key_columns.size() == 1) {
    CODS_ASSIGN_OR_RETURN(auto col, table.ColumnByName(key_columns[0]));
    // Single-attribute key: the bitmap index *is* the distinct-value
    // index. One representative per value = first set bit per bitmap;
    // never decompresses. The per-vid probes are independent, so they
    // run in parallel into a pre-sized slot array that is compacted in
    // vid order (the sort below erases any ordering effect anyway).
    std::vector<uint64_t> first(col->distinct_count());
    Status st = ParallelFor(
        exec, 0, col->distinct_count(), 64, [&](uint64_t vid) {
          first[vid] = col->bitmap(static_cast<Vid>(vid)).FirstSetBit();
          return Status::OK();
        });
    CODS_CHECK(st.ok()) << st.ToString();
    positions.reserve(col->distinct_count());
    for (uint64_t f : first) {
      if (f < table.rows()) positions.push_back(f);
    }
  } else {
    // Composite key: sequential scan with a hash on vid tuples.
    std::vector<std::vector<Vid>> cols;
    cols.reserve(key_columns.size());
    for (const std::string& name : key_columns) {
      CODS_ASSIGN_OR_RETURN(auto col, table.ColumnByName(name));
      cols.push_back(col->DecodeVids());
    }
    auto hash = [&](uint64_t row) {
      uint64_t h = 0x9e3779b97f4a7c15ull;
      for (const auto& c : cols) {
        h ^= c[row] + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
      }
      return h;
    };
    auto eq = [&](uint64_t a, uint64_t b) {
      for (const auto& c : cols) {
        if (c[a] != c[b]) return false;
      }
      return true;
    };
    std::unordered_map<uint64_t, uint64_t, decltype(hash), decltype(eq)>
        first_row(/*bucket_count=*/1024, hash, eq);
    for (uint64_t r = 0; r < table.rows(); ++r) {
      first_row.try_emplace(r, r);
    }
    positions.reserve(first_row.size());
    // cods-lint: allow(unordered-iteration): the collected positions are
    // sorted two lines down, so hash order never reaches the output.
    for (const auto& [_, row] : first_row) positions.push_back(row);
  }
  std::sort(positions.begin(), positions.end());
  return positions;
}

Result<DecomposeResult> CodsDecompose(
    const Table& r, const std::string& s_name,
    const std::vector<std::string>& s_columns,
    const std::vector<std::string>& s_key, const std::string& t_name,
    const std::vector<std::string>& t_columns,
    const std::vector<std::string>& t_key, EvolutionObserver* observer,
    const DecomposeOptions& options) {
  const std::string op = "DECOMPOSE " + r.name();

  // ---- Decide which output is unchanged (Property 1). -------------------
  // The common attributes must be a key of the *changed* table. We accept
  // the declaration through t_key/s_key; with validate_fd we confirm (or
  // discover) it from the data.
  std::vector<std::string> common;
  for (const std::string& c : s_columns) {
    if (std::find(t_columns.begin(), t_columns.end(), c) !=
        t_columns.end()) {
      common.push_back(c);
    }
  }
  if (common.empty()) {
    return Status::ConstraintViolation(
        "outputs of a lossless-join decomposition must share attributes");
  }
  for (const ColumnSpec& spec : r.schema().columns()) {
    bool covered =
        std::find(s_columns.begin(), s_columns.end(), spec.name) !=
            s_columns.end() ||
        std::find(t_columns.begin(), t_columns.end(), spec.name) !=
            t_columns.end();
    if (!covered) {
      return Status::ConstraintViolation("column '" + spec.name +
                                         "' missing from both outputs");
    }
  }

  auto set_equal = [](std::vector<std::string> a,
                      std::vector<std::string> b) {
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    return a == b;
  };

  // +1: S unchanged / T generated; -1: T unchanged / S generated.
  int unchanged_side = 0;
  if (set_equal(t_key, common)) {
    unchanged_side = +1;
  } else if (set_equal(s_key, common)) {
    unchanged_side = -1;
  }
  if (options.validate_fd || unchanged_side == 0) {
    ScopedStep step(observer, op, "validate",
                    "checking lossless-join precondition on data");
    CODS_ASSIGN_OR_RETURN(int side,
                          CheckLosslessDecomposition(r, s_columns, t_columns));
    if (unchanged_side == 0) {
      unchanged_side = side;
    } else if (unchanged_side != side) {
      // The declared key side disagrees with the data; re-check the
      // declared direction explicitly before failing.
      const auto& changed_cols = unchanged_side > 0 ? t_columns : s_columns;
      std::vector<std::string> rest;
      for (const std::string& c : changed_cols) {
        if (std::find(common.begin(), common.end(), c) == common.end()) {
          rest.push_back(c);
        }
      }
      if (!rest.empty()) {
        CODS_ASSIGN_OR_RETURN(bool holds,
                              FunctionalDependencyHolds(r, common, rest));
        if (!holds) {
          return Status::ConstraintViolation(
              "declared key does not functionally determine the changed "
              "table's attributes");
        }
      }
    }
  }

  // Normalize: `u_*` is the unchanged output, `g_*` the generated one.
  const bool s_unchanged = unchanged_side > 0;
  const std::string& u_name = s_unchanged ? s_name : t_name;
  const std::string& g_name = s_unchanged ? t_name : s_name;
  const std::vector<std::string>& u_columns =
      s_unchanged ? s_columns : t_columns;
  const std::vector<std::string>& g_columns =
      s_unchanged ? t_columns : s_columns;
  const std::vector<std::string>& u_key = s_unchanged ? s_key : t_key;
  const std::vector<std::string>& g_key = s_unchanged ? t_key : s_key;

  DecomposeResult result;

  // ---- Unchanged output: reuse R's columns by pointer. -------------------
  {
    ScopedStep step(observer, op, "reuse",
                    u_name + " reuses " + std::to_string(u_columns.size()) +
                        " columns of " + r.name());
    std::vector<ColumnSpec> specs;
    std::vector<std::shared_ptr<const Column>> cols;
    for (const std::string& name : u_columns) {
      CODS_ASSIGN_OR_RETURN(size_t idx, r.schema().ColumnIndex(name));
      specs.push_back(r.schema().column(idx));
      cols.push_back(r.column(idx));
    }
    CODS_ASSIGN_OR_RETURN(Schema u_schema,
                          Schema::Make(std::move(specs), u_key));
    CODS_ASSIGN_OR_RETURN(
        auto u_table,
        Table::Make(u_name, std::move(u_schema), std::move(cols), r.rows()));
    (s_unchanged ? result.s : result.t) = std::move(u_table);
  }

  // ---- Step 1: distinction. ----------------------------------------------
  std::vector<uint64_t> positions;
  {
    ScopedStep step(observer, op, "distinction",
                    "one representative row per distinct (" +
                        [&] {
                          std::string out;
                          for (size_t i = 0; i < common.size(); ++i) {
                            if (i > 0) out += ", ";
                            out += common[i];
                          }
                          return out;
                        }() +
                        ")");
    CODS_ASSIGN_OR_RETURN(positions,
                          DistinctionPositions(r, common, options.exec));
  }
  result.distinct_keys = positions.size();

  // ---- Step 2: bitmap filtering. -----------------------------------------
  {
    ScopedStep step(observer, op, "filtering",
                    "shrinking bitmaps of " +
                        std::to_string(g_columns.size()) + " columns to " +
                        std::to_string(positions.size()) + " positions");
    // One rank index over the position list, shared by every bitmap of
    // every generated column: aggregate filtering cost is O(rows +
    // total code words), independent of the number of distinct values.
    WahPositionFilter filter(positions, r.rows());
    std::vector<ColumnSpec> specs;
    std::vector<std::shared_ptr<const Column>> cols;
    for (const std::string& name : g_columns) {
      CODS_ASSIGN_OR_RETURN(size_t idx, r.schema().ColumnIndex(name));
      specs.push_back(r.schema().column(idx));
      const Column& src = *r.column(idx);
      // Per-value filtering is independent: one shared read-only rank
      // index, one output slot per vid (inside FilterColumnBitmaps).
      ExecContext exec = ResolveContext(options.exec);
      CODS_ASSIGN_OR_RETURN(auto filtered_col,
                            FilterColumnBitmaps(exec, src, filter));
      cols.push_back(std::move(filtered_col));
    }
    CODS_ASSIGN_OR_RETURN(Schema g_schema,
                          Schema::Make(std::move(specs), g_key));
    CODS_ASSIGN_OR_RETURN(auto g_table,
                          Table::Make(g_name, std::move(g_schema),
                                      std::move(cols), positions.size()));
    (s_unchanged ? result.t : result.s) = std::move(g_table);
  }
  return result;
}

}  // namespace cods
