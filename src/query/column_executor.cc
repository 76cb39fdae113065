#include "query/column_executor.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "storage/scanner.h"

namespace cods {

std::vector<Row> ScanToRows(const Table& table) {
  return table.Materialize();
}

std::vector<Row> ProjectRowVec(const std::vector<Row>& rows,
                               const std::vector<size_t>& indices) {
  std::vector<Row> out;
  out.reserve(rows.size());
  for (const Row& row : rows) {
    Row projected;
    projected.reserve(indices.size());
    for (size_t i : indices) projected.push_back(row[i]);
    out.push_back(std::move(projected));
  }
  return out;
}

std::vector<Row> DistinctRowVec(const std::vector<Row>& rows) {
  std::unordered_set<Row, RowHash, RowEq> seen;
  seen.reserve(rows.size());
  std::vector<Row> out;
  for (const Row& row : rows) {
    if (seen.insert(row).second) out.push_back(row);
  }
  return out;
}

std::vector<Row> HashJoinRowVec(const std::vector<Row>& left,
                                const std::vector<Row>& right,
                                const std::vector<size_t>& left_join,
                                const std::vector<size_t>& right_join) {
  std::unordered_multimap<Row, const Row*, RowHash, RowEq> build;
  build.reserve(right.size());
  auto project = [](const Row& row, const std::vector<size_t>& idx) {
    Row out;
    out.reserve(idx.size());
    for (size_t i : idx) out.push_back(row[i]);
    return out;
  };
  for (const Row& r : right) {
    build.emplace(project(r, right_join), &r);
  }
  std::vector<size_t> right_payload;
  if (!right.empty()) {
    for (size_t i = 0; i < right.front().size(); ++i) {
      if (std::find(right_join.begin(), right_join.end(), i) ==
          right_join.end()) {
        right_payload.push_back(i);
      }
    }
  }
  std::vector<Row> out;
  for (const Row& l : left) {
    Row key = project(l, left_join);
    auto [lo, hi] = build.equal_range(key);
    for (auto it = lo; it != hi; ++it) {
      Row joined = l;
      for (size_t i : right_payload) joined.push_back((*it->second)[i]);
      out.push_back(std::move(joined));
    }
  }
  return out;
}

Result<std::shared_ptr<const Table>> RowsToColumnTable(
    const std::string& name, const Schema& schema,
    const std::vector<Row>& rows, const ExecContext* ctx) {
  ExecContext exec = ResolveContext(ctx);
  // Validation first, row-chunk parallel: chunk-order error aggregation
  // keeps TableBuilder's row-major first-error reporting, and the encode
  // tasks below can then index freely. The per-value rules live in
  // ValidateValueForColumn, shared with TableBuilder::AppendRow.
  CODS_RETURN_NOT_OK(ParallelForChunked(
      exec, 0, rows.size(), 1024,
      [&](uint64_t lo, uint64_t hi) -> Status {
        for (uint64_t r = lo; r < hi; ++r) {
          if (rows[r].size() != schema.num_columns()) {
            return Status::InvalidArgument(
                "row arity " + std::to_string(rows[r].size()) +
                " != schema arity " + std::to_string(schema.num_columns()));
          }
          for (size_t i = 0; i < schema.num_columns(); ++i) {
            CODS_RETURN_NOT_OK(
                ValidateValueForColumn(rows[r][i], schema.column(i)));
          }
        }
        return Status::OK();
      }));
  // One task per column: dictionary-encode its values in row order, then
  // compress (FromVids nests the chunk-parallel bitmap builder).
  std::vector<std::shared_ptr<const Column>> columns(schema.num_columns());
  CODS_RETURN_NOT_OK(ParallelFor(
      exec, 0, schema.num_columns(), 1, [&](uint64_t i) -> Status {
        const ColumnSpec& spec = schema.column(i);
        Dictionary dict;
        std::vector<Vid> vids;
        vids.reserve(rows.size());
        for (const Row& row : rows) {
          vids.push_back(dict.GetOrInsert(row[i]));
        }
        columns[i] =
            Column::FromVids(spec.type, std::move(dict), vids, &exec);
        return Status::OK();
      }));
  return Table::Make(name, schema, std::move(columns), rows.size());
}

}  // namespace cods
