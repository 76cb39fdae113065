// The structurally simple SMOs of Table 1: CREATE / DROP / RENAME TABLE
// are catalog-only; COPY shares immutable columns; UNION and PARTITION
// move data but never change values — UNION concatenates compressed
// bitmaps, PARTITION splits them with the same position-filter primitive
// decomposition uses; ADD / DROP / RENAME COLUMN touch only the affected
// column.

#ifndef CODS_EVOLUTION_SIMPLE_OPS_H_
#define CODS_EVOLUTION_SIMPLE_OPS_H_

#include <memory>
#include <string>

#include "evolution/observer.h"
#include "evolution/smo.h"
#include "exec/exec.h"
#include "storage/table.h"

namespace cods {

/// Creates an empty table with the given schema.
Result<std::shared_ptr<const Table>> MakeEmptyTable(const std::string& name,
                                                    const Schema& schema);

/// Copies `src` under a new name. With `deep` the bitmap storage is
/// physically duplicated (real data movement); otherwise the immutable
/// columns are shared, making the copy O(#columns).
Result<std::shared_ptr<const Table>> CopyTableOp(const Table& src,
                                                 const std::string& name,
                                                 bool deep = false);

/// UNION TABLES: concatenates the tuples of `a` and `b` (same layout)
/// into one table. Per value, the output bitmap is the concatenation of
/// the input bitmaps — executed on compressed words.
Result<std::shared_ptr<const Table>> UnionTablesOp(
    const Table& a, const Table& b, const std::string& name,
    EvolutionObserver* observer = nullptr, const ExecContext* ctx = nullptr);

/// PARTITION TABLE: splits `src` into rows satisfying
/// `column compare_op literal` (first output) and the rest (second).
/// The selection bitmap is an OR of value bitmaps whose dictionary entry
/// satisfies the predicate; both outputs are produced by position
/// filtering.
struct PartitionResult {
  std::shared_ptr<const Table> matching;
  std::shared_ptr<const Table> rest;
};
Result<PartitionResult> PartitionTableOp(
    const Table& src, const std::string& name1, const std::string& name2,
    const std::string& column, CompareOp op, const Value& literal,
    EvolutionObserver* observer = nullptr, const ExecContext* ctx = nullptr);

/// ADD COLUMN with a constant default: the new column is one dictionary
/// entry whose bitmap is a single one-fill — O(1) in the table size.
Result<std::shared_ptr<const Table>> AddColumnOp(const Table& src,
                                                 const ColumnSpec& spec,
                                                 const Value& default_value);

/// ADD COLUMN with per-row data supplied by the user (demo's "load from
/// user input").
Result<std::shared_ptr<const Table>> AddColumnWithDataOp(
    const Table& src, const ColumnSpec& spec,
    const std::vector<Value>& values);

/// DROP COLUMN: drops the column; all other columns are untouched.
Result<std::shared_ptr<const Table>> DropColumnOp(const Table& src,
                                                  const std::string& column);

/// RENAME COLUMN: schema-only change.
Result<std::shared_ptr<const Table>> RenameColumnOp(const Table& src,
                                                    const std::string& from,
                                                    const std::string& to);

}  // namespace cods

#endif  // CODS_EVOLUTION_SIMPLE_OPS_H_
