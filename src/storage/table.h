// Tables: a schema plus one immutable Column per attribute. Columns are
// held by shared_ptr so evolution operators can move a column from an old
// table to a new one without touching its data — the "reuse unchanged
// columns" effect of §2.4 Property 1 costs one pointer copy per column.

#ifndef CODS_STORAGE_TABLE_H_
#define CODS_STORAGE_TABLE_H_

#include <memory>
#include <string>
#include <vector>

#include "storage/column.h"
#include "storage/schema.h"

namespace cods {

/// An immutable column-store table.
class Table {
 public:
  Table() = default;
  Table(std::string name, Schema schema,
        std::vector<std::shared_ptr<const Column>> columns, uint64_t rows);

  /// Validated factory: all columns must have `rows` rows and match the
  /// schema's types and arity.
  static Result<std::shared_ptr<const Table>> Make(
      std::string name, Schema schema,
      std::vector<std::shared_ptr<const Column>> columns, uint64_t rows);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  uint64_t rows() const { return rows_; }
  size_t num_columns() const { return columns_.size(); }

  const std::shared_ptr<const Column>& column(size_t i) const {
    return columns_[i];
  }
  Result<std::shared_ptr<const Column>> ColumnByName(
      const std::string& name) const;

  /// Resolves a column REFERENCE (Schema::ResolveColumnRef semantics),
  /// additionally accepting `<table name>.<col>` for this table's own
  /// columns — so `SELECT R.Employee FROM R` binds on a plain table and
  /// qualified references bind on cross-table result schemas alike.
  Result<size_t> ResolveColumnRef(const std::string& ref) const;
  /// The same resolution for a table named `table_name` with `schema`,
  /// without the table — binds references against a join result the
  /// plan never builds.
  static Result<size_t> ResolveColumnRef(const Schema& schema,
                                         const std::string& table_name,
                                         const std::string& ref);
  Result<std::shared_ptr<const Column>> ColumnByRef(
      const std::string& ref) const;

  /// Value at (row, column); point lookup, O(compressed words).
  Value GetValue(uint64_t row, size_t col) const;

  /// Materializes all tuples (decompression; used by the query-level
  /// baseline and by display).
  std::vector<Row> Materialize() const;
  /// Materializes the first `limit` tuples.
  std::vector<Row> Materialize(uint64_t limit) const;

  /// A copy of this table under a different name, sharing all columns.
  std::shared_ptr<const Table> WithName(const std::string& name) const;

  /// Total compressed footprint of columns + dictionaries.
  uint64_t SizeBytes() const;

  /// Validates per-column invariants plus schema/column agreement.
  /// Parallel over columns; the first failing column (in schema order)
  /// determines the returned Status.
  Status ValidateInvariants(const ExecContext* ctx = nullptr) const;

 private:
  std::string name_;
  Schema schema_;
  std::vector<std::shared_ptr<const Column>> columns_;
  uint64_t rows_ = 0;
};

/// Checks that `v` may be stored in a column described by `spec`
/// (non-null, matching type). Shared by every row-ingest path so the
/// rules and error messages cannot diverge.
Status ValidateValueForColumn(const Value& v, const ColumnSpec& spec);

/// Builds a table row-by-row, dictionary-encoding on the fly.
class TableBuilder {
 public:
  TableBuilder(std::string name, Schema schema);

  /// Appends one tuple; its arity and value types must match the schema.
  Status AppendRow(const Row& row);

  /// Number of rows appended so far.
  uint64_t rows() const { return rows_; }

  /// Finishes construction: every column is dictionary-encoded into
  /// per-value codec bitmaps. The builder is consumed.
  Result<std::shared_ptr<const Table>> Finish();

 private:
  std::string name_;
  Schema schema_;
  std::vector<Dictionary> dicts_;
  std::vector<std::vector<Vid>> vids_;
  uint64_t rows_ = 0;
};

}  // namespace cods

#endif  // CODS_STORAGE_TABLE_H_
