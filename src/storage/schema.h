// Table schemas: named, typed columns plus an optional declared key
// (candidate key). The evolution operators use the key declarations to
// check lossless-join preconditions (§2.4) and to pick the key–foreign-key
// fast path in mergence (§2.5.1).

#ifndef CODS_STORAGE_SCHEMA_H_
#define CODS_STORAGE_SCHEMA_H_

#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "storage/value.h"

namespace cods {

/// Declaration of one column: a name and a type. Every column is stored
/// the same way (storage/column.h), so there is no per-column encoding
/// hint; the parser and the image loader discard a legacy SORTED.
struct ColumnSpec {
  ColumnSpec() = default;
  ColumnSpec(std::string name, DataType type)
      : name(std::move(name)), type(type) {}
  /// Ignores the third argument, where the SORTED hint used to go, so
  /// callers still spelling `{name, type, false}` compile.
  ColumnSpec(std::string name, DataType type, bool /*ignored*/)
      : ColumnSpec(std::move(name), type) {}

  std::string name;
  DataType type = DataType::kString;
};

/// An ordered list of column specs plus an optional key.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<ColumnSpec> columns,
                  std::vector<std::string> key = {});

  /// Validated factory: rejects duplicate column names and keys that
  /// reference unknown columns.
  static Result<Schema> Make(std::vector<ColumnSpec> columns,
                             std::vector<std::string> key = {});

  size_t num_columns() const { return columns_.size(); }
  const std::vector<ColumnSpec>& columns() const { return columns_; }
  const ColumnSpec& column(size_t i) const { return columns_[i]; }

  /// The declared key column names (may be empty = no declared key).
  const std::vector<std::string>& key() const { return key_; }
  bool has_key() const { return !key_.empty(); }

  /// Index of the column named `name`.
  Result<size_t> ColumnIndex(const std::string& name) const;
  bool HasColumn(const std::string& name) const;

  /// Resolves a column REFERENCE, which is looser than an exact name:
  /// an exact match wins; otherwise a plain reference `c` matches a
  /// uniquely-determined qualified column `t.c` (the naming scheme of
  /// cross-table query results). Ambiguous plain references error
  /// naming every candidate.
  Result<size_t> ResolveColumnRef(const std::string& ref) const;

  /// Indices of the declared key columns, in declaration order.
  Result<std::vector<size_t>> KeyIndices() const;

  /// True when `names` (as a set) equals the declared key (as a set).
  bool IsKey(const std::vector<std::string>& names) const;

  /// Schema with one column renamed. Fails if `from` is missing or `to`
  /// collides. Key references to `from` are updated.
  Result<Schema> RenameColumn(const std::string& from,
                              const std::string& to) const;

  /// Schema with a column appended. Fails on name collision.
  Result<Schema> AddColumn(const ColumnSpec& spec) const;

  /// Schema with a column removed. Fails if missing or if the column is
  /// part of the declared key.
  Result<Schema> DropColumn(const std::string& name) const;

  /// Column names in order.
  std::vector<std::string> ColumnNames() const;

  /// True when both schemas have the same column names and types in the
  /// same order (key declarations are ignored), i.e. they are
  /// union-compatible.
  bool SameLayout(const Schema& other) const;

  /// "R(Employee STRING, Skill STRING, key=(Employee, Skill))".
  std::string ToString() const;

 private:
  std::vector<ColumnSpec> columns_;
  std::vector<std::string> key_;
};

}  // namespace cods

#endif  // CODS_STORAGE_SCHEMA_H_
