#include "evolution/smo.h"

#include <algorithm>
#include <sstream>

#include "common/string_util.h"
#include "storage/value_compare.h"

namespace cods {

namespace {

std::string FormatSchemaForScript(const Schema& schema) {
  std::string out = "(";
  for (size_t i = 0; i < schema.num_columns(); ++i) {
    if (i > 0) out += ", ";
    out += schema.column(i).name;
    out += " ";
    out += DataTypeToString(schema.column(i).type);
  }
  if (!schema.key().empty()) {
    out += ", KEY(" + Join(schema.key(), ", ") + ")";
  }
  out += ")";
  return out;
}

std::vector<std::string> SortedUnique(std::vector<std::string> names) {
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names;
}

}  // namespace

const char* SmoKindToString(SmoKind kind) {
  switch (kind) {
    case SmoKind::kCreateTable:
      return "CREATE TABLE";
    case SmoKind::kDropTable:
      return "DROP TABLE";
    case SmoKind::kRenameTable:
      return "RENAME TABLE";
    case SmoKind::kCopyTable:
      return "COPY TABLE";
    case SmoKind::kUnionTables:
      return "UNION TABLES";
    case SmoKind::kPartitionTable:
      return "PARTITION TABLE";
    case SmoKind::kDecomposeTable:
      return "DECOMPOSE TABLE";
    case SmoKind::kMergeTables:
      return "MERGE TABLES";
    case SmoKind::kAddColumn:
      return "ADD COLUMN";
    case SmoKind::kDropColumn:
      return "DROP COLUMN";
    case SmoKind::kRenameColumn:
      return "RENAME COLUMN";
  }
  return "?";
}

Smo Smo::CreateTable(std::string name, Schema schema) {
  Smo smo;
  smo.kind = SmoKind::kCreateTable;
  smo.out1 = std::move(name);
  smo.schema = std::move(schema);
  return smo;
}

Smo Smo::DropTable(std::string name) {
  Smo smo;
  smo.kind = SmoKind::kDropTable;
  smo.table = std::move(name);
  return smo;
}

Smo Smo::RenameTable(std::string from, std::string to) {
  Smo smo;
  smo.kind = SmoKind::kRenameTable;
  smo.table = std::move(from);
  smo.new_name = std::move(to);
  return smo;
}

Smo Smo::CopyTable(std::string from, std::string to) {
  Smo smo;
  smo.kind = SmoKind::kCopyTable;
  smo.table = std::move(from);
  smo.out1 = std::move(to);
  return smo;
}

Smo Smo::UnionTables(std::string a, std::string b, std::string out) {
  Smo smo;
  smo.kind = SmoKind::kUnionTables;
  smo.table = std::move(a);
  smo.table2 = std::move(b);
  smo.out1 = std::move(out);
  return smo;
}

Smo Smo::PartitionTable(std::string table, std::string out1,
                        std::string out2, std::string column, CompareOp op,
                        Value literal) {
  Smo smo;
  smo.kind = SmoKind::kPartitionTable;
  smo.table = std::move(table);
  smo.out1 = std::move(out1);
  smo.out2 = std::move(out2);
  smo.column = std::move(column);
  smo.compare_op = op;
  smo.literal = std::move(literal);
  return smo;
}

Smo Smo::DecomposeTable(std::string table, std::string s_name,
                        std::vector<std::string> s_columns,
                        std::vector<std::string> s_key, std::string t_name,
                        std::vector<std::string> t_columns,
                        std::vector<std::string> t_key) {
  Smo smo;
  smo.kind = SmoKind::kDecomposeTable;
  smo.table = std::move(table);
  smo.out1 = std::move(s_name);
  smo.columns1 = std::move(s_columns);
  smo.key1 = std::move(s_key);
  smo.out2 = std::move(t_name);
  smo.columns2 = std::move(t_columns);
  smo.key2 = std::move(t_key);
  return smo;
}

Smo Smo::MergeTables(std::string s, std::string t, std::string out,
                     std::vector<std::string> join_columns,
                     std::vector<std::string> out_key) {
  Smo smo;
  smo.kind = SmoKind::kMergeTables;
  smo.table = std::move(s);
  smo.table2 = std::move(t);
  smo.out1 = std::move(out);
  smo.columns1 = std::move(join_columns);
  smo.key1 = std::move(out_key);
  return smo;
}

Smo Smo::AddColumn(std::string table, ColumnSpec spec, Value default_value) {
  Smo smo;
  smo.kind = SmoKind::kAddColumn;
  smo.table = std::move(table);
  smo.column = spec.name;
  smo.column_spec = std::move(spec);
  smo.default_value = std::move(default_value);
  return smo;
}

Smo Smo::DropColumn(std::string table, std::string column) {
  Smo smo;
  smo.kind = SmoKind::kDropColumn;
  smo.table = std::move(table);
  smo.column = std::move(column);
  return smo;
}

Smo Smo::RenameColumn(std::string table, std::string from, std::string to) {
  Smo smo;
  smo.kind = SmoKind::kRenameColumn;
  smo.table = std::move(table);
  smo.column = std::move(from);
  smo.new_name = std::move(to);
  return smo;
}

std::string Smo::ToString() const {
  std::ostringstream out;
  switch (kind) {
    case SmoKind::kCreateTable:
      out << "CREATE TABLE " << out1 << " " << FormatSchemaForScript(schema);
      break;
    case SmoKind::kDropTable:
      out << "DROP TABLE " << table;
      break;
    case SmoKind::kRenameTable:
      out << "RENAME TABLE " << table << " TO " << new_name;
      break;
    case SmoKind::kCopyTable:
      out << "COPY TABLE " << table << " TO " << out1;
      break;
    case SmoKind::kUnionTables:
      out << "UNION TABLES " << table << ", " << table2 << " INTO " << out1;
      break;
    case SmoKind::kPartitionTable:
      out << "PARTITION TABLE " << table << " INTO " << out1 << ", " << out2
          << " WHERE " << column << " " << CompareOpToString(compare_op)
          << " " << FormatScriptLiteral(literal);
      break;
    case SmoKind::kDecomposeTable:
      out << "DECOMPOSE TABLE " << table << " INTO " << out1 << "("
          << Join(columns1, ", ") << ")";
      if (!key1.empty()) out << " KEY(" << Join(key1, ", ") << ")";
      out << ", " << out2 << "(" << Join(columns2, ", ") << ")";
      if (!key2.empty()) out << " KEY(" << Join(key2, ", ") << ")";
      break;
    case SmoKind::kMergeTables:
      out << "MERGE TABLES " << table << ", " << table2 << " INTO " << out1
          << " ON (" << Join(columns1, ", ") << ")";
      if (!key1.empty()) out << " KEY(" << Join(key1, ", ") << ")";
      break;
    case SmoKind::kAddColumn:
      out << "ADD COLUMN " << column << " "
          << DataTypeToString(column_spec.type) << " TO " << table
          << " DEFAULT " << FormatScriptLiteral(default_value);
      break;
    case SmoKind::kDropColumn:
      out << "DROP COLUMN " << column << " FROM " << table;
      break;
    case SmoKind::kRenameColumn:
      out << "RENAME COLUMN " << column << " TO " << new_name << " IN "
          << table;
      break;
  }
  return out.str();
}

std::vector<std::string> Smo::ReadTables() const {
  switch (kind) {
    case SmoKind::kCreateTable:
    case SmoKind::kDropTable:
    case SmoKind::kRenameTable:
      return {};
    case SmoKind::kCopyTable:
    case SmoKind::kPartitionTable:
    case SmoKind::kDecomposeTable:
    case SmoKind::kAddColumn:
    case SmoKind::kDropColumn:
    case SmoKind::kRenameColumn:
      return {table};
    case SmoKind::kUnionTables:
    case SmoKind::kMergeTables:
      return SortedUnique({table, table2});
  }
  return {};
}

std::vector<std::string> Smo::WriteTables() const {
  switch (kind) {
    case SmoKind::kCreateTable:
      return {out1};
    case SmoKind::kDropTable:
      return {table};
    case SmoKind::kRenameTable:
      return SortedUnique({table, new_name});
    case SmoKind::kCopyTable:
      return {out1};
    case SmoKind::kUnionTables:
    case SmoKind::kMergeTables:
      // The two inputs are dropped and replaced by the output.
      return SortedUnique({table, table2, out1});
    case SmoKind::kPartitionTable:
    case SmoKind::kDecomposeTable:
      // The input is dropped and replaced by the two outputs.
      return SortedUnique({table, out1, out2});
    case SmoKind::kAddColumn:
    case SmoKind::kDropColumn:
    case SmoKind::kRenameColumn:
      // The table is replaced by its new version under the same name.
      return {table};
  }
  return {};
}

}  // namespace cods
