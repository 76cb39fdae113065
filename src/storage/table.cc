#include "storage/table.h"

#include "common/logging.h"

namespace cods {

Table::Table(std::string name, Schema schema,
             std::vector<std::shared_ptr<const Column>> columns,
             uint64_t rows)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      columns_(std::move(columns)),
      rows_(rows) {}

Result<std::shared_ptr<const Table>> Table::Make(
    std::string name, Schema schema,
    std::vector<std::shared_ptr<const Column>> columns, uint64_t rows) {
  if (columns.size() != schema.num_columns()) {
    return Status::InvalidArgument(
        "column count does not match schema arity");
  }
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i] == nullptr) {
      return Status::InvalidArgument("null column");
    }
    if (columns[i]->rows() != rows) {
      return Status::InvalidArgument(
          "column '" + schema.column(i).name + "' has " +
          std::to_string(columns[i]->rows()) + " rows, table has " +
          std::to_string(rows));
    }
    if (columns[i]->type() != schema.column(i).type) {
      return Status::TypeError("column '" + schema.column(i).name +
                               "' type mismatch");
    }
  }
  return std::make_shared<const Table>(std::move(name), std::move(schema),
                                       std::move(columns), rows);
}

Result<std::shared_ptr<const Column>> Table::ColumnByName(
    const std::string& name) const {
  CODS_ASSIGN_OR_RETURN(size_t idx, schema_.ColumnIndex(name));
  return columns_[idx];
}

Result<size_t> Table::ResolveColumnRef(const std::string& ref) const {
  return ResolveColumnRef(schema_, name_, ref);
}

Result<size_t> Table::ResolveColumnRef(const Schema& schema,
                                       const std::string& table_name,
                                       const std::string& ref) {
  Result<size_t> direct = schema.ResolveColumnRef(ref);
  if (direct.ok()) return direct;
  // `<this table>.<col>` strips the qualifier and retries, so the same
  // reference shape works on a plain table and on a join result.
  const std::string prefix = table_name + ".";
  if (ref.size() > prefix.size() && ref.compare(0, prefix.size(), prefix) == 0) {
    Result<size_t> stripped =
        schema.ResolveColumnRef(ref.substr(prefix.size()));
    if (stripped.ok()) return stripped;
  }
  return direct;
}

Result<std::shared_ptr<const Column>> Table::ColumnByRef(
    const std::string& ref) const {
  CODS_ASSIGN_OR_RETURN(size_t idx, ResolveColumnRef(ref));
  return columns_[idx];
}

Value Table::GetValue(uint64_t row, size_t col) const {
  CODS_CHECK(col < columns_.size());
  return columns_[col]->GetValue(row);
}

std::vector<Row> Table::Materialize() const { return Materialize(rows_); }

std::vector<Row> Table::Materialize(uint64_t limit) const {
  uint64_t n = limit < rows_ ? limit : rows_;
  std::vector<Row> out(n);
  for (Row& r : out) r.resize(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    std::vector<Vid> vids = columns_[c]->DecodeVids();
    const Dictionary& dict = columns_[c]->dict();
    for (uint64_t r = 0; r < n; ++r) {
      out[r][c] = dict.value(vids[r]);
    }
  }
  return out;
}

std::shared_ptr<const Table> Table::WithName(const std::string& name) const {
  return std::make_shared<const Table>(name, schema_, columns_, rows_);
}

uint64_t Table::SizeBytes() const {
  uint64_t bytes = 0;
  for (const auto& col : columns_) bytes += col->SizeBytes();
  return bytes;
}

TableBuilder::TableBuilder(std::string name, Schema schema)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      dicts_(schema_.num_columns()),
      vids_(schema_.num_columns()) {}

Status ValidateValueForColumn(const Value& v, const ColumnSpec& spec) {
  if (v.is_null()) {
    return Status::TypeError("null values are not supported (column '" +
                             spec.name + "')");
  }
  CODS_ASSIGN_OR_RETURN(DataType t, v.type());
  if (t != spec.type) {
    return Status::TypeError("value " + v.ToString() +
                             " does not match column '" + spec.name +
                             "' of type " + DataTypeToString(spec.type));
  }
  return Status::OK();
}

Status TableBuilder::AppendRow(const Row& row) {
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) + " != schema arity " +
        std::to_string(schema_.num_columns()));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    CODS_RETURN_NOT_OK(ValidateValueForColumn(row[i], schema_.column(i)));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    vids_[i].push_back(dicts_[i].GetOrInsert(row[i]));
  }
  ++rows_;
  return Status::OK();
}

Result<std::shared_ptr<const Table>> TableBuilder::Finish() {
  std::vector<std::shared_ptr<const Column>> columns;
  columns.reserve(schema_.num_columns());
  for (size_t i = 0; i < schema_.num_columns(); ++i) {
    const ColumnSpec& spec = schema_.column(i);
    columns.push_back(
        Column::FromVids(spec.type, std::move(dicts_[i]), vids_[i]));
    vids_[i].clear();
    vids_[i].shrink_to_fit();
  }
  return Table::Make(std::move(name_), std::move(schema_),
                     std::move(columns), rows_);
}

}  // namespace cods
