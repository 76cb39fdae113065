#include "storage/csv.h"

#include <cerrno>
#include <fstream>
#include <sstream>
#include <system_error>

#include "common/string_util.h"

namespace cods {

namespace {

// "cannot open 'x'" alone is useless in production logs; append the
// errno reason the stream left behind ("No such file or directory",
// "Permission denied", ...).
std::string ErrnoDetail() {
  return errno != 0 ? ": " + std::generic_category().message(errno) : "";
}

// Splits CSV text into non-empty lines (no quoting support: the demo data
// and workload generator never emit embedded delimiters).
std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  for (std::string& line : Split(text, '\n')) {
    std::string_view trimmed = Trim(line);
    if (!trimmed.empty()) lines.emplace_back(trimmed);
  }
  return lines;
}

Result<std::shared_ptr<const Table>> ParseBody(
    const std::vector<std::string>& lines, size_t first_data_line,
    const std::string& table_name, const Schema& schema,
    const CsvOptions& options) {
  TableBuilder builder(table_name, schema);
  for (size_t i = first_data_line; i < lines.size(); ++i) {
    std::vector<std::string> fields = Split(lines[i], options.delimiter);
    if (fields.size() != schema.num_columns()) {
      return Status::InvalidArgument(
          "line " + std::to_string(i + 1) + " has " +
          std::to_string(fields.size()) + " fields, expected " +
          std::to_string(schema.num_columns()));
    }
    Row row;
    row.reserve(fields.size());
    for (size_t c = 0; c < fields.size(); ++c) {
      CODS_ASSIGN_OR_RETURN(
          Value v, Value::Parse(std::string(Trim(fields[c])),
                                schema.column(c).type));
      row.push_back(std::move(v));
    }
    CODS_RETURN_NOT_OK(builder.AppendRow(row));
  }
  return builder.Finish();
}

}  // namespace

Result<std::shared_ptr<const Table>> CsvToTable(const std::string& csv_text,
                                                const std::string& table_name,
                                                const Schema& schema,
                                                const CsvOptions& options) {
  std::vector<std::string> lines = SplitLines(csv_text);
  size_t first_data_line = 0;
  if (options.has_header) {
    if (lines.empty()) {
      return Status::InvalidArgument("empty CSV with has_header=true");
    }
    std::vector<std::string> header = Split(lines[0], options.delimiter);
    if (header.size() != schema.num_columns()) {
      return Status::InvalidArgument("header arity does not match schema");
    }
    for (size_t c = 0; c < header.size(); ++c) {
      if (std::string(Trim(header[c])) != schema.column(c).name) {
        return Status::InvalidArgument(
            "header column '" + std::string(Trim(header[c])) +
            "' does not match schema column '" + schema.column(c).name + "'");
      }
    }
    first_data_line = 1;
  }
  return ParseBody(lines, first_data_line, table_name, schema, options);
}

Result<std::shared_ptr<const Table>> CsvToTableInferred(
    const std::string& csv_text, const std::string& table_name,
    const CsvOptions& options) {
  std::vector<std::string> lines = SplitLines(csv_text);
  if (lines.empty()) return Status::InvalidArgument("empty CSV");
  if (!options.has_header) {
    return Status::InvalidArgument(
        "schema inference requires a header line");
  }
  std::vector<std::string> header = Split(lines[0], options.delimiter);
  size_t arity = header.size();
  // Infer a type per column: INT64 ⊂ DOUBLE ⊂ STRING lattice walk.
  std::vector<DataType> types(arity, DataType::kInt64);
  uint64_t sampled = 0;
  for (size_t i = 1; i < lines.size() && sampled < options.inference_sample_rows;
       ++i, ++sampled) {
    std::vector<std::string> fields = Split(lines[i], options.delimiter);
    if (fields.size() != arity) {
      return Status::InvalidArgument("line " + std::to_string(i + 1) +
                                     " arity mismatch during inference");
    }
    for (size_t c = 0; c < arity; ++c) {
      std::string_view f = Trim(fields[c]);
      if (types[c] == DataType::kInt64 && !LooksLikeInt(f)) {
        types[c] = LooksLikeDouble(f) ? DataType::kDouble : DataType::kString;
      } else if (types[c] == DataType::kDouble && !LooksLikeInt(f) &&
                 !LooksLikeDouble(f)) {
        types[c] = DataType::kString;
      }
    }
  }
  std::vector<ColumnSpec> specs;
  specs.reserve(arity);
  for (size_t c = 0; c < arity; ++c) {
    specs.push_back(ColumnSpec{std::string(Trim(header[c])), types[c]});
  }
  CODS_ASSIGN_OR_RETURN(Schema schema, Schema::Make(std::move(specs)));
  return ParseBody(lines, 1, table_name, schema, options);
}

Result<std::shared_ptr<const Table>> LoadCsvFile(const std::string& path,
                                                 const std::string& table_name,
                                                 const Schema& schema,
                                                 const CsvOptions& options) {
  errno = 0;
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open '" + path + "'" + ErrnoDetail());
  std::ostringstream buf;
  buf << in.rdbuf();
  return CsvToTable(buf.str(), table_name, schema, options);
}

std::string TableToCsv(const Table& table, const CsvOptions& options) {
  std::ostringstream out;
  if (options.has_header) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      if (c > 0) out << options.delimiter;
      out << table.schema().column(c).name;
    }
    out << "\n";
  }
  for (const Row& row : table.Materialize()) {
    for (size_t c = 0; c < row.size(); ++c) {
      if (c > 0) out << options.delimiter;
      out << row[c].ToString();
    }
    out << "\n";
  }
  return out.str();
}

Status WriteCsvFile(const Table& table, const std::string& path,
                    const CsvOptions& options) {
  errno = 0;
  std::ofstream out(path);
  if (!out) {
    return Status::IOError("cannot open '" + path + "' for write" +
                           ErrnoDetail());
  }
  errno = 0;
  out << TableToCsv(table, options);
  if (!out) {
    return Status::IOError("write to '" + path + "' failed" + ErrnoDetail());
  }
  return Status::OK();
}

}  // namespace cods
