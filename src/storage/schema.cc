#include "storage/schema.h"

#include <algorithm>
#include <unordered_set>

#include "common/logging.h"
#include "common/string_util.h"

namespace cods {

Schema::Schema(std::vector<ColumnSpec> columns, std::vector<std::string> key)
    : columns_(std::move(columns)), key_(std::move(key)) {}

Result<Schema> Schema::Make(std::vector<ColumnSpec> columns,
                            std::vector<std::string> key) {
  std::unordered_set<std::string> seen;
  for (const ColumnSpec& c : columns) {
    if (c.name.empty()) {
      return Status::InvalidArgument("empty column name");
    }
    if (!seen.insert(c.name).second) {
      return Status::InvalidArgument("duplicate column name '" + c.name +
                                     "'");
    }
  }
  std::unordered_set<std::string> key_seen;
  for (const std::string& k : key) {
    if (seen.find(k) == seen.end()) {
      return Status::InvalidArgument("key column '" + k +
                                     "' is not a column of the schema");
    }
    if (!key_seen.insert(k).second) {
      return Status::InvalidArgument("duplicate key column '" + k + "'");
    }
  }
  return Schema(std::move(columns), std::move(key));
}

Result<size_t> Schema::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == name) return i;
  }
  return Status::KeyError("no column named '" + name + "'");
}

bool Schema::HasColumn(const std::string& name) const {
  return ColumnIndex(name).ok();
}

Result<size_t> Schema::ResolveColumnRef(const std::string& ref) const {
  if (auto exact = ColumnIndex(ref); exact.ok()) return exact;
  // A plain reference may name a qualified column `t.c` by its suffix,
  // provided exactly one column matches.
  if (ref.find('.') == std::string::npos) {
    const std::string suffix = "." + ref;
    std::vector<size_t> candidates;
    for (size_t i = 0; i < columns_.size(); ++i) {
      const std::string& name = columns_[i].name;
      if (name.size() > suffix.size() &&
          name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
              0) {
        candidates.push_back(i);
      }
    }
    if (candidates.size() == 1) return candidates[0];
    if (candidates.size() > 1) {
      std::string msg = "ambiguous column '" + ref + "': candidates";
      for (size_t i = 0; i < candidates.size(); ++i) {
        msg += (i == 0 ? " " : ", ") + columns_[candidates[i]].name;
      }
      return Status::InvalidArgument(msg);
    }
  }
  return Status::KeyError("no column named '" + ref + "'");
}

Result<std::vector<size_t>> Schema::KeyIndices() const {
  std::vector<size_t> out;
  out.reserve(key_.size());
  for (const std::string& k : key_) {
    CODS_ASSIGN_OR_RETURN(size_t idx, ColumnIndex(k));
    out.push_back(idx);
  }
  return out;
}

bool Schema::IsKey(const std::vector<std::string>& names) const {
  if (key_.empty() || names.size() != key_.size()) return false;
  std::vector<std::string> a = names;
  std::vector<std::string> b = key_;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b;
}

Result<Schema> Schema::RenameColumn(const std::string& from,
                                    const std::string& to) const {
  CODS_ASSIGN_OR_RETURN(size_t idx, ColumnIndex(from));
  if (from != to && HasColumn(to)) {
    return Status::AlreadyExists("column '" + to + "' already exists");
  }
  std::vector<ColumnSpec> cols = columns_;
  cols[idx].name = to;
  std::vector<std::string> key = key_;
  for (std::string& k : key) {
    if (k == from) k = to;
  }
  return Schema(std::move(cols), std::move(key));
}

Result<Schema> Schema::AddColumn(const ColumnSpec& spec) const {
  if (HasColumn(spec.name)) {
    return Status::AlreadyExists("column '" + spec.name + "' already exists");
  }
  std::vector<ColumnSpec> cols = columns_;
  cols.push_back(spec);
  return Schema(std::move(cols), key_);
}

Result<Schema> Schema::DropColumn(const std::string& name) const {
  CODS_ASSIGN_OR_RETURN(size_t idx, ColumnIndex(name));
  for (const std::string& k : key_) {
    if (k == name) {
      return Status::ConstraintViolation(
          "cannot drop key column '" + name +
          "'; change the key declaration first");
    }
  }
  std::vector<ColumnSpec> cols = columns_;
  cols.erase(cols.begin() + static_cast<ptrdiff_t>(idx));
  return Schema(std::move(cols), key_);
}

std::vector<std::string> Schema::ColumnNames() const {
  std::vector<std::string> out;
  out.reserve(columns_.size());
  for (const ColumnSpec& c : columns_) out.push_back(c.name);
  return out;
}

bool Schema::SameLayout(const Schema& other) const {
  if (columns_.size() != other.columns_.size()) return false;
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name != other.columns_[i].name ||
        columns_[i].type != other.columns_[i].type) {
      return false;
    }
  }
  return true;
}

std::string Schema::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (i > 0) out += ", ";
    out += columns_[i].name;
    out += " ";
    out += DataTypeToString(columns_[i].type);
  }
  if (!key_.empty()) {
    out += ", key=(" + Join(key_, ", ") + ")";
  }
  out += ")";
  return out;
}

}  // namespace cods
