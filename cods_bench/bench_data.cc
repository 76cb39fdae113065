#include "bench_data.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>

#include "bench_common.h"
#include "exec/exec.h"
#include "query/row_executor.h"
#include "storage/column.h"
#include "storage/dictionary.h"

namespace cods_bench {

using cods::server::FrameType;
using cods::server::WireResponse;

namespace {

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t RowHash(const int64_t* values, size_t n) {
  uint64_t h = 0x51ed270b27d3a4c1ull;
  for (size_t i = 0; i < n; ++i) {
    h = Mix64(h ^ static_cast<uint64_t>(values[i]));
  }
  return h;
}

// Column value spaces of the statements: a fact table's columns, then
// (joins) the dimension's columns gathered per fact row through K.
using Columns = std::vector<const std::vector<int64_t>*>;

std::vector<uint8_t> EvalMask(const Pred& p, const Columns& cols,
                              uint64_t rows) {
  std::vector<uint8_t> out(rows, 0);
  switch (p.kind) {
    case Pred::Kind::kCmp:
    case Pred::Kind::kIn:
    case Pred::Kind::kBetween: {
      const std::vector<int64_t>& c = *cols[static_cast<size_t>(p.col)];
      for (uint64_t r = 0; r < rows; ++r) {
        out[r] = p.Eval([&](int) { return c[r]; }) ? 1 : 0;
      }
      return out;
    }
    case Pred::Kind::kNot: {
      out = EvalMask(p.kids[0], cols, rows);
      for (uint8_t& b : out) b ^= 1;
      return out;
    }
    case Pred::Kind::kAnd:
    case Pred::Kind::kOr: {
      out = EvalMask(p.kids[0], cols, rows);
      for (size_t k = 1; k < p.kids.size(); ++k) {
        std::vector<uint8_t> m = EvalMask(p.kids[k], cols, rows);
        for (uint64_t r = 0; r < rows; ++r) {
          out[r] = p.kind == Pred::Kind::kAnd ? (out[r] & m[r])
                                              : (out[r] | m[r]);
        }
      }
      return out;
    }
  }
  return out;
}

bool NearlyEqual(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

const char* OpSql(Pred::Op op) {
  switch (op) {
    case Pred::Op::kEq: return "=";
    case Pred::Op::kNe: return "!=";
    case Pred::Op::kLt: return "<";
    case Pred::Op::kLe: return "<=";
    case Pred::Op::kGt: return ">";
    case Pred::Op::kGe: return ">=";
  }
  return "=";
}

std::string JoinInts(const std::vector<int64_t>& v) {
  std::string out;
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(v[i]);
  }
  return out;
}

// Aggregates of one group: COUNT(*), SUM, MIN, MAX, AVG.
struct GroupAcc {
  uint64_t count = 0;
  double sum = 0;
  int64_t min = 0;
  int64_t max = 0;
  void Add(int64_t s, int64_t m) {
    if (count == 0) min = max = m;
    min = std::min(min, m);
    max = std::max(max, m);
    sum += static_cast<double>(s);
    ++count;
  }
};

void FinishGroups(const std::map<int64_t, GroupAcc>& acc, Expected* out) {
  out->kind = Expected::Kind::kGroups;
  for (const auto& [g, a] : acc) {
    out->groups.push_back(
        {g,
         {static_cast<double>(a.count), a.sum, static_cast<double>(a.min),
          static_cast<double>(a.max), a.sum / static_cast<double>(a.count)}});
  }
}

// The first `limit` row indices in ORDER BY order: by key, ties by row
// position in both directions (DESC reverses value order, never the
// order among equal values).
void OrderByLimit(std::vector<uint64_t>* idx, const std::vector<int64_t>& key,
                  bool desc, int64_t limit) {
  const size_t keep = std::min(idx->size(), static_cast<size_t>(limit));
  std::partial_sort(idx->begin(), idx->begin() + static_cast<ptrdiff_t>(keep),
                    idx->end(), [&](uint64_t a, uint64_t b) {
                      if (key[a] != key[b]) {
                        return desc ? key[a] > key[b] : key[a] < key[b];
                      }
                      return a < b;
                    });
  idx->resize(keep);
}

}  // namespace

// ---- Random draws -----------------------------------------------------------

int64_t UniformInt(Rng& rng, int64_t lo, int64_t hi) {
  return std::uniform_int_distribution<int64_t>(lo, hi)(rng);
}

double Exponential(Rng& rng, double mean) {
  return std::exponential_distribution<double>(1.0 / mean)(rng);
}

Zipf::Zipf(uint64_t n, double s) : cdf_(n) {
  double acc = 0;
  for (uint64_t i = 0; i < n; ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = acc;
  }
  for (double& c : cdf_) c /= acc;
}

uint64_t Zipf::Next(Rng& rng) const {
  double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) --it;
  return static_cast<uint64_t>(it - cdf_.begin());
}

// ---- Tables -----------------------------------------------------------------

int GenTable::Col(const std::string& column) const {
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i] == column) return static_cast<int>(i);
  }
  Die("table " + name + " has no column " + column);
}

GenTable GenerateKvp(const std::string& name, const KvpSpec& spec) {
  Rng rng(spec.seed);
  GenTable g;
  g.name = name;
  g.columns = {"K", "V", "P"};
  g.data.assign(3, std::vector<int64_t>(spec.rows));
  std::vector<int64_t>& k = g.data[0];
  if (spec.k_zipf > 0) {
    std::vector<int64_t> rank_to_key(spec.k_distinct);
    std::iota(rank_to_key.begin(), rank_to_key.end(), int64_t{0});
    std::shuffle(rank_to_key.begin(), rank_to_key.end(), rng);
    Zipf zipf(spec.k_distinct, spec.k_zipf);
    for (uint64_t r = 0; r < spec.rows; ++r) {
      k[r] = r < spec.k_distinct ? static_cast<int64_t>(r)
                                 : rank_to_key[zipf.Next(rng)];
    }
  } else {
    if (spec.rows % spec.k_distinct != 0) {
      Die("uniform keys need rows divisible by the key count");
    }
    for (uint64_t r = 0; r < spec.rows; ++r) {
      k[r] = static_cast<int64_t>(r % spec.k_distinct);
    }
  }
  std::shuffle(k.begin(), k.end(), rng);
  const uint64_t p_salt = Mix64(spec.seed);
  for (uint64_t r = 0; r < spec.rows; ++r) {
    g.data[1][r] = UniformInt(rng, 0, static_cast<int64_t>(spec.v_distinct) - 1);
    // The FD K -> P: P is a pure function of K.
    g.data[2][r] = static_cast<int64_t>(
        Mix64(static_cast<uint64_t>(k[r]) ^ p_salt) % spec.p_distinct);
  }
  return g;
}

GenTable GenerateDim(const std::string& name, uint64_t keys, uint64_t grades,
                     uint64_t seed) {
  GenTable g;
  g.name = name;
  g.columns = {"K", "G"};
  g.key = {"K"};
  g.data.assign(2, std::vector<int64_t>(keys));
  for (uint64_t i = 0; i < keys; ++i) {
    g.data[0][i] = static_cast<int64_t>(i);
    g.data[1][i] = static_cast<int64_t>(Mix64(i ^ Mix64(seed)) % grades);
  }
  return g;
}

GenTable AfterRound(const GenTable& g, int64_t split) {
  const std::vector<int64_t>& k = g.data[static_cast<size_t>(g.Col("K"))];
  std::vector<uint64_t> order(g.rows());
  std::iota(order.begin(), order.end(), uint64_t{0});
  std::stable_partition(order.begin(), order.end(),
                        [&](uint64_t r) { return k[r] < split; });
  GenTable out = g;
  for (size_t c = 0; c < g.data.size(); ++c) {
    for (size_t i = 0; i < order.size(); ++i) out.data[c][i] = g.data[c][order[i]];
  }
  return out;
}

std::shared_ptr<const cods::Table> BuildTable(const GenTable& g) {
  std::vector<cods::ColumnSpec> specs;
  for (const std::string& c : g.columns) {
    specs.push_back(cods::ColumnSpec{c, cods::DataType::kInt64, false});
  }
  cods::TableBuilder builder(g.name, cods::Schema(specs, g.key));
  cods::Row row(g.columns.size());
  for (uint64_t r = 0; r < g.rows(); ++r) {
    for (size_t c = 0; c < g.columns.size(); ++c) {
      row[c] = cods::Value(g.data[c][r]);
    }
    Check(builder.AppendRow(row), "building table " + g.name);
  }
  return Take(builder.Finish(), "building table " + g.name);
}

Digest DigestOf(const GenTable& g, const std::vector<std::string>& columns) {
  std::vector<const std::vector<int64_t>*> cols;
  for (const std::string& c : columns) {
    cols.push_back(&g.data[static_cast<size_t>(g.Col(c))]);
  }
  Digest d;
  std::vector<int64_t> row(cols.size());
  for (uint64_t r = 0; r < g.rows(); ++r) {
    for (size_t c = 0; c < cols.size(); ++c) row[c] = (*cols[c])[r];
    d.sum += RowHash(row.data(), row.size());
    ++d.rows;
  }
  return d;
}

Digest DigestOf(const cods::Table& t, const std::vector<std::string>& columns) {
  cods::ExecContext serial(1);
  std::vector<std::vector<int64_t>> cols;
  for (const std::string& c : columns) {
    auto col = Take(t.ColumnByName(c), "digest of " + t.name());
    std::vector<cods::Vid> vids = col->DecodeVids(&serial);
    std::vector<int64_t> values(vids.size());
    for (size_t r = 0; r < vids.size(); ++r) {
      values[r] = col->dict().value(vids[r]).int64();
    }
    cols.push_back(std::move(values));
  }
  Digest d;
  std::vector<int64_t> row(cols.size());
  for (uint64_t r = 0; r < t.rows(); ++r) {
    for (size_t c = 0; c < cols.size(); ++c) row[c] = cols[c][r];
    d.sum += RowHash(row.data(), row.size());
    ++d.rows;
  }
  return d;
}

KeyIndex::KeyIndex(const GenTable& g, const std::string& column,
                   uint64_t distinct)
    : offsets_(distinct + 1, 0) {
  const std::vector<int64_t>& k = g.data[static_cast<size_t>(g.Col(column))];
  for (int64_t v : k) ++offsets_[static_cast<size_t>(v) + 1];
  for (size_t i = 1; i < offsets_.size(); ++i) offsets_[i] += offsets_[i - 1];
  rows_.resize(k.size());
  std::vector<uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (size_t r = 0; r < k.size(); ++r) {
    rows_[cursor[static_cast<size_t>(k[r])]++] = static_cast<uint32_t>(r);
  }
}

uint64_t KeyIndex::Count(int64_t key) const {
  return offsets_[static_cast<size_t>(key) + 1] -
         offsets_[static_cast<size_t>(key)];
}
const uint32_t* KeyIndex::RowsBegin(int64_t key) const {
  return rows_.data() + offsets_[static_cast<size_t>(key)];
}
const uint32_t* KeyIndex::RowsEnd(int64_t key) const {
  return rows_.data() + offsets_[static_cast<size_t>(key) + 1];
}

// ---- Predicates and queries -------------------------------------------------

Pred Pred::Cmp(int col, Op op, int64_t v) {
  Pred p;
  p.kind = Kind::kCmp;
  p.col = col;
  p.op = op;
  p.vals = {v};
  return p;
}
Pred Pred::In(int col, std::vector<int64_t> vals) {
  Pred p;
  p.kind = Kind::kIn;
  p.col = col;
  p.vals = std::move(vals);
  return p;
}
Pred Pred::Between(int col, int64_t lo, int64_t hi) {
  Pred p;
  p.kind = Kind::kBetween;
  p.col = col;
  p.vals = {lo, hi};
  return p;
}
Pred Pred::Not(Pred kid) {
  Pred p;
  p.kind = Kind::kNot;
  p.kids.push_back(std::move(kid));
  return p;
}
Pred Pred::And(std::vector<Pred> kids) {
  Pred p;
  p.kind = Kind::kAnd;
  p.kids = std::move(kids);
  return p;
}
Pred Pred::Or(std::vector<Pred> kids) {
  Pred p;
  p.kind = Kind::kOr;
  p.kids = std::move(kids);
  return p;
}

template <typename Get>
bool Pred::Eval(const Get& get) const {
  switch (kind) {
    case Kind::kCmp: {
      int64_t v = get(col);
      switch (op) {
        case Op::kEq: return v == vals[0];
        case Op::kNe: return v != vals[0];
        case Op::kLt: return v < vals[0];
        case Op::kLe: return v <= vals[0];
        case Op::kGt: return v > vals[0];
        case Op::kGe: return v >= vals[0];
      }
      return false;
    }
    case Kind::kIn: {
      int64_t v = get(col);
      return std::find(vals.begin(), vals.end(), v) != vals.end();
    }
    case Kind::kBetween: {
      int64_t v = get(col);
      return v >= vals[0] && v <= vals[1];
    }
    case Kind::kNot:
      return !kids[0].Eval(get);
    case Kind::kAnd:
      for (const Pred& k : kids) {
        if (!k.Eval(get)) return false;
      }
      return true;
    case Kind::kOr:
      for (const Pred& k : kids) {
        if (k.Eval(get)) return true;
      }
      return false;
  }
  return false;
}

std::string Pred::Sql(const std::vector<std::string>& names) const {
  const std::string& c = names[static_cast<size_t>(col)];
  switch (kind) {
    case Kind::kCmp:
      return c + " " + OpSql(op) + " " + std::to_string(vals[0]);
    case Kind::kIn:
      return c + " IN (" + JoinInts(vals) + ")";
    case Kind::kBetween:
      return c + " BETWEEN " + std::to_string(vals[0]) + " AND " +
             std::to_string(vals[1]);
    case Kind::kNot:
      return "NOT (" + kids[0].Sql(names) + ")";
    case Kind::kAnd:
    case Kind::kOr: {
      std::string out = "(";
      for (size_t i = 0; i < kids.size(); ++i) {
        if (i > 0) out += kind == Kind::kAnd ? " AND " : " OR ";
        out += kids[i].Sql(names);
      }
      return out + ")";
    }
  }
  return "";
}

std::string Query::Sql(const GenTable& fact, const GenTable* dim) const {
  std::vector<std::string> names;
  if (shape == Shape::kJoinCount) {
    for (const std::string& c : fact.columns) names.push_back(fact.name + "." + c);
    for (const std::string& c : dim->columns) names.push_back(dim->name + "." + c);
  } else {
    names = fact.columns;
  }
  auto list = [&](const std::vector<int>& cols) {
    std::string out;
    for (size_t i = 0; i < cols.size(); ++i) {
      if (i > 0) out += ", ";
      out += names[static_cast<size_t>(cols[i])];
    }
    return out;
  };
  const std::string where = has_where ? " WHERE " + this->where.Sql(names) : "";
  switch (shape) {
    case Shape::kCount:
      return "SELECT COUNT(*) FROM " + fact.name + where + ";";
    case Shape::kSelect:
      return "SELECT " + list(proj) + " FROM " + fact.name + where + ";";
    case Shape::kGroupBy: {
      const std::string& g = names[static_cast<size_t>(group_col)];
      const std::string& s = names[static_cast<size_t>(sum_col)];
      const std::string& m = names[static_cast<size_t>(mm_col)];
      return "SELECT " + g + ", COUNT(*), SUM(" + s + "), MIN(" + m +
             "), MAX(" + m + "), AVG(" + s + ") FROM " + fact.name + where +
             " GROUP BY " + g + ";";
    }
    case Shape::kOrderBy:
      return "SELECT " + list(proj) + " FROM " + fact.name + where +
             " ORDER BY " + names[static_cast<size_t>(order_col)] +
             (desc ? " DESC" : "") + " LIMIT " + std::to_string(limit) + ";";
    case Shape::kJoinCount:
      return "SELECT COUNT(*) FROM " + fact.name + " JOIN " + dim->name +
             " ON " + fact.name + ".K = " + dim->name + ".K" + where + ";";
  }
  return "";
}

Expected Answer(const Query& q, const GenTable& fact, const GenTable* dim) {
  const uint64_t rows = fact.rows();
  Columns cols;
  for (const auto& c : fact.data) cols.push_back(&c);
  std::vector<std::vector<int64_t>> gathered;
  if (q.shape == Query::Shape::kJoinCount) {
    // The dimension holds key k at row k, so a fact row's dimension
    // values gather through its K.
    const std::vector<int64_t>& k = fact.data[0];
    for (const auto& dc : dim->data) {
      std::vector<int64_t> g(rows);
      for (uint64_t r = 0; r < rows; ++r) g[r] = dc[static_cast<size_t>(k[r])];
      gathered.push_back(std::move(g));
    }
    for (const auto& g : gathered) cols.push_back(&g);
  }
  std::vector<uint8_t> mask =
      q.has_where ? EvalMask(q.where, cols, rows) : std::vector<uint8_t>(rows, 1);
  Expected out;
  switch (q.shape) {
    case Query::Shape::kCount:
    case Query::Shape::kJoinCount:
      out.kind = Expected::Kind::kCount;
      for (uint8_t b : mask) out.count += b;
      return out;
    case Query::Shape::kSelect:
    case Query::Shape::kOrderBy: {
      std::vector<uint64_t> idx;
      for (uint64_t r = 0; r < rows; ++r) {
        if (mask[r]) idx.push_back(r);
      }
      if (q.shape == Query::Shape::kOrderBy) {
        OrderByLimit(&idx, *cols[static_cast<size_t>(q.order_col)], q.desc,
                     q.limit);
      }
      out.kind = Expected::Kind::kRows;
      for (uint64_t r : idx) {
        std::vector<int64_t> row;
        for (int c : q.proj) row.push_back((*cols[static_cast<size_t>(c)])[r]);
        out.rows.push_back(std::move(row));
      }
      return out;
    }
    case Query::Shape::kGroupBy: {
      std::map<int64_t, GroupAcc> acc;
      const auto& g = *cols[static_cast<size_t>(q.group_col)];
      const auto& s = *cols[static_cast<size_t>(q.sum_col)];
      const auto& m = *cols[static_cast<size_t>(q.mm_col)];
      for (uint64_t r = 0; r < rows; ++r) {
        if (mask[r]) acc[g[r]].Add(s[r], m[r]);
      }
      FinishGroups(acc, &out);
      return out;
    }
  }
  return out;
}

Expected AnswerRowStore(const Query& q, const cods::RowTable& fact,
                        const cods::RowTable* dim) {
  const int nfact = static_cast<int>(fact.schema().num_columns());
  auto fact_pred = [](const Pred& p) {
    return [&p](const cods::Row& row) {
      return p.Eval([&](int c) { return row[static_cast<size_t>(c)].int64(); });
    };
  };
  Expected out;
  if (q.shape == Query::Shape::kJoinCount) {
    // Push each conjunct to its side, then hash-join on K.
    std::vector<const Pred*> kids;
    if (q.has_where && q.where.kind == Pred::Kind::kAnd) {
      for (const Pred& k : q.where.kids) kids.push_back(&k);
    } else if (q.has_where) {
      kids.push_back(&q.where);
    }
    auto uses_dim = [&](const Pred* p) {
      std::vector<const Pred*> stack{p};
      while (!stack.empty()) {
        const Pred* x = stack.back();
        stack.pop_back();
        if (x->kids.empty() && x->col >= nfact) return true;
        for (const Pred& k : x->kids) stack.push_back(&k);
      }
      return false;
    };
    auto fact_ok = [&](const cods::Row& row) {
      for (const Pred* p : kids) {
        if (!uses_dim(p) && !fact_pred(*p)(row)) return false;
      }
      return true;
    };
    auto dim_ok = [&](const cods::Row& row) {
      for (const Pred* p : kids) {
        if (uses_dim(p) &&
            !p->Eval([&](int c) {
              return row[static_cast<size_t>(c - nfact)].int64();
            })) {
          return false;
        }
      }
      return true;
    };
    auto f = Take(cods::FilterRows(fact, fact_ok, "f"), "row-store filter");
    auto d = Take(cods::FilterRows(*dim, dim_ok, "d"), "row-store filter");
    auto j = Take(cods::HashJoinRows(*f, *d, {"K"}, {}, "j"), "row-store join");
    out.kind = Expected::Kind::kCount;
    out.count = j->rows();
    return out;
  }
  std::function<bool(const cods::Row&)> keep = [](const cods::Row&) {
    return true;
  };
  if (q.has_where) keep = fact_pred(q.where);
  auto filtered = Take(cods::FilterRows(fact, keep, "f"), "row-store filter");
  std::vector<std::vector<int64_t>> rows;
  filtered->Scan([&](cods::RowId, const cods::Row& row) {
    std::vector<int64_t> r;
    for (const cods::Value& v : row) r.push_back(v.int64());
    rows.push_back(std::move(r));
  });
  switch (q.shape) {
    case Query::Shape::kCount:
      out.kind = Expected::Kind::kCount;
      out.count = rows.size();
      return out;
    case Query::Shape::kSelect:
    case Query::Shape::kOrderBy: {
      std::vector<uint64_t> idx(rows.size());
      std::iota(idx.begin(), idx.end(), uint64_t{0});
      if (q.shape == Query::Shape::kOrderBy) {
        std::vector<int64_t> key(rows.size());
        for (size_t i = 0; i < rows.size(); ++i) {
          key[i] = rows[i][static_cast<size_t>(q.order_col)];
        }
        OrderByLimit(&idx, key, q.desc, q.limit);
      }
      out.kind = Expected::Kind::kRows;
      for (uint64_t i : idx) {
        std::vector<int64_t> row;
        for (int c : q.proj) row.push_back(rows[i][static_cast<size_t>(c)]);
        out.rows.push_back(std::move(row));
      }
      return out;
    }
    case Query::Shape::kGroupBy: {
      std::map<int64_t, GroupAcc> acc;
      for (const auto& r : rows) {
        acc[r[static_cast<size_t>(q.group_col)]].Add(
            r[static_cast<size_t>(q.sum_col)], r[static_cast<size_t>(q.mm_col)]);
      }
      FinishGroups(acc, &out);
      return out;
    }
    case Query::Shape::kJoinCount:
      break;
  }
  return out;
}

bool SameAnswer(const Expected& a, const Expected& b, std::string* why) {
  if (a.kind != b.kind) {
    *why = "answer kinds differ";
    return false;
  }
  if (a.count != b.count) {
    *why = "count " + std::to_string(a.count) + " vs " + std::to_string(b.count);
    return false;
  }
  if (a.rows != b.rows) {
    *why = "rows differ (" + std::to_string(a.rows.size()) + " vs " +
           std::to_string(b.rows.size()) + " rows)";
    return false;
  }
  if (a.groups.size() != b.groups.size()) {
    *why = "group counts differ";
    return false;
  }
  for (size_t i = 0; i < a.groups.size(); ++i) {
    if (a.groups[i].first != b.groups[i].first) {
      *why = "group values differ";
      return false;
    }
    for (size_t k = 0; k < a.groups[i].second.size(); ++k) {
      if (!NearlyEqual(a.groups[i].second[k], b.groups[i].second[k])) {
        *why = "aggregate " + std::to_string(k) + " of group " +
               std::to_string(a.groups[i].first) + " differs";
        return false;
      }
    }
  }
  return true;
}

bool Matches(const Expected& want, const WireResponse& resp,
             std::string* why) {
  if (resp.type == FrameType::kError) {
    *why = "error response: " + resp.error.ToString();
    return false;
  }
  Expected got;
  got.kind = want.kind;
  switch (want.kind) {
    case Expected::Kind::kCount:
      if (resp.type != FrameType::kResultCount) {
        *why = std::string("expected a count, got ") +
               cods::server::FrameTypeToString(resp.type);
        return false;
      }
      got.count = resp.count;
      break;
    case Expected::Kind::kRows:
      if (resp.type != FrameType::kResultTable) {
        *why = std::string("expected rows, got ") +
               cods::server::FrameTypeToString(resp.type);
        return false;
      }
      for (const cods::Row& row : resp.rows) {
        std::vector<int64_t> r;
        for (const cods::Value& v : row) {
          if (!v.is_int64()) {
            *why = "non-integer value " + v.ToString();
            return false;
          }
          r.push_back(v.int64());
        }
        got.rows.push_back(std::move(r));
      }
      break;
    case Expected::Kind::kGroups: {
      if (resp.type != FrameType::kResultGroups) {
        *why = std::string("expected groups, got ") +
               cods::server::FrameTypeToString(resp.type);
        return false;
      }
      for (const cods::Row& row : resp.group_rows) {
        if (row.size() != 6 || !row[0].is_int64()) {
          *why = "malformed group row";
          return false;
        }
        std::vector<double> aggs;
        for (size_t i = 1; i < row.size(); ++i) {
          const cods::Value& v = row[i];
          if (v.is_int64()) {
            aggs.push_back(static_cast<double>(v.int64()));
          } else if (v.is_double()) {
            aggs.push_back(v.dbl());
          } else {
            *why = "non-numeric aggregate " + v.ToString();
            return false;
          }
        }
        got.groups.push_back({row[0].int64(), std::move(aggs)});
      }
      std::sort(got.groups.begin(), got.groups.end());
      break;
    }
  }
  return SameAnswer(want, got, why);
}

// ---- Statement sources ------------------------------------------------------

StmtStream::StmtStream(const StmtSource& source, uint64_t seed)
    : source_(source),
      rng_(seed),
      block_(source.Block()),
      pos_(block_.size()),
      occurrence_(static_cast<size_t>(source.NumClasses())) {
  for (uint64_t& o : occurrence_) o = rng_() % 1'000'003;
}

Stmt StmtStream::Next() {
  if (pos_ == block_.size()) {
    std::shuffle(block_.begin(), block_.end(), rng_);
    pos_ = 0;
  }
  const int cls = block_[pos_++];
  return source_.Make(cls, occurrence_[static_cast<size_t>(cls)]++, rng_);
}

PointSource::PointSource(const GenTable* table, uint64_t distinct,
                         double zipf_s, uint64_t seed)
    : table_(table),
      index_(*table, "K", distinct),
      distinct_(distinct),
      block_{0, 0, 0, 0, 0, 0, 0, 1, 1, 2} {
  if (zipf_s > 0) {
    zipf_ = std::make_unique<Zipf>(distinct, zipf_s);
    rank_to_key_.resize(distinct);
    std::iota(rank_to_key_.begin(), rank_to_key_.end(), int64_t{0});
    Rng rng(seed);
    std::shuffle(rank_to_key_.begin(), rank_to_key_.end(), rng);
  }
}

int64_t PointSource::DrawKey(Rng& rng) const {
  if (zipf_ != nullptr) return rank_to_key_[zipf_->Next(rng)];
  return UniformInt(rng, 0, static_cast<int64_t>(distinct_) - 1);
}

Stmt PointSource::Make(int cls, uint64_t, Rng& rng) const {
  Stmt s;
  s.cls = cls;
  const std::string& t = table_->name;
  s.keys[0] = DrawKey(rng);
  if (cls == 0) {
    s.nkeys = 1;
    s.text = "SELECT COUNT(*) FROM " + t + " WHERE K = " +
             std::to_string(s.keys[0]) + ";";
  } else if (cls == 1) {
    s.nkeys = 1;
    s.text = "SELECT V, P FROM " + t + " WHERE K = " +
             std::to_string(s.keys[0]) + ";";
  } else {
    s.nkeys = 3;
    s.keys[1] = DrawKey(rng);
    s.keys[2] = DrawKey(rng);
    s.text = "SELECT K, V FROM " + t + " WHERE K IN (" +
             std::to_string(s.keys[0]) + ", " + std::to_string(s.keys[1]) +
             ", " + std::to_string(s.keys[2]) + ");";
  }
  return s;
}

const char* PointSource::ClassName(int cls) const {
  static const char* const kNames[] = {"count_eq", "select_eq", "select_in"};
  return kNames[cls];
}

Expected PointSource::Expect(const Stmt& stmt) const {
  Expected e;
  if (stmt.cls == 0) {
    e.kind = Expected::Kind::kCount;
    e.count = index_.Count(stmt.keys[0]);
    return e;
  }
  e.kind = Expected::Kind::kRows;
  std::vector<int64_t> keys(stmt.keys, stmt.keys + stmt.nkeys);
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::vector<uint32_t> rows;
  for (int64_t k : keys) rows.insert(rows.end(), index_.RowsBegin(k), index_.RowsEnd(k));
  std::sort(rows.begin(), rows.end());
  const auto& d = table_->data;
  for (uint32_t r : rows) {
    if (stmt.cls == 1) {
      e.rows.push_back({d[1][r], d[2][r]});
    } else {
      e.rows.push_back({d[0][r], d[1][r]});
    }
  }
  return e;
}

bool PointSource::Verify(const Stmt& stmt, const WireResponse& resp,
                         std::string* why) const {
  return Matches(Expect(stmt), resp, why);
}

Query PointSource::AsQuery(const Stmt& stmt) const {
  Query q;
  q.has_where = true;
  if (stmt.cls == 2) {
    q.shape = Query::Shape::kSelect;
    q.proj = {0, 1};
    q.where = Pred::In(0, {stmt.keys[0], stmt.keys[1], stmt.keys[2]});
  } else {
    q.shape = stmt.cls == 0 ? Query::Shape::kCount : Query::Shape::kSelect;
    q.proj = {1, 2};
    q.where = Pred::Cmp(0, Pred::Op::kEq, stmt.keys[0]);
  }
  return q;
}

namespace {

// Pool classes of analytic_scan and their weights (percent).
enum PoolClass { kRangeCount, kNestedCount, kGroupBy, kProjection, kOrderBy,
                 kJoinCount, kNumPoolClasses };
// Class counts per block of 20: 30/20/15/15/10/10 percent.
constexpr int kPoolBlock[kNumPoolClasses] = {6, 4, 3, 3, 2, 2};
constexpr int kFK = 0, kFV = 1, kFP = 2, kDG = 4;  // column indices

}  // namespace

PoolSource::PoolSource(const GenTable* fact, const GenTable* dim,
                       int per_class, uint64_t seed)
    : by_class_(kNumPoolClasses) {
  for (int cls = 0; cls < kNumPoolClasses; ++cls) {
    block_.insert(block_.end(), static_cast<size_t>(kPoolBlock[cls]), cls);
  }
  // Each entry's shape (form, target selectivity, fan-out) comes from a
  // fixed ladder indexed by its position; the seed only picks the keys
  // and values that realize it, so the pool costs about the same for
  // every seed.
  Rng rng(seed);
  const double rows = static_cast<double>(fact->rows());
  const int64_t keys = static_cast<int64_t>(dim->rows());
  const int64_t v_max = *std::max_element(fact->data[kFV].begin(),
                                          fact->data[kFV].end());
  const int64_t p_max = *std::max_element(fact->data[kFP].begin(),
                                          fact->data[kFP].end());
  // Per-column histograms: a one-column leaf's selectivity without a scan.
  std::vector<std::map<int64_t, uint64_t>> hist(3);
  for (int c = 0; c < 3; ++c) {
    for (int64_t v : fact->data[static_cast<size_t>(c)]) ++hist[static_cast<size_t>(c)][v];
  }
  auto selectivity = [&](const Pred& leaf) {
    uint64_t n = 0;
    for (const auto& [v, count] : hist[static_cast<size_t>(leaf.col)]) {
      if (leaf.Eval([&](int) { return v; })) n += count;
    }
    return static_cast<double>(n) / rows;
  };
  // Tail keys (Zipf) make selective projections.
  std::vector<int64_t> rare;
  for (const auto& [k, count] : hist[kFK]) {
    if (count <= 400) rare.push_back(k);
  }
  auto subset = [&](int64_t max_value, int64_t n) {
    std::vector<int64_t> all(static_cast<size_t>(max_value) + 1);
    std::iota(all.begin(), all.end(), int64_t{0});
    std::shuffle(all.begin(), all.end(), rng);
    all.resize(static_cast<size_t>(std::min(n, max_value + 1)));
    std::sort(all.begin(), all.end());
    return all;
  };
  // A leaf of one of six forms with seeded values.
  auto leaf = [&](int form) {
    switch (form % 6) {
      case 0: {
        int64_t lo = UniformInt(rng, 0, keys - 1);
        return Pred::Between(kFK, lo, std::min(keys - 1, lo + UniformInt(rng, 10, 400)));
      }
      case 1: return Pred::In(kFK, subset(keys - 1, UniformInt(rng, 3, 40)));
      case 2: return Pred::Cmp(kFV, Pred::Op::kEq, UniformInt(rng, 0, v_max));
      case 3: return Pred::In(kFV, subset(v_max, 2));
      case 4: return Pred::Cmp(kFP, Pred::Op::kLt, UniformInt(rng, 1, p_max));
      default: return Pred::In(kFP, subset(p_max, UniformInt(rng, 2, 6)));
    }
  };
  // Of 64 seeded candidates of range/IN form `form`, the one whose
  // selectivity is closest to `target`.
  auto leaf_near = [&](int form, double target) {
    Pred best;
    double best_gap = 1e300;
    for (int c = 0; c < 64; ++c) {
      Pred p;
      switch (form % 4) {
        case 0: {
          int64_t a = UniformInt(rng, 0, keys - 1);
          p = Pred::Between(kFK, a, std::min(keys - 1, a + UniformInt(rng, 1, keys / 2)));
          break;
        }
        case 1:
          p = Pred::Cmp(kFK, c % 2 ? Pred::Op::kLt : Pred::Op::kGe,
                        UniformInt(rng, 1, keys - 1));
          break;
        case 2: p = Pred::In(kFK, subset(keys - 1, UniformInt(rng, 1, 80))); break;
        default: p = Pred::In(kFP, subset(p_max, UniformInt(rng, 1, 8))); break;
      }
      const double gap = std::fabs(std::log(std::max(selectivity(p), 1e-9) / target));
      if (gap < best_gap) {
        best_gap = gap;
        best = std::move(p);
      }
    }
    return best;
  };
  static constexpr double kCountLadder[] = {0.01, 0.02, 0.05, 0.1,
                                            0.2,  0.3,  0.4,  0.5};
  static constexpr double kGroupLadder[] = {0.05, 0.1, 0.2, 0.4, 0.6, 0.8};
  for (int cls = 0; cls < kNumPoolClasses; ++cls) {
    for (int i = 0; i < per_class; ++i) {
      Query q;
      q.has_where = true;
      switch (cls) {
        case kRangeCount:
          q.shape = Query::Shape::kCount;
          q.where = leaf_near(i / 8, kCountLadder[i % 8]);
          break;
        case kNestedCount: {
          q.shape = Query::Shape::kCount;
          const bool top_and = i % 2 == 0;
          std::vector<Pred> kids;
          for (int k = 0; k < 2 + (i / 2) % 2; ++k) {
            const int form = i + 2 * k;
            switch ((i / 4 + k) % 4) {
              case 0:
              case 3: kids.push_back(leaf(form)); break;
              case 1: kids.push_back(Pred::Not(leaf(form))); break;
              default: {
                std::vector<Pred> sub{leaf(form), leaf(form + 1)};
                kids.push_back(top_and ? Pred::Or(std::move(sub))
                                       : Pred::And(std::move(sub)));
              }
            }
          }
          q.where = top_and ? Pred::And(std::move(kids)) : Pred::Or(std::move(kids));
          break;
        }
        case kGroupBy:
          q.shape = Query::Shape::kGroupBy;
          q.group_col = i % 2 ? kFV : kFP;
          q.sum_col = q.group_col == kFV ? kFP : kFV;
          q.mm_col = q.sum_col;
          q.has_where = (i / 2) % 2 == 1;
          if (q.has_where) q.where = leaf_near(i / 4, kGroupLadder[(i / 4) % 6]);
          break;
        case kProjection: {
          q.shape = Query::Shape::kSelect;
          std::vector<int64_t> picked;
          for (int k = 0; k <= i % 3; ++k) {
            picked.push_back(rare[static_cast<size_t>(
                UniformInt(rng, 0, static_cast<int64_t>(rare.size()) - 1))]);
          }
          q.where = Pred::In(kFK, picked);
          if ((i / 3) % 2 == 1) {
            q.where = Pred::And({q.where, Pred::Cmp(kFV, Pred::Op::kNe,
                                                    UniformInt(rng, 0, v_max))});
          }
          q.proj = (i / 6) % 2 ? std::vector<int>{kFK, kFV, kFP}
                               : std::vector<int>{kFV, kFP};
          break;
        }
        case kOrderBy:
          q.shape = Query::Shape::kOrderBy;
          q.where = leaf_near(i / 8, kCountLadder[i % 8]);
          q.proj = {kFK, kFV, kFP};
          q.order_col = kFK;
          q.desc = (i + i / 8) % 2 == 1;
          q.limit = 100;
          break;
        case kJoinCount: {
          q.shape = Query::Shape::kJoinCount;
          q.where = Pred::Cmp(kDG, Pred::Op::kLt, 1 + i % 9);
          if ((i / 9) % 2 == 1) {
            q.where = Pred::And({q.where, Pred::Cmp(kFV, Pred::Op::kEq,
                                                    UniformInt(rng, 0, v_max))});
          }
          break;
        }
      }
      by_class_[static_cast<size_t>(cls)].push_back(static_cast<int>(queries_.size()));
      texts_.push_back(q.Sql(*fact, dim));
      expected_.push_back(Answer(q, *fact, dim));
      queries_.push_back(std::move(q));
    }
  }
}

Stmt PoolSource::Make(int cls, uint64_t occurrence, Rng&) const {
  const std::vector<int>& entries = by_class_[static_cast<size_t>(cls)];
  Stmt s;
  s.cls = cls;
  s.pool = entries[occurrence % entries.size()];
  s.text = texts_[static_cast<size_t>(s.pool)];
  return s;
}

bool PoolSource::Verify(const Stmt& stmt, const WireResponse& resp,
                        std::string* why) const {
  return Matches(expected_[static_cast<size_t>(stmt.pool)], resp, why);
}

const char* PoolSource::ClassName(int cls) const {
  static const char* const kNames[] = {"range_count", "nested_count",
                                       "group_by",    "projection",
                                       "order_by",    "join_count"};
  return kNames[cls];
}

Query PoolSource::AsQuery(const Stmt& stmt) const {
  return queries_[static_cast<size_t>(stmt.pool)];
}

Expected PoolSource::Expect(const Stmt& stmt) const {
  return expected_[static_cast<size_t>(stmt.pool)];
}

CheckCount RowStoreCrossCheck(const StmtSource& source, int n, uint64_t seed,
                              cods::server::Client* client,
                              const cods::Table& fact,
                              const cods::Table* dim) {
  auto row_fact = Take(cods::MaterializeToRowStore(fact), "row-store copy");
  std::unique_ptr<cods::RowTable> row_dim;
  if (dim != nullptr) {
    row_dim = Take(cods::MaterializeToRowStore(*dim), "row-store copy");
  }
  StmtStream stream(source, seed);
  CheckCount out;
  for (int tries = 0; out.checked < static_cast<uint64_t>(n) && tries < 10000;
       ++tries) {
    Stmt stmt = stream.Next();
    Query q = source.AsQuery(stmt);
    if (q.shape == Query::Shape::kCount) continue;
    ++out.checked;
    Expected want = source.Expect(stmt);
    Expected row = AnswerRowStore(q, *row_fact, row_dim.get());
    auto resp = client->Execute(stmt.text);
    std::string why;
    bool ok = SameAnswer(want, row, &why);
    if (!ok) {
      why = "row store vs oracle: " + why;
    } else if (!resp.ok()) {
      ok = false;
      why = resp.status().ToString();
    } else {
      ok = Matches(want, resp.ValueOrDie(), &why);
    }
    if (!ok) {
      ++out.failed;
      std::fprintf(stderr, "row-store cross-check failed: %s: %s\n",
                   stmt.text.c_str(), why.c_str());
    }
  }
  return out;
}

// ---- Evolution scripts ------------------------------------------------------

std::vector<std::string> EvolutionRound(const std::string& t, int64_t split) {
  return {
      "DECOMPOSE TABLE " + t + " INTO " + t + "_s(K, V), " + t +
          "_t(K, P) KEY(K);",
      "MERGE TABLES " + t + "_s, " + t + "_t INTO " + t + " ON (K);",
      "PARTITION TABLE " + t + " INTO " + t + "_lo, " + t + "_hi WHERE K < " +
          std::to_string(split) + ";",
      "UNION TABLES " + t + "_lo, " + t + "_hi INTO " + t + ";",
  };
}

std::vector<std::string> OnlineCycle(const std::string& t, int64_t split) {
  std::vector<std::string> round = EvolutionRound(t, split);
  return {
      round[0],
      "ADD COLUMN X INT64 TO " + t + "_t DEFAULT 0;",
      "RENAME COLUMN X TO Y IN " + t + "_t;",
      "DROP COLUMN Y FROM " + t + "_t;",
      round[1],
      round[2],
      round[3],
  };
}

std::string SmoOpName(const std::string& text) {
  return text.substr(0, text.find(' '));
}

bool IsHeavySmo(const std::string& text) {
  const std::string op = SmoOpName(text);
  return op == "DECOMPOSE" || op == "MERGE" || op == "PARTITION" ||
         op == "UNION";
}

}  // namespace cods_bench
