// The benchmark's inputs and its independent oracle.
//
// Every table is generated here from the run's seed as plain int64
// columns (the ground truth), then handed to the system only through its
// public row-ingest path (TableBuilder). Statements are generated as a
// small predicate AST that renders to statement text for the server and
// evaluates row by row for the oracle, so every answer the system gives
// is checked against a computation that shares no code with it.

#ifndef CODS_BENCH_BENCH_DATA_H_
#define CODS_BENCH_BENCH_DATA_H_

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "rowstore/row_table.h"
#include "server/client.h"
#include "server/wire.h"
#include "storage/table.h"

namespace cods_bench {

using Rng = std::mt19937_64;

/// Uniform integer in [lo, hi].
int64_t UniformInt(Rng& rng, int64_t lo, int64_t hi);
/// Exponential variate with the given mean.
double Exponential(Rng& rng, double mean);

/// Zipf(s) over ranks 0..n-1 by inverse CDF.
class Zipf {
 public:
  Zipf(uint64_t n, double s);
  uint64_t Next(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

// ---- Tables -----------------------------------------------------------------

/// A generated table: the ground truth, column-major.
struct GenTable {
  std::string name;
  std::vector<std::string> columns;
  std::vector<std::vector<int64_t>> data;  // data[c][row]
  std::vector<std::string> key;            // declared key

  uint64_t rows() const { return data.empty() ? 0 : data[0].size(); }
  int Col(const std::string& column) const;  // index; dies if unknown
};

/// Shape of an R(K, V, P) table as in the paper's Fig. 3 workload: K is
/// the key attribute, P is functionally determined by K (so DECOMPOSE
/// into (K, V) and (K, P) is lossless), V is an independent payload.
struct KvpSpec {
  uint64_t rows = 0;
  uint64_t k_distinct = 0;
  /// 0: every key appears rows / k_distinct times (rows must divide);
  /// > 0: each key once, the remaining rows drawn Zipf(k_zipf) over a
  /// seeded rank → key permutation.
  double k_zipf = 0;
  uint64_t v_distinct = 0;
  uint64_t p_distinct = 0;
  uint64_t seed = 0;
};

/// Generates R(K, V, P) in random row order.
GenTable GenerateKvp(const std::string& name, const KvpSpec& spec);
/// Generates a dimension D(K, G), one row per key 0..keys-1, declared
/// key K; G is a pseudo-random grade in [0, grades).
GenTable GenerateDim(const std::string& name, uint64_t keys, uint64_t grades,
                     uint64_t seed);

/// The row order an EvolutionRound(t, split) leaves behind: DECOMPOSE
/// and MERGE keep row order, PARTITION keeps it within each part, and
/// UNION appends the K >= split part after the K < split part.
GenTable AfterRound(const GenTable& g, int64_t split);

/// Builds the system's table from the ground truth through TableBuilder,
/// the public row-ingest path.
std::shared_ptr<const cods::Table> BuildTable(const GenTable& g);

/// Order-independent digest of a table's rows (count + 64-bit sum of
/// per-row hashes), for checking that evolution preserved the data.
struct Digest {
  uint64_t rows = 0;
  uint64_t sum = 0;
  bool operator==(const Digest& o) const {
    return rows == o.rows && sum == o.sum;
  }
};
/// Digest of the ground truth restricted to `columns` (in that order).
Digest DigestOf(const GenTable& g, const std::vector<std::string>& columns);
/// Digest of a stored table, decoded column by column.
Digest DigestOf(const cods::Table& t, const std::vector<std::string>& columns);

/// Rows holding each key value, ascending: the point-lookup oracle.
class KeyIndex {
 public:
  KeyIndex(const GenTable& g, const std::string& column, uint64_t distinct);
  uint64_t Count(int64_t key) const;
  const uint32_t* RowsBegin(int64_t key) const;
  const uint32_t* RowsEnd(int64_t key) const;

 private:
  std::vector<uint32_t> offsets_;
  std::vector<uint32_t> rows_;
};

// ---- Statements and their oracle ----------------------------------------

/// A predicate over int64 columns, rendered to statement text and
/// evaluated row by row.
struct Pred {
  enum class Kind { kCmp, kIn, kBetween, kNot, kAnd, kOr };
  enum class Op { kEq, kNe, kLt, kLe, kGt, kGe };
  Kind kind = Kind::kCmp;
  int col = 0;  // index into the name/value space of the statement
  Op op = Op::kEq;
  std::vector<int64_t> vals;  // cmp: 1; between: lo, hi; in: candidates
  std::vector<Pred> kids;

  static Pred Cmp(int col, Op op, int64_t v);
  static Pred In(int col, std::vector<int64_t> vals);
  static Pred Between(int col, int64_t lo, int64_t hi);
  static Pred Not(Pred kid);
  static Pred And(std::vector<Pred> kids);
  static Pred Or(std::vector<Pred> kids);

  std::string Sql(const std::vector<std::string>& names) const;
  /// `get(col)` returns the row's value of column `col`.
  template <typename Get>
  bool Eval(const Get& get) const;
};

/// One query in the shapes the workloads issue. Column indices refer to
/// the fact table's columns, then (joins only) the dimension's.
struct Query {
  enum class Shape { kCount, kSelect, kGroupBy, kOrderBy, kJoinCount };
  Shape shape = Shape::kCount;
  std::vector<int> proj;  // kSelect / kOrderBy output columns
  bool has_where = false;
  Pred where;
  int group_col = 0;   // kGroupBy: COUNT(*), SUM(sum_col), MIN/MAX(mm_col),
  int sum_col = 0;     //   AVG(sum_col)
  int mm_col = 0;
  int order_col = 0;   // kOrderBy
  bool desc = false;
  int64_t limit = 0;

  std::string Sql(const GenTable& fact, const GenTable* dim) const;
};

/// The expected answer of one statement.
struct Expected {
  enum class Kind { kCount, kRows, kGroups };
  Kind kind = Kind::kCount;
  uint64_t count = 0;
  std::vector<std::vector<int64_t>> rows;  // in answer order
  /// Group value -> aggregates (COUNT, SUM, MIN, MAX, AVG) as doubles,
  /// sorted by group value.
  std::vector<std::pair<int64_t, std::vector<double>>> groups;
};

/// Answers `q` over the ground truth (joins: on fact.K = dim.K).
Expected Answer(const Query& q, const GenTable& fact, const GenTable* dim);
/// Answers `q` through the row store: MaterializeToRowStore copies of
/// the system's tables, filtered with row_executor's FilterRows /
/// HashJoinRows; grouping and ordering are finished here.
Expected AnswerRowStore(const Query& q, const cods::RowTable& fact,
                        const cods::RowTable* dim);

/// True when `resp` is exactly the expected answer; `why` says how not.
bool Matches(const Expected& want, const cods::server::WireResponse& resp,
             std::string* why);
bool SameAnswer(const Expected& a, const Expected& b, std::string* why);

/// One statement of a generated stream.
struct Stmt {
  std::string text;
  int cls = 0;    // statement class, for per-class breakdowns
  int pool = -1;  // PoolSource entry
  int nkeys = 0;  // PointSource: looked-up keys
  int64_t keys[3] = {0, 0, 0};
};

/// A statement mix with an oracle. The mix is one block of class ids in
/// its exact proportions; streams deal the block in a seeded order, so a
/// run's class counts never drift from the mix.
class StmtSource {
 public:
  virtual ~StmtSource() = default;
  virtual const std::vector<int>& Block() const = 0;
  /// A statement of class `cls`; `occurrence` numbers this stream's
  /// statements of that class (from a seeded offset).
  virtual Stmt Make(int cls, uint64_t occurrence, Rng& rng) const = 0;
  virtual bool Verify(const Stmt& stmt,
                      const cods::server::WireResponse& resp,
                      std::string* why) const = 0;
  virtual int NumClasses() const = 0;
  virtual const char* ClassName(int cls) const = 0;
  /// The statement as a Query (row-store cross-checks).
  virtual Query AsQuery(const Stmt& stmt) const = 0;
  /// The ground-truth answer.
  virtual Expected Expect(const Stmt& stmt) const = 0;
};

/// One seeded stream of a source (one per connection).
class StmtStream {
 public:
  StmtStream(const StmtSource& source, uint64_t seed);
  Stmt Next();

 private:
  const StmtSource& source_;
  Rng rng_;
  std::vector<int> block_;
  size_t pos_;
  std::vector<uint64_t> occurrence_;
};

/// point_lookup's mix over an R(K, V, P) table: 70% COUNT WHERE K = k,
/// 20% SELECT V, P WHERE K = k, 10% SELECT K, V WHERE K IN (k1, k2, k3);
/// keys drawn Zipf(zipf_s) (0 = uniform) over a seeded rank → key map.
class PointSource : public StmtSource {
 public:
  PointSource(const GenTable* table, uint64_t distinct, double zipf_s,
              uint64_t seed);
  const std::vector<int>& Block() const override { return block_; }
  Stmt Make(int cls, uint64_t occurrence, Rng& rng) const override;
  bool Verify(const Stmt& stmt, const cods::server::WireResponse& resp,
              std::string* why) const override;
  int NumClasses() const override { return 3; }
  const char* ClassName(int cls) const override;
  Query AsQuery(const Stmt& stmt) const override;
  Expected Expect(const Stmt& stmt) const override;

 private:
  int64_t DrawKey(Rng& rng) const;

  const GenTable* table_;
  KeyIndex index_;
  uint64_t distinct_;
  std::unique_ptr<Zipf> zipf_;
  std::vector<int64_t> rank_to_key_;
  std::vector<int> block_;
};

/// analytic_scan's mix: a seeded pool of statements per class with
/// precomputed answers; a stream cycles through each class's entries.
class PoolSource : public StmtSource {
 public:
  /// Classes: range/IN COUNT 30%, nested AND/OR/NOT COUNT 20%, GROUP BY
  /// 15%, filtered projection 15%, ORDER BY LIMIT 10%, JOIN COUNT 10%.
  PoolSource(const GenTable* fact, const GenTable* dim, int per_class,
             uint64_t seed);
  const std::vector<int>& Block() const override { return block_; }
  Stmt Make(int cls, uint64_t occurrence, Rng& rng) const override;
  bool Verify(const Stmt& stmt, const cods::server::WireResponse& resp,
              std::string* why) const override;
  int NumClasses() const override { return 6; }
  const char* ClassName(int cls) const override;
  Query AsQuery(const Stmt& stmt) const override;
  Expected Expect(const Stmt& stmt) const override;

 private:
  std::vector<Query> queries_;
  std::vector<std::string> texts_;
  std::vector<Expected> expected_;
  std::vector<std::vector<int>> by_class_;
  std::vector<int> block_;
};

/// Outcome of a batch of checks.
struct CheckCount {
  uint64_t checked = 0;
  uint64_t failed = 0;
};

/// Draws a seeded sample of `n` row-returning statements (SELECT, GROUP
/// BY, ORDER BY, JOIN) from `source`, runs each over `client`, and
/// requires the wire answer, the ground-truth oracle and the row-store
/// answer (over MaterializeToRowStore copies of `fact` / `dim`) to agree.
CheckCount RowStoreCrossCheck(const StmtSource& source, int n, uint64_t seed,
                              cods::server::Client* client,
                              const cods::Table& fact, const cods::Table* dim);

// ---- Evolution scripts --------------------------------------------------

/// One evolution round over an R(K, V, P) table `t` that restores it:
/// DECOMPOSE → MERGE → PARTITION (K < split) → UNION.
std::vector<std::string> EvolutionRound(const std::string& t, int64_t split);
/// evolve_online's writer cycle: DECOMPOSE, ADD/RENAME/DROP COLUMN on the
/// keyed half, MERGE, PARTITION, UNION — restoring the table.
std::vector<std::string> OnlineCycle(const std::string& t, int64_t split);
/// True for DECOMPOSE / MERGE / PARTITION / UNION statements.
bool IsHeavySmo(const std::string& text);
/// Short operator name of an SMO statement ("DECOMPOSE", "ADD", ...).
std::string SmoOpName(const std::string& text);

}  // namespace cods_bench

#endif  // CODS_BENCH_BENCH_DATA_H_
