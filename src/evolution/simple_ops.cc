#include "evolution/simple_ops.h"

#include "bitmap/codec.h"
#include "bitmap/wah_filter.h"
#include "exec/exec.h"
#include "exec/parallel_build.h"
#include "storage/value_compare.h"

namespace cods {

Result<std::shared_ptr<const Table>> MakeEmptyTable(const std::string& name,
                                                    const Schema& schema) {
  std::vector<std::shared_ptr<const Column>> cols;
  for (const ColumnSpec& spec : schema.columns()) {
    cols.push_back(Column::FromVids(spec.type, Dictionary(), {}));
  }
  return Table::Make(name, schema, std::move(cols), 0);
}

Result<std::shared_ptr<const Table>> CopyTableOp(const Table& src,
                                                 const std::string& name,
                                                 bool deep) {
  if (!deep) {
    return src.WithName(name);
  }
  // Deep copy: physically duplicate every bitmap's words by value.
  std::vector<std::shared_ptr<const Column>> cols;
  for (size_t i = 0; i < src.num_columns(); ++i) {
    const Column& c = *src.column(i);
    std::vector<ValueBitmap> copies = c.bitmaps();  // value copy
    cols.push_back(Column::FromValueBitmaps(c.type(), c.dict(),
                                            std::move(copies), c.rows()));
  }
  return Table::Make(name, src.schema(), std::move(cols), src.rows());
}

Result<std::shared_ptr<const Table>> UnionTablesOp(
    const Table& a, const Table& b, const std::string& name,
    EvolutionObserver* observer, const ExecContext* ctx) {
  if (!a.schema().SameLayout(b.schema())) {
    return Status::InvalidArgument(
        "UNION TABLES requires identical column names and types");
  }
  ExecContext exec = ResolveContext(ctx);
  const std::string op = "UNION " + a.name() + "∪" + b.name();
  const uint64_t out_rows = a.rows() + b.rows();
  std::vector<std::shared_ptr<const Column>> cols(a.num_columns());
  ScopedStep step(observer, op, "concat",
                  "concatenating compressed bitmaps of " +
                      std::to_string(a.num_columns()) + " columns");
  // Outer grain: one task per column. The dictionary merge is serial per
  // column (GetOrInsert mutates), but the per-value prefix/concat
  // assembly nests a second ParallelFor over output vids.
  CODS_RETURN_NOT_OK(ParallelFor(
      exec, 0, a.num_columns(), 1, [&](uint64_t i) -> Status {
        const Column& ca = *a.column(i);
        const Column& cb = *b.column(i);
        // Output dictionary: a's values first, then b's new values.
        Dictionary dict = ca.dict();
        std::vector<Vid> b_to_out(cb.distinct_count());
        // Inverse map: which b vid (if any) extends each output vid.
        std::vector<Vid> b_of_out(ca.distinct_count() + cb.distinct_count(),
                                  kNoVid);
        for (Vid v = 0; v < cb.distinct_count(); ++v) {
          b_to_out[v] = dict.GetOrInsert(cb.dict().value(v));
          b_of_out[b_to_out[v]] = v;
        }
        std::vector<WahBitmap> bitmaps(dict.size());
        CODS_RETURN_NOT_OK(ParallelFor(
            exec, 0, dict.size(), 16, [&](uint64_t v) {
              // Prefix: a's bitmap (values absent from a are zero runs).
              if (v < ca.distinct_count()) {
                ca.bitmap(static_cast<Vid>(v)).AppendToWah(&bitmaps[v]);
              } else {
                bitmaps[v].AppendRun(false, a.rows());
              }
              // Suffix: b's bitmap streamed onto the compressed form
              // (WAH containers splice code words when a.rows() is
              // group-aligned; array/bitset containers append their
              // groups without materializing an intermediate).
              if (b_of_out[v] != kNoVid) {
                cb.bitmap(b_of_out[v]).AppendToWah(&bitmaps[v]);
              } else {
                bitmaps[v].AppendRun(false, b.rows());
              }
              return Status::OK();
            }));
        cols[i] = Column::FromBitmaps(ca.type(), std::move(dict),
                                      std::move(bitmaps), out_rows, &exec);
        return Status::OK();
      }));
  // Keys rarely survive a union (duplicates may appear); drop them.
  CODS_ASSIGN_OR_RETURN(Schema schema,
                        Schema::Make(a.schema().columns(), {}));
  return Table::Make(name, std::move(schema), std::move(cols), out_rows);
}

Result<PartitionResult> PartitionTableOp(
    const Table& src, const std::string& name1, const std::string& name2,
    const std::string& column, CompareOp op, const Value& literal,
    EvolutionObserver* observer, const ExecContext* ctx) {
  ExecContext exec = ResolveContext(ctx);
  const std::string opname = "PARTITION " + src.name();
  CODS_ASSIGN_OR_RETURN(auto pred_col, src.ColumnByName(column));
  // Selection bitmap: single-pass k-way union of the bitmaps of
  // qualifying dictionary values, evaluated on compressed words.
  ValueBitmap selection;
  {
    ScopedStep step(observer, opname, "select",
                    column + " " + std::string(CompareOpToString(op)) + " " +
                        literal.ToString());
    std::vector<const ValueBitmap*> qualifying;
    for (Vid v = 0; v < pred_col->distinct_count(); ++v) {
      if (EvalCompare(pred_col->dict().value(v), op, literal)) {
        qualifying.push_back(&pred_col->bitmap(v));
      }
    }
    selection = CodecOrMany(qualifying, src.rows());
  }
  std::vector<uint64_t> pos1 = selection.SetPositions();
  std::vector<uint64_t> pos2 = CodecNot(selection).SetPositions();

  auto build_side = [&](const std::string& name,
                        const std::vector<uint64_t>& positions)
      -> Result<std::shared_ptr<const Table>> {
    WahPositionFilter filter(positions, src.rows());
    std::vector<std::shared_ptr<const Column>> cols(src.num_columns());
    // Column tasks nest the per-vid filter tasks inside
    // FilterColumnBitmaps.
    CODS_RETURN_NOT_OK(ParallelFor(
        exec, 0, src.num_columns(), 1, [&](uint64_t i) -> Status {
          CODS_ASSIGN_OR_RETURN(
              cols[i], FilterColumnBitmaps(exec, *src.column(i), filter));
          return Status::OK();
        }));
    return Table::Make(name, src.schema(), std::move(cols),
                       positions.size());
  };

  PartitionResult result;
  {
    ScopedStep step(observer, opname, "filtering",
                    std::to_string(pos1.size()) + " + " +
                        std::to_string(pos2.size()) + " rows");
    CODS_ASSIGN_OR_RETURN(result.matching, build_side(name1, pos1));
    CODS_ASSIGN_OR_RETURN(result.rest, build_side(name2, pos2));
  }
  return result;
}

Result<std::shared_ptr<const Table>> AddColumnOp(const Table& src,
                                                 const ColumnSpec& spec,
                                                 const Value& default_value) {
  CODS_ASSIGN_OR_RETURN(DataType vtype, default_value.type());
  if (vtype != spec.type) {
    return Status::TypeError("default value type does not match column type");
  }
  CODS_ASSIGN_OR_RETURN(Schema schema, src.schema().AddColumn(spec));
  Dictionary dict;
  dict.GetOrInsert(default_value);
  WahBitmap all_ones;
  all_ones.AppendRun(true, src.rows());
  std::vector<WahBitmap> bitmaps;
  bitmaps.push_back(std::move(all_ones));
  std::vector<std::shared_ptr<const Column>> cols;
  for (size_t i = 0; i < src.num_columns(); ++i) cols.push_back(src.column(i));
  cols.push_back(Column::FromBitmaps(spec.type, std::move(dict),
                                     std::move(bitmaps), src.rows()));
  return Table::Make(src.name(), std::move(schema), std::move(cols),
                     src.rows());
}

Result<std::shared_ptr<const Table>> AddColumnWithDataOp(
    const Table& src, const ColumnSpec& spec,
    const std::vector<Value>& values) {
  if (values.size() != src.rows()) {
    return Status::InvalidArgument(
        "ADD COLUMN data has " + std::to_string(values.size()) +
        " values for " + std::to_string(src.rows()) + " rows");
  }
  CODS_ASSIGN_OR_RETURN(Schema schema, src.schema().AddColumn(spec));
  Dictionary dict;
  std::vector<Vid> vids;
  vids.reserve(values.size());
  for (const Value& v : values) {
    CODS_ASSIGN_OR_RETURN(DataType vtype, v.type());
    if (vtype != spec.type) {
      return Status::TypeError("value " + v.ToString() +
                               " does not match new column type");
    }
    vids.push_back(dict.GetOrInsert(v));
  }
  std::vector<std::shared_ptr<const Column>> cols;
  for (size_t i = 0; i < src.num_columns(); ++i) cols.push_back(src.column(i));
  cols.push_back(Column::FromVids(spec.type, std::move(dict), vids));
  return Table::Make(src.name(), std::move(schema), std::move(cols),
                     src.rows());
}

Result<std::shared_ptr<const Table>> DropColumnOp(const Table& src,
                                                  const std::string& column) {
  CODS_ASSIGN_OR_RETURN(Schema schema, src.schema().DropColumn(column));
  CODS_ASSIGN_OR_RETURN(size_t idx, src.schema().ColumnIndex(column));
  std::vector<std::shared_ptr<const Column>> cols;
  for (size_t i = 0; i < src.num_columns(); ++i) {
    if (i != idx) cols.push_back(src.column(i));
  }
  return Table::Make(src.name(), std::move(schema), std::move(cols),
                     src.rows());
}

Result<std::shared_ptr<const Table>> RenameColumnOp(const Table& src,
                                                    const std::string& from,
                                                    const std::string& to) {
  CODS_ASSIGN_OR_RETURN(Schema schema, src.schema().RenameColumn(from, to));
  std::vector<std::shared_ptr<const Column>> cols;
  for (size_t i = 0; i < src.num_columns(); ++i) cols.push_back(src.column(i));
  return Table::Make(src.name(), std::move(schema), std::move(cols),
                     src.rows());
}

}  // namespace cods
