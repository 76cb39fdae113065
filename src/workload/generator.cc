#include "workload/generator.h"

#include "common/logging.h"

namespace cods {

namespace {

// Value for id `i` of an attribute: integer or a deterministic string.
Value MakeValue(uint64_t i, bool integer_values, const char* prefix) {
  if (integer_values) {
    return Value(static_cast<int64_t>(i));
  }
  return Value(std::string(prefix) + std::to_string(i));
}

Schema MakeRSchema(bool integer_values) {
  DataType t = integer_values ? DataType::kInt64 : DataType::kString;
  return Schema({ColumnSpec{kKeyColumn, t},
                 ColumnSpec{kPayloadColumn, t},
                 ColumnSpec{kDependentColumn, t}},
                {});
}

}  // namespace

Result<std::shared_ptr<const Table>> GenerateEvolutionTable(
    const WorkloadSpec& spec, const std::string& name) {
  if (spec.num_distinct == 0 || spec.num_rows < spec.num_distinct) {
    return Status::InvalidArgument(
        "need num_rows >= num_distinct >= 1 so every key value appears");
  }
  Rng rng(spec.seed);
  std::unique_ptr<ZipfSampler> zipf;
  if (spec.zipf_s > 0) {
    zipf = std::make_unique<ZipfSampler>(spec.num_distinct, spec.zipf_s);
  }
  DataType t = spec.integer_values ? DataType::kInt64 : DataType::kString;
  TableBuilder builder(name, MakeRSchema(spec.integer_values));
  (void)t;
  for (uint64_t r = 0; r < spec.num_rows; ++r) {
    // First pass through the domain guarantees every key appears at
    // least once (so #distinct is exact); afterwards keys are sampled.
    uint64_t key;
    if (r < spec.num_distinct) {
      key = r;
    } else if (zipf != nullptr) {
      key = zipf->Next(rng);
    } else {
      key = static_cast<uint64_t>(
          rng.Uniform(0, static_cast<int64_t>(spec.num_distinct) - 1));
    }
    uint64_t payload = static_cast<uint64_t>(
        rng.Uniform(0, static_cast<int64_t>(spec.payload_distinct) - 1));
    // FD K -> P: the dependent value is a pure function of the key.
    uint64_t dependent =
        (key * 2654435761u) % spec.dependent_distinct;
    Row row{MakeValue(key, spec.integer_values, "key"),
            MakeValue(payload, spec.integer_values, "val"),
            MakeValue(dependent, spec.integer_values, "addr")};
    CODS_RETURN_NOT_OK(builder.AppendRow(row));
  }
  return builder.Finish();
}

Result<GeneratedPair> GenerateMergePair(const WorkloadSpec& spec,
                                        const std::string& s_name,
                                        const std::string& t_name) {
  CODS_ASSIGN_OR_RETURN(auto r, GenerateEvolutionTable(spec, "Rtmp"));
  DataType t = spec.integer_values ? DataType::kInt64 : DataType::kString;

  GeneratedPair out;
  // S(K, V): reuse R's first two columns (same trick CODS itself uses).
  {
    Schema schema({ColumnSpec{kKeyColumn, t},
                   ColumnSpec{kPayloadColumn, t}},
                  {});
    CODS_ASSIGN_OR_RETURN(
        out.s, Table::Make(s_name, schema, {r->column(0), r->column(1)},
                           r->rows()));
  }
  // T(K, P): one row per distinct key, in key-id order.
  {
    Schema schema({ColumnSpec{kKeyColumn, t},
                   ColumnSpec{kDependentColumn, t}},
                  {kKeyColumn});
    TableBuilder builder(t_name, schema);
    for (uint64_t key = 0; key < spec.num_distinct; ++key) {
      uint64_t dependent = (key * 2654435761u) % spec.dependent_distinct;
      Row row{MakeValue(key, spec.integer_values, "key"),
              MakeValue(dependent, spec.integer_values, "addr")};
      CODS_RETURN_NOT_OK(builder.AppendRow(row));
    }
    CODS_ASSIGN_OR_RETURN(out.t, builder.Finish());
  }
  return out;
}

Result<GeneratedPair> GenerateGeneralMergePair(uint64_t num_join_values,
                                               uint64_t s_fanout,
                                               uint64_t t_fanout,
                                               uint64_t seed,
                                               const std::string& s_name,
                                               const std::string& t_name) {
  if (num_join_values == 0 || s_fanout == 0 || t_fanout == 0) {
    return Status::InvalidArgument("fanouts and join domain must be >= 1");
  }
  Rng rng(seed);
  GeneratedPair out;
  {
    Schema schema({ColumnSpec{"J", DataType::kInt64},
                   ColumnSpec{"A", DataType::kInt64}},
                  {});
    TableBuilder builder(s_name, schema);
    for (uint64_t v = 0; v < num_join_values; ++v) {
      for (uint64_t i = 0; i < s_fanout; ++i) {
        Row row{Value(static_cast<int64_t>(v)),
                Value(rng.Uniform(0, 999))};
        CODS_RETURN_NOT_OK(builder.AppendRow(row));
      }
    }
    CODS_ASSIGN_OR_RETURN(out.s, builder.Finish());
  }
  {
    Schema schema({ColumnSpec{"J", DataType::kInt64},
                   ColumnSpec{"B", DataType::kInt64}},
                  {});
    TableBuilder builder(t_name, schema);
    for (uint64_t v = 0; v < num_join_values; ++v) {
      for (uint64_t i = 0; i < t_fanout; ++i) {
        Row row{Value(static_cast<int64_t>(v)),
                Value(rng.Uniform(0, 999))};
        CODS_RETURN_NOT_OK(builder.AppendRow(row));
      }
    }
    CODS_ASSIGN_OR_RETURN(out.t, builder.Finish());
  }
  return out;
}

}  // namespace cods
