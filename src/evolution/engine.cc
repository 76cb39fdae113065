#include "evolution/engine.h"

namespace cods {

namespace {

// A two-input operator (UNION, MERGE) reading one table twice, or a
// two-output one (PARTITION, DECOMPOSE) writing one name twice, would
// hand both operands or both results the same catalog slot.
Status RejectAliasedNames(const Smo& smo) {
  const bool two_inputs = smo.kind == SmoKind::kUnionTables ||
                          smo.kind == SmoKind::kMergeTables;
  const std::string& name = two_inputs ? smo.table : smo.out1;
  if (name != (two_inputs ? smo.table2 : smo.out2)) return Status::OK();
  return Status::InvalidArgument("table '" + name + "' is named twice");
}

}  // namespace

EvolutionEngine::EvolutionEngine(Catalog* catalog,
                                 EvolutionObserver* observer,
                                 EngineOptions options)
    : catalog_(catalog),
      snapshots_(nullptr),
      observer_(observer),
      options_(options),
      exec_ctx_(options.num_threads) {
  CODS_CHECK(catalog_ != nullptr);
  CODS_CHECK(options_.wal == nullptr) << "the WAL is snapshot-mode only";
}

Status EvolutionEngine::MaybeValidate(const Table& table) {
  if (!options_.validate_outputs) return Status::OK();
  return table.ValidateInvariants(&exec_ctx_)
      .WithContext("output table '" + table.name() + "'");
}

Status EvolutionEngine::Apply(const Smo& smo) {
  return Run({smo}, nullptr, /*planned=*/false);
}

Status EvolutionEngine::ApplyAll(const std::vector<Smo>& script) {
  return Run(script, nullptr, /*planned=*/false);
}

Status EvolutionEngine::ApplyAllPlanned(const std::vector<Smo>& script,
                                        TaskGraphStats* stats) {
  return Run(script, stats, /*planned=*/true);
}

Status EvolutionEngine::ApplyTo(TableStore& store, const Smo& smo,
                                EvolutionObserver* observer) {
  switch (smo.kind) {
    case SmoKind::kCreateTable:
      return ApplyCreateTable(store, smo);
    case SmoKind::kDropTable:
      return store.DropTable(smo.table);
    case SmoKind::kRenameTable:
      return store.RenameTable(smo.table, smo.new_name);
    case SmoKind::kCopyTable: {
      CODS_ASSIGN_OR_RETURN(auto src, store.GetTable(smo.table));
      CODS_ASSIGN_OR_RETURN(auto copy,
                            CopyTableOp(*src, smo.out1, options_.deep_copy));
      return store.AddTable(std::move(copy));
    }
    case SmoKind::kUnionTables:
      return ApplyUnion(store, smo, observer);
    case SmoKind::kPartitionTable:
      return ApplyPartition(store, smo, observer);
    case SmoKind::kDecomposeTable:
      return ApplyDecompose(store, smo, observer);
    case SmoKind::kMergeTables:
      return ApplyMerge(store, smo, observer);
    case SmoKind::kAddColumn:
    case SmoKind::kDropColumn:
    case SmoKind::kRenameColumn:
      return ApplyColumnOp(store, smo);
  }
  return Status::NotImplemented("unknown SMO kind");
}

Status EvolutionEngine::ApplyCreateTable(TableStore& store, const Smo& smo) {
  CODS_ASSIGN_OR_RETURN(auto table, MakeEmptyTable(smo.out1, smo.schema));
  return store.AddTable(std::move(table));
}

Status EvolutionEngine::ApplyDecompose(TableStore& store, const Smo& smo,
                                       EvolutionObserver* observer) {
  CODS_RETURN_NOT_OK(RejectAliasedNames(smo));
  CODS_ASSIGN_OR_RETURN(auto r, store.GetTable(smo.table));
  if (smo.out1 != smo.table && store.HasTable(smo.out1)) {
    return Status::AlreadyExists("table '" + smo.out1 + "' already exists");
  }
  if (smo.out2 != smo.table && store.HasTable(smo.out2)) {
    return Status::AlreadyExists("table '" + smo.out2 + "' already exists");
  }
  DecomposeOptions opts;
  opts.validate_fd = options_.validate_preconditions;
  opts.exec = &exec_ctx_;
  CODS_ASSIGN_OR_RETURN(
      DecomposeResult result,
      CodsDecompose(*r, smo.out1, smo.columns1, smo.key1, smo.out2,
                    smo.columns2, smo.key2, observer, opts));
  CODS_RETURN_NOT_OK(MaybeValidate(*result.s));
  CODS_RETURN_NOT_OK(MaybeValidate(*result.t));
  CODS_RETURN_NOT_OK(store.DropTable(smo.table));
  store.PutTable(std::move(result.s));
  store.PutTable(std::move(result.t));
  return Status::OK();
}

Status EvolutionEngine::ApplyMerge(TableStore& store, const Smo& smo,
                                   EvolutionObserver* observer) {
  CODS_RETURN_NOT_OK(RejectAliasedNames(smo));
  CODS_ASSIGN_OR_RETURN(auto s, store.GetTable(smo.table));
  CODS_ASSIGN_OR_RETURN(auto t, store.GetTable(smo.table2));
  if (smo.out1 != smo.table && smo.out1 != smo.table2 &&
      store.HasTable(smo.out1)) {
    return Status::AlreadyExists("table '" + smo.out1 + "' already exists");
  }
  MergeOptions opts;
  opts.validate_key = options_.validate_preconditions;
  opts.exec = &exec_ctx_;
  CODS_ASSIGN_OR_RETURN(MergeResult result,
                        CodsMerge(*s, *t, smo.columns1, smo.key1, smo.out1,
                                  observer, opts));
  CODS_RETURN_NOT_OK(MaybeValidate(*result.table));
  CODS_RETURN_NOT_OK(store.DropTable(smo.table));
  CODS_RETURN_NOT_OK(store.DropTable(smo.table2));
  store.PutTable(std::move(result.table));
  return Status::OK();
}

Status EvolutionEngine::ApplyUnion(TableStore& store, const Smo& smo,
                                   EvolutionObserver* observer) {
  CODS_RETURN_NOT_OK(RejectAliasedNames(smo));
  CODS_ASSIGN_OR_RETURN(auto a, store.GetTable(smo.table));
  CODS_ASSIGN_OR_RETURN(auto b, store.GetTable(smo.table2));
  if (smo.out1 != smo.table && smo.out1 != smo.table2 &&
      store.HasTable(smo.out1)) {
    return Status::AlreadyExists("table '" + smo.out1 + "' already exists");
  }
  CODS_ASSIGN_OR_RETURN(
      auto out, UnionTablesOp(*a, *b, smo.out1, observer, &exec_ctx_));
  CODS_RETURN_NOT_OK(MaybeValidate(*out));
  CODS_RETURN_NOT_OK(store.DropTable(smo.table));
  CODS_RETURN_NOT_OK(store.DropTable(smo.table2));
  store.PutTable(std::move(out));
  return Status::OK();
}

Status EvolutionEngine::ApplyPartition(TableStore& store, const Smo& smo,
                                       EvolutionObserver* observer) {
  CODS_RETURN_NOT_OK(RejectAliasedNames(smo));
  CODS_ASSIGN_OR_RETURN(auto src, store.GetTable(smo.table));
  if (smo.out1 != smo.table && store.HasTable(smo.out1)) {
    return Status::AlreadyExists("table '" + smo.out1 + "' already exists");
  }
  if (smo.out2 != smo.table && store.HasTable(smo.out2)) {
    return Status::AlreadyExists("table '" + smo.out2 + "' already exists");
  }
  CODS_ASSIGN_OR_RETURN(
      PartitionResult result,
      PartitionTableOp(*src, smo.out1, smo.out2, smo.column, smo.compare_op,
                       smo.literal, observer, &exec_ctx_));
  CODS_RETURN_NOT_OK(MaybeValidate(*result.matching));
  CODS_RETURN_NOT_OK(MaybeValidate(*result.rest));
  CODS_RETURN_NOT_OK(store.DropTable(smo.table));
  store.PutTable(std::move(result.matching));
  store.PutTable(std::move(result.rest));
  return Status::OK();
}

Status EvolutionEngine::ApplyColumnOp(TableStore& store, const Smo& smo) {
  CODS_ASSIGN_OR_RETURN(auto src, store.GetTable(smo.table));
  std::shared_ptr<const Table> out;
  switch (smo.kind) {
    case SmoKind::kAddColumn: {
      CODS_ASSIGN_OR_RETURN(
          out, AddColumnOp(*src, smo.column_spec, smo.default_value));
      break;
    }
    case SmoKind::kDropColumn: {
      CODS_ASSIGN_OR_RETURN(out, DropColumnOp(*src, smo.column));
      break;
    }
    case SmoKind::kRenameColumn: {
      CODS_ASSIGN_OR_RETURN(out,
                            RenameColumnOp(*src, smo.column, smo.new_name));
      break;
    }
    default:
      return Status::InvalidArgument("not a column operator");
  }
  CODS_RETURN_NOT_OK(MaybeValidate(*out));
  store.PutTable(std::move(out));
  return Status::OK();
}

}  // namespace cods
