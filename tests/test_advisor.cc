// Tests for the evolution cost advisor: the estimates must reproduce the
// structural asymmetries (data-level ≪ query-level; advantage grows with
// redundancy) that the measured benchmarks show.

#include "evolution/advisor.h"

#include "gtest/gtest.h"
#include "test_util.h"
#include "workload/generator.h"

namespace cods {
namespace {

using ::cods::testing::Figure1TableR;

TEST(Advisor, TupleBytesReflectTypesAndStringLengths) {
  auto r = Figure1TableR();
  uint64_t bytes = EstimateTupleBytes(*r);
  // 3 string columns with multi-byte values: clearly more than the bare
  // framing, clearly less than a kilobyte.
  EXPECT_GT(bytes, 20u);
  EXPECT_LT(bytes, 1024u);

  Schema ints({{"a", DataType::kInt64},
               {"b", DataType::kDouble}});
  auto t = testing::MakeTable("t", ints, {{Value(int64_t{1}), Value(2.0)}});
  EXPECT_EQ(EstimateTupleBytes(*t), 4u + 2 * 9u);
}

TEST(Advisor, DecomposeRecommendsDataLevel) {
  WorkloadSpec spec;
  spec.num_rows = 20000;
  spec.num_distinct = 100;
  auto r = GenerateEvolutionTable(spec).ValueOrDie();
  auto est = EstimateDecompose(*r, {kKeyColumn, kPayloadColumn},
                               {kKeyColumn, kDependentColumn})
                 .ValueOrDie();
  EXPECT_EQ(est.Recommendation(), EvolutionStrategy::kDataLevel);
  EXPECT_GT(est.Advantage(), 2.0);
  // The query-level estimate includes a full materialization of R.
  EXPECT_GE(est.query_level_read_bytes,
            r->rows() * EstimateTupleBytes(*r));
  // The data-level estimate never charges the unchanged columns.
  EXPECT_LT(est.data_level_read_bytes, r->SizeBytes());
}

TEST(Advisor, AdvantageGrowsWithRedundancy) {
  // Fewer distinct keys → more redundancy removed by T → the data-level
  // write side shrinks while query-level stays dominated by |R|.
  WorkloadSpec spec;
  spec.num_rows = 20000;
  spec.num_distinct = 20;
  auto redundant = GenerateEvolutionTable(spec).ValueOrDie();
  spec.num_distinct = 20000;
  auto unique = GenerateEvolutionTable(spec).ValueOrDie();

  auto est_red = EstimateDecompose(*redundant, {kKeyColumn, kPayloadColumn},
                                   {kKeyColumn, kDependentColumn})
                     .ValueOrDie();
  auto est_uni = EstimateDecompose(*unique, {kKeyColumn, kPayloadColumn},
                                   {kKeyColumn, kDependentColumn})
                     .ValueOrDie();
  EXPECT_GT(est_red.Advantage(), est_uni.Advantage());
}

TEST(Advisor, MergeRecommendsDataLevel) {
  WorkloadSpec spec;
  spec.num_rows = 20000;
  spec.num_distinct = 500;
  auto pair = GenerateMergePair(spec).ValueOrDie();
  auto est = EstimateMerge(*pair.s, *pair.t, {kKeyColumn}).ValueOrDie();
  EXPECT_EQ(est.Recommendation(), EvolutionStrategy::kDataLevel);
  EXPECT_GT(est.Advantage(), 1.5);
}

TEST(Advisor, ReportMentionsBothStrategies) {
  auto r = Figure1TableR();
  auto est = EstimateDecompose(*r, {"Employee", "Skill"},
                               {"Employee", "Address"})
                 .ValueOrDie();
  std::string report = est.ToString();
  EXPECT_NE(report.find("data-level"), std::string::npos);
  EXPECT_NE(report.find("query-level"), std::string::npos);
  EXPECT_NE(report.find("recommendation"), std::string::npos);
}

TEST(Advisor, DisjointDecompositionRejected) {
  auto r = Figure1TableR();
  EXPECT_TRUE(EstimateDecompose(*r, {"Employee"}, {"Skill", "Address"})
                  .status()
                  .IsConstraintViolation());
}

TEST(Advisor, StrategyNames) {
  EXPECT_STREQ(EvolutionStrategyToString(EvolutionStrategy::kDataLevel),
               "data-level (CODS)");
  EXPECT_STREQ(EvolutionStrategyToString(EvolutionStrategy::kQueryLevel),
               "query-level (SQL)");
}

}  // namespace
}  // namespace cods
