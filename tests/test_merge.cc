// Tests for data-level mergence: key–FK fast path, the general two-pass
// algorithm, dispatch, and the decompose∘merge round-trip property.

#include "evolution/merge.h"

#include "evolution/decompose.h"
#include "gtest/gtest.h"
#include "query/query_evolution.h"
#include "test_util.h"
#include "workload/generator.h"

namespace cods {
namespace {

using ::cods::testing::ExpectSameContent;
using ::cods::testing::Figure1TableR;
using ::cods::testing::RandomFdTable;

struct Fig1Pair {
  std::shared_ptr<const Table> s;
  std::shared_ptr<const Table> t;
};

Fig1Pair DecomposedFig1() {
  auto r = Figure1TableR();
  auto result = CodsDecompose(*r, "S", {"Employee", "Skill"}, {}, "T",
                              {"Employee", "Address"}, {"Employee"},
                              nullptr)
                    .ValueOrDie();
  return {result.s, result.t};
}

TEST(MergeKeyFk, RestoresFigure1R) {
  auto [s, t] = DecomposedFig1();
  RecordingObserver observer;
  auto merged =
      CodsMergeKeyFk(*s, *t, {"Employee"}, {}, "R", &observer).ValueOrDie();
  ExpectSameContent(*Figure1TableR(), *merged);
  EXPECT_TRUE(merged->ValidateInvariants().ok());
  EXPECT_TRUE(observer.HasStep("reuse"));
  EXPECT_TRUE(observer.HasStep("append"));

  // Property: S's columns are reused by pointer in the output.
  EXPECT_EQ(merged->column(0).get(), s->column(0).get());
  EXPECT_EQ(merged->column(1).get(), s->column(1).get());
}

TEST(MergeKeyFk, ForeignKeyViolationDetected) {
  auto [s, t] = DecomposedFig1();
  // Drop Harrison from T: S still references him.
  TableBuilder builder("T2", t->schema());
  for (const Row& row : t->Materialize()) {
    if (row[0] != Value("Harrison")) {
      ASSERT_TRUE(builder.AppendRow(row).ok());
    }
  }
  auto t2 = builder.Finish().ValueOrDie();
  auto result = CodsMergeKeyFk(*s, *t2, {"Employee"}, {}, "R", nullptr);
  EXPECT_TRUE(result.status().IsConstraintViolation())
      << result.status().ToString();
}

TEST(MergeGeneral, MatchesNaiveJoinOnFigure1) {
  auto [s, t] = DecomposedFig1();
  auto general =
      CodsMergeGeneral(*s, *t, {"Employee"}, {}, "R", nullptr).ValueOrDie();
  ExpectSameContent(*Figure1TableR(), *general);
  EXPECT_TRUE(general->ValidateInvariants().ok());
}

TEST(MergeGeneral, ManyToManyCrossCounts) {
  // J=v appears s_fanout×t_fanout times in the output.
  auto pair = GenerateGeneralMergePair(10, 3, 4, 7).ValueOrDie();
  auto merged = CodsMergeGeneral(*pair.s, *pair.t, {"J"}, {}, "R", nullptr)
                    .ValueOrDie();
  EXPECT_EQ(merged->rows(), 10u * 3 * 4);
  EXPECT_TRUE(merged->ValidateInvariants().ok());

  // Oracle comparison.
  auto oracle =
      ColumnQueryLevelMerge(*pair.s, *pair.t, {"J"}, {}, "R").ValueOrDie();
  ExpectSameContent(*merged, *oracle.r);
}

TEST(MergeGeneral, PartialOverlapDropsUnmatchedValues) {
  // S has J in [0,10), T has J in [5,15): only [5,10) joins.
  Schema s_schema({{"J", DataType::kInt64},
                   {"A", DataType::kInt64}});
  Schema t_schema({{"J", DataType::kInt64},
                   {"B", DataType::kInt64}});
  TableBuilder sb("S", s_schema), tb("T", t_schema);
  for (int64_t j = 0; j < 10; ++j) {
    ASSERT_TRUE(sb.AppendRow({Value(j), Value(j * 10)}).ok());
  }
  for (int64_t j = 5; j < 15; ++j) {
    ASSERT_TRUE(tb.AppendRow({Value(j), Value(j * 100)}).ok());
  }
  auto s = sb.Finish().ValueOrDie();
  auto t = tb.Finish().ValueOrDie();
  auto merged =
      CodsMergeGeneral(*s, *t, {"J"}, {}, "R", nullptr).ValueOrDie();
  EXPECT_EQ(merged->rows(), 5u);
  auto oracle = ColumnQueryLevelMerge(*s, *t, {"J"}, {}, "R").ValueOrDie();
  ExpectSameContent(*merged, *oracle.r);
}

TEST(MergeGeneral, EmptyJoinResult) {
  Schema s_schema({{"J", DataType::kInt64},
                   {"A", DataType::kInt64}});
  Schema t_schema({{"J", DataType::kInt64},
                   {"B", DataType::kInt64}});
  TableBuilder sb("S", s_schema), tb("T", t_schema);
  ASSERT_TRUE(sb.AppendRow({Value(int64_t{1}), Value(int64_t{1})}).ok());
  ASSERT_TRUE(tb.AppendRow({Value(int64_t{2}), Value(int64_t{2})}).ok());
  auto s = sb.Finish().ValueOrDie();
  auto t = tb.Finish().ValueOrDie();
  auto merged =
      CodsMergeGeneral(*s, *t, {"J"}, {}, "R", nullptr).ValueOrDie();
  EXPECT_EQ(merged->rows(), 0u);
}

TEST(MergeGeneral, CompositeJoinColumns) {
  Schema s_schema({{"J1", DataType::kInt64},
                   {"J2", DataType::kString},
                   {"A", DataType::kInt64}});
  Schema t_schema({{"J1", DataType::kInt64},
                   {"J2", DataType::kString},
                   {"B", DataType::kInt64}});
  TableBuilder sb("S", s_schema), tb("T", t_schema);
  for (int64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(sb.AppendRow({Value(i % 3), Value(i % 2 ? "x" : "y"),
                              Value(i)})
                    .ok());
    ASSERT_TRUE(tb.AppendRow({Value(i % 4), Value(i % 2 ? "x" : "y"),
                              Value(i * 7)})
                    .ok());
  }
  auto s = sb.Finish().ValueOrDie();
  auto t = tb.Finish().ValueOrDie();
  auto merged = CodsMergeGeneral(*s, *t, {"J1", "J2"}, {}, "R", nullptr)
                    .ValueOrDie();
  auto oracle =
      ColumnQueryLevelMerge(*s, *t, {"J1", "J2"}, {}, "R").ValueOrDie();
  ExpectSameContent(*merged, *oracle.r);
  EXPECT_TRUE(merged->ValidateInvariants().ok());
}

TEST(MergeDispatch, PicksKeyFkWhenDeclared) {
  auto [s, t] = DecomposedFig1();
  auto result = CodsMerge(*s, *t, {"Employee"}, {}, "R", nullptr)
                    .ValueOrDie();
  EXPECT_TRUE(result.used_key_fk);
  ExpectSameContent(*Figure1TableR(), *result.table);
}

TEST(MergeDispatch, SwapsSidesWhenLeftIsKeyed) {
  auto [s, t] = DecomposedFig1();
  // Pass the keyed table first: dispatcher must still use key–FK by
  // swapping, with output columns T ++ S-payload.
  auto result = CodsMerge(*t, *s, {"Employee"}, {}, "R", nullptr)
                    .ValueOrDie();
  EXPECT_TRUE(result.used_key_fk);
  EXPECT_EQ(result.table->schema().ColumnNames(),
            (std::vector<std::string>{"Employee", "Skill", "Address"}));
  ExpectSameContent(*Figure1TableR(), *result.table);
}

TEST(MergeDispatch, FallsBackToGeneralWithoutKeys) {
  auto pair = GenerateGeneralMergePair(5, 2, 3, 9).ValueOrDie();
  auto result =
      CodsMerge(*pair.s, *pair.t, {"J"}, {}, "R", nullptr).ValueOrDie();
  EXPECT_FALSE(result.used_key_fk);
  EXPECT_EQ(result.table->rows(), 5u * 2 * 3);
}

TEST(MergeDispatch, ForceGeneralOverridesKeyFk) {
  auto [s, t] = DecomposedFig1();
  MergeOptions options;
  options.force_general = true;
  auto result = CodsMerge(*s, *t, {"Employee"}, {}, "R", nullptr, options)
                    .ValueOrDie();
  EXPECT_FALSE(result.used_key_fk);
  ExpectSameContent(*Figure1TableR(), *result.table);
}

TEST(MergeDispatch, ValidateKeyCatchesFalseDeclaration) {
  // T declares key K but contains duplicates.
  Schema t_schema({{"K", DataType::kInt64},
                   {"P", DataType::kInt64}},
                  {"K"});
  TableBuilder tb("T", t_schema);
  ASSERT_TRUE(tb.AppendRow({Value(int64_t{1}), Value(int64_t{1})}).ok());
  ASSERT_TRUE(tb.AppendRow({Value(int64_t{1}), Value(int64_t{2})}).ok());
  auto t = tb.Finish().ValueOrDie();
  Schema s_schema({{"K", DataType::kInt64},
                   {"V", DataType::kInt64}});
  TableBuilder sb("S", s_schema);
  ASSERT_TRUE(sb.AppendRow({Value(int64_t{1}), Value(int64_t{5})}).ok());
  auto s = sb.Finish().ValueOrDie();

  MergeOptions options;
  options.validate_key = true;
  auto result = CodsMerge(*s, *t, {"K"}, {}, "R", nullptr, options);
  EXPECT_TRUE(result.status().IsConstraintViolation())
      << result.status().ToString();
}

// ---- Round-trip property: merge(decompose(R)) == R. ------------------------

struct RoundTripParam {
  uint64_t rows;
  uint64_t distinct;
};

class MergeRoundTrip : public ::testing::TestWithParam<RoundTripParam> {};

TEST_P(MergeRoundTrip, DecomposeThenMergeIsIdentity) {
  const RoundTripParam p = GetParam();
  auto r = RandomFdTable(p.rows, p.distinct, p.rows * 13 + p.distinct);
  auto dec = CodsDecompose(*r, "S", {"K", "V"}, {}, "T", {"K", "P"}, {"K"},
                           nullptr)
                 .ValueOrDie();
  auto merged = CodsMerge(*dec.s, *dec.t, {"K"}, {}, "R2", nullptr)
                    .ValueOrDie();
  EXPECT_TRUE(merged.used_key_fk);
  ExpectSameContent(*r, *merged.table);
  EXPECT_TRUE(merged.table->ValidateInvariants().ok());

  // The general algorithm must agree as a multiset too.
  auto general = CodsMergeGeneral(*dec.s, *dec.t, {"K"}, {}, "R3", nullptr)
                     .ValueOrDie();
  ExpectSameContent(*r, *general);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MergeRoundTrip,
    ::testing::Values(RoundTripParam{1, 1}, RoundTripParam{50, 5},
                      RoundTripParam{100, 100}, RoundTripParam{1000, 31},
                      RoundTripParam{5000, 1250},
                      RoundTripParam{20000, 100}),
    [](const ::testing::TestParamInfo<RoundTripParam>& info) {
      return "r" + std::to_string(info.param.rows) + "_d" +
             std::to_string(info.param.distinct);
    });

}  // namespace
}  // namespace cods
