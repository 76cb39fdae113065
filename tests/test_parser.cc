// Tests for the SMO script parser: every statement form, literals,
// comments, and error positions.

#include "smo/parser.h"

#include "gtest/gtest.h"

namespace cods {
namespace {

TEST(Parser, CreateTable) {
  Smo smo = ParseSmoStatement(
                "CREATE TABLE R (Employee STRING, Age INT64, "
                "Score DOUBLE SORTED, KEY(Employee));")
                .ValueOrDie();
  EXPECT_EQ(smo.kind, SmoKind::kCreateTable);
  EXPECT_EQ(smo.out1, "R");
  EXPECT_EQ(smo.schema.num_columns(), 3u);
  EXPECT_EQ(smo.schema.column(1).type, DataType::kInt64);
  EXPECT_EQ(smo.schema.column(2).type, DataType::kDouble);
  EXPECT_TRUE(smo.schema.IsKey({"Employee"}));
  // SORTED is accepted and discarded: the statement parses to the same
  // Smo as without it.
  Smo plain = ParseSmoStatement(
                  "CREATE TABLE R (Employee STRING, Age INT64, "
                  "Score DOUBLE, KEY(Employee));")
                  .ValueOrDie();
  EXPECT_EQ(smo.ToString(), plain.ToString());
  EXPECT_EQ(smo.schema.ToString(), plain.schema.ToString());
  EXPECT_TRUE(smo.schema.SameLayout(plain.schema));
}

TEST(Parser, DropAndRenameTable) {
  Smo drop = ParseSmoStatement("DROP TABLE R;").ValueOrDie();
  EXPECT_EQ(drop.kind, SmoKind::kDropTable);
  EXPECT_EQ(drop.table, "R");

  Smo rename = ParseSmoStatement("RENAME TABLE R TO R2;").ValueOrDie();
  EXPECT_EQ(rename.kind, SmoKind::kRenameTable);
  EXPECT_EQ(rename.table, "R");
  EXPECT_EQ(rename.new_name, "R2");
}

TEST(Parser, CopyAndUnion) {
  Smo copy = ParseSmoStatement("COPY TABLE A TO B;").ValueOrDie();
  EXPECT_EQ(copy.kind, SmoKind::kCopyTable);
  EXPECT_EQ(copy.out1, "B");

  Smo u = ParseSmoStatement("UNION TABLES A, B INTO C;").ValueOrDie();
  EXPECT_EQ(u.kind, SmoKind::kUnionTables);
  EXPECT_EQ(u.table, "A");
  EXPECT_EQ(u.table2, "B");
  EXPECT_EQ(u.out1, "C");
}

TEST(Parser, PartitionWithEveryOperator) {
  struct Case {
    const char* text;
    CompareOp op;
  };
  for (const Case& c : {Case{"=", CompareOp::kEq}, Case{"!=", CompareOp::kNe},
                        Case{"<", CompareOp::kLt}, Case{"<=", CompareOp::kLe},
                        Case{">", CompareOp::kGt},
                        Case{">=", CompareOp::kGe}}) {
    std::string stmt = std::string("PARTITION TABLE R INTO A, B WHERE x ") +
                       c.text + " 10;";
    Smo smo = ParseSmoStatement(stmt).ValueOrDie();
    EXPECT_EQ(smo.kind, SmoKind::kPartitionTable);
    EXPECT_EQ(smo.compare_op, c.op) << c.text;
    EXPECT_EQ(smo.literal, Value(int64_t{10}));
  }
}

TEST(Parser, PartitionStringAndDoubleLiterals) {
  Smo s = ParseSmoStatement(
              "PARTITION TABLE R INTO A, B WHERE City = 'New York';")
              .ValueOrDie();
  EXPECT_EQ(s.literal, Value("New York"));
  Smo d = ParseSmoStatement(
              "PARTITION TABLE R INTO A, B WHERE Score >= 3.5;")
              .ValueOrDie();
  EXPECT_EQ(d.literal, Value(3.5));
  Smo n = ParseSmoStatement(
              "PARTITION TABLE R INTO A, B WHERE Delta > -4;")
              .ValueOrDie();
  EXPECT_EQ(n.literal, Value(int64_t{-4}));
}

TEST(Parser, Decompose) {
  Smo smo =
      ParseSmoStatement(
          "DECOMPOSE TABLE R INTO S(Employee, Skill), "
          "T(Employee, Address) KEY(Employee);")
          .ValueOrDie();
  EXPECT_EQ(smo.kind, SmoKind::kDecomposeTable);
  EXPECT_EQ(smo.table, "R");
  EXPECT_EQ(smo.out1, "S");
  EXPECT_EQ(smo.columns1,
            (std::vector<std::string>{"Employee", "Skill"}));
  EXPECT_TRUE(smo.key1.empty());
  EXPECT_EQ(smo.out2, "T");
  EXPECT_EQ(smo.columns2,
            (std::vector<std::string>{"Employee", "Address"}));
  EXPECT_EQ(smo.key2, (std::vector<std::string>{"Employee"}));
}

TEST(Parser, DecomposeWithBothKeys) {
  Smo smo = ParseSmoStatement(
                "DECOMPOSE TABLE R INTO S(a, b) KEY(a, b), T(a, c) KEY(a);")
                .ValueOrDie();
  EXPECT_EQ(smo.key1, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(smo.key2, (std::vector<std::string>{"a"}));
}

TEST(Parser, Merge) {
  Smo smo = ParseSmoStatement(
                "MERGE TABLES S, T INTO R ON (Employee) "
                "KEY(Employee, Skill);")
                .ValueOrDie();
  EXPECT_EQ(smo.kind, SmoKind::kMergeTables);
  EXPECT_EQ(smo.table, "S");
  EXPECT_EQ(smo.table2, "T");
  EXPECT_EQ(smo.out1, "R");
  EXPECT_EQ(smo.columns1, (std::vector<std::string>{"Employee"}));
  EXPECT_EQ(smo.key1, (std::vector<std::string>{"Employee", "Skill"}));
}

TEST(Parser, ColumnOperators) {
  Smo add = ParseSmoStatement(
                "ADD COLUMN Address STRING TO R DEFAULT 'unknown';")
                .ValueOrDie();
  EXPECT_EQ(add.kind, SmoKind::kAddColumn);
  EXPECT_EQ(add.column_spec.type, DataType::kString);
  EXPECT_EQ(add.default_value, Value("unknown"));

  Smo add_default = ParseSmoStatement("ADD COLUMN n INT64 TO R;")
                        .ValueOrDie();
  EXPECT_EQ(add_default.default_value, Value(int64_t{0}));

  Smo drop = ParseSmoStatement("DROP COLUMN Address FROM R;").ValueOrDie();
  EXPECT_EQ(drop.kind, SmoKind::kDropColumn);
  EXPECT_EQ(drop.column, "Address");

  Smo rename =
      ParseSmoStatement("RENAME COLUMN Addr TO Address IN R;").ValueOrDie();
  EXPECT_EQ(rename.kind, SmoKind::kRenameColumn);
  EXPECT_EQ(rename.column, "Addr");
  EXPECT_EQ(rename.new_name, "Address");
}

TEST(Parser, KeywordsAreCaseInsensitive) {
  EXPECT_TRUE(ParseSmoStatement("drop table R;").ok());
  EXPECT_TRUE(ParseSmoStatement("Drop Table R").ok());  // ';' optional
}

TEST(Parser, ScriptWithCommentsAndBlankLines) {
  auto script = ParseSmoScript(
                    "-- evolve the employee database\n"
                    "COPY TABLE R TO Backup;\n"
                    "\n"
                    "DECOMPOSE TABLE R INTO S(Employee, Skill),\n"
                    "  T(Employee, Address) KEY(Employee); -- split\n"
                    "RENAME TABLE Backup TO R_v1;\n")
                    .ValueOrDie();
  ASSERT_EQ(script.size(), 3u);
  EXPECT_EQ(script[0].kind, SmoKind::kCopyTable);
  EXPECT_EQ(script[1].kind, SmoKind::kDecomposeTable);
  EXPECT_EQ(script[2].kind, SmoKind::kRenameTable);
}

TEST(Parser, EmptyScriptIsEmpty) {
  EXPECT_TRUE(ParseSmoScript("").ValueOrDie().empty());
  EXPECT_TRUE(ParseSmoScript(" ;; -- nothing\n;").ValueOrDie().empty());
}

TEST(Parser, ErrorsCarryPosition) {
  Status st = ParseSmoScript("DROP TABLE;").status();
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("line 1"), std::string::npos);
  EXPECT_NE(st.message().find("expected table name"), std::string::npos);

  st = ParseSmoScript("\n\nFROBNICATE TABLE x;").status();
  EXPECT_NE(st.message().find("line 3"), std::string::npos);
}

TEST(Parser, MalformedStatementsRejected) {
  EXPECT_FALSE(ParseSmoScript("CREATE TABLE T (a BLOB);").ok());
  EXPECT_FALSE(ParseSmoScript("MERGE TABLES S, T INTO R;").ok());  // no ON
  EXPECT_FALSE(ParseSmoScript("DECOMPOSE TABLE R INTO S(a);").ok());
  EXPECT_FALSE(ParseSmoScript("PARTITION TABLE R INTO A, B WHERE x ~ 3;")
                   .ok());
  EXPECT_FALSE(ParseSmoScript("UNION TABLES A B INTO C;").ok());
  EXPECT_FALSE(ParseSmoScript("ADD COLUMN x INT64 TO R DEFAULT 'str';")
                   .ok());  // type mismatch
  EXPECT_FALSE(ParseSmoScript("DROP TABLE 'quoted';").ok());
  EXPECT_FALSE(ParseSmoScript("CREATE TABLE T (a INT64").ok());  // EOF
}

TEST(Parser, UnterminatedStringRejected) {
  Status st =
      ParseSmoScript("PARTITION TABLE R INTO A, B WHERE x = 'oops;").status();
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("unterminated"), std::string::npos);
}

TEST(Parser, StatementRequiresExactlyOne) {
  EXPECT_FALSE(ParseSmoStatement("DROP TABLE A; DROP TABLE B;").ok());
  EXPECT_FALSE(ParseSmoStatement("").ok());
}

TEST(Parser, RoundTripThroughToString) {
  // ToString output of parsed SMOs re-parses to the same operator —
  // every statement form, including quoted strings, round-trip doubles,
  // CREATE TABLE schemas with keys, and both DECOMPOSE key positions.
  for (const char* stmt :
       {"DROP TABLE R", "RENAME TABLE A TO B", "COPY TABLE A TO B",
        "UNION TABLES A, B INTO C",
        "MERGE TABLES S, T INTO R ON (k) KEY(k)",
        "MERGE TABLES S, T INTO R ON (a, b)",
        "DROP COLUMN c FROM R", "RENAME COLUMN a TO b IN R",
        "CREATE TABLE T (a INT64, b STRING, c DOUBLE SORTED, KEY(a, b))",
        "CREATE TABLE T (a INT64)",
        "PARTITION TABLE R INTO A, B WHERE x >= 10",
        "PARTITION TABLE R INTO A, B WHERE City = 'New York'",
        "PARTITION TABLE R INTO A, B WHERE Score >= 3.5",
        "PARTITION TABLE R INTO A, B WHERE Score < 0.1",
        "PARTITION TABLE R INTO A, B WHERE Score < 1e25",
        "PARTITION TABLE R INTO A, B WHERE Score > 2.5e-7",
        "PARTITION TABLE R INTO A, B WHERE Delta > -4",
        "DECOMPOSE TABLE R INTO S(a, b) KEY(a, b), T(a, c) KEY(a)",
        "DECOMPOSE TABLE R INTO S(a, b), T(a, c) KEY(a)",
        "ADD COLUMN Address STRING TO R DEFAULT 'unknown'",
        "ADD COLUMN n INT64 TO R",
        "ADD COLUMN f DOUBLE TO R DEFAULT 2.25"}) {
    Smo first = ParseSmoStatement(stmt).ValueOrDie();
    auto reparsed = ParseSmoStatement(first.ToString());
    ASSERT_TRUE(reparsed.ok())
        << stmt << " -> " << first.ToString() << ": "
        << reparsed.status().ToString();
    Smo second = std::move(reparsed).ValueOrDie();
    EXPECT_EQ(first.ToString(), second.ToString()) << stmt;
    EXPECT_EQ(first.kind, second.kind);
    EXPECT_EQ(first.literal, second.literal) << stmt;
    EXPECT_EQ(first.default_value, second.default_value) << stmt;
    EXPECT_EQ(first.columns1, second.columns1) << stmt;
    EXPECT_EQ(first.key1, second.key1) << stmt;
    EXPECT_EQ(first.key2, second.key2) << stmt;
  }
}

TEST(Parser, RoundTripQuotesStringsWithEmbeddedQuotes) {
  Smo first = ParseSmoStatement(
                  "PARTITION TABLE R INTO A, B WHERE x = \"it's\";")
                  .ValueOrDie();
  EXPECT_EQ(first.literal, Value("it's"));
  Smo second = ParseSmoStatement(first.ToString()).ValueOrDie();
  EXPECT_EQ(second.literal, Value("it's"));

  // SQL-style doubling covers strings holding BOTH quote kinds.
  Smo both = Smo::PartitionTable("R", "A", "B", "x", CompareOp::kEq,
                                 Value("it's a \"mix\""));
  Smo reparsed = ParseSmoStatement(both.ToString()).ValueOrDie();
  EXPECT_EQ(reparsed.literal, Value("it's a \"mix\""));

  // Doubled quotes in source text decode to one literal quote.
  Smo doubled = ParseSmoStatement(
                    "PARTITION TABLE R INTO A, B WHERE x = 'it''s';")
                    .ValueOrDie();
  EXPECT_EQ(doubled.literal, Value("it's"));
  // An empty string stays a string literal, not an unterminated one.
  EXPECT_EQ(ParseSmoStatement("PARTITION TABLE R INTO A, B WHERE x = '';")
                .ValueOrDie()
                .literal,
            Value(""));
}

TEST(Parser, ErrorPathsPerStatementForm) {
  struct Case {
    const char* text;
    const char* expect;  // substring of the error message
  };
  for (const Case& c : {
           Case{"CREATE TABLE (a INT64);", "expected table name"},
           Case{"CREATE TABLE T a INT64;", "expected '('"},
           Case{"CREATE TABLE T (a INT64,);", "expected column name"},
           Case{"CREATE TABLE T (KEY());", "expected name"},
           Case{"COPY TABLE A B;", "expected keyword 'TO'"},
           Case{"RENAME TABLE A;", "expected keyword 'TO'"},
           Case{"RENAME COLUMN a TO b;", "expected keyword 'IN'"},
           Case{"UNION TABLES A, B C;", "expected keyword 'INTO'"},
           Case{"PARTITION TABLE R INTO A, B;", "expected keyword 'WHERE'"},
           Case{"PARTITION TABLE R INTO A, B WHERE x <;",
                "expected a literal"},
           Case{"PARTITION TABLE R INTO A, B WHERE x 3;",
                "expected a comparison operator"},
           Case{"DECOMPOSE TABLE R INTO S(a) T(b);", "expected ','"},
           Case{"DECOMPOSE TABLE R INTO S, T(b);", "expected '('"},
           Case{"MERGE TABLES S, T INTO R ON x;", "expected '('"},
           Case{"MERGE TABLES S T INTO R ON (x);", "expected ','"},
           Case{"ADD COLUMN x BLOB TO R;", "unknown data type"},
           Case{"ADD COLUMN x INT64 R;", "expected keyword 'TO'"},
           Case{"DROP COLUMN x R;", "expected keyword 'FROM'"},
           Case{"DROP;", "expected keyword 'COLUMN'"},
       }) {
    Status st = ParseSmoScript(c.text).status();
    ASSERT_FALSE(st.ok()) << c.text;
    EXPECT_NE(st.message().find(c.expect), std::string::npos)
        << c.text << " -> " << st.ToString();
  }
}

TEST(Parser, LexerErrors) {
  EXPECT_NE(ParseSmoScript("DROP TABLE @x;").status().message().find(
                "unexpected character '@'"),
            std::string::npos);
  EXPECT_NE(ParseSmoScript("PARTITION TABLE R INTO A, B WHERE x ! 3;")
                .status()
                .message()
                .find("stray '!'"),
            std::string::npos);
}

TEST(Parser, ErrorPositionsAreExactSourceOffsets) {
  // Positions derive from byte offsets into the SOURCE, so decoded
  // token text (a doubled quote collapsing to one character) cannot
  // skew the reported column of anything after it.
  struct Case {
    const char* text;
    const char* position;  // expected "line L, column C" prefix
  };
  for (const Case& c : {
           // 'it''s' spans source columns 27-33; FROBNICATE starts at 35.
           Case{"SELECT * FROM t WHERE x = 'it''s' FROBNICATE;",
                "line 1, column 35"},
           // Two doubled quotes: 'a''b''c' is source columns 39-47.
           Case{"PARTITION TABLE R INTO A, B WHERE x = 'a''b''c' ~;",
                "line 1, column 49"},
           // A doubled quote inside a multi-line script must not shift
           // positions on LATER lines either.
           Case{"SELECT COUNT(*) FROM t WHERE x = 'it''s';\n"
                "DROP TABLE;",
                "line 2, column 11"},
           // The unterminated-string error points at the opening quote.
           Case{"SELECT * FROM t WHERE x = 'oops;", "line 1, column 27"},
           // Statement-mix errors (SMO-only surface) report the
           // statement start, after a doubled-quote literal.
           Case{"PARTITION TABLE R INTO A, B WHERE x = 'it''s';\n"
                "  SELECT * FROM B;",
                "line 2, column 3"},
       }) {
    Status st = ParseSmoScript(c.text).status();
    ASSERT_FALSE(st.ok()) << c.text;
    EXPECT_NE(st.message().find(c.position), std::string::npos)
        << c.text << " -> " << st.ToString();
  }
}

TEST(Parser, DuplicateSelectColumnErrorCarriesPosition) {
  // The duplicate occurrence's own position is reported (satellite:
  // duplicate projection columns are an error WITH a position).
  Status st = ParseStatementScript("SELECT aa, b,\n  aa FROM t;").status();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("line 2, column 3"), std::string::npos)
      << st.ToString();
  EXPECT_NE(st.message().find("duplicate column 'aa'"), std::string::npos);
}

TEST(Parser, ErrorAtEndOfInputSaysSo) {
  Status st = ParseSmoScript("COPY TABLE A TO").status();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("at end of input"), std::string::npos)
      << st.ToString();
}

// ---- SELECT statements (the query half of the unified grammar) ------------

QueryRequest ParseQuery(const std::string& text) {
  Statement stmt = ParseStatement(text).ValueOrDie();
  EXPECT_EQ(stmt.kind, Statement::Kind::kQuery);
  return stmt.query;
}

TEST(Parser, SelectStar) {
  QueryRequest q = ParseQuery("SELECT * FROM R;");
  EXPECT_EQ(q.verb, QueryRequest::Verb::kSelect);
  EXPECT_EQ(q.table, "R");
  EXPECT_TRUE(q.columns.empty());
  EXPECT_EQ(q.where, nullptr);
}

TEST(Parser, SelectProjectionAndWhere) {
  QueryRequest q = ParseQuery(
      "SELECT Employee, Skill FROM R WHERE Employee = 'Jones';");
  EXPECT_EQ(q.columns, (std::vector<std::string>{"Employee", "Skill"}));
  ASSERT_NE(q.where, nullptr);
  EXPECT_EQ(q.where->kind, ExprKind::kCompare);
  EXPECT_EQ(q.where->ToString(), "Employee = 'Jones'");
}

TEST(Parser, SelectCountStar) {
  QueryRequest q = ParseQuery("SELECT COUNT(*) FROM R WHERE a > 3;");
  EXPECT_EQ(q.verb, QueryRequest::Verb::kCount);
  ASSERT_NE(q.where, nullptr);
}

TEST(Parser, SelectGroupBySumForms) {
  QueryRequest q =
      ParseQuery("SELECT g, SUM(m) FROM T WHERE m > 0 GROUP BY g;");
  EXPECT_EQ(q.verb, QueryRequest::Verb::kGroupBy);
  EXPECT_EQ(q.group_by, "g");
  ASSERT_EQ(q.aggregates.size(), 1u);
  EXPECT_EQ(q.aggregates[0], AggregateSpec::Sum("m"));
  // The bare-SUM form is the same query.
  QueryRequest bare = ParseQuery("SELECT SUM(m) FROM T GROUP BY g;");
  EXPECT_EQ(bare.verb, QueryRequest::Verb::kGroupBy);
  EXPECT_EQ(bare.group_by, "g");
}

TEST(Parser, SelectMultiAggregateList) {
  QueryRequest q = ParseQuery(
      "SELECT g, SUM(m), COUNT(*), MIN(m), MAX(n), AVG(m) FROM T "
      "GROUP BY g;");
  EXPECT_EQ(q.verb, QueryRequest::Verb::kGroupBy);
  EXPECT_EQ(q.group_by, "g");
  ASSERT_EQ(q.aggregates.size(), 5u);
  EXPECT_EQ(q.aggregates[0], AggregateSpec::Sum("m"));
  EXPECT_EQ(q.aggregates[1], AggregateSpec::Count());
  EXPECT_EQ(q.aggregates[2], AggregateSpec::Min("m"));
  EXPECT_EQ(q.aggregates[3], AggregateSpec::Max("n"));
  EXPECT_EQ(q.aggregates[4], AggregateSpec::Avg("m"));
  // COUNT(*) under GROUP BY is the group-by verb, not the count verb.
  QueryRequest counts = ParseQuery("SELECT g, COUNT(*) FROM T GROUP BY g;");
  EXPECT_EQ(counts.verb, QueryRequest::Verb::kGroupBy);
  ASSERT_EQ(counts.aggregates.size(), 1u);
  EXPECT_EQ(counts.aggregates[0], AggregateSpec::Count());
  // COUNT(col) names its column.
  QueryRequest named = ParseQuery("SELECT COUNT(m) FROM T GROUP BY g;");
  ASSERT_EQ(named.aggregates.size(), 1u);
  EXPECT_EQ(named.aggregates[0], AggregateSpec::Count("m"));
}

TEST(Parser, SelectJoinClause) {
  QueryRequest q = ParseQuery(
      "SELECT a.x, b.z FROM a JOIN b ON a.x = b.y WHERE b.z > 3;");
  EXPECT_EQ(q.verb, QueryRequest::Verb::kSelect);
  EXPECT_EQ(q.table, "a");
  EXPECT_EQ(q.join_table, "b");
  EXPECT_EQ(q.join_left, "a.x");
  EXPECT_EQ(q.join_right, "b.y");
  EXPECT_EQ(q.columns, (std::vector<std::string>{"a.x", "b.z"}));
  ASSERT_NE(q.where, nullptr);
  EXPECT_EQ(q.where->column, "b.z");
  // Unqualified ON references parse too.
  QueryRequest plain = ParseQuery("SELECT * FROM a JOIN b ON x = y;");
  EXPECT_EQ(plain.join_left, "x");
  EXPECT_EQ(plain.join_right, "y");
}

TEST(Parser, SelectOrderByAndLimit) {
  QueryRequest q = ParseQuery(
      "SELECT a, b FROM t WHERE a > 1 ORDER BY b DESC LIMIT 10;");
  EXPECT_EQ(q.order_by, "b");
  EXPECT_TRUE(q.order_desc);
  EXPECT_EQ(q.limit, 10);
  // ASC is the (explicit) default; LIMIT works alone.
  QueryRequest asc = ParseQuery("SELECT * FROM t ORDER BY a ASC;");
  EXPECT_EQ(asc.order_by, "a");
  EXPECT_FALSE(asc.order_desc);
  EXPECT_EQ(asc.limit, -1);
  QueryRequest lim = ParseQuery("SELECT * FROM t LIMIT 0;");
  EXPECT_TRUE(lim.order_by.empty());
  EXPECT_EQ(lim.limit, 0);
}

TEST(Parser, NestedWhereExpression) {
  QueryRequest q = ParseQuery(
      "SELECT * FROM t WHERE a = 'x' AND (b > 3 OR NOT c IN (1, 2));");
  ASSERT_NE(q.where, nullptr);
  const Expr& root = *q.where;
  ASSERT_EQ(root.kind, ExprKind::kAnd);
  ASSERT_EQ(root.children.size(), 2u);
  EXPECT_EQ(root.children[0]->kind, ExprKind::kCompare);
  ASSERT_EQ(root.children[1]->kind, ExprKind::kOr);
  EXPECT_EQ(root.children[1]->children[1]->kind, ExprKind::kNot);
  EXPECT_EQ(root.children[1]->children[1]->children[0]->kind, ExprKind::kIn);
}

TEST(Parser, WherePrecedenceNotOverAndOverOr) {
  // a = 1 OR b = 2 AND NOT c = 3  parses as  a=1 OR (b=2 AND (NOT c=3)).
  QueryRequest q =
      ParseQuery("SELECT * FROM t WHERE a = 1 OR b = 2 AND NOT c = 3;");
  const Expr& root = *q.where;
  ASSERT_EQ(root.kind, ExprKind::kOr);
  ASSERT_EQ(root.children.size(), 2u);
  ASSERT_EQ(root.children[1]->kind, ExprKind::kAnd);
  EXPECT_EQ(root.children[1]->children[1]->kind, ExprKind::kNot);
}

TEST(Parser, BetweenBindsFirstAndAsBoundSeparator) {
  QueryRequest q = ParseQuery(
      "SELECT * FROM t WHERE x BETWEEN 1 AND 5 AND y = 2;");
  const Expr& root = *q.where;
  ASSERT_EQ(root.kind, ExprKind::kAnd);
  ASSERT_EQ(root.children.size(), 2u);
  EXPECT_EQ(root.children[0]->kind, ExprKind::kBetween);
  EXPECT_EQ(root.children[0]->between_lo, Value(int64_t{1}));
  EXPECT_EQ(root.children[0]->between_hi, Value(int64_t{5}));
}

TEST(Parser, PostfixNotForms) {
  QueryRequest q = ParseQuery(
      "SELECT * FROM t WHERE x NOT IN ('a') AND y NOT BETWEEN 1 AND 2;");
  const Expr& root = *q.where;
  ASSERT_EQ(root.children.size(), 2u);
  EXPECT_EQ(root.children[0]->kind, ExprKind::kNot);
  EXPECT_EQ(root.children[0]->children[0]->kind, ExprKind::kIn);
  EXPECT_EQ(root.children[1]->kind, ExprKind::kNot);
  EXPECT_EQ(root.children[1]->children[0]->kind, ExprKind::kBetween);
}

TEST(Parser, MixedScriptInterleavesSmosAndQueries) {
  auto script = ParseStatementScript(
                    "COPY TABLE R TO B;\n"
                    "SELECT COUNT(*) FROM B;\n"
                    "DROP TABLE B;\n")
                    .ValueOrDie();
  ASSERT_EQ(script.size(), 3u);
  EXPECT_EQ(script[0].kind, Statement::Kind::kSmo);
  EXPECT_EQ(script[1].kind, Statement::Kind::kQuery);
  EXPECT_EQ(script[2].kind, Statement::Kind::kSmo);
}

TEST(Parser, SmoOnlySurfaceRejectsSelectWithPosition) {
  Status st = ParseSmoScript("DROP TABLE A;\nSELECT * FROM B;").status();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("line 2"), std::string::npos) << st.ToString();
  EXPECT_NE(st.message().find("query"), std::string::npos);
}

TEST(Parser, SelectErrorPaths) {
  struct Case {
    const char* text;
    const char* expect;  // substring of the error message
  };
  for (const Case& c : {
           Case{"SELECT COUNT(*) FROM t WHERE (a = 1;", "expected ')'"},
           Case{"SELECT * FROM t WHERE a = 1);",
                "expected ';' after the SELECT statement"},
           Case{"SELECT * FROM t WHERE ((a = 1 OR b = 2);", "expected ')'"},
           Case{"SELECT * FROM t WHERE x = 'oops;", "unterminated"},
           Case{"SELECT * FROM t WHERE x IN (1, 2;", "expected ')'"},
           Case{"SELECT * FROM t WHERE x IN ();", "expected a literal"},
           Case{"SELECT * FROM t WHERE x BETWEEN 1 5;",
                "expected keyword 'AND'"},
           Case{"SELECT * FROM t WHERE NOT;", "expected column name"},
           Case{"SELECT * FROM t WHERE x NOT = 3;",
                "expected IN or BETWEEN after NOT"},
           Case{"SELECT * FROM t WHERE;", "expected column name"},
           Case{"SELECT * FROM t WHERE x =;", "expected a literal"},
           // FROM lexes as an identifier, so it is eaten as a column
           // name and the real FROM is found missing.
           Case{"SELECT FROM t;", "expected keyword 'FROM'"},
           Case{"SELECT COUNT(x) FROM t;",
                "aggregates need a GROUP BY clause"},
           Case{"SELECT a FROM;", "expected table name"},
           Case{"SELECT a, SUM(m) FROM t;",
                "aggregates need a GROUP BY clause"},
           Case{"SELECT a, SUM(m) FROM t GROUP BY g;",
                "may only name the grouping column"},
           Case{"SELECT a FROM t GROUP BY a;",
                "GROUP BY needs at least one aggregate"},
           Case{"SELECT SUM(*) FROM t GROUP BY g;", "expected column name"},
           Case{"SELECT a, a FROM t;", "duplicate column 'a'"},
           Case{"SELECT b.x, b.x FROM a JOIN b ON k = k;",
                "duplicate column 'b.x'"},
           Case{"SELECT * FROM a JOIN b;", "expected keyword 'ON'"},
           Case{"SELECT * FROM a JOIN b ON x;", "expected '='"},
           Case{"SELECT * FROM a JOIN b ON x = ;", "expected column name"},
           Case{"SELECT * FROM t ORDER a;", "expected keyword 'BY'"},
           Case{"SELECT * FROM t ORDER BY;", "expected column name"},
           Case{"SELECT COUNT(*) FROM t ORDER BY a;",
                "ORDER BY applies to row-returning SELECTs"},
           Case{"SELECT g, SUM(m) FROM t GROUP BY g LIMIT 3;",
                "LIMIT applies to row-returning SELECTs"},
           Case{"SELECT * FROM t LIMIT -1;", "non-negative integer"},
           Case{"SELECT * FROM t LIMIT 2.5;", "non-negative integer"},
           Case{"SELECT * FROM t LIMIT x;", "non-negative integer"},
           // Out-of-range literals keep the positioned diagnostic.
           Case{"SELECT * FROM t LIMIT 99999999999999999999;",
                "column 23: LIMIT wants a non-negative integer"},
       }) {
    Status st = ParseStatementScript(c.text).status();
    ASSERT_FALSE(st.ok()) << c.text;
    EXPECT_NE(st.message().find(c.expect), std::string::npos)
        << c.text << " -> " << st.ToString();
  }
}

TEST(Parser, ExpressionNestingIsCappedWithAPositionedError) {
  // NOT and parenthesis nesting recurse in the parser; past the cap a
  // statement is a typed InvalidArgument naming where the cap was hit,
  // not a stack overflow on the parsing thread.
  auto repeat = [](const std::string& piece, int n) {
    std::string out;
    for (int i = 0; i < n; ++i) out += piece;
    return out;
  };
  const std::string prefix = "SELECT COUNT(*) FROM R WHERE ";
  auto nots = ParseStatement(prefix + repeat("NOT ", 100'000) + "x = 1;");
  ASSERT_FALSE(nots.ok());
  EXPECT_TRUE(nots.status().IsInvalidArgument()) << nots.status().ToString();
  EXPECT_NE(nots.status().message().find("nesting exceeds 256 levels"),
            std::string::npos)
      << nots.status().ToString();
  // The 257th NOT starts at byte 29 + 256 * 4: column 1054 of line 1.
  EXPECT_NE(nots.status().message().find("line 1, column 1054"),
            std::string::npos)
      << nots.status().ToString();
  auto parens = ParseStatement(prefix + repeat("(", 100'000) + "x = 1" +
                               repeat(")", 100'000) + ";");
  ASSERT_FALSE(parens.ok());
  EXPECT_TRUE(parens.status().IsInvalidArgument());
  EXPECT_NE(parens.status().message().find("nesting exceeds 256 levels"),
            std::string::npos)
      << parens.status().ToString();
  // Interleaved forms count against one budget.
  auto mixed = ParseStatement(prefix + repeat("NOT (", 200) + "x = 1" +
                              repeat(")", 200) + ";");
  ASSERT_FALSE(mixed.ok());
  EXPECT_TRUE(mixed.status().IsInvalidArgument());
  // At the cap itself the statement parses and normalizes.
  auto at_cap = ParseStatement(prefix + repeat("NOT ", 256) + "x = 1;");
  ASSERT_TRUE(at_cap.ok()) << at_cap.status().ToString();
  EXPECT_EQ(NormalizeExpr(at_cap.ValueOrDie().query.where)->ToString(),
            "x = 1");
  auto nested = ParseStatement(prefix + repeat("(", 256) + "x = 1" +
                               repeat(")", 256) + ";");
  ASSERT_TRUE(nested.ok()) << nested.status().ToString();
}

TEST(Parser, SelectRoundTripThroughToString) {
  // Statement::ToString of parsed SELECTs re-parses to the same
  // statement, like SMOs (same fixed point: ToString ∘ parse is
  // idempotent and equality is checked on the rendered form).
  for (const char* stmt :
       {"SELECT * FROM R",
        "SELECT a, b FROM R",
        "SELECT * FROM R WHERE a = 'it''s'",
        "SELECT COUNT(*) FROM R",
        "SELECT COUNT(*) FROM R WHERE a = 1 AND b = 2 AND c = 3",
        "SELECT g, SUM(m) FROM T GROUP BY g",
        "SELECT g, SUM(m) FROM T WHERE m > 0.5 GROUP BY g",
        "SELECT * FROM t WHERE a = 'x' AND (b > 3 OR NOT c IN (1, 2))",
        "SELECT * FROM t WHERE x BETWEEN 1 AND 5 AND y NOT BETWEEN 2.5 AND 3",
        "SELECT * FROM t WHERE NOT (a = 1 OR b != 2) AND c IN ('a', 'b')",
        "SELECT * FROM t WHERE NOT NOT a < 1e25",
        "SELECT * FROM t WHERE (a = 1 AND b = 2) OR (a = 3 AND b = 4)",
        "SELECT * FROM a JOIN b ON a.x = b.y",
        "SELECT a.x, b.z FROM a JOIN b ON x = y WHERE b.z > 3",
        "SELECT COUNT(*) FROM a JOIN b ON a.x = b.y WHERE z = 1",
        "SELECT g, SUM(m), COUNT(*), MIN(m), MAX(m), AVG(m) FROM T "
        "GROUP BY g",
        "SELECT g, COUNT(m) FROM a JOIN b ON x = y GROUP BY g",
        "SELECT a, b FROM t ORDER BY b DESC LIMIT 10",
        "SELECT * FROM t WHERE a > 1 ORDER BY a LIMIT 0",
        "SELECT * FROM t LIMIT 7"}) {
    Statement first = ParseStatement(stmt).ValueOrDie();
    auto reparsed = ParseStatement(first.ToString());
    ASSERT_TRUE(reparsed.ok())
        << stmt << " -> " << first.ToString() << ": "
        << reparsed.status().ToString();
    Statement second = std::move(reparsed).ValueOrDie();
    EXPECT_EQ(first.ToString(), second.ToString()) << stmt;
    EXPECT_EQ(second.kind, Statement::Kind::kQuery);
    EXPECT_EQ(first.query.verb, second.query.verb);
    EXPECT_EQ(first.query.table, second.query.table);
    EXPECT_EQ(first.query.columns, second.query.columns);
    EXPECT_EQ(first.query.group_by, second.query.group_by);
    EXPECT_TRUE(first.query.aggregates == second.query.aggregates) << stmt;
    EXPECT_EQ(first.query.join_table, second.query.join_table);
    EXPECT_EQ(first.query.join_left, second.query.join_left);
    EXPECT_EQ(first.query.join_right, second.query.join_right);
    EXPECT_EQ(first.query.order_by, second.query.order_by);
    EXPECT_EQ(first.query.order_desc, second.query.order_desc);
    EXPECT_EQ(first.query.limit, second.query.limit);
    ASSERT_EQ(first.query.where == nullptr, second.query.where == nullptr)
        << stmt;
    if (first.query.where != nullptr) {
      EXPECT_TRUE(ExprEquals(*first.query.where, *second.query.where))
          << stmt << " -> " << first.ToString();
    }
  }
}

TEST(Parser, SmoStatementsRoundTripAsStatements) {
  // The Statement wrapper preserves the SMO round-trip contract.
  Statement stmt =
      ParseStatement("PARTITION TABLE R INTO A, B WHERE x >= 10;")
          .ValueOrDie();
  EXPECT_EQ(stmt.kind, Statement::Kind::kSmo);
  Statement again = ParseStatement(stmt.ToString()).ValueOrDie();
  EXPECT_EQ(stmt.ToString(), again.ToString());
}

}  // namespace
}  // namespace cods
