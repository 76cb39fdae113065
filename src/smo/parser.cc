#include "smo/parser.h"

#include <cctype>

#include "common/string_util.h"

namespace cods {

namespace {

enum class TokenKind {
  kIdent,    // identifiers and keywords
  kNumber,   // integer or decimal literal
  kString,   // quoted string literal
  kSymbol,   // punctuation and comparison operators
  kEnd,
};

struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string text;
  // Byte offset of the token's first character in the SOURCE text. The
  // single source of truth for positions: token text is DECODED (a
  // doubled quote collapses to one character), so counting token
  // characters would drift from the source — line/column are derived
  // from this offset at report time instead.
  size_t offset = 0;
};

// "line L, column C: " (1-based) of the byte at `offset`, derived by
// scanning the source prefix — only ever paid on the error path.
std::string FormatPosition(const std::string& text, size_t offset) {
  size_t line = 1, column = 1;
  for (size_t i = 0; i < offset && i < text.size(); ++i) {
    if (text[i] == '\n') {
      ++line;
      column = 1;
    } else {
      ++column;
    }
  }
  return "line " + std::to_string(line) + ", column " +
         std::to_string(column) + ": ";
}

class Lexer {
 public:
  explicit Lexer(const std::string& text) : text_(text) {}

  Result<std::vector<Token>> Tokenize() {
    std::vector<Token> out;
    while (true) {
      SkipWhitespaceAndComments();
      if (pos_ >= text_.size()) break;
      char c = text_[pos_];
      Token tok;
      tok.offset = pos_;
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        tok.kind = TokenKind::kIdent;
        while (pos_ < text_.size() &&
               (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '_')) {
          tok.text += Advance();
        }
      } else if (std::isdigit(static_cast<unsigned char>(c)) || c == '-' ||
                 c == '+') {
        tok.kind = TokenKind::kNumber;
        tok.text += Advance();
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' ||
                // Exponent sign: only directly after e/E ("1e+25").
                ((text_[pos_] == '+' || text_[pos_] == '-') &&
                 (tok.text.back() == 'e' || tok.text.back() == 'E')))) {
          tok.text += Advance();
        }
      } else if (c == '\'' || c == '"') {
        tok.kind = TokenKind::kString;
        char quote = Advance();
        for (;;) {
          while (pos_ < text_.size() && text_[pos_] != quote) {
            tok.text += Advance();
          }
          if (pos_ >= text_.size()) {
            return Status::InvalidArgument(FormatPosition(text_, tok.offset) +
                                           "unterminated string literal");
          }
          Advance();  // closing quote...
          if (pos_ < text_.size() && text_[pos_] == quote) {
            tok.text += Advance();  // ...or a doubled (escaped) one
            continue;
          }
          break;
        }
      } else if (c == '<' || c == '>' || c == '!') {
        tok.kind = TokenKind::kSymbol;
        tok.text += Advance();
        if (pos_ < text_.size() && text_[pos_] == '=') {
          tok.text += Advance();
        }
        if (tok.text == "!") {
          return Status::InvalidArgument(FormatPosition(text_, tok.offset) +
                                         "stray '!'");
        }
      } else if (c == '(' || c == ')' || c == ',' || c == ';' || c == '=' ||
                 c == '*' || c == '.') {
        tok.kind = TokenKind::kSymbol;
        tok.text += Advance();
      } else {
        return Status::InvalidArgument(FormatPosition(text_, pos_) +
                                       std::string("unexpected character '") +
                                       c + "'");
      }
      out.push_back(std::move(tok));
    }
    Token end;
    end.offset = pos_;
    out.push_back(end);
    return out;
  }

 private:
  char Advance() { return text_[pos_++]; }

  void SkipWhitespaceAndComments() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (std::isspace(static_cast<unsigned char>(c))) {
        Advance();
      } else if (c == '-' && pos_ + 1 < text_.size() &&
                 text_[pos_ + 1] == '-') {
        while (pos_ < text_.size() && text_[pos_] != '\n') Advance();
      } else {
        break;
      }
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

class Parser {
 public:
  // `text` is the source the tokens were lexed from (positions in error
  // messages derive from token byte offsets into it); not owned.
  Parser(const std::string& text, std::vector<Token> tokens)
      : text_(text), tokens_(std::move(tokens)) {}

  // Parses the whole script. `where` (if given) receives one source-
  // position prefix ("line L, column C: ") per statement, so callers
  // that restrict the statement mix (ParseSmoScript) can still report
  // where the offending statement started.
  Result<std::vector<Statement>> ParseScript(
      std::vector<std::string>* where = nullptr) {
    std::vector<Statement> out;
    while (!AtEnd()) {
      if (AcceptSymbol(";")) continue;
      std::string position = FormatPosition(text_, Peek().offset);
      CODS_ASSIGN_OR_RETURN(Statement stmt, ParseOneStatement());
      out.push_back(std::move(stmt));
      if (where != nullptr) where->push_back(std::move(position));
    }
    return out;
  }

  Result<Statement> ParseOneStatement() {
    if (AcceptKeyword("SELECT")) {
      CODS_ASSIGN_OR_RETURN(QueryRequest query, ParseSelect());
      return Statement::FromQuery(std::move(query));
    }
    CODS_ASSIGN_OR_RETURN(Smo smo, ParseSmo());
    return Statement::FromSmo(std::move(smo));
  }

  Result<Smo> ParseSmo() {
    if (AcceptKeyword("CREATE")) {
      CODS_RETURN_NOT_OK(ExpectKeyword("TABLE"));
      return ParseCreateTable();
    }
    if (AcceptKeyword("DROP")) {
      if (AcceptKeyword("TABLE")) {
        CODS_ASSIGN_OR_RETURN(std::string name, ExpectIdent("table name"));
        return Smo::DropTable(name);
      }
      CODS_RETURN_NOT_OK(ExpectKeyword("COLUMN"));
      CODS_ASSIGN_OR_RETURN(std::string col, ExpectIdent("column name"));
      CODS_RETURN_NOT_OK(ExpectKeyword("FROM"));
      CODS_ASSIGN_OR_RETURN(std::string table, ExpectIdent("table name"));
      return Smo::DropColumn(table, col);
    }
    if (AcceptKeyword("RENAME")) {
      if (AcceptKeyword("TABLE")) {
        CODS_ASSIGN_OR_RETURN(std::string from, ExpectIdent("table name"));
        CODS_RETURN_NOT_OK(ExpectKeyword("TO"));
        CODS_ASSIGN_OR_RETURN(std::string to, ExpectIdent("table name"));
        return Smo::RenameTable(from, to);
      }
      CODS_RETURN_NOT_OK(ExpectKeyword("COLUMN"));
      CODS_ASSIGN_OR_RETURN(std::string from, ExpectIdent("column name"));
      CODS_RETURN_NOT_OK(ExpectKeyword("TO"));
      CODS_ASSIGN_OR_RETURN(std::string to, ExpectIdent("column name"));
      CODS_RETURN_NOT_OK(ExpectKeyword("IN"));
      CODS_ASSIGN_OR_RETURN(std::string table, ExpectIdent("table name"));
      return Smo::RenameColumn(table, from, to);
    }
    if (AcceptKeyword("COPY")) {
      CODS_RETURN_NOT_OK(ExpectKeyword("TABLE"));
      CODS_ASSIGN_OR_RETURN(std::string from, ExpectIdent("table name"));
      CODS_RETURN_NOT_OK(ExpectKeyword("TO"));
      CODS_ASSIGN_OR_RETURN(std::string to, ExpectIdent("table name"));
      return Smo::CopyTable(from, to);
    }
    if (AcceptKeyword("UNION")) {
      CODS_RETURN_NOT_OK(ExpectKeyword("TABLES"));
      CODS_ASSIGN_OR_RETURN(std::string a, ExpectIdent("table name"));
      CODS_RETURN_NOT_OK(ExpectSymbol(","));
      CODS_ASSIGN_OR_RETURN(std::string b, ExpectIdent("table name"));
      CODS_RETURN_NOT_OK(ExpectKeyword("INTO"));
      CODS_ASSIGN_OR_RETURN(std::string out, ExpectIdent("table name"));
      return Smo::UnionTables(a, b, out);
    }
    if (AcceptKeyword("PARTITION")) {
      CODS_RETURN_NOT_OK(ExpectKeyword("TABLE"));
      CODS_ASSIGN_OR_RETURN(std::string table, ExpectIdent("table name"));
      CODS_RETURN_NOT_OK(ExpectKeyword("INTO"));
      CODS_ASSIGN_OR_RETURN(std::string out1, ExpectIdent("table name"));
      CODS_RETURN_NOT_OK(ExpectSymbol(","));
      CODS_ASSIGN_OR_RETURN(std::string out2, ExpectIdent("table name"));
      CODS_RETURN_NOT_OK(ExpectKeyword("WHERE"));
      CODS_ASSIGN_OR_RETURN(std::string column, ExpectIdent("column name"));
      CODS_ASSIGN_OR_RETURN(CompareOp op, ParseCompareOp());
      CODS_ASSIGN_OR_RETURN(Value literal, ParseLiteral());
      return Smo::PartitionTable(table, out1, out2, column, op, literal);
    }
    if (AcceptKeyword("DECOMPOSE")) {
      CODS_RETURN_NOT_OK(ExpectKeyword("TABLE"));
      CODS_ASSIGN_OR_RETURN(std::string table, ExpectIdent("table name"));
      CODS_RETURN_NOT_OK(ExpectKeyword("INTO"));
      CODS_ASSIGN_OR_RETURN(OutSpec s, ParseOutSpec());
      CODS_RETURN_NOT_OK(ExpectSymbol(","));
      CODS_ASSIGN_OR_RETURN(OutSpec t, ParseOutSpec());
      return Smo::DecomposeTable(table, s.name, s.columns, s.key, t.name,
                                 t.columns, t.key);
    }
    if (AcceptKeyword("MERGE")) {
      CODS_RETURN_NOT_OK(ExpectKeyword("TABLES"));
      CODS_ASSIGN_OR_RETURN(std::string s, ExpectIdent("table name"));
      CODS_RETURN_NOT_OK(ExpectSymbol(","));
      CODS_ASSIGN_OR_RETURN(std::string t, ExpectIdent("table name"));
      CODS_RETURN_NOT_OK(ExpectKeyword("INTO"));
      CODS_ASSIGN_OR_RETURN(std::string out, ExpectIdent("table name"));
      CODS_RETURN_NOT_OK(ExpectKeyword("ON"));
      CODS_ASSIGN_OR_RETURN(std::vector<std::string> join, ParseNameList());
      std::vector<std::string> key;
      if (AcceptKeyword("KEY")) {
        CODS_ASSIGN_OR_RETURN(key, ParseNameList());
      }
      return Smo::MergeTables(s, t, out, join, key);
    }
    if (AcceptKeyword("ADD")) {
      CODS_RETURN_NOT_OK(ExpectKeyword("COLUMN"));
      CODS_ASSIGN_OR_RETURN(std::string col, ExpectIdent("column name"));
      CODS_ASSIGN_OR_RETURN(std::string type_name, ExpectIdent("type"));
      CODS_ASSIGN_OR_RETURN(DataType type, DataTypeFromString(type_name));
      CODS_RETURN_NOT_OK(ExpectKeyword("TO"));
      CODS_ASSIGN_OR_RETURN(std::string table, ExpectIdent("table name"));
      Value def;
      if (AcceptKeyword("DEFAULT")) {
        CODS_ASSIGN_OR_RETURN(def, ParseLiteralAs(type));
      } else {
        // Type-appropriate zero value.
        switch (type) {
          case DataType::kInt64:
            def = Value(int64_t{0});
            break;
          case DataType::kDouble:
            def = Value(0.0);
            break;
          case DataType::kString:
            def = Value(std::string());
            break;
        }
      }
      return Smo::AddColumn(table, ColumnSpec{col, type}, def);
    }
    return Error("expected a statement (SELECT or a schema modification "
                 "operator)");
  }

 private:
  struct OutSpec {
    std::string name;
    std::vector<std::string> columns;
    std::vector<std::string> key;
  };

  // ---- SELECT statements ---------------------------------------------------
  //
  //   SELECT <*|items> FROM t [JOIN u ON x = y] [WHERE expr]
  //     [GROUP BY g] [ORDER BY c [ASC|DESC]] [LIMIT n]
  //
  // where an item is a (possibly qualified) column reference or an
  // aggregate SUM/COUNT/MIN/MAX/AVG(col) / COUNT(*). A lone COUNT(*)
  // without GROUP BY is the count verb; any aggregate list under a
  // GROUP BY is the group-by verb; plain columns are the select verb.

  // True iff the next tokens are `<agg-name> (` — an identifier alone
  // may still be a column named "sum".
  bool PeekAggregate(AggregateSpec::Kind* kind) const {
    if (Peek().kind != TokenKind::kIdent) return false;
    const Token& next = tokens_[pos_ + 1];
    if (next.kind != TokenKind::kSymbol || next.text != "(") return false;
    const std::string& name = Peek().text;
    if (EqualsIgnoreCase(name, "SUM")) {
      *kind = AggregateSpec::Kind::kSum;
    } else if (EqualsIgnoreCase(name, "COUNT")) {
      *kind = AggregateSpec::Kind::kCount;
    } else if (EqualsIgnoreCase(name, "MIN")) {
      *kind = AggregateSpec::Kind::kMin;
    } else if (EqualsIgnoreCase(name, "MAX")) {
      *kind = AggregateSpec::Kind::kMax;
    } else if (EqualsIgnoreCase(name, "AVG")) {
      *kind = AggregateSpec::Kind::kAvg;
    } else {
      return false;
    }
    return true;
  }

  Result<QueryRequest> ParseSelect() {
    QueryRequest req;
    std::vector<std::string> bare;           // plain column references
    std::vector<AggregateSpec> aggs;
    if (!AcceptSymbol("*")) {
      while (true) {
        const Token& item_start = Peek();
        AggregateSpec::Kind kind;
        if (PeekAggregate(&kind)) {
          ++pos_;  // the aggregate name
          CODS_RETURN_NOT_OK(ExpectSymbol("("));
          AggregateSpec agg;
          agg.kind = kind;
          if (kind == AggregateSpec::Kind::kCount && AcceptSymbol("*")) {
            // COUNT(*): empty column.
          } else {
            CODS_ASSIGN_OR_RETURN(agg.column, ParseColumnRef());
          }
          CODS_RETURN_NOT_OK(ExpectSymbol(")"));
          aggs.push_back(std::move(agg));
        } else {
          CODS_ASSIGN_OR_RETURN(std::string col, ParseColumnRef());
          for (const std::string& prev : bare) {
            if (prev == col) {
              return ErrorAt(item_start, "duplicate column '" + col +
                                             "' in the select list");
            }
          }
          bare.push_back(std::move(col));
        }
        if (AcceptSymbol(",")) continue;
        break;
      }
    }
    CODS_RETURN_NOT_OK(ExpectKeyword("FROM"));
    CODS_ASSIGN_OR_RETURN(req.table, ExpectIdent("table name"));
    if (AcceptKeyword("JOIN")) {
      CODS_ASSIGN_OR_RETURN(req.join_table, ExpectIdent("table name"));
      CODS_RETURN_NOT_OK(ExpectKeyword("ON"));
      CODS_ASSIGN_OR_RETURN(req.join_left, ParseColumnRef());
      CODS_RETURN_NOT_OK(ExpectSymbol("="));
      CODS_ASSIGN_OR_RETURN(req.join_right, ParseColumnRef());
    }
    if (AcceptKeyword("WHERE")) {
      CODS_ASSIGN_OR_RETURN(req.where, ParseExpr());
    }
    bool has_group = false;
    if (AcceptKeyword("GROUP")) {
      CODS_RETURN_NOT_OK(ExpectKeyword("BY"));
      has_group = true;
      CODS_ASSIGN_OR_RETURN(req.group_by, ParseColumnRef());
    }
    // Resolve the verb from the select-list shape.
    if (aggs.size() == 1 && bare.empty() && !has_group &&
        aggs[0].kind == AggregateSpec::Kind::kCount && aggs[0].column.empty()) {
      req.verb = QueryRequest::Verb::kCount;
    } else if (!aggs.empty()) {
      req.verb = QueryRequest::Verb::kGroupBy;
      if (!has_group) {
        return Error("aggregates need a GROUP BY clause");
      }
      // The select list may additionally name only the group column;
      // the canonical (ToString) form always prints it.
      for (const std::string& col : bare) {
        if (col != req.group_by) {
          return Error("the select list of a GROUP BY query may only name "
                       "the grouping column; got '" + col + "'");
        }
      }
      req.aggregates = std::move(aggs);
    } else {
      if (has_group) {
        return Error("GROUP BY needs at least one aggregate in the select "
                     "list");
      }
      req.verb = QueryRequest::Verb::kSelect;
      req.columns = std::move(bare);
    }
    if (AcceptKeyword("ORDER")) {
      CODS_RETURN_NOT_OK(ExpectKeyword("BY"));
      if (req.verb != QueryRequest::Verb::kSelect) {
        return Error("ORDER BY applies to row-returning SELECTs only");
      }
      CODS_ASSIGN_OR_RETURN(req.order_by, ParseColumnRef());
      if (AcceptKeyword("DESC")) {
        req.order_desc = true;
      } else {
        (void)AcceptKeyword("ASC");
      }
    }
    if (AcceptKeyword("LIMIT")) {
      if (req.verb != QueryRequest::Verb::kSelect) {
        return Error("LIMIT applies to row-returning SELECTs only");
      }
      const Token& tok = Peek();
      Result<Value> n = tok.kind == TokenKind::kNumber &&
                                tok.text.find_first_of(".eE") ==
                                    std::string::npos
                            ? Value::Parse(tok.text, DataType::kInt64)
                            : Result<Value>(Status::InvalidArgument(""));
      // Out-of-range literals fail Value::Parse; keep the positioned
      // diagnostic uniform with every other parser error.
      if (!n.ok() || n.ValueOrDie().int64() < 0) {
        return Error("LIMIT wants a non-negative integer");
      }
      ++pos_;
      req.limit = n.ValueOrDie().int64();
    }
    // Queries end hard at ';' (or end of input) — anything trailing is
    // noise worth a precise message, e.g. an over-closed parenthesis.
    if (!AtEnd() &&
        !(Peek().kind == TokenKind::kSymbol && Peek().text == ";")) {
      return Error("expected ';' after the SELECT statement");
    }
    return req;
  }

  // ---- WHERE expressions ---------------------------------------------------
  //
  // SQL precedence, loosest first: OR, AND, NOT, then primaries
  // (parenthesized expression, compare, IN, BETWEEN, and the
  // `x NOT IN` / `x NOT BETWEEN` forms).

  Result<ExprPtr> ParseExpr() { return ParseOrExpr(); }

  Result<ExprPtr> ParseOrExpr() {
    CODS_ASSIGN_OR_RETURN(ExprPtr first, ParseAndExpr());
    std::vector<ExprPtr> children{std::move(first)};
    while (AcceptKeyword("OR")) {
      CODS_ASSIGN_OR_RETURN(ExprPtr next, ParseAndExpr());
      children.push_back(std::move(next));
    }
    return Expr::Or(std::move(children));  // single child passes through
  }

  Result<ExprPtr> ParseAndExpr() {
    CODS_ASSIGN_OR_RETURN(ExprPtr first, ParseNotExpr());
    std::vector<ExprPtr> children{std::move(first)};
    while (AcceptKeyword("AND")) {
      CODS_ASSIGN_OR_RETURN(ExprPtr next, ParseNotExpr());
      children.push_back(std::move(next));
    }
    return Expr::And(std::move(children));
  }

  // NOT and parentheses nest by recursion on the thread that parses
  // (the server's event loop), so nesting is capped: a hostile
  // statement gets a positioned error instead of overflowing the stack.
  static constexpr int kMaxExprNesting = 256;

  // Holds one nesting level for the scope of a recursive descent.
  class NestingGuard {
   public:
    explicit NestingGuard(int* depth) : depth_(depth) { ++*depth_; }
    ~NestingGuard() { --*depth_; }
    NestingGuard(const NestingGuard&) = delete;
    NestingGuard& operator=(const NestingGuard&) = delete;

   private:
    int* depth_;
  };

  Status CheckNesting(const Token& at) const {
    if (expr_depth_ < kMaxExprNesting) return Status::OK();
    return ErrorAt(at, "expression nesting exceeds " +
                           std::to_string(kMaxExprNesting) + " levels");
  }

  Result<ExprPtr> ParseNotExpr() {
    const Token& at = Peek();
    if (AcceptKeyword("NOT")) {
      CODS_RETURN_NOT_OK(CheckNesting(at));
      NestingGuard guard(&expr_depth_);
      CODS_ASSIGN_OR_RETURN(ExprPtr child, ParseNotExpr());
      return Expr::Not(std::move(child));
    }
    return ParsePrimaryExpr();
  }

  Result<ExprPtr> ParsePrimaryExpr() {
    const Token& at = Peek();
    if (AcceptSymbol("(")) {
      CODS_RETURN_NOT_OK(CheckNesting(at));
      NestingGuard guard(&expr_depth_);
      CODS_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpr());
      CODS_RETURN_NOT_OK(ExpectSymbol(")"));
      return inner;
    }
    CODS_ASSIGN_OR_RETURN(std::string column, ParseColumnRef());
    bool negate = AcceptKeyword("NOT");
    if (AcceptKeyword("IN")) {
      CODS_RETURN_NOT_OK(ExpectSymbol("("));
      std::vector<Value> values;
      while (true) {
        CODS_ASSIGN_OR_RETURN(Value v, ParseLiteral());
        values.push_back(std::move(v));
        if (AcceptSymbol(",")) continue;
        CODS_RETURN_NOT_OK(ExpectSymbol(")"));
        break;
      }
      ExprPtr e = Expr::In(std::move(column), std::move(values));
      return negate ? Expr::Not(std::move(e)) : e;
    }
    if (AcceptKeyword("BETWEEN")) {
      // The first AND after BETWEEN separates the bounds (standard SQL);
      // conjunction continues after the second literal.
      CODS_ASSIGN_OR_RETURN(Value lo, ParseLiteral());
      CODS_RETURN_NOT_OK(ExpectKeyword("AND"));
      CODS_ASSIGN_OR_RETURN(Value hi, ParseLiteral());
      ExprPtr e =
          Expr::Between(std::move(column), std::move(lo), std::move(hi));
      return negate ? Expr::Not(std::move(e)) : e;
    }
    if (negate) return Error("expected IN or BETWEEN after NOT");
    CODS_ASSIGN_OR_RETURN(CompareOp op, ParseCompareOp());
    CODS_ASSIGN_OR_RETURN(Value literal, ParseLiteral());
    return Expr::Compare(std::move(column), op, std::move(literal));
  }

  Result<Smo> ParseCreateTable() {
    CODS_ASSIGN_OR_RETURN(std::string name, ExpectIdent("table name"));
    CODS_RETURN_NOT_OK(ExpectSymbol("("));
    std::vector<ColumnSpec> specs;
    std::vector<std::string> key;
    while (true) {
      if (AcceptKeyword("KEY")) {
        CODS_ASSIGN_OR_RETURN(key, ParseNameList());
      } else {
        CODS_ASSIGN_OR_RETURN(std::string col, ExpectIdent("column name"));
        CODS_ASSIGN_OR_RETURN(std::string type_name, ExpectIdent("type"));
        CODS_ASSIGN_OR_RETURN(DataType type, DataTypeFromString(type_name));
        AcceptKeyword("SORTED");  // discarded; kept so old WALs replay
        specs.push_back(ColumnSpec{col, type});
      }
      if (AcceptSymbol(",")) continue;
      CODS_RETURN_NOT_OK(ExpectSymbol(")"));
      break;
    }
    CODS_ASSIGN_OR_RETURN(Schema schema,
                          Schema::Make(std::move(specs), std::move(key)));
    return Smo::CreateTable(name, std::move(schema));
  }

  Result<OutSpec> ParseOutSpec() {
    OutSpec spec;
    CODS_ASSIGN_OR_RETURN(spec.name, ExpectIdent("table name"));
    CODS_ASSIGN_OR_RETURN(spec.columns, ParseNameList());
    if (AcceptKeyword("KEY")) {
      CODS_ASSIGN_OR_RETURN(spec.key, ParseNameList());
    }
    return spec;
  }

  // A column reference: `col` or the qualified `table.col` (the shape
  // Schema::ResolveColumnRef / Table::ResolveColumnRef understand).
  Result<std::string> ParseColumnRef() {
    CODS_ASSIGN_OR_RETURN(std::string name, ExpectIdent("column name"));
    if (AcceptSymbol(".")) {
      CODS_ASSIGN_OR_RETURN(std::string col, ExpectIdent("column name"));
      name += "." + col;
    }
    return name;
  }

  Result<std::vector<std::string>> ParseNameList() {
    CODS_RETURN_NOT_OK(ExpectSymbol("("));
    std::vector<std::string> names;
    while (true) {
      CODS_ASSIGN_OR_RETURN(std::string n, ExpectIdent("name"));
      names.push_back(std::move(n));
      if (AcceptSymbol(",")) continue;
      CODS_RETURN_NOT_OK(ExpectSymbol(")"));
      break;
    }
    return names;
  }

  Result<CompareOp> ParseCompareOp() {
    const Token& tok = Peek();
    if (tok.kind != TokenKind::kSymbol) {
      return Error("expected a comparison operator");
    }
    CompareOp op;
    if (tok.text == "=") {
      op = CompareOp::kEq;
    } else if (tok.text == "!=") {
      op = CompareOp::kNe;
    } else if (tok.text == "<") {
      op = CompareOp::kLt;
    } else if (tok.text == "<=") {
      op = CompareOp::kLe;
    } else if (tok.text == ">") {
      op = CompareOp::kGt;
    } else if (tok.text == ">=") {
      op = CompareOp::kGe;
    } else {
      return Error("unknown comparison operator '" + tok.text + "'");
    }
    ++pos_;
    return op;
  }

  Result<Value> ParseLiteral() {
    const Token& tok = Peek();
    if (tok.kind == TokenKind::kString) {
      ++pos_;
      return Value(tok.text);
    }
    if (tok.kind == TokenKind::kNumber) {
      ++pos_;
      if (tok.text.find_first_of(".eE") == std::string::npos) {
        return Value::Parse(tok.text, DataType::kInt64);
      }
      return Value::Parse(tok.text, DataType::kDouble);
    }
    return Error("expected a literal");
  }

  Result<Value> ParseLiteralAs(DataType type) {
    const Token& tok = Peek();
    if (tok.kind != TokenKind::kString && tok.kind != TokenKind::kNumber) {
      return Error("expected a literal");
    }
    ++pos_;
    return Value::Parse(tok.text, type);
  }

  const Token& Peek() const { return tokens_[pos_]; }
  bool AtEnd() const { return Peek().kind == TokenKind::kEnd; }

  bool AcceptKeyword(const char* kw) {
    if (Peek().kind == TokenKind::kIdent && EqualsIgnoreCase(Peek().text, kw)) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status ExpectKeyword(const char* kw) {
    if (!AcceptKeyword(kw)) {
      return Error("expected keyword '" + std::string(kw) + "'");
    }
    return Status::OK();
  }

  bool AcceptSymbol(const char* sym) {
    if (Peek().kind == TokenKind::kSymbol && Peek().text == sym) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status ExpectSymbol(const char* sym) {
    if (!AcceptSymbol(sym)) {
      return Error("expected '" + std::string(sym) + "'");
    }
    return Status::OK();
  }

  Result<std::string> ExpectIdent(const char* what) {
    if (Peek().kind != TokenKind::kIdent) {
      return Error("expected " + std::string(what));
    }
    std::string text = Peek().text;
    ++pos_;
    return text;
  }

  // Builds an error Status carrying source position; convertible to any
  // Result<T> via the implicit Status constructor.
  Status Error(const std::string& msg) const { return ErrorAt(Peek(), msg); }

  Status ErrorAt(const Token& tok, const std::string& msg) const {
    return Status::InvalidArgument(FormatPosition(text_, tok.offset) + msg +
                                   (tok.text.empty()
                                        ? std::string(" (at end of input)")
                                        : " (got '" + tok.text + "')"));
  }

  const std::string& text_;
  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int expr_depth_ = 0;  // NOT / parenthesis levels open in ParseExpr
};

}  // namespace

Statement Statement::FromSmo(Smo smo) {
  Statement stmt;
  stmt.kind = Kind::kSmo;
  stmt.smo = std::move(smo);
  return stmt;
}

Statement Statement::FromQuery(QueryRequest query) {
  Statement stmt;
  stmt.kind = Kind::kQuery;
  stmt.query = std::move(query);
  return stmt;
}

std::string Statement::ToString() const {
  return kind == Kind::kSmo ? smo.ToString() : query.ToString();
}

Result<std::vector<Statement>> ParseStatementScript(const std::string& text) {
  Lexer lexer(text);
  CODS_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  Parser parser(text, std::move(tokens));
  return parser.ParseScript();
}

Result<Statement> ParseStatement(const std::string& text) {
  CODS_ASSIGN_OR_RETURN(std::vector<Statement> script,
                        ParseStatementScript(text));
  if (script.size() != 1) {
    return Status::InvalidArgument("expected exactly one statement, got " +
                                   std::to_string(script.size()));
  }
  return std::move(script[0]);
}

Result<std::vector<Smo>> ParseSmoScript(const std::string& text) {
  Lexer lexer(text);
  CODS_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  Parser parser(text, std::move(tokens));
  std::vector<std::string> where;
  CODS_ASSIGN_OR_RETURN(std::vector<Statement> script,
                        parser.ParseScript(&where));
  std::vector<Smo> out;
  out.reserve(script.size());
  for (size_t i = 0; i < script.size(); ++i) {
    if (script[i].kind == Statement::Kind::kQuery) {
      return Status::InvalidArgument(
          where[i] +
          "SELECT is a query statement; this surface accepts only schema "
          "modification operators");
    }
    out.push_back(std::move(script[i].smo));
  }
  return out;
}

Result<Smo> ParseSmoStatement(const std::string& text) {
  CODS_ASSIGN_OR_RETURN(std::vector<Smo> script, ParseSmoScript(text));
  if (script.size() != 1) {
    return Status::InvalidArgument("expected exactly one statement, got " +
                                   std::to_string(script.size()));
  }
  return std::move(script[0]);
}

}  // namespace cods
