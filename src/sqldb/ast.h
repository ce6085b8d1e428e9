#ifndef HYPERQ_SQLDB_AST_H_
#define HYPERQ_SQLDB_AST_H_

#include <memory>
#include <string>
#include <vector>

#include "sqldb/types.h"

namespace hyperq {
namespace sqldb {

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

enum class ExprKind {
  kConst,     ///< literal (value in `datum`)
  kColRef,    ///< [qualifier.]name
  kStar,      ///< * or alias.* (only valid in select lists / COUNT(*))
  kBinary,    ///< op in {+,-,*,/,%,||,=,<>,<,>,<=,>=,AND,OR,
              ///<        IS_DISTINCT, IS_NOT_DISTINCT}
  kUnary,     ///< -x, NOT x
  kIsNull,    ///< x IS [NOT] NULL (negate flag)
  kInList,    ///< x [NOT] IN (a, b, c)
  kBetween,   ///< x BETWEEN lo AND hi
  kCase,      ///< CASE WHEN c THEN v ... [ELSE e] END
  kCast,      ///< CAST(x AS t) or x::t
  kFuncCall,  ///< scalar function or aggregate (no OVER clause)
  kWindow,    ///< aggregate/window function with OVER (...)
};

struct Expr;
using ExprPtr = std::shared_ptr<Expr>;

struct OrderItem {
  ExprPtr expr;
  bool ascending = true;
  /// PG default: NULLS LAST for ASC, NULLS FIRST for DESC.
  bool nulls_first = false;
  bool nulls_explicit = false;
};

struct WindowFrame {
  /// ROWS BETWEEN <start> AND <end>; offsets relative to the current row.
  /// kUnboundedPreceding/kUnboundedFollowing use INT64_MIN/MAX sentinels.
  bool specified = false;
  bool is_rows = true;  ///< false = RANGE (only default frames supported)
  int64_t start_offset = INT64_MIN;
  int64_t end_offset = 0;
};

struct WindowSpec {
  std::vector<ExprPtr> partition_by;
  std::vector<OrderItem> order_by;
  WindowFrame frame;
};

struct Expr {
  ExprKind kind;

  // kConst
  Datum datum;

  // kColRef / kStar
  std::string qualifier;
  std::string column;

  // kBinary / kUnary: op spelling, uppercase for keywords.
  std::string op;
  ExprPtr lhs;
  ExprPtr rhs;

  // kIsNull / kInList negation; kFuncCall DISTINCT flag.
  bool negated = false;
  bool distinct = false;

  // kInList items; kCase when/then pairs then optional else at the end
  // (flag `has_else`); kFuncCall arguments.
  std::vector<ExprPtr> args;
  bool has_else = false;

  // kBetween
  ExprPtr low;
  ExprPtr high;

  // kCast
  SqlType cast_type = SqlType::kNull;

  // kFuncCall / kWindow
  std::string func_name;  ///< lower-cased
  WindowSpec window;
};

ExprPtr MakeConst(Datum d);
ExprPtr MakeColRef(std::string qualifier, std::string column);
ExprPtr MakeStar(std::string qualifier);
ExprPtr MakeBinary(std::string op, ExprPtr lhs, ExprPtr rhs);
ExprPtr MakeUnary(std::string op, ExprPtr operand);
ExprPtr MakeFunc(std::string name, std::vector<ExprPtr> args);

// ---------------------------------------------------------------------------
// Table references and statements
// ---------------------------------------------------------------------------

struct SelectStmt;
using SelectPtr = std::shared_ptr<SelectStmt>;

enum class JoinType { kInner, kLeft, kCross };

struct TableRef;
using TableRefPtr = std::shared_ptr<TableRef>;

struct TableRef {
  enum class Kind { kNamed, kSubquery, kJoin };
  Kind kind = Kind::kNamed;

  // kNamed
  std::string name;
  // kSubquery
  SelectPtr subquery;
  // all kinds
  std::string alias;

  // kJoin
  JoinType join_type = JoinType::kInner;
  TableRefPtr left;
  TableRefPtr right;
  ExprPtr on;
};

struct SelectItem {
  ExprPtr expr;
  std::string alias;
};

struct SelectStmt {
  bool distinct = false;
  std::vector<SelectItem> items;
  TableRefPtr from;  ///< null => SELECT without FROM
  ExprPtr where;
  std::vector<ExprPtr> group_by;
  ExprPtr having;
  std::vector<OrderItem> order_by;
  ExprPtr limit;
  ExprPtr offset;
  /// UNION ALL chain: this select followed by the others.
  std::vector<SelectPtr> union_all;
};

struct ColumnDef {
  std::string name;
  SqlType type = SqlType::kText;
};

/// Any SQL statement accepted by the engine.
struct SqlStatement {
  enum class Kind {
    kSelect,
    kCreateTable,      ///< CREATE [TEMP] TABLE name (cols)
    kCreateTableAs,    ///< CREATE [TEMP] TABLE name AS select
    kCreateView,       ///< CREATE [OR REPLACE] [TEMP] VIEW name AS select
    kDropTable,
    kDropView,
    kInsertValues,     ///< INSERT INTO name [(cols)] VALUES (...), (...)
    kInsertSelect,     ///< INSERT INTO name [(cols)] select
  };
  Kind kind = Kind::kSelect;

  SelectPtr select;
  std::string target;          ///< table/view name for DDL/DML
  bool temporary = false;
  bool or_replace = false;
  bool if_exists = false;
  std::vector<ColumnDef> columns;
  std::vector<std::string> insert_columns;
  std::vector<std::vector<ExprPtr>> insert_rows;
};

}  // namespace sqldb
}  // namespace hyperq

#endif  // HYPERQ_SQLDB_AST_H_
