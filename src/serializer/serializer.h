#ifndef HYPERQ_SERIALIZER_SERIALIZER_H_
#define HYPERQ_SERIALIZER_SERIALIZER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "xtra/operator.h"

namespace hyperq {

/// Serializes an XTRA expression into a PostgreSQL-dialect SELECT statement
/// (§3.4's Query Translator back end) of as few SELECT blocks as keep its
/// meaning: each operator merges into its child's block when it can, and
/// only a child that cannot take it becomes a derived table with a
/// generated alias t0, t1, .... Identifiers are double-quoted to preserve
/// Q's case-sensitive column names; the final statement carries an ORDER BY
/// on the implicit order column when the result is order-sensitive (§3.3).
///
/// Merge rules, checked bottom-up:
/// - Filter, Project and GroupAgg merge into a block without DISTINCT,
///   aggregation, window functions, ORDER BY or LIMIT/OFFSET whose outputs
///   are all plain column references; the predicate is ANDed after the
///   block's WHERE. A Project that only renames, reorders or drops columns
///   also merges over an aggregating or windowed block.
/// - Sort and Limit attach to a block without ORDER BY or LIMIT/OFFSET when
///   every sort key is an output column under a unique name. The final
///   q-order attaches the same way; a root that cannot take it (a UNION
///   ALL) keeps one `SELECT * FROM (...) AS hq_final` wrapper.
/// - Join inputs and UNION ALL members stay blocks of their own.
class Serializer {
 public:
  /// Serializes the tree into one SELECT statement (no trailing ';').
  Result<std::string> Serialize(const xtra::XtraPtr& root);

  /// Maps a Q type to the SQL type name used in casts and DDL.
  static const char* SqlTypeNameFor(QType type);

  /// Renders a constant atom as a SQL literal.
  static Result<std::string> RenderConstant(const QValue& v);

  /// Quotes an identifier for the generated SQL.
  static std::string QuoteIdent(const std::string& name);
  /// Escapes and quotes a string literal.
  static std::string QuoteLiteral(const std::string& text);

 private:
  /// One SELECT block under construction (see the merge rules above).
  struct Block {
    struct Item {
      xtra::ColId id;
      std::string expr;  ///< SQL text of the value
      std::string name;  ///< output column name
    };
    std::vector<Item> items;
    /// XTRA column id -> the SQL text that names the column inside this
    /// block: the expression of its select item.
    std::map<xtra::ColId, std::string> cols;
    std::string from;  ///< FROM clause body; empty for a FROM-less SELECT
    std::string where;
    std::vector<std::string> group_by;
    std::vector<std::string> order_by;
    int64_t limit = -1;
    int64_t offset = 0;
    bool distinct = false;
    bool aggregate = false;  ///< GROUP BY, or an aggregate in the items
    bool window = false;     ///< a window function in the items
    bool computed = false;   ///< an item is more than a column reference
    /// The whole text when the block is `<left> UNION ALL <right>`.
    std::string union_all;

    void Add(xtra::ColId id, std::string expr, const std::string& name);
    /// The output name of column `id`; nullptr when it is not an output.
    const std::string* NameOf(xtra::ColId id) const;
    bool Unique(const std::string& name) const;
    bool Ordered() const;
    /// A Filter, Project or GroupAgg may merge into this block.
    bool Open() const;
    std::string Sql() const;
  };

  Result<Block> Render(const xtra::XtraPtr& op);
  /// Closes `b` into a derived table: a new open block selects its columns.
  Block Derived(const Block& b);
  /// `zero_sums` spells every `sum` as a typed `COALESCE(SUM(x), 0)`: q
  /// sums no rows to 0 where SQL SUM is NULL, which an ungrouped
  /// aggregate meets (a group always has a row).
  Result<std::string> RenderScalar(
      const xtra::ScalarPtr& e,
      const std::map<xtra::ColId, std::string>& cols,
      bool zero_sums = false);
  int next_alias_ = 0;
};

}  // namespace hyperq

#endif  // HYPERQ_SERIALIZER_SERIALIZER_H_
