#ifndef HYPERQ_SERIALIZER_SERIALIZER_H_
#define HYPERQ_SERIALIZER_SERIALIZER_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "xtra/operator.h"

namespace hyperq {

/// Serializes an XTRA expression into a PostgreSQL-dialect SELECT statement
/// (§3.4's Query Translator back end). Operators become nested subqueries
/// with generated aliases t0, t1, ...; identifiers are double-quoted to
/// preserve Q's case-sensitive column names; the final statement carries an
/// ORDER BY on the implicit order column when the result is
/// order-sensitive (§3.3).
class Serializer {
 public:
  /// Serializes the tree into one SELECT statement (no trailing ';').
  /// Constants tagged with a fingerprint slot render by value, like every
  /// other constant.
  Result<std::string> Serialize(const xtra::XtraPtr& root);

  /// One result query as the translation cache needs it: the concrete SQL
  /// and its `$n` template, written by one walk.
  struct Templated {
    std::string sql;  ///< byte-identical to Serialize()
    /// `sql` with every constant tagged with fingerprint slot i written as
    /// `$i+1`. Empty when a literal or a name holds one of the bytes that
    /// bracket slotted constants during the walk: no template can then be
    /// split out, and `sql` is rendered again without brackets.
    std::string sql_template;
    /// Slots written as `$n`, in text order (a slot may repeat). A slot
    /// whose value the plan consumed inline (an `in` list expansion, a
    /// take count) is missing.
    std::vector<int> emitted_slots;
  };
  Result<Templated> SerializeWithTemplate(const xtra::XtraPtr& root);

  /// Maps a Q type to the SQL type name used in casts and DDL.
  static const char* SqlTypeNameFor(QType type);

  /// Renders a constant atom as a SQL literal (the translation cache uses
  /// this to splice lifted literals back into a cached statement).
  static Result<std::string> RenderConstant(const QValue& v);

  /// Quotes an identifier for the generated SQL.
  static std::string QuoteIdent(const std::string& name);
  /// Escapes and quotes a string literal.
  static std::string QuoteLiteral(const std::string& text);

 private:
  /// A rendered subquery: its SQL text and the result-column name for each
  /// ColId it exposes.
  struct Rendered {
    std::string sql;
    std::map<xtra::ColId, std::string> columns;
  };

  Result<Rendered> Render(const xtra::XtraPtr& op);
  Result<std::string> RenderScalar(const xtra::ScalarPtr& e,
                                   const std::map<xtra::ColId, std::string>&
                                       cols,
                                   const std::string& alias);
  Result<std::string> RenderScalarTwoSided(
      const xtra::ScalarPtr& e,
      const std::map<xtra::ColId, std::string>& left_cols,
      const std::string& left_alias,
      const std::map<xtra::ColId, std::string>& right_cols,
      const std::string& right_alias);
  int next_alias_ = 0;
  /// While true, a slotted constant renders bracketed by marker bytes.
  bool mark_slots_ = false;
  bool marked_ = false;  ///< a bracketed constant was written
};

}  // namespace hyperq

#endif  // HYPERQ_SERIALIZER_SERIALIZER_H_
