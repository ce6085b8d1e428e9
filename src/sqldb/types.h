#ifndef HYPERQ_SQLDB_TYPES_H_
#define HYPERQ_SQLDB_TYPES_H_

#include <cmath>
#include <cstdint>
#include <string>

#include "common/status.h"

namespace hyperq {
namespace sqldb {

/// SQL column types supported by the mini PG-compatible engine. The set
/// covers what Hyper-Q's serializer emits for the Q type system plus common
/// DDL spellings.
enum class SqlType {
  kBoolean,
  kSmallInt,
  kInteger,
  kBigInt,
  kReal,
  kDouble,
  kVarchar,
  kText,
  kDate,       ///< days since 2000-01-01 (rebased internally like Q)
  kTime,       ///< milliseconds since midnight
  kTimestamp,  ///< nanoseconds since 2000-01-01
  kNull,       ///< type of a bare NULL literal before coercion
};

/// Canonical lower-case name, e.g. "bigint", "double precision".
const char* SqlTypeName(SqlType type);

/// Parses a type name (case-insensitive, ignores length args like
/// varchar(32)).
Result<SqlType> SqlTypeFromName(const std::string& name);

bool IsNumericType(SqlType type);
bool IsIntegralType(SqlType type);
bool IsStringType(SqlType type);
bool IsTemporalType(SqlType type);

/// A single SQL value: NULL or a typed payload. Integral and temporal
/// values share the int64 payload; float4/float8 the double payload;
/// varchar/text the string payload. SQL three-valued logic lives in the
/// expression evaluator, not here.
class Datum {
 public:
  /// Constructs NULL.
  Datum() : is_null_(true), type_(SqlType::kNull) {}

  static Datum Null() { return Datum(); }
  static Datum Bool(bool v) { return Datum(SqlType::kBoolean, v ? 1 : 0); }
  static Datum Int(SqlType type, int64_t v) { return Datum(type, v); }
  static Datum BigInt(int64_t v) { return Datum(SqlType::kBigInt, v); }
  static Datum Double(double v) {
    Datum d;
    d.is_null_ = false;
    d.type_ = SqlType::kDouble;
    d.f_ = v;
    return d;
  }
  static Datum Float(SqlType type, double v) {
    Datum d;
    d.is_null_ = false;
    d.type_ = type;
    d.f_ = v;
    return d;
  }
  static Datum String(SqlType type, std::string v) {
    Datum d;
    d.is_null_ = false;
    d.type_ = type;
    d.s_ = std::move(v);
    return d;
  }
  static Datum Text(std::string v) {
    return String(SqlType::kText, std::move(v));
  }
  static Datum Varchar(std::string v) {
    return String(SqlType::kVarchar, std::move(v));
  }
  static Datum Date(int64_t days) { return Datum(SqlType::kDate, days); }
  static Datum Time(int64_t ms) { return Datum(SqlType::kTime, ms); }
  static Datum Timestamp(int64_t ns) {
    return Datum(SqlType::kTimestamp, ns);
  }

  bool is_null() const { return is_null_; }
  SqlType type() const { return type_; }

  int64_t AsInt() const { return i_; }
  double AsDouble() const {
    if (type_ == SqlType::kReal || type_ == SqlType::kDouble) return f_;
    return static_cast<double>(i_);
  }
  const std::string& AsString() const { return s_; }
  bool AsBool() const { return i_ != 0; }

  /// Text rendering used by the PG wire protocol (text format) and tests.
  std::string ToText() const;

  /// SQL equality treating NULLs per IS NOT DISTINCT FROM (both NULL ->
  /// equal). Cross-numeric comparisons coerce to double, and NaN equals
  /// NaN (as in PG, and as the EncodeValue keys group it).
  static bool DistinctEquals(const Datum& a, const Datum& b);

  /// Three-way comparison for ORDER BY (caller decides null placement).
  /// Only call with non-null operands.
  static int Compare(const Datum& a, const Datum& b);

 private:
  Datum(SqlType type, int64_t v) : is_null_(false), type_(type), i_(v) {}

  bool is_null_;
  SqlType type_;
  int64_t i_ = 0;
  double f_ = 0;
  std::string s_;
};

/// Datum::Compare's double ordering, shared by every typed comparison
/// loop: NaN sorts last among non-nulls (as in PG), two NaNs tie.
inline int Cmp3Double(double x, double y) {
  bool nx = std::isnan(x), ny = std::isnan(y);
  if (nx || ny) return nx && ny ? 0 : (nx ? 1 : -1);
  return (x > y) - (x < y);
}

/// Datum::DistinctEquals' double equality, shared by the batched and
/// fused forms: IEEE equality, except that two NaNs are equal.
inline bool DistinctEqualsDouble(double x, double y) {
  return x == y || (std::isnan(x) && std::isnan(y));
}

}  // namespace sqldb
}  // namespace hyperq

#endif  // HYPERQ_SQLDB_TYPES_H_
