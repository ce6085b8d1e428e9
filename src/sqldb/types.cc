#include "sqldb/types.h"

#include <cmath>
#include <cstdio>

#include "common/strings.h"
#include "qval/temporal.h"

namespace hyperq {
namespace sqldb {

const char* SqlTypeName(SqlType type) {
  switch (type) {
    case SqlType::kBoolean:
      return "boolean";
    case SqlType::kSmallInt:
      return "smallint";
    case SqlType::kInteger:
      return "integer";
    case SqlType::kBigInt:
      return "bigint";
    case SqlType::kReal:
      return "real";
    case SqlType::kDouble:
      return "double precision";
    case SqlType::kVarchar:
      return "varchar";
    case SqlType::kText:
      return "text";
    case SqlType::kDate:
      return "date";
    case SqlType::kTime:
      return "time";
    case SqlType::kTimestamp:
      return "timestamp";
    case SqlType::kNull:
      return "unknown";
  }
  return "?";
}

Result<SqlType> SqlTypeFromName(const std::string& raw) {
  std::string name = ToLower(raw);
  // Strip length arguments: varchar(32) -> varchar.
  size_t paren = name.find('(');
  if (paren != std::string::npos) {
    name = std::string(StripWhitespace(name.substr(0, paren)));
  }
  if (name == "boolean" || name == "bool") return SqlType::kBoolean;
  if (name == "smallint" || name == "int2") return SqlType::kSmallInt;
  if (name == "integer" || name == "int" || name == "int4") {
    return SqlType::kInteger;
  }
  if (name == "bigint" || name == "int8") return SqlType::kBigInt;
  if (name == "real" || name == "float4") return SqlType::kReal;
  if (name == "double precision" || name == "float8" || name == "double" ||
      name == "numeric" || name == "decimal" || name == "float") {
    return SqlType::kDouble;
  }
  if (name == "varchar" || name == "character varying") {
    return SqlType::kVarchar;
  }
  if (name == "text" || name == "char" || name == "character") {
    return SqlType::kText;
  }
  if (name == "date") return SqlType::kDate;
  if (name == "time") return SqlType::kTime;
  if (name == "timestamp" || name == "timestamptz") {
    return SqlType::kTimestamp;
  }
  return TypeError(StrCat("unknown SQL type '", raw, "'"));
}

bool IsNumericType(SqlType type) {
  switch (type) {
    case SqlType::kBoolean:
    case SqlType::kSmallInt:
    case SqlType::kInteger:
    case SqlType::kBigInt:
    case SqlType::kReal:
    case SqlType::kDouble:
      return true;
    default:
      return false;
  }
}

bool IsIntegralType(SqlType type) {
  switch (type) {
    case SqlType::kBoolean:
    case SqlType::kSmallInt:
    case SqlType::kInteger:
    case SqlType::kBigInt:
      return true;
    default:
      return false;
  }
}

bool IsStringType(SqlType type) {
  return type == SqlType::kVarchar || type == SqlType::kText;
}

bool IsTemporalType(SqlType type) {
  return type == SqlType::kDate || type == SqlType::kTime ||
         type == SqlType::kTimestamp;
}

std::string Datum::ToText() const {
  if (is_null_) return "NULL";
  switch (type_) {
    case SqlType::kBoolean:
      return i_ ? "t" : "f";
    case SqlType::kSmallInt:
    case SqlType::kInteger:
    case SqlType::kBigInt:
      return StrCat(i_);
    case SqlType::kReal:
    case SqlType::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", f_);
      return buf;
    }
    case SqlType::kVarchar:
    case SqlType::kText:
      return s_;
    case SqlType::kDate:
      return FormatIsoDate(i_);
    case SqlType::kTime:
      return FormatIsoTime(i_);
    case SqlType::kTimestamp:
      return FormatIsoTimestamp(i_);
    case SqlType::kNull:
      return "NULL";
  }
  return "?";
}

bool Datum::DistinctEquals(const Datum& a, const Datum& b) {
  if (a.is_null_ || b.is_null_) return a.is_null_ == b.is_null_;
  if (IsStringType(a.type_) && IsStringType(b.type_)) return a.s_ == b.s_;
  if (IsStringType(a.type_) != IsStringType(b.type_)) return false;
  if ((a.type_ == SqlType::kReal || a.type_ == SqlType::kDouble) ||
      (b.type_ == SqlType::kReal || b.type_ == SqlType::kDouble)) {
    return DistinctEqualsDouble(a.AsDouble(), b.AsDouble());
  }
  return a.i_ == b.i_;
}

int Datum::Compare(const Datum& a, const Datum& b) {
  if (IsStringType(a.type_) && IsStringType(b.type_)) {
    return a.s_.compare(b.s_);
  }
  if ((a.type_ == SqlType::kReal || a.type_ == SqlType::kDouble) ||
      (b.type_ == SqlType::kReal || b.type_ == SqlType::kDouble)) {
    return Cmp3Double(a.AsDouble(), b.AsDouble());
  }
  return a.i_ < b.i_ ? -1 : (a.i_ > b.i_ ? 1 : 0);
}

}  // namespace sqldb
}  // namespace hyperq
