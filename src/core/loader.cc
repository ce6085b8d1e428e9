#include "core/loader.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"
#include "core/mdi.h"

namespace hyperq {

using sqldb::Datum;
using sqldb::SqlType;

Result<Datum> DatumFromQ(const QValue& column, int64_t row) {
  QValue e = column.ElementAt(row);
  if (e.IsNullAtom()) return Datum::Null();
  switch (e.type()) {
    case QType::kBool:
      return Datum::Bool(e.AsInt() != 0);
    case QType::kByte:
    case QType::kShort:
      return Datum::Int(SqlType::kSmallInt, e.AsInt());
    case QType::kInt:
      return Datum::Int(SqlType::kInteger, e.AsInt());
    case QType::kLong:
    case QType::kTimespan:
      return Datum::BigInt(e.AsInt());
    case QType::kReal:
      return Datum::Float(SqlType::kReal, e.AsFloat());
    case QType::kFloat:
      return Datum::Double(e.AsFloat());
    case QType::kSymbol:
      return Datum::Varchar(e.AsSym());
    case QType::kChar:
      return Datum::Text(std::string(1, e.AsChar()));
    case QType::kDate:
      return Datum::Date(e.AsInt());
    case QType::kTime:
      return Datum::Time(e.AsInt());
    case QType::kTimestamp:
      return Datum::Timestamp(e.AsInt());
    case QType::kMixed: {
      // A string cell (char list) inside a mixed column.
      if (!e.is_atom() && e.type() == QType::kChar) {
        return Datum::Text(e.CharsView());
      }
      return Unsupported("cannot load nested list cells into the backend");
    }
    default:
      return Unsupported(StrCat("cannot load a ", QTypeName(e.type()),
                                " cell into the backend"));
  }
}

Status LoadQTable(sqldb::Database* db, const std::string& name,
                  const QValue& table_value,
                  const std::vector<std::string>& key_columns) {
  QValue flat = table_value;
  if (flat.IsKeyedTable()) {
    const QDict& d = flat.Dict();
    std::vector<std::string> names = d.keys->Table().names;
    std::vector<QValue> cols = d.keys->Table().columns;
    for (size_t i = 0; i < d.values->Table().names.size(); ++i) {
      names.push_back(d.values->Table().names[i]);
      cols.push_back(d.values->Table().columns[i]);
    }
    flat = QValue::MakeTableUnchecked(std::move(names), std::move(cols));
  }
  if (!flat.IsTable()) {
    return InvalidArgument("LoadQTable requires a table value");
  }
  const QTable& t = flat.Table();
  size_t rows = t.RowCount();

  sqldb::StoredTable stored;
  stored.name = name;
  for (size_t c = 0; c < t.names.size(); ++c) {
    QType qt = t.columns[c].type();
    // String columns arrive as mixed lists of char lists.
    if (qt == QType::kMixed) qt = QType::kChar;
    stored.columns.push_back(
        sqldb::TableColumn{t.names[c], SqlTypeFromQType(qt)});
  }
  stored.columns.push_back(
      sqldb::TableColumn{kOrdColName, SqlType::kBigInt});

  // Build the stored columns directly (column-major load; no row pivot).
  stored.data.reserve(stored.columns.size());
  for (size_t c = 0; c < t.names.size(); ++c) {
    auto col = std::make_shared<sqldb::Column>();
    col->Reserve(rows);
    for (size_t r = 0; r < rows; ++r) {
      HQ_ASSIGN_OR_RETURN(Datum d,
                          DatumFromQ(t.columns[c], static_cast<int64_t>(r)));
      col->Append(d);
    }
    stored.data.push_back(std::move(col));
  }
  {
    std::vector<int64_t> ord(rows);
    for (size_t r = 0; r < rows; ++r) ord[r] = static_cast<int64_t>(r);
    stored.data.push_back(
        sqldb::Column::FromInts(SqlType::kBigInt, std::move(ord)));
  }
  stored.row_count = rows;
  if (!key_columns.empty()) {
    stored.key_columns = key_columns;
  } else if (table_value.IsKeyedTable()) {
    stored.key_columns = table_value.Dict().keys->Table().names;
  }
  return db->CreateAndLoad(std::move(stored));
}

QValue QFromDatum(const Datum& d) {
  if (d.is_null()) {
    switch (d.type()) {
      case SqlType::kVarchar:
        return QValue::NullOf(QType::kSymbol);
      case SqlType::kText:
        return QValue::Chars("");
      case SqlType::kReal:
      case SqlType::kDouble:
        return QValue::NullOf(QType::kFloat);
      case SqlType::kDate:
        return QValue::NullOf(QType::kDate);
      case SqlType::kTime:
        return QValue::NullOf(QType::kTime);
      case SqlType::kTimestamp:
        return QValue::NullOf(QType::kTimestamp);
      case SqlType::kBoolean:
        return QValue::Bool(false);
      default:
        return QValue::NullOf(QType::kLong);
    }
  }
  switch (d.type()) {
    case SqlType::kBoolean:
      return QValue::Bool(d.AsBool());
    case SqlType::kSmallInt:
      return QValue::Short(d.AsInt());
    case SqlType::kInteger:
      return QValue::Int(d.AsInt());
    case SqlType::kBigInt:
      return QValue::Long(d.AsInt());
    case SqlType::kReal:
      return QValue::Real(d.AsDouble());
    case SqlType::kDouble:
      return QValue::Float(d.AsDouble());
    case SqlType::kVarchar:
      return QValue::Sym(d.AsString());
    case SqlType::kText: {
      const std::string& s = d.AsString();
      return s.size() == 1 ? QValue::Char(s[0]) : QValue::Chars(s);
    }
    case SqlType::kDate:
      return QValue::Date(d.AsInt());
    case SqlType::kTime:
      return QValue::Time(d.AsInt());
    case SqlType::kTimestamp:
      return QValue::Timestamp(d.AsInt());
    case SqlType::kNull:
      return QValue();
  }
  return QValue();
}

namespace {

/// Per-cell pivot of one result column (the seed's row-to-column pivot of
/// §4.2 / Figure 5). Fallback for columns whose storage does not match the
/// declared type (mixed cells, refined types); reconstructs each Datum and
/// keeps the historic coercion semantics exactly.
QValue ColumnFromCells(const sqldb::QueryResult& result, size_t col) {
  SqlType t = result.columns[col].type;
  size_t n = result.data.row_count;
  switch (t) {
    case SqlType::kBoolean:
    case SqlType::kSmallInt:
    case SqlType::kInteger:
    case SqlType::kBigInt:
    case SqlType::kDate:
    case SqlType::kTime:
    case SqlType::kTimestamp: {
      QType qt = QTypeFromSqlType(t);
      std::vector<int64_t> v(n);
      for (size_t r = 0; r < n; ++r) {
        Datum d = result.data.At(r, col);
        v[r] = d.is_null() ? kNullLong : d.AsInt();
      }
      return QValue::IntList(qt, std::move(v));
    }
    case SqlType::kReal:
    case SqlType::kDouble: {
      std::vector<double> v(n);
      for (size_t r = 0; r < n; ++r) {
        Datum d = result.data.At(r, col);
        v[r] = d.is_null() ? std::nan("") : d.AsDouble();
      }
      return QValue::FloatList(QTypeFromSqlType(t), std::move(v));
    }
    case SqlType::kVarchar: {
      std::vector<std::string> v(n);
      for (size_t r = 0; r < n; ++r) {
        Datum d = result.data.At(r, col);
        v[r] = d.is_null() ? "" : d.AsString();
      }
      return QValue::Syms(std::move(v));
    }
    case SqlType::kText:
    case SqlType::kNull:
    default: {
      std::vector<QValue> v(n);
      for (size_t r = 0; r < n; ++r) {
        Datum d = result.data.At(r, col);
        v[r] = d.is_null() ? QValue::Chars("") : QValue::Chars(d.AsString());
      }
      return QValue::Mixed(std::move(v));
    }
  }
}

/// Columnar pivot: when the backend column's storage matches the declared
/// type family, the payload vector becomes the Q list body directly —
/// moved when `may_move` and this result holds the only reference, copied
/// wholesale otherwise. Null cells are patched to the Q null encodings the
/// per-cell pivot produced (kNullLong / NaN / empty symbol).
QValue ColumnFromResult(sqldb::QueryResult& result, size_t col,
                        bool may_move) {
  using Storage = sqldb::Column::Storage;
  SqlType t = result.columns[col].type;
  size_t n = result.data.row_count;
  sqldb::ColumnPtr& cp = result.data.columns[col];
  switch (t) {
    case SqlType::kBoolean:
    case SqlType::kSmallInt:
    case SqlType::kInteger:
    case SqlType::kBigInt:
    case SqlType::kDate:
    case SqlType::kTime:
    case SqlType::kTimestamp: {
      QType qt = QTypeFromSqlType(t);
      if (cp->storage() == Storage::kEmpty) {
        return QValue::IntList(qt, std::vector<int64_t>(n, kNullLong));
      }
      if (cp->storage() == Storage::kInt) {
        // Move (sole owner) or reference the null map — never copy it.
        std::vector<uint8_t> moved_nulls;
        const std::vector<uint8_t>* nulls = &cp->null_bytes();
        std::vector<int64_t> v;
        if (may_move && cp.use_count() == 1) {
          moved_nulls = cp->TakeNullBytes();
          nulls = &moved_nulls;
          v = cp->TakeInts();
        } else {
          v.assign(cp->ints(), cp->ints() + n);
        }
        if (!nulls->empty()) {
          for (size_t r = 0; r < n; ++r) {
            if ((*nulls)[r]) v[r] = kNullLong;
          }
        }
        return QValue::IntList(qt, std::move(v));
      }
      break;
    }
    case SqlType::kReal:
    case SqlType::kDouble: {
      QType qt = QTypeFromSqlType(t);
      if (cp->storage() == Storage::kEmpty) {
        return QValue::FloatList(qt, std::vector<double>(n, std::nan("")));
      }
      if (cp->storage() == Storage::kFloat) {
        std::vector<uint8_t> moved_nulls;
        const std::vector<uint8_t>* nulls = &cp->null_bytes();
        std::vector<double> v;
        if (may_move && cp.use_count() == 1) {
          moved_nulls = cp->TakeNullBytes();
          nulls = &moved_nulls;
          v = cp->TakeFloats();
        } else {
          v.assign(cp->floats(), cp->floats() + n);
        }
        if (!nulls->empty()) {
          for (size_t r = 0; r < n; ++r) {
            if ((*nulls)[r]) v[r] = std::nan("");
          }
        }
        return QValue::FloatList(qt, std::move(v));
      }
      break;
    }
    case SqlType::kVarchar: {
      if (cp->storage() == Storage::kEmpty) {
        return QValue::Syms(std::vector<std::string>(n));
      }
      if (cp->storage() == Storage::kString) {
        std::vector<uint8_t> moved_nulls;
        const std::vector<uint8_t>* nulls = &cp->null_bytes();
        std::vector<std::string> v;
        if (may_move && cp.use_count() == 1) {
          moved_nulls = cp->TakeNullBytes();
          nulls = &moved_nulls;
          v = cp->TakeStrings();
        } else {
          v = cp->strs();
        }
        if (!nulls->empty()) {
          for (size_t r = 0; r < n; ++r) {
            if ((*nulls)[r]) v[r].clear();
          }
        }
        return QValue::Syms(std::move(v));
      }
      break;
    }
    default:
      break;
  }
  return ColumnFromCells(result, col);
}

bool IsHelperColumn(const std::string& name) {
  return name == kOrdColName || StartsWith(name, "hq_");
}

Result<QValue> QValueFromResultImpl(
    sqldb::QueryResult& result, ResultShape shape,
    const std::vector<std::string>& key_columns, bool may_move) {
  std::vector<std::string> names;
  std::vector<QValue> columns;
  names.reserve(result.columns.size());
  columns.reserve(result.columns.size());
  for (size_t c = 0; c < result.columns.size(); ++c) {
    if (IsHelperColumn(result.columns[c].name)) continue;
    names.push_back(result.columns[c].name);
    columns.push_back(ColumnFromResult(result, c, may_move));
  }
  if (names.empty()) {
    return ExecutionError("backend result contained no visible columns");
  }

  switch (shape) {
    case ResultShape::kAtom: {
      if (result.data.row_count == 0) return QValue();
      return columns[0].ElementAt(0);
    }
    case ResultShape::kList:
      return columns[0];
    case ResultShape::kTable:
      return QValue::MakeTable(std::move(names), std::move(columns));
    case ResultShape::kDict: {
      // exec-by: the key column maps to the single value column.
      int key_idx = -1;
      int val_idx = -1;
      for (size_t i = 0; i < names.size(); ++i) {
        bool is_key = std::find(key_columns.begin(), key_columns.end(),
                                names[i]) != key_columns.end();
        if (is_key && key_idx < 0) {
          key_idx = static_cast<int>(i);
        } else if (!is_key && val_idx < 0) {
          val_idx = static_cast<int>(i);
        }
      }
      if (key_idx < 0 || val_idx < 0) {
        return ExecutionError(
            "exec-by result is missing its key or value column");
      }
      return QValue::MakeDict(columns[key_idx], columns[val_idx]);
    }
    case ResultShape::kKeyedTable: {
      std::vector<std::string> kn, vn;
      std::vector<QValue> kc, vc;
      for (size_t i = 0; i < names.size(); ++i) {
        bool is_key = std::find(key_columns.begin(), key_columns.end(),
                                names[i]) != key_columns.end();
        if (is_key) {
          kn.push_back(names[i]);
          kc.push_back(columns[i]);
        } else {
          vn.push_back(names[i]);
          vc.push_back(columns[i]);
        }
      }
      HQ_ASSIGN_OR_RETURN(QValue keys, QValue::MakeTable(kn, kc));
      HQ_ASSIGN_OR_RETURN(QValue vals, QValue::MakeTable(vn, vc));
      return QValue::MakeDictUnchecked(std::move(keys), std::move(vals));
    }
  }
  return InternalError("unhandled result shape");
}

}  // namespace

Result<QValue> QValueFromResult(const sqldb::QueryResult& result,
                                ResultShape shape,
                                const std::vector<std::string>& key_columns) {
  // The impl never mutates the result unless may_move is set, so shedding
  // const here is safe.
  return QValueFromResultImpl(const_cast<sqldb::QueryResult&>(result), shape,
                              key_columns, /*may_move=*/false);
}

Result<QValue> QValueFromResult(sqldb::QueryResult&& result,
                                ResultShape shape,
                                const std::vector<std::string>& key_columns) {
  return QValueFromResultImpl(result, shape, key_columns, /*may_move=*/true);
}

}  // namespace hyperq
