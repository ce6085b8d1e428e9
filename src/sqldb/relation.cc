#include "sqldb/relation.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/strings.h"
#include "common/worker_pool.h"

namespace hyperq {
namespace sqldb {

namespace {

// Key encoding (EncodeDatum / Column::EncodeValue): a type tag, the
// payload and a '\x1f' terminator the callers append.
void EncodeIntKey(int64_t v, std::string* out) {
  out->push_back('i');
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

/// NaNs canonicalize to one payload, and integral-valued doubles encode as
/// ints so 1 and 1.0 group together.
void EncodeDoubleKey(double v, std::string* out) {
  if (std::isnan(v)) v = std::nan("");
  if (!std::isnan(v) && v == static_cast<double>(static_cast<int64_t>(v))) {
    EncodeIntKey(static_cast<int64_t>(v), out);
    return;
  }
  out->push_back('f');
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

}  // namespace

// ---------------------------------------------------------------------------
// Column
// ---------------------------------------------------------------------------

Column::Storage Column::StorageFor(SqlType t) {
  if (IsStringType(t)) return Storage::kString;
  if (t == SqlType::kReal || t == SqlType::kDouble) return Storage::kFloat;
  if (t == SqlType::kNull) return Storage::kEmpty;
  return Storage::kInt;  // bool, int family, temporal family
}

std::shared_ptr<Column> Column::Make(SqlType type) {
  auto col = std::make_shared<Column>();
  col->storage_ = StorageFor(type);
  col->value_type_ = type == SqlType::kNull ? SqlType::kNull : type;
  if (col->storage_ == Storage::kEmpty) col->value_type_ = SqlType::kNull;
  return col;
}

std::shared_ptr<Column> Column::Constant(const Datum& d, size_t n) {
  auto col = std::make_shared<Column>();
  if (d.is_null()) {
    col->size_ = n;  // kEmpty storage: every cell NULL
    return col;
  }
  col->storage_ = StorageFor(d.type());
  col->value_type_ = d.type();
  col->size_ = n;
  switch (col->storage_) {
    case Storage::kInt:
      col->ints_.assign(n, d.AsInt());
      break;
    case Storage::kFloat:
      col->floats_.assign(n, d.AsDouble());
      break;
    case Storage::kString:
      col->strs_.assign(n, d.AsString());
      break;
    default:
      break;
  }
  return col;
}

std::shared_ptr<Column> Column::FromInts(SqlType value_type,
                                         std::vector<int64_t> v,
                                         std::vector<uint8_t> nulls) {
  auto col = std::make_shared<Column>();
  col->storage_ = Storage::kInt;
  col->value_type_ = value_type;
  col->size_ = v.size();
  col->ints_ = std::move(v);
  col->nulls_ = std::move(nulls);
  return col;
}

std::shared_ptr<Column> Column::FromFloats(SqlType value_type,
                                           std::vector<double> v,
                                           std::vector<uint8_t> nulls) {
  auto col = std::make_shared<Column>();
  col->storage_ = Storage::kFloat;
  col->value_type_ = value_type;
  col->size_ = v.size();
  col->floats_ = std::move(v);
  col->nulls_ = std::move(nulls);
  return col;
}

std::shared_ptr<Column> Column::FromStrings(SqlType value_type,
                                            std::vector<std::string> v,
                                            std::vector<uint8_t> nulls) {
  auto col = std::make_shared<Column>();
  col->storage_ = Storage::kString;
  col->value_type_ = value_type;
  col->size_ = v.size();
  col->strs_ = std::move(v);
  col->nulls_ = std::move(nulls);
  return col;
}

std::shared_ptr<Column> Column::FromDatums(std::vector<Datum> v) {
  auto col = std::make_shared<Column>();
  col->storage_ = Storage::kMixed;
  col->value_type_ = SqlType::kNull;
  col->size_ = v.size();
  col->mixed_ = std::move(v);
  return col;
}

Datum Column::At(size_t i) const {
  switch (storage_) {
    case Storage::kEmpty:
      return Datum::Null();
    case Storage::kInt:
      if (IsNull(i)) return Datum::Null();
      return Datum::Int(value_type_, ints_[i]);
    case Storage::kFloat:
      if (IsNull(i)) return Datum::Null();
      return Datum::Float(value_type_, floats_[i]);
    case Storage::kString:
      if (IsNull(i)) return Datum::Null();
      return Datum::String(value_type_, strs_[i]);
    case Storage::kMixed:
      return mixed_[i];
  }
  return Datum::Null();
}

void Column::Reserve(size_t n) {
  switch (storage_) {
    case Storage::kInt:
      ints_.reserve(n);
      break;
    case Storage::kFloat:
      floats_.reserve(n);
      break;
    case Storage::kString:
      strs_.reserve(n);
      break;
    case Storage::kMixed:
      mixed_.reserve(n);
      break;
    case Storage::kEmpty:
      break;
  }
}

void Column::EnsureNulls() {
  if (nulls_.empty()) nulls_.assign(size_, 0);
}

void Column::DegradeToMixed() {
  std::vector<Datum> m;
  m.reserve(size_ + 1);
  for (size_t i = 0; i < size_; ++i) m.push_back(At(i));
  mixed_ = std::move(m);
  storage_ = Storage::kMixed;
  ints_.clear();
  floats_.clear();
  strs_.clear();
  nulls_.clear();
}

void Column::AppendNull() {
  switch (storage_) {
    case Storage::kMixed:
      mixed_.push_back(Datum::Null());
      break;
    case Storage::kEmpty:
      break;  // kEmpty cells are implicitly NULL
    default:
      EnsureNulls();
      nulls_.push_back(1);
      if (storage_ == Storage::kInt) ints_.push_back(0);
      if (storage_ == Storage::kFloat) floats_.push_back(0);
      if (storage_ == Storage::kString) strs_.emplace_back();
      break;
  }
  ++size_;
}

void Column::Append(const Datum& d) {
  if (storage_ == Storage::kMixed) {
    mixed_.push_back(d);
    ++size_;
    return;
  }
  if (d.is_null()) {
    AppendNull();
    return;
  }
  Storage s = StorageFor(d.type());
  if (storage_ == Storage::kEmpty) {
    // First non-null value retypes the column; earlier cells become
    // explicit NULL slots.
    storage_ = s;
    value_type_ = d.type();
    switch (s) {
      case Storage::kInt:
        ints_.assign(size_, 0);
        break;
      case Storage::kFloat:
        floats_.assign(size_, 0);
        break;
      case Storage::kString:
        strs_.assign(size_, std::string());
        break;
      default:
        break;
    }
    if (size_ > 0) nulls_.assign(size_, 1);
  } else if (s != storage_ || d.type() != value_type_) {
    DegradeToMixed();
    mixed_.push_back(d);
    ++size_;
    return;
  }
  switch (storage_) {
    case Storage::kInt:
      ints_.push_back(d.AsInt());
      break;
    case Storage::kFloat:
      floats_.push_back(d.AsDouble());
      break;
    case Storage::kString:
      strs_.push_back(d.AsString());
      break;
    default:
      break;
  }
  if (!nulls_.empty()) nulls_.push_back(0);
  ++size_;
}

void Column::AppendFrom(const Column& src, size_t i) {
  if (src.storage_ == storage_ && src.value_type_ == value_type_ &&
      storage_ != Storage::kMixed && storage_ != Storage::kEmpty &&
      !src.IsNull(i)) {
    switch (storage_) {
      case Storage::kInt:
        ints_.push_back(src.ints_[i]);
        break;
      case Storage::kFloat:
        floats_.push_back(src.floats_[i]);
        break;
      case Storage::kString:
        strs_.push_back(src.strs_[i]);
        break;
      default:
        break;
    }
    if (!nulls_.empty()) nulls_.push_back(0);
    ++size_;
    return;
  }
  Append(src.At(i));
}

void Column::AppendColumn(const Column& src) {
  if (src.storage_ == storage_ && src.value_type_ == value_type_ &&
      storage_ != Storage::kMixed && storage_ != Storage::kEmpty) {
    // Decide up front whether a null map is needed: testing nulls_ after
    // EnsureNulls would lose src's nulls when this column is still empty
    // (EnsureNulls on zero rows leaves the map empty).
    const bool need_nulls = !nulls_.empty() || !src.nulls_.empty();
    if (need_nulls) EnsureNulls();
    switch (storage_) {
      case Storage::kInt:
        ints_.insert(ints_.end(), src.ints_.begin(), src.ints_.end());
        break;
      case Storage::kFloat:
        floats_.insert(floats_.end(), src.floats_.begin(), src.floats_.end());
        break;
      case Storage::kString:
        strs_.insert(strs_.end(), src.strs_.begin(), src.strs_.end());
        break;
      default:
        break;
    }
    if (need_nulls) {
      if (src.nulls_.empty()) {
        nulls_.insert(nulls_.end(), src.size_, 0);
      } else {
        nulls_.insert(nulls_.end(), src.nulls_.begin(), src.nulls_.end());
      }
    }
    size_ += src.size_;
    return;
  }
  for (size_t i = 0; i < src.size_; ++i) AppendFrom(src, i);
}

std::shared_ptr<Column> Column::Gather(const uint32_t* sel, size_t n) const {
  auto out = std::make_shared<Column>();
  out->storage_ = storage_;
  out->value_type_ = value_type_;
  out->size_ = n;
  switch (storage_) {
    case Storage::kEmpty:
      break;
    case Storage::kInt:
      out->ints_.resize(n);
      for (size_t i = 0; i < n; ++i) out->ints_[i] = ints_[sel[i]];
      break;
    case Storage::kFloat:
      out->floats_.resize(n);
      for (size_t i = 0; i < n; ++i) out->floats_[i] = floats_[sel[i]];
      break;
    case Storage::kString:
      out->strs_.resize(n);
      for (size_t i = 0; i < n; ++i) out->strs_[i] = strs_[sel[i]];
      break;
    case Storage::kMixed:
      out->mixed_.resize(n);
      for (size_t i = 0; i < n; ++i) out->mixed_[i] = mixed_[sel[i]];
      break;
  }
  if (!nulls_.empty() && storage_ != Storage::kMixed) {
    out->nulls_.resize(n);
    for (size_t i = 0; i < n; ++i) out->nulls_[i] = nulls_[sel[i]];
  }
  return out;
}

std::shared_ptr<Column> Column::GatherPad(const int64_t* idx, size_t n) const {
  auto out = std::make_shared<Column>();
  out->storage_ = storage_;
  out->value_type_ = value_type_;
  out->size_ = n;
  if (storage_ == Storage::kEmpty) return out;
  if (storage_ == Storage::kMixed) {
    out->mixed_.resize(n);
    for (size_t i = 0; i < n; ++i) {
      if (idx[i] >= 0) out->mixed_[i] = mixed_[idx[i]];
    }
    return out;
  }
  out->nulls_.assign(n, 0);
  switch (storage_) {
    case Storage::kInt:
      out->ints_.resize(n);
      break;
    case Storage::kFloat:
      out->floats_.resize(n);
      break;
    case Storage::kString:
      out->strs_.resize(n);
      break;
    default:
      break;
  }
  bool any_null = false;
  for (size_t i = 0; i < n; ++i) {
    if (idx[i] < 0 || IsNull(static_cast<size_t>(idx[i]))) {
      out->nulls_[i] = 1;
      any_null = true;
      continue;
    }
    size_t j = static_cast<size_t>(idx[i]);
    switch (storage_) {
      case Storage::kInt:
        out->ints_[i] = ints_[j];
        break;
      case Storage::kFloat:
        out->floats_[i] = floats_[j];
        break;
      case Storage::kString:
        out->strs_[i] = strs_[j];
        break;
      default:
        break;
    }
  }
  if (!any_null) out->nulls_.clear();
  return out;
}

std::shared_ptr<Column> Column::GatherAlloc(size_t n, bool pad) const {
  auto out = std::make_shared<Column>();
  out->storage_ = storage_;
  out->value_type_ = value_type_;
  out->size_ = n;
  switch (storage_) {
    case Storage::kEmpty:
      return out;
    case Storage::kMixed:
      out->mixed_.resize(n);
      return out;
    case Storage::kInt:
      out->ints_.resize(n);
      break;
    case Storage::kFloat:
      out->floats_.resize(n);
      break;
    case Storage::kString:
      out->strs_.resize(n);
      break;
  }
  if (pad) {
    out->nulls_.assign(n, 0);
  } else if (!nulls_.empty()) {
    out->nulls_.resize(n);
  }
  return out;
}

void Column::GatherRange(const uint32_t* sel, size_t lo, size_t hi,
                         Column* out) const {
  switch (storage_) {
    case Storage::kEmpty:
      return;
    case Storage::kInt:
      for (size_t i = lo; i < hi; ++i) out->ints_[i] = ints_[sel[i]];
      break;
    case Storage::kFloat:
      for (size_t i = lo; i < hi; ++i) out->floats_[i] = floats_[sel[i]];
      break;
    case Storage::kString:
      for (size_t i = lo; i < hi; ++i) out->strs_[i] = strs_[sel[i]];
      break;
    case Storage::kMixed:
      for (size_t i = lo; i < hi; ++i) out->mixed_[i] = mixed_[sel[i]];
      return;
  }
  if (!nulls_.empty()) {
    for (size_t i = lo; i < hi; ++i) out->nulls_[i] = nulls_[sel[i]];
  }
}

bool Column::GatherPadRange(const int64_t* idx, size_t lo, size_t hi,
                            Column* out) const {
  if (storage_ == Storage::kEmpty) return false;
  if (storage_ == Storage::kMixed) {
    // Mixed cells carry their own nulls; the null map stays empty.
    for (size_t i = lo; i < hi; ++i) {
      if (idx[i] >= 0) out->mixed_[i] = mixed_[idx[i]];
    }
    return false;
  }
  bool any_null = false;
  for (size_t i = lo; i < hi; ++i) {
    if (idx[i] < 0 || IsNull(static_cast<size_t>(idx[i]))) {
      out->nulls_[i] = 1;
      any_null = true;
      continue;
    }
    size_t j = static_cast<size_t>(idx[i]);
    switch (storage_) {
      case Storage::kInt:
        out->ints_[i] = ints_[j];
        break;
      case Storage::kFloat:
        out->floats_[i] = floats_[j];
        break;
      case Storage::kString:
        out->strs_[i] = strs_[j];
        break;
      default:
        break;
    }
  }
  return any_null;
}

std::vector<int64_t> Column::TakeInts() {
  std::vector<int64_t> v = std::move(ints_);
  *this = Column();
  return v;
}

std::vector<double> Column::TakeFloats() {
  std::vector<double> v = std::move(floats_);
  *this = Column();
  return v;
}

std::vector<std::string> Column::TakeStrings() {
  std::vector<std::string> v = std::move(strs_);
  *this = Column();
  return v;
}

void Column::EncodeValue(size_t i, std::string* out) const {
  if (storage_ == Storage::kMixed) {
    EncodeDatum(mixed_[i], out);
    return;
  }
  if (IsNull(i)) {
    out->push_back('\x00');
    return;
  }
  switch (storage_) {
    case Storage::kString:
      out->push_back('s');
      out->append(strs_[i]);
      break;
    case Storage::kFloat:
      EncodeDoubleKey(floats_[i], out);
      break;
    default:
      EncodeIntKey(ints_[i], out);
      break;
  }
  out->push_back('\x1f');
}

// ---------------------------------------------------------------------------
// Relation
// ---------------------------------------------------------------------------

Result<int> Relation::Resolve(const std::string& qualifier,
                              const std::string& name) const {
  int found = -1;
  for (size_t i = 0; i < cols.size(); ++i) {
    // Wide relations hold hundreds of names of one length that differ
    // mostly at the end: test the length and last byte before comparing.
    const std::string& n = cols[i].name;
    if (n.size() != name.size() || (!n.empty() && n.back() != name.back()) ||
        n != name) {
      continue;
    }
    if (!qualifier.empty() && cols[i].qualifier != qualifier) continue;
    if (found >= 0) {
      return BindError(StrCat("column reference \"", name,
                              "\" is ambiguous; qualify it with a table "
                              "alias"));
    }
    found = static_cast<int>(i);
  }
  if (found < 0) {
    std::vector<std::string> names;
    for (const auto& c : cols) {
      names.push_back(c.qualifier.empty() ? c.name
                                          : c.qualifier + "." + c.name);
    }
    return BindError(StrCat(
        "column \"", qualifier.empty() ? name : qualifier + "." + name,
        "\" does not exist; available columns: ", Join(names, ", ")));
  }
  return found;
}

std::vector<Datum> Relation::RowAt(size_t row) const {
  std::vector<Datum> out;
  out.reserve(columns.size());
  for (const auto& c : columns) out.push_back(c->At(row));
  return out;
}

void Relation::AddColumn(RelColumn meta, ColumnPtr data) {
  cols.push_back(std::move(meta));
  columns.push_back(std::move(data));
}

Column* Relation::MutableColumn(size_t c) {
  if (columns[c].use_count() > 1) {
    columns[c] = std::make_shared<Column>(*columns[c]);
  }
  return columns[c].get();
}

void Relation::AppendRow(const std::vector<Datum>& row) {
  if (columns.empty() && row_count == 0 && !row.empty()) {
    cols.resize(row.size());
    for (size_t i = 0; i < row.size(); ++i) {
      columns.push_back(std::make_shared<Column>());
    }
  }
  for (size_t c = 0; c < columns.size(); ++c) {
    MutableColumn(c)->Append(c < row.size() ? row[c] : Datum::Null());
  }
  ++row_count;
}

void Relation::Reserve(size_t n) {
  for (size_t c = 0; c < columns.size(); ++c) MutableColumn(c)->Reserve(n);
}

namespace {
/// Rows per gather task. Each (column, chunk) pair is one unit of work, so
/// a wide or long gather saturates the pool instead of being limited to
/// one task per column (a single huge string column used to serialize the
/// whole materialization).
constexpr size_t kGatherChunkRows = 64 * 1024;
}  // namespace

Relation Relation::GatherRows(const uint32_t* sel, size_t n) const {
  Relation out;
  out.cols = cols;
  out.row_count = n;
  out.columns.resize(columns.size());
  size_t ncols = columns.size();
  size_t nchunks = (n + kGatherChunkRows - 1) / kGatherChunkRows;
  if (n >= 4096 && ncols * nchunks >= 2 &&
      WorkerPool::Shared().thread_count() > 0) {
    for (size_t c = 0; c < ncols; ++c) {
      out.columns[c] = columns[c]->GatherAlloc(n, /*pad=*/false);
    }
    WorkerPool::Shared().ParallelFor(ncols * nchunks, [&](size_t t) {
      size_t c = t / nchunks;
      size_t lo = (t % nchunks) * kGatherChunkRows;
      size_t hi = std::min(n, lo + kGatherChunkRows);
      columns[c]->GatherRange(sel, lo, hi, out.columns[c].get());
    });
  } else {
    for (size_t c = 0; c < ncols; ++c) {
      out.columns[c] = columns[c]->Gather(sel, n);
    }
  }
  return out;
}

Relation Relation::GatherRowsPad(const int64_t* idx, size_t n) const {
  Relation out;
  out.cols = cols;
  out.row_count = n;
  out.columns.resize(columns.size());
  size_t ncols = columns.size();
  size_t nchunks = (n + kGatherChunkRows - 1) / kGatherChunkRows;
  if (n >= 4096 && ncols * nchunks >= 2 &&
      WorkerPool::Shared().thread_count() > 0) {
    for (size_t c = 0; c < ncols; ++c) {
      out.columns[c] = columns[c]->GatherAlloc(n, /*pad=*/true);
    }
    std::vector<uint8_t> chunk_null(ncols * nchunks, 0);
    WorkerPool::Shared().ParallelFor(ncols * nchunks, [&](size_t t) {
      size_t c = t / nchunks;
      size_t lo = (t % nchunks) * kGatherChunkRows;
      size_t hi = std::min(n, lo + kGatherChunkRows);
      chunk_null[t] =
          columns[c]->GatherPadRange(idx, lo, hi, out.columns[c].get()) ? 1
                                                                        : 0;
    });
    for (size_t c = 0; c < ncols; ++c) {
      bool any = false;
      for (size_t k = 0; k < nchunks; ++k) {
        any = any || chunk_null[c * nchunks + k] != 0;
      }
      if (!any) out.columns[c]->ClearNulls();
    }
  } else {
    for (size_t c = 0; c < ncols; ++c) {
      out.columns[c] = columns[c]->GatherPad(idx, n);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Key encoding
// ---------------------------------------------------------------------------

void EncodeDatum(const Datum& d, std::string* out) {
  if (d.is_null()) {
    out->push_back('\x00');
    return;
  }
  if (IsStringType(d.type())) {
    out->push_back('s');
    out->append(d.AsString());
  } else if (d.type() == SqlType::kReal || d.type() == SqlType::kDouble) {
    EncodeDoubleKey(d.AsDouble(), out);
  } else {
    EncodeIntKey(d.AsInt(), out);
  }
  out->push_back('\x1f');
}

std::string EncodeKeyRow(const std::vector<Datum>& row) {
  std::string key;
  key.reserve(row.size() * 10);
  for (const auto& d : row) EncodeDatum(d, &key);
  return key;
}

}  // namespace sqldb
}  // namespace hyperq
