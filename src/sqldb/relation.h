#ifndef HYPERQ_SQLDB_RELATION_H_
#define HYPERQ_SQLDB_RELATION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "sqldb/types.h"

namespace hyperq {
namespace sqldb {

/// A selection vector: row positions into a relation or column, always in
/// ascending order when produced by a filter.
using SelVector = std::vector<uint32_t>;

/// A typed column of values. The executor's unit of data: scans share
/// columns between the catalog and results (shared_ptr, copy-on-write),
/// filters produce selection vectors over them, and kernels in eval.cc run
/// tight loops over the typed payload vectors.
///
/// Storage discipline: every non-null value in a column carries the SAME
/// SqlType (`value_type()`), so one payload vector plus a null byte-map
/// reconstructs every cell exactly. The engine's Datum model, however,
/// allows heterogeneous cells (CASE branches of different types, sum()
/// switching int/double per group), so a column that sees a second value
/// type degrades to `kMixed`: a plain vector<Datum> that preserves the old
/// per-cell behavior bit for bit. The fast paths check the storage tag.
class Column {
 public:
  enum class Storage {
    kEmpty,   ///< no non-null value seen yet (all cells NULL)
    kInt,     ///< bool/int/temporal family: int64 payload
    kFloat,   ///< real/double: double payload
    kString,  ///< varchar/text: string payload
    kMixed,   ///< heterogeneous cells: Datum payload
  };

  Column() = default;

  /// An empty column expecting values of `type` (kNull -> kEmpty storage).
  static std::shared_ptr<Column> Make(SqlType type);
  /// n copies of d.
  static std::shared_ptr<Column> Constant(const Datum& d, size_t n);
  /// Adopts a full payload vector. value_type must match the storage class
  /// of the vector; `nulls` is a per-cell null byte-map (empty = no nulls,
  /// otherwise same length as the payload; payload slots at null positions
  /// are ignored).
  static std::shared_ptr<Column> FromInts(SqlType value_type,
                                          std::vector<int64_t> v,
                                          std::vector<uint8_t> nulls = {});
  static std::shared_ptr<Column> FromFloats(SqlType value_type,
                                            std::vector<double> v,
                                            std::vector<uint8_t> nulls = {});
  static std::shared_ptr<Column> FromStrings(SqlType value_type,
                                             std::vector<std::string> v,
                                             std::vector<uint8_t> nulls = {});
  /// Adopts heterogeneous cells as-is (kMixed storage).
  static std::shared_ptr<Column> FromDatums(std::vector<Datum> v);

  size_t size() const { return size_; }
  Storage storage() const { return storage_; }
  /// Type of the non-null values (kNull for kEmpty, unspecified for kMixed).
  SqlType value_type() const { return value_type_; }
  bool has_nulls() const { return storage_ == Storage::kMixed ? true
                                                              : !nulls_.empty(); }

  bool IsNull(size_t i) const {
    if (storage_ == Storage::kMixed) return mixed_[i].is_null();
    if (storage_ == Storage::kEmpty) return true;
    return !nulls_.empty() && nulls_[i] != 0;
  }

  /// Reconstructs the cell as a Datum, faithful to what row-major storage
  /// would have held (NULL cells are type-kNull Datums, like the old rows).
  Datum At(size_t i) const;

  void Reserve(size_t n);
  void Append(const Datum& d);
  /// Appends src[i]; faster than At+Append when storages match.
  void AppendFrom(const Column& src, size_t i);
  /// Appends all of src (column-wise concat for UNION ALL).
  void AppendColumn(const Column& src);
  /// Appends a NULL cell.
  void AppendNull();

  /// New column with rows sel[0..n) of this one.
  std::shared_ptr<Column> Gather(const uint32_t* sel, size_t n) const;
  /// Like Gather but indices are signed and -1 produces a NULL cell (outer
  /// join padding, empty-group representative rows).
  std::shared_ptr<Column> GatherPad(const int64_t* idx, size_t n) const;

  /// Morsel-parallel gather support: GatherAlloc sizes an n-row output
  /// column (payload and null map allocated to match what Gather/GatherPad
  /// would produce, contents unspecified); GatherRange/GatherPadRange then
  /// fill the disjoint slice [lo, hi), so chunks can run on different
  /// threads. GatherPadRange returns true if any slot in its slice came
  /// out NULL; when no slice reports NULLs the caller must ClearNulls()
  /// to keep the result byte-identical to GatherPad.
  std::shared_ptr<Column> GatherAlloc(size_t n, bool pad) const;
  void GatherRange(const uint32_t* sel, size_t lo, size_t hi,
                   Column* out) const;
  bool GatherPadRange(const int64_t* idx, size_t lo, size_t hi,
                      Column* out) const;
  void ClearNulls() { nulls_.clear(); }

  /// Typed payload access for kernels. Valid only for the matching storage.
  const int64_t* ints() const { return ints_.data(); }
  const double* floats() const { return floats_.data(); }
  const std::vector<std::string>& strs() const { return strs_; }
  const std::vector<Datum>& mixed() const { return mixed_; }
  /// Null byte-map; empty means "no nulls" (only for non-mixed storage).
  const std::vector<uint8_t>& null_bytes() const { return nulls_; }

  /// Moves the payload out (end-of-pipeline pivot). The column is left
  /// empty. Only valid for the matching storage.
  std::vector<int64_t> TakeInts();
  std::vector<double> TakeFloats();
  std::vector<std::string> TakeStrings();
  /// Moves the null byte-map out. Call *before* TakeInts/TakeFloats/
  /// TakeStrings (they reset the column, discarding the map); the column
  /// then reads as all-non-null.
  std::vector<uint8_t> TakeNullBytes() {
    std::vector<uint8_t> v = std::move(nulls_);
    nulls_.clear();
    return v;
  }

  /// The truth test the engine applies to WHERE/HAVING/CASE conditions:
  /// non-null and integer payload != 0. (Float and string cells are never
  /// "true" — they read the int payload slot, which matches the historic
  /// Datum behavior exactly.)
  bool TruthAt(size_t i) const {
    switch (storage_) {
      case Storage::kInt:
        return !IsNull(i) && ints_[i] != 0;
      case Storage::kMixed:
        return !mixed_[i].is_null() && mixed_[i].AsInt() != 0;
      default:
        return false;
    }
  }

  /// Appends the group/join key encoding of cell i to *out (identical bytes
  /// to EncodeDatum on the reconstructed Datum, without building it).
  void EncodeValue(size_t i, std::string* out) const;

 private:
  static Storage StorageFor(SqlType t);
  void DegradeToMixed();
  void EnsureNulls();

  Storage storage_ = Storage::kEmpty;
  SqlType value_type_ = SqlType::kNull;
  size_t size_ = 0;
  std::vector<int64_t> ints_;
  std::vector<double> floats_;
  std::vector<std::string> strs_;
  std::vector<Datum> mixed_;
  std::vector<uint8_t> nulls_;  ///< non-empty => per-cell null bytes
};

using ColumnPtr = std::shared_ptr<Column>;

/// A column of an intermediate relation, carrying the range-variable
/// qualifier it is visible under (table alias).
struct RelColumn {
  std::string qualifier;
  std::string name;
  SqlType type = SqlType::kText;
};

/// A fully materialized intermediate result in columnar form. `cols` is the
/// schema (names/qualifiers), `columns` the data, kept index-aligned.
/// `row_count` is explicit so zero-column relations (SELECT without FROM)
/// still carry a cardinality.
struct Relation {
  std::vector<RelColumn> cols;
  std::vector<ColumnPtr> columns;
  size_t row_count = 0;

  Datum At(size_t row, size_t col) const { return columns[col]->At(row); }
  std::vector<Datum> RowAt(size_t row) const;

  void AddColumn(RelColumn meta, ColumnPtr data);
  /// Appends one row, cloning any column shared with another relation
  /// first (copy-on-write). If the relation has no columns yet, creates
  /// untyped ones to fit.
  void AppendRow(const std::vector<Datum>& row);
  void Reserve(size_t n);
  /// Clones columns[c] if its buffer is shared (call before mutating).
  Column* MutableColumn(size_t c);

  /// New relation with rows sel[0..n), same schema. Gathers columns in
  /// parallel when the pool has capacity.
  Relation GatherRows(const uint32_t* sel, size_t n) const;
  /// Signed-index gather; -1 rows become all-NULL.
  Relation GatherRowsPad(const int64_t* idx, size_t n) const;
};

/// Stable hashable encoding of a datum for group/distinct/join keys. Two
/// datums encode equal iff DistinctEquals holds.
void EncodeDatum(const Datum& d, std::string* out);
std::string EncodeKeyRow(const std::vector<Datum>& row);

}  // namespace sqldb
}  // namespace hyperq

#endif  // HYPERQ_SQLDB_RELATION_H_
