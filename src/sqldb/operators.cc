#include "sqldb/operators.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>

#include "sqldb/eval.h"

namespace hyperq {
namespace sqldb {

bool ShouldParallelize(size_t n) {
  return n >= 2 * kMorselRows && WorkerPool::Shared().thread_count() > 0;
}

int CmpOpIndex(const std::string& op) {
  if (op == "=") return 0;
  if (op == "<>" || op == "!=") return 1;
  if (op == "<") return 2;
  if (op == ">") return 3;
  if (op == "<=") return 4;
  if (op == ">=") return 5;
  return -1;
}

int FlipCmpOp(int op) {
  switch (op) {
    case 2: return 3;
    case 3: return 2;
    case 4: return 5;
    case 5: return 4;
    default: return op;  // =, <> are symmetric
  }
}

int CompareCells(const Column& col, size_t a, size_t b) {
  switch (col.storage()) {
    case Column::Storage::kMixed:
      return Datum::Compare(col.mixed()[a], col.mixed()[b]);
    case Column::Storage::kString: {
      int c = col.strs()[a].compare(col.strs()[b]);
      return (c > 0) - (c < 0);
    }
    case Column::Storage::kFloat:
      return Cmp3Double(col.floats()[a], col.floats()[b]);
    case Column::Storage::kInt: {
      int64_t x = col.ints()[a], y = col.ints()[b];
      return (x > y) - (x < y);
    }
    case Column::Storage::kEmpty:
      return 0;  // all NULL; callers handle nulls before comparing
  }
  return 0;
}

KeyKind KeyKindFor(const std::vector<ColumnPtr>& key_cols) {
  const Column::Storage st = key_cols.size() == 1 ? key_cols[0]->storage()
                                                  : Column::Storage::kMixed;
  if (st == Column::Storage::kInt) return KeyKind::kInt;
  return st == Column::Storage::kString ? KeyKind::kString : KeyKind::kGeneric;
}

BandBucket::BandBucket(const std::vector<BandBound>& bounds,
                       const SelVector& members)
    : keys_(bounds.size()) {
  for (uint32_t r : members) {
    bool null = false;
    for (const BandBound& b : bounds) null = null || b.right->IsNull(r);
    (null ? always_ : sorted_).push_back(r);
  }
  const int64_t* first = bounds[0].right->ints();
  auto by_first = [first](uint32_t a, uint32_t b) {
    return first[a] < first[b];
  };
  if (!std::is_sorted(sorted_.begin(), sorted_.end(), by_first)) {
    std::stable_sort(sorted_.begin(), sorted_.end(), by_first);
  }
  for (size_t k = 0; k < bounds.size(); ++k) {
    const int64_t* v = bounds[k].right->ints();
    std::vector<int64_t>& keys = keys_[k];
    keys.resize(sorted_.size());
    for (size_t i = 0; i < sorted_.size(); ++i) keys[i] = v[sorted_[i]];
    if (!std::is_sorted(keys.begin(), keys.end())) keys.clear();
  }
}

void BandBucket::Candidates(const std::vector<BandBound>& bounds, uint32_t l,
                            const SelVector& members, SelVector* out) const {
  for (const BandBound& b : bounds) {
    if (b.left->IsNull(l)) {
      *out = members;
      return;
    }
  }
  size_t lo = 0, hi = sorted_.size();
  for (size_t k = 0; k < bounds.size(); ++k) {
    const std::vector<int64_t>& keys = keys_[k];
    if (keys.empty()) continue;
    const int64_t v = bounds[k].left->ints()[l];
    switch (bounds[k].op) {
      case 2:  // right < v
        hi = std::min<size_t>(
            hi, std::lower_bound(keys.begin(), keys.end(), v) - keys.begin());
        break;
      case 4:  // right <= v
        hi = std::min<size_t>(
            hi, std::upper_bound(keys.begin(), keys.end(), v) - keys.begin());
        break;
      case 3:  // right > v
        lo = std::max<size_t>(
            lo, std::upper_bound(keys.begin(), keys.end(), v) - keys.begin());
        break;
      default:  // right >= v
        lo = std::max<size_t>(
            lo, std::lower_bound(keys.begin(), keys.end(), v) - keys.begin());
        break;
    }
  }
  out->clear();
  if (lo < hi) out->assign(sorted_.begin() + lo, sorted_.begin() + hi);
  std::sort(out->begin(), out->end());
  if (always_.empty()) return;
  const size_t mid = out->size();
  out->insert(out->end(), always_.begin(), always_.end());
  std::inplace_merge(out->begin(), out->begin() + mid, out->end());
}

std::vector<int64_t> RepresentativeRows(
    const std::vector<SelVector>& members) {
  std::vector<int64_t> rep(members.size());
  for (size_t g = 0; g < members.size(); ++g) {
    rep[g] = members[g].empty() ? -1 : static_cast<int64_t>(members[g][0]);
  }
  return rep;
}

Result<std::vector<Datum>> ReduceGroups(const Expr& agg, const Column* arg,
                                        const std::vector<SelVector>& members,
                                        bool parallel, const Deadline& dl) {
  const size_t ngroups = members.size();
  std::vector<Datum> out(ngroups);
  if (arg == nullptr) {
    for (size_t g = 0; g < ngroups; ++g) {
      out[g] = Datum::BigInt(static_cast<int64_t>(members[g].size()));
    }
    return out;
  }
  std::vector<Status> stats(ngroups, Status::OK());
  auto reduce = [&](size_t g) {
    if (dl.Expired()) {
      stats[g] = DeadlineExceeded("aggregate morsel");
      return;
    }
    Result<Datum> v = ComputeAggregateColumnar(agg, *arg, members[g]);
    if (v.ok()) {
      out[g] = *std::move(v);
    } else {
      stats[g] = v.status();
    }
  };
  if (parallel) {
    WorkerPool::Shared().ParallelFor(ngroups, reduce);
  } else {
    for (size_t g = 0; g < ngroups; ++g) reduce(g);
  }
  for (const Status& s : stats) HQ_RETURN_IF_ERROR(s);
  return out;
}

namespace {

/// The ORDER BY comparator over `keys`: negative when row a sorts before
/// row b, positive when after, 0 for ties.
struct KeyCmp {
  const std::vector<ColumnPtr>& cols;
  const std::vector<SortKey>& keys;

  int operator()(uint32_t a, uint32_t b) const {
    for (const SortKey& k : keys) {
      const Column& col = *cols[k.col];
      bool xn = col.IsNull(a), yn = col.IsNull(b);
      if (xn || yn) {
        if (xn == yn) continue;
        return xn == k.nulls_first ? -1 : 1;
      }
      int cmp = CompareCells(col, a, b);
      if (cmp != 0) return k.ascending ? cmp : -cmp;
    }
    return 0;
  }
};

/// KeyCmp for one key over a typed payload: `cell(a, b)` is the three-way
/// comparison of two non-NULL cells.
template <typename CellCmp>
struct OneKeyCmp {
  CellCmp cell;
  const uint8_t* nulls;  // nullptr when the column has no NULLs
  bool ascending;
  bool nulls_first;

  int operator()(uint32_t a, uint32_t b) const {
    if (nulls != nullptr && (nulls[a] | nulls[b])) {
      if (nulls[a] == nulls[b]) return 0;
      return (nulls[a] != 0) == nulls_first ? -1 : 1;
    }
    const int cmp = cell(a, b);
    return ascending ? cmp : -cmp;
  }
};

/// Calls fn(cmp) with the comparator for `keys`: typed for a single int,
/// float or string key, KeyCmp otherwise.
template <typename Fn>
auto WithKeyCmp(const std::vector<ColumnPtr>& cols,
                const std::vector<SortKey>& keys, Fn&& fn) {
  if (keys.size() == 1) {
    const SortKey& k = keys[0];
    const Column& col = *cols[k.col];
    const uint8_t* nulls = NullBytesOf(col);
    switch (col.storage()) {
      case Column::Storage::kInt: {
        const int64_t* v = col.ints();
        auto cell = [v](uint32_t a, uint32_t b) {
          return (v[a] > v[b]) - (v[a] < v[b]);
        };
        return fn(OneKeyCmp<decltype(cell)>{cell, nulls, k.ascending,
                                            k.nulls_first});
      }
      case Column::Storage::kFloat: {
        const double* v = col.floats();
        auto cell = [v](uint32_t a, uint32_t b) {
          return Cmp3Double(v[a], v[b]);
        };
        return fn(OneKeyCmp<decltype(cell)>{cell, nulls, k.ascending,
                                            k.nulls_first});
      }
      case Column::Storage::kString: {
        const std::string* v = col.strs().data();
        auto cell = [v](uint32_t a, uint32_t b) {
          const int c = v[a].compare(v[b]);
          return (c > 0) - (c < 0);
        };
        return fn(OneKeyCmp<decltype(cell)>{cell, nulls, k.ascending,
                                            k.nulls_first});
      }
      default:
        break;
    }
  }
  return fn(KeyCmp{cols, keys});
}

/// An unsigned key ordered as CompareCells orders the cells: integers
/// with the sign bit flipped; doubles with -0.0 as 0.0, every NaN as one
/// value above +inf, and the IEEE bits made to order as unsigned.
uint64_t OrderKey(int64_t x) {
  return static_cast<uint64_t>(x) ^ (uint64_t{1} << 63);
}
uint64_t OrderKey(double x) {
  if (x == 0) x = 0;
  if (std::isnan(x)) x = std::numeric_limits<double>::quiet_NaN();
  uint64_t b;
  std::memcpy(&b, &x, sizeof b);
  return (b >> 63) != 0 ? ~b : b | (uint64_t{1} << 63);
}

/// Sorts (key, row) pairs by key, ties in their order, which for rows
/// given in ascending order is the pairs' plain order. Large inputs take
/// a least-significant-digit radix sort, 8 bits a pass, skipping a pass
/// whose digit every key shares.
void SortByKey(std::vector<std::pair<uint64_t, uint32_t>>* v) {
  if (v->size() < 256) {
    std::sort(v->begin(), v->end());
    return;
  }
  std::vector<std::pair<uint64_t, uint32_t>> tmp(v->size());
  for (int shift = 0; shift < 64; shift += 8) {
    size_t start[257] = {};
    for (const auto& e : *v) ++start[((e.first >> shift) & 0xFF) + 1];
    if (start[((v->front().first >> shift) & 0xFF) + 1] == v->size()) {
      continue;
    }
    for (int d = 0; d < 256; ++d) start[d + 1] += start[d];
    for (const auto& e : *v) tmp[start[(e.first >> shift) & 0xFF]++] = e;
    v->swap(tmp);
  }
}

/// The full sort of SortRows for one numeric key: the non-NULL rows sort
/// as contiguous (OrderKey, row) pairs, the key complemented for DESC,
/// and the NULL rows keep their order at the end nulls_first picks.
template <typename V>
void SortNumeric(const V* v, const uint8_t* nulls, const SortKey& key,
                 SelVector* rows) {
  const uint64_t flip = key.ascending ? 0 : ~uint64_t{0};
  std::vector<std::pair<uint64_t, uint32_t>> keyed;
  SelVector null_rows;
  keyed.reserve(rows->size());
  for (uint32_t r : *rows) {
    if (nulls != nullptr && nulls[r] != 0) {
      null_rows.push_back(r);
    } else {
      keyed.emplace_back(OrderKey(v[r]) ^ flip, r);
    }
  }
  SortByKey(&keyed);
  rows->clear();
  if (key.nulls_first) rows->assign(null_rows.begin(), null_rows.end());
  for (const auto& e : keyed) rows->push_back(e.second);
  if (!key.nulls_first) {
    rows->insert(rows->end(), null_rows.begin(), null_rows.end());
  }
}

/// Whether rows sel[0..n) (sel == nullptr: rows [0, n)) are in `keys`
/// order, ties allowed.
bool RowsInOrder(const std::vector<ColumnPtr>& cols,
                 const std::vector<SortKey>& keys, const uint32_t* sel,
                 size_t n) {
  return WithKeyCmp(cols, keys, [&](auto cmp) {
    for (size_t i = 1; i < n; ++i) {
      const uint32_t a = sel ? sel[i] : static_cast<uint32_t>(i);
      const uint32_t b = sel ? sel[i - 1] : static_cast<uint32_t>(i - 1);
      if (cmp(a, b) < 0) return false;
    }
    return true;
  });
}

}  // namespace

bool InKeyOrder(const std::vector<ColumnPtr>& cols,
                const std::vector<SortKey>& keys, size_t n) {
  return keys.empty() || RowsInOrder(cols, keys, nullptr, n);
}

bool SortRows(const std::vector<ColumnPtr>& cols,
              const std::vector<SortKey>& keys, SelVector* rows,
              size_t limit) {
  const size_t n = rows->size();
  if (keys.empty() || RowsInOrder(cols, keys, rows->data(), n)) return false;
  SelVector& r = *rows;
  if (limit < n) {
    // The row id as the last key makes the first `limit` rows of the
    // partial order those of the stable one.
    WithKeyCmp(cols, keys, [&](auto cmp) {
      std::partial_sort(r.begin(), r.begin() + limit, r.end(),
                        [&](uint32_t a, uint32_t b) {
                          const int c = cmp(a, b);
                          return c < 0 || (c == 0 && a < b);
                        });
    });
    r.resize(limit);
    return true;
  }
  const Column& first = *cols[keys[0].col];
  if (keys.size() == 1 && first.storage() == Column::Storage::kInt) {
    SortNumeric(first.ints(), NullBytesOf(first), keys[0], rows);
  } else if (keys.size() == 1 &&
             first.storage() == Column::Storage::kFloat) {
    SortNumeric(first.floats(), NullBytesOf(first), keys[0], rows);
  } else {
    WithKeyCmp(cols, keys, [&](auto cmp) {
      std::stable_sort(r.begin(), r.end(), [&](uint32_t a, uint32_t b) {
        return cmp(a, b) < 0;
      });
    });
  }
  return true;
}

std::optional<SelVector> SortPermutation(const std::vector<ColumnPtr>& cols,
                                         const std::vector<SortKey>& keys,
                                         size_t n, size_t limit) {
  if (InKeyOrder(cols, keys, n)) return std::nullopt;
  SelVector order(n);
  std::iota(order.begin(), order.end(), 0u);
  SortRows(cols, keys, &order, limit);
  return order;
}

bool SameKeys(const std::vector<ColumnPtr>& cols,
              const std::vector<SortKey>& keys, uint32_t a, uint32_t b) {
  for (const SortKey& k : keys) {
    const Column& col = *cols[k.col];
    if (col.storage() == Column::Storage::kMixed) {
      if (!Datum::DistinctEquals(col.mixed()[a], col.mixed()[b])) {
        return false;
      }
      continue;
    }
    const bool xn = col.IsNull(a), yn = col.IsNull(b);
    if (xn != yn || (!xn && CompareCells(col, a, b) != 0)) return false;
  }
  return true;
}

SqlType RefinedType(SqlType inferred, const Column& col, size_t rows) {
  return rows > 0 && !col.IsNull(0) ? col.At(0).type() : inferred;
}

std::pair<size_t, size_t> LimitRange(size_t n, int64_t limit,
                                     int64_t offset) {
  size_t start = 0;
  size_t end = n;
  if (offset > 0) start = std::min<size_t>(static_cast<size_t>(offset), end);
  if (limit >= 0 && end - start > static_cast<size_t>(limit)) {
    end = start + static_cast<size_t>(limit);
  }
  return {start, end};
}

Relation LimitWindow(Relation rel, int64_t limit, int64_t offset) {
  const auto [start, end] = LimitRange(rel.row_count, limit, offset);
  if (start == 0 && end == rel.row_count) return rel;
  SelVector sel(end - start);
  std::iota(sel.begin(), sel.end(), static_cast<uint32_t>(start));
  return rel.GatherRows(sel.data(), sel.size());
}

}  // namespace sqldb
}  // namespace hyperq
