#include "sqldb/operators.h"

#include <algorithm>
#include <functional>
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

/// The ORDER BY comparator over `keys`: true when row a sorts before row b.
struct KeyLess {
  const std::vector<ColumnPtr>& cols;
  const std::vector<SortKey>& keys;

  bool operator()(uint32_t a, uint32_t b) const {
    for (const SortKey& k : keys) {
      const Column& col = *cols[k.col];
      bool xn = col.IsNull(a), yn = col.IsNull(b);
      if (xn || yn) {
        if (xn == yn) continue;
        return xn == k.nulls_first;
      }
      int cmp = CompareCells(col, a, b);
      if (cmp != 0) return k.ascending ? cmp < 0 : cmp > 0;
    }
    return false;
  }
};

}  // namespace

bool InKeyOrder(const std::vector<ColumnPtr>& cols,
                const std::vector<SortKey>& keys, size_t n) {
  if (n < 2 || keys.empty()) return true;
  if (keys.size() == 1 &&
      cols[keys[0].col]->storage() == Column::Storage::kInt &&
      NullBytesOf(*cols[keys[0].col]) == nullptr) {
    // KeyLess(r, r - 1) for one NULL-free integer key, typed.
    const int64_t* v = cols[keys[0].col]->ints();
    return keys[0].ascending ? std::is_sorted(v, v + n)
                             : std::is_sorted(v, v + n, std::greater<>());
  }
  const KeyLess less{cols, keys};
  for (size_t r = 1; r < n; ++r) {
    if (less(static_cast<uint32_t>(r), static_cast<uint32_t>(r - 1))) {
      return false;
    }
  }
  return true;
}

std::optional<SelVector> SortPermutation(const std::vector<ColumnPtr>& cols,
                                         const std::vector<SortKey>& keys,
                                         size_t n) {
  if (InKeyOrder(cols, keys, n)) return std::nullopt;
  SelVector order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), KeyLess{cols, keys});
  return order;
}

SqlType RefinedType(SqlType inferred, const Column& col, size_t rows) {
  return rows > 0 && !col.IsNull(0) ? col.At(0).type() : inferred;
}

Relation LimitWindow(Relation rel, int64_t limit, int64_t offset) {
  size_t start = 0;
  size_t end = rel.row_count;
  if (offset > 0) start = std::min<size_t>(static_cast<size_t>(offset), end);
  if (limit >= 0 && end - start > static_cast<size_t>(limit)) {
    end = start + static_cast<size_t>(limit);
  }
  if (start == 0 && end == rel.row_count) return rel;
  SelVector sel(end - start);
  std::iota(sel.begin(), sel.end(), static_cast<uint32_t>(start));
  return rel.GatherRows(sel.data(), sel.size());
}

}  // namespace sqldb
}  // namespace hyperq
