#ifndef HYPERQ_SQLDB_OPERATORS_H_
#define HYPERQ_SQLDB_OPERATORS_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/worker_pool.h"
#include "sqldb/ast.h"
#include "sqldb/relation.h"

namespace hyperq {
namespace sqldb {

/// The typed operator layer under the executor (exec.cc): morsel
/// scheduling, the group table, per-group reduction, the order
/// permutation, the LIMIT window and the comparison primitives. Joins,
/// grouping, DISTINCT and ORDER BY all build on these, so each concept has
/// one implementation.

// --- Morsels and cancellation ---

/// Rows per morsel for parallel filters, group builds and join probes.
/// Large enough to amortize dispatch, small enough to balance.
constexpr size_t kMorselRows = 16 * 1024;

inline size_t MorselCount(size_t n) {
  return (n + kMorselRows - 1) / kMorselRows;
}

/// Whether a stage over n rows is worth fanning out to the shared pool.
bool ShouldParallelize(size_t n);

/// Cooperative cancellation at morsel/stage boundaries. The Deadline must
/// be captured by value on the serving thread before any fan-out: pool
/// threads do not inherit the caller's ambient (thread-local) deadline.
inline Status CancelIfExpired(const Deadline& dl, const char* stage) {
  return dl.Expired() ? DeadlineExceeded(stage) : Status::OK();
}

/// Runs `fn(mi, lo, hi) -> Status` over the morsels of rows [0, n): fanned
/// out to the shared pool when `parallel`, else in order on this thread,
/// stopping at the first failure. A morsel only starts while `dl` has not
/// expired (an expired one fails with DeadlineExceeded(stage)), and the
/// lowest failing morsel's status wins, as a sequential scan reports it.
template <typename Fn>
Status ForEachMorsel(size_t n, bool parallel, const Deadline& dl,
                     const char* stage, Fn&& fn) {
  auto run = [&](size_t mi) {
    const size_t lo = mi * kMorselRows;
    HQ_RETURN_IF_ERROR(CancelIfExpired(dl, stage));
    return fn(mi, lo, std::min(n, lo + kMorselRows));
  };
  const size_t morsels = MorselCount(n);
  if (!parallel) {
    for (size_t mi = 0; mi < morsels; ++mi) HQ_RETURN_IF_ERROR(run(mi));
    return Status::OK();
  }
  std::vector<Status> stats(morsels, Status::OK());
  WorkerPool::Shared().ParallelFor(morsels,
                                   [&](size_t mi) { stats[mi] = run(mi); });
  for (const Status& s : stats) HQ_RETURN_IF_ERROR(s);
  return Status::OK();
}

/// Filter driver: `filter(lo, hi, SelVector* part) -> Status` appends the
/// survivors of rows [lo, hi) to an empty `part` in ascending order. Parts
/// join in morsel order, so the selection is the same whether the morsels
/// ran in parallel or in sequence.
template <typename MorselFilter>
Result<SelVector> FilterMorsels(size_t n, bool parallel, const Deadline& dl,
                                MorselFilter&& filter) {
  std::vector<SelVector> parts(MorselCount(n));
  HQ_RETURN_IF_ERROR(ForEachMorsel(
      n, parallel, dl, "filter morsel", [&](size_t mi, size_t lo, size_t hi) {
        return filter(lo, hi, &parts[mi]);
      }));
  SelVector sel;
  size_t total = 0;
  for (const SelVector& p : parts) total += p.size();
  sel.reserve(total);
  for (const SelVector& p : parts) sel.insert(sel.end(), p.begin(), p.end());
  return sel;
}

// --- Comparison primitives ---

/// Comparison operator index: 0 '=', 1 '<>' (or '!='), 2 '<', 3 '>',
/// 4 '<=', 5 '>='; -1 for anything else (incl. IS_DISTINCT).
int CmpOpIndex(const std::string& op);

/// The index of the same comparison with its operands swapped.
int FlipCmpOp(int op);

/// Whether comparison `op` holds for a three-way result `cmp`.
inline bool CmpHolds(int op, int cmp) {
  switch (op) {
    case 0: return cmp == 0;
    case 1: return cmp != 0;
    case 2: return cmp < 0;
    case 3: return cmp > 0;
    case 4: return cmp <= 0;
    default: return cmp >= 0;
  }
}

/// Compares two cells of one column with Datum::Compare semantics (the
/// column is homogeneously typed, so the typed branch is exact). Callers
/// handle NULLs before comparing.
int CompareCells(const Column& col, size_t a, size_t b);

// --- Group table ---

inline const uint8_t* NullBytesOf(const Column& c) {
  return c.null_bytes().empty() ? nullptr : c.null_bytes().data();
}

/// Key adapters for the group table: `Key`, `null_at(r)`, `at(r)` (only on
/// rows where null_at is false) and a static `Hash(key)`. Each is built
/// from the key column list, so a join builds over one side's columns and
/// probes over the other's with the same adapter type.

/// A single kInt-storage key column.
struct IntKeyAdapter {
  using Key = int64_t;
  const int64_t* iv;
  const uint8_t* nulls;  // nullptr when the column has no NULLs

  explicit IntKeyAdapter(const std::vector<ColumnPtr>& cols)
      : iv(cols[0]->ints()), nulls(NullBytesOf(*cols[0])) {}
  bool null_at(size_t r) const { return nulls != nullptr && nulls[r] != 0; }
  Key at(size_t r) const { return iv[r]; }
  static uint64_t Hash(int64_t k) {  // splitmix64 finalizer
    uint64_t x = static_cast<uint64_t>(k) + 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
  }
};

/// A single kString-storage key column.
struct StringKeyAdapter {
  using Key = std::string_view;
  const std::string* sv;
  const uint8_t* nulls;

  explicit StringKeyAdapter(const std::vector<ColumnPtr>& cols)
      : sv(cols[0]->strs().data()), nulls(NullBytesOf(*cols[0])) {}
  bool null_at(size_t r) const { return nulls != nullptr && nulls[r] != 0; }
  Key at(size_t r) const { return std::string_view(sv[r]); }
  static uint64_t Hash(std::string_view k) { return Fnv1a(k); }
};

/// Any other key: the concatenated EncodeValue bytes of the key columns,
/// so NaN canonicalization and the integral-double/int equivalence class
/// (1 groups and joins with 1.0) carry over exactly. A NULL cell is part
/// of the bytes, never a separate null key.
struct GenericKeyAdapter {
  using Key = std::string;
  std::vector<ColumnPtr> cols;
  mutable std::string scratch;

  explicit GenericKeyAdapter(const std::vector<ColumnPtr>& key_cols)
      : cols(key_cols) {}

  bool null_at(size_t) const { return false; }
  const std::string& at(size_t r) const {
    scratch.clear();
    for (const ColumnPtr& c : cols) c->EncodeValue(r, &scratch);
    return scratch;
  }
  static uint64_t Hash(const std::string& k) { return Fnv1a(k); }
};

enum class KeyKind : uint8_t { kInt, kString, kGeneric };

/// The adapter rule: a single kInt key uses the int adapter, a single
/// kString key the string adapter, anything else the generic bytes.
KeyKind KeyKindFor(const std::vector<ColumnPtr>& key_cols);

/// Calls fn(adapter) with the `kind` adapter over `cols` and returns its
/// result; fn is generic over the adapter type.
template <typename Fn>
auto WithKeyAdapter(KeyKind kind, const std::vector<ColumnPtr>& cols,
                    Fn&& fn) {
  switch (kind) {
    case KeyKind::kInt:
      return fn(IntKeyAdapter(cols));
    case KeyKind::kString:
      return fn(StringKeyAdapter(cols));
    default:
      return fn(GenericKeyAdapter(cols));
  }
}

/// No group: a vacant table slot, or a key the table does not hold.
constexpr uint32_t kNoGroup = 0xFFFFFFFFu;

/// Groups over an open-addressing table (power-of-two capacity, linear
/// probing, cached hashes): no per-row node allocation. Group ids are
/// assigned in first-occurrence order; members are kept in insertion
/// order.
template <typename Adapter>
struct FlatGroups {
  using Key = typename Adapter::Key;

  std::vector<uint32_t> slot_gid;   // kNoGroup = vacant
  std::vector<uint64_t> slot_hash;  // valid where slot_gid is occupied
  size_t mask = 0;
  uint32_t null_gid = kNoGroup;  // the NULL key's group, once seen
  std::vector<Key> keys;  // per gid; default-constructed for the null gid
  std::vector<SelVector> members;

  void Grow() {
    size_t ncap = slot_gid.empty() ? 64 : slot_gid.size() * 2;
    std::vector<uint32_t> ng(ncap, kNoGroup);
    std::vector<uint64_t> nh(ncap, 0);
    size_t nmask = ncap - 1;
    for (size_t i = 0; i < slot_gid.size(); ++i) {
      if (slot_gid[i] == kNoGroup) continue;
      size_t j = slot_hash[i] & nmask;
      while (ng[j] != kNoGroup) j = (j + 1) & nmask;
      ng[j] = slot_gid[i];
      nh[j] = slot_hash[i];
    }
    slot_gid = std::move(ng);
    slot_hash = std::move(nh);
    mask = nmask;
  }

  /// The slot holding `key`, or the vacant slot where it would go.
  size_t SlotOf(uint64_t h, const Key& key) const {
    size_t j = h & mask;
    while (slot_gid[j] != kNoGroup &&
           !(slot_hash[j] == h && keys[slot_gid[j]] == key)) {
      j = (j + 1) & mask;
    }
    return j;
  }

  uint32_t GidFor(uint64_t h, const Key& key) {
    if ((keys.size() + 1) * 4 >= slot_gid.size() * 3) Grow();
    const size_t j = SlotOf(h, key);
    if (slot_gid[j] != kNoGroup) return slot_gid[j];
    uint32_t gid = static_cast<uint32_t>(keys.size());
    slot_gid[j] = gid;
    slot_hash[j] = h;
    keys.push_back(key);
    members.emplace_back();
    return gid;
  }

  SelVector* NullMembers() {
    if (null_gid == kNoGroup) {
      null_gid = static_cast<uint32_t>(members.size());
      keys.emplace_back();
      members.emplace_back();
    }
    return &members[null_gid];
  }

  void Add(const Adapter& ad, uint32_t row) {
    if (ad.null_at(row)) {
      NullMembers()->push_back(row);
      return;
    }
    const auto& key = ad.at(row);
    members[GidFor(Adapter::Hash(key), key)].push_back(row);
  }

  /// Lookup only: the group of `row`'s key under `ad` (which may read
  /// other columns than the build adapter did), or kNoGroup.
  uint32_t Find(const Adapter& ad, size_t row) const {
    if (ad.null_at(row)) return null_gid;
    if (slot_gid.empty()) return kNoGroup;
    const auto& key = ad.at(row);
    return slot_gid[SlotOf(Adapter::Hash(key), key)];
  }
};

/// Group build over rows [0, n). Per morsel, `rows(lo, hi, add) -> Status`
/// calls add(row) for the rows of [lo, hi) that belong in the table, in
/// ascending order. Morsel-local tables merge in morsel order, so group
/// order (first occurrence) and member order (ascending rows) are the
/// same whether the morsels ran in parallel or in sequence.
template <typename Adapter, typename MorselRows>
Result<FlatGroups<Adapter>> BuildGroups(size_t n, bool parallel,
                                        const Deadline& dl,
                                        const Adapter& ad,
                                        MorselRows&& rows) {
  std::vector<FlatGroups<Adapter>> locals(parallel ? MorselCount(n) : 1);
  HQ_RETURN_IF_ERROR(ForEachMorsel(
      n, parallel, dl, "group build", [&](size_t mi, size_t lo, size_t hi) {
        Adapter local_ad = ad;  // the generic adapter has a scratch buffer
        FlatGroups<Adapter>& fg = locals[parallel ? mi : 0];
        return rows(lo, hi, [&](uint32_t r) { fg.Add(local_ad, r); });
      }));
  if (!parallel) return std::move(locals[0]);
  FlatGroups<Adapter> global;
  for (FlatGroups<Adapter>& lg : locals) {
    for (size_t g = 0; g < lg.members.size(); ++g) {
      SelVector* m =
          g == lg.null_gid
              ? global.NullMembers()
              : &global.members[global.GidFor(Adapter::Hash(lg.keys[g]),
                                               lg.keys[g])];
      if (m->empty()) {
        *m = std::move(lg.members[g]);
      } else {
        m->insert(m->end(), lg.members[g].begin(), lg.members[g].end());
      }
    }
  }
  return global;
}

/// BuildGroups with the adapter KeyKindFor picks for `keys`, returning
/// each group's members.
template <typename MorselRows>
Result<std::vector<SelVector>> GroupMembers(
    const std::vector<ColumnPtr>& keys, size_t n, bool parallel,
    const Deadline& dl, MorselRows&& rows) {
  return WithKeyAdapter(
      KeyKindFor(keys), keys, [&](auto ad) -> Result<std::vector<SelVector>> {
        HQ_ASSIGN_OR_RETURN(auto groups,
                            BuildGroups(n, parallel, dl, ad, rows));
        return std::move(groups.members);
      });
}

// --- Band join ---

/// One range bound of a join: `right op left`, op a CmpOpIndex among
/// < > <= >=, over two kInt-storage columns.
struct BandBound {
  const Column* right;
  const Column* left;
  int op;
};

/// A hash bucket's right rows arranged for range probes. Rows whose bound
/// columns are all non-NULL are sorted by the first bound's right column,
/// ties in row order; rows with a NULL there are candidates for every
/// probe. A later bound narrows the probe range only when its right column
/// is non-decreasing along that order.
class BandBucket {
 public:
  BandBucket(const std::vector<BandBound>& bounds, const SelVector& members);

  /// Replaces *out with the members, ascending, that can satisfy every
  /// bound for left row l: a superset of the rows where each bound holds
  /// or reads a NULL. A NULL in l's bound columns keeps every member.
  void Candidates(const std::vector<BandBound>& bounds, uint32_t l,
                  const SelVector& members, SelVector* out) const;

 private:
  SelVector sorted_;
  SelVector always_;
  /// Per bound: its right column's values along sorted_; empty when the
  /// bound does not narrow the range.
  std::vector<std::vector<int64_t>> keys_;
};

// --- Per-group reduction ---

/// Each group's representative row: its first member, or -1 (an all-NULL
/// pad row) for an empty group.
std::vector<int64_t> RepresentativeRows(const std::vector<SelVector>& members);

/// Reduces aggregate `agg` over each group's members of `arg` with
/// ComputeAggregateColumnar; `arg == nullptr` is COUNT(*). Groups fan out
/// to the shared pool when `parallel`; the lowest failing group's error
/// wins.
Result<std::vector<Datum>> ReduceGroups(const Expr& agg, const Column* arg,
                                        const std::vector<SelVector>& members,
                                        bool parallel, const Deadline& dl);

// --- Order permutation and LIMIT window ---

/// One ORDER BY key: an index into the sorted relation's columns.
struct SortKey {
  int col = 0;
  bool ascending = true;
  bool nulls_first = false;
};

/// Whether rows [0, n) of `cols` are already in `keys` order (ties
/// allowed): NULLs placed by nulls_first, cells ordered by CompareCells.
/// A single int, float or string key is checked without the per-cell
/// dispatch.
bool InKeyOrder(const std::vector<ColumnPtr>& cols,
                const std::vector<SortKey>& keys, size_t n);

/// Orders `rows` (ascending row ids of `cols`) by `keys`, ties kept in row
/// order. With `limit` below rows->size() only the first `limit` rows of
/// that order are computed (a partial sort with the row id as the last
/// key, O(n log limit)) and the rest are dropped. Returns false, leaving
/// `rows` untouched, when they are already in key order.
bool SortRows(const std::vector<ColumnPtr>& cols,
              const std::vector<SortKey>& keys, SelVector* rows,
              size_t limit = SIZE_MAX);

/// The stable permutation of rows [0, n) of `cols` under `keys`, ties kept
/// in row order, cut to its first `limit` entries; nullopt when the rows
/// are already in key order (InKeyOrder), where that permutation is the
/// identity and callers skip the sort and the gather.
std::optional<SelVector> SortPermutation(const std::vector<ColumnPtr>& cols,
                                         const std::vector<SortKey>& keys,
                                         size_t n, size_t limit = SIZE_MAX);

/// Whether rows a and b of `cols` are peers under `keys`: NULL meets NULL,
/// and cells that compare equal (kMixed cells by Datum::DistinctEquals).
bool SameKeys(const std::vector<ColumnPtr>& cols,
              const std::vector<SortKey>& keys, uint32_t a, uint32_t b);

/// The output column type: the first row's value refines the statically
/// inferred type.
SqlType RefinedType(SqlType inferred, const Column& col, size_t rows);

/// The rows [first, second) of n that a LIMIT/OFFSET keeps: a negative
/// `limit` means no limit, and `offset` only applies when positive.
std::pair<size_t, size_t> LimitRange(size_t n, int64_t limit, int64_t offset);

/// The LimitRange rows of `rel`. Keeping every row skips the gather.
Relation LimitWindow(Relation rel, int64_t limit, int64_t offset);

}  // namespace sqldb
}  // namespace hyperq

#endif  // HYPERQ_SQLDB_OPERATORS_H_
