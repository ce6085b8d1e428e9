#ifndef HYPERQ_COMMON_SQL_MARKERS_H_
#define HYPERQ_COMMON_SQL_MARKERS_H_

namespace hyperq {

/// Shared spellings for the helper constructs the cross-compiler plants in
/// its emitted SQL, so downstream recognition (the backend's sort elision,
/// result-leg column dropping) is an exact-name match against the same
/// constants the serializer writes — recognition, not guessing.
///
/// `kSqlOrdColName` is the implicit order column the loader appends to
/// every Q table (ascending, never NULL) and the serializer orders final
/// results by.
inline constexpr char kSqlOrdColName[] = "ordcol";

}  // namespace hyperq

#endif  // HYPERQ_COMMON_SQL_MARKERS_H_
