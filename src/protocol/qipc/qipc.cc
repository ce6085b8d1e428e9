#include "protocol/qipc/qipc.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/bytes.h"
#include "protocol/qipc/compress.h"
#include "common/strings.h"

namespace hyperq {
namespace qipc {

namespace {

constexpr int8_t kErrorType = -128;
constexpr int8_t kGenericNull = 101;

int8_t TypeCode(QType t) { return static_cast<int8_t>(t); }

/// Per-type integral widths on the wire (kdb+ layout).
int AtomWidth(QType t) {
  switch (t) {
    case QType::kBool:
    case QType::kByte:
    case QType::kChar:
      return 1;
    case QType::kShort:
      return 2;
    case QType::kInt:
    case QType::kDate:
    case QType::kTime:
      return 4;
    default:
      return 8;
  }
}

/// Narrow-width null sentinels: internal nulls are INT64_MIN; the wire
/// carries the width-matching minimum.
int64_t WireInt(QType t, int64_t v) {
  if (v != kNullLong) return v;
  switch (AtomWidth(t)) {
    case 2:
      return INT16_MIN;
    case 4:
      return INT32_MIN;
    default:
      return INT64_MIN;
  }
}

int64_t FromWireInt(QType t, int64_t v) {
  switch (AtomWidth(t)) {
    case 2:
      return v == INT16_MIN ? kNullLong : v;
    case 4:
      return v == INT32_MIN ? kNullLong : v;
    default:
      return v;
  }
}

void PutIntOfWidth(ByteWriter* w, QType t, int64_t v) {
  int64_t wire = WireInt(t, v);
  switch (AtomWidth(t)) {
    case 1:
      w->PutU8(static_cast<uint8_t>(wire));
      break;
    case 2:
      w->PutI16LE(static_cast<int16_t>(wire));
      break;
    case 4:
      w->PutI32LE(static_cast<int32_t>(wire));
      break;
    default:
      w->PutI64LE(wire);
      break;
  }
}

Result<int64_t> GetIntOfWidth(ByteReader* r, QType t) {
  switch (AtomWidth(t)) {
    case 1: {
      HQ_ASSIGN_OR_RETURN(uint8_t v, r->GetU8());
      return static_cast<int64_t>(t == QType::kBool ? (v != 0)
                                                    : static_cast<int8_t>(v));
    }
    case 2: {
      HQ_ASSIGN_OR_RETURN(int16_t v, r->GetI16LE());
      return FromWireInt(t, v);
    }
    case 4: {
      HQ_ASSIGN_OR_RETURN(int32_t v, r->GetI32LE());
      return FromWireInt(t, v);
    }
    default: {
      HQ_ASSIGN_OR_RETURN(int64_t v, r->GetI64LE());
      return v;
    }
  }
}

/// Minimum borrowed-payload size for the scatter encoder: smaller payloads
/// are cheaper to append to the arena than to spend an iovec entry on.
constexpr size_t kScatterMinBytes = 1024;

// -- Size pre-pass ----------------------------------------------------------

Result<size_t> ObjectSize(const QValue& v) {
  if (v.IsGenericNull()) return size_t{2};
  if (v.IsTable()) {
    const QTable& t = v.Table();
    size_t total = 3;  // 98, attributes, 99
    total += 6;        // names: type, attr, count
    for (const auto& s : t.names) total += s.size() + 1;
    total += 6;        // columns: mixed-list envelope
    for (const auto& c : t.columns) {
      HQ_ASSIGN_OR_RETURN(size_t cs, ObjectSize(c));
      total += cs;
    }
    return total;
  }
  if (v.IsDict()) {
    HQ_ASSIGN_OR_RETURN(size_t ks, ObjectSize(*v.Dict().keys));
    HQ_ASSIGN_OR_RETURN(size_t vs, ObjectSize(*v.Dict().values));
    return 1 + ks + vs;
  }
  if (v.IsLambda()) return 6 + v.Lambda().source.size();
  QType t = v.type();
  if (v.is_atom()) {
    switch (t) {
      case QType::kSymbol:
        return 1 + v.AsSym().size() + 1;
      case QType::kReal:
        return size_t{5};
      case QType::kFloat:
        return size_t{9};
      case QType::kChar:
        return size_t{2};
      default:
        if (IsIntegralBacked(t)) {
          return 1 + static_cast<size_t>(AtomWidth(t));
        }
        return ProtocolError(StrCat("cannot encode atom of type ",
                                    QTypeName(t)));
    }
  }
  size_t n = v.Count();
  switch (t) {
    case QType::kSymbol: {
      size_t total = 6;
      for (const auto& s : v.SymsView()) total += s.size() + 1;
      return total;
    }
    case QType::kChar:
      return 6 + n;
    case QType::kMixed: {
      size_t total = 6;
      for (const auto& e : v.Items()) {
        HQ_ASSIGN_OR_RETURN(size_t es, ObjectSize(e));
        total += es;
      }
      return total;
    }
    case QType::kReal:
      return 6 + 4 * n;
    case QType::kFloat:
      return 6 + 8 * n;
    default:
      if (IsIntegralBacked(t)) {
        return 6 + static_cast<size_t>(AtomWidth(t)) * n;
      }
      return ProtocolError(StrCat("cannot encode list of type ",
                                  QTypeName(t)));
  }
}

Status EncodeObject(const QValue& v, ByteWriter* w);

Status EncodeAtom(const QValue& v, ByteWriter* w) {
  QType t = v.type();
  w->PutU8(static_cast<uint8_t>(-TypeCode(t)));
  switch (t) {
    case QType::kSymbol:
      w->PutCString(v.AsSym());
      return Status::OK();
    case QType::kReal: {
      float f = static_cast<float>(v.AsFloat());
      uint32_t bits;
      std::memcpy(&bits, &f, sizeof(bits));
      w->PutU32LE(bits);
      return Status::OK();
    }
    case QType::kFloat:
      w->PutF64LE(v.AsFloat());
      return Status::OK();
    case QType::kChar:
      w->PutU8(static_cast<uint8_t>(v.AsChar()));
      return Status::OK();
    default:
      if (IsIntegralBacked(t)) {
        PutIntOfWidth(w, t, v.AsInt());
        return Status::OK();
      }
      return ProtocolError(StrCat("cannot encode atom of type ",
                                  QTypeName(t)));
  }
}

/// Shared list envelope: type byte, attribute byte, int32 count.
void PutListHeader(QType t, size_t count, ByteWriter* w) {
  w->PutU8(static_cast<uint8_t>(TypeCode(t)));
  w->PutU8(0);  // attributes
  w->PutI32LE(static_cast<int32_t>(count));
}

/// Vectorized list encoder. Contiguous typed payloads leave as one memcpy
/// on little-endian hosts (QIPC is little-endian); narrower widths use
/// tight loops with the width switch hoisted out — zero per-element
/// branches beyond the null-sentinel select. Byte-identical to the
/// element-wise baseline below by construction (tests assert it).
Status EncodeList(const QValue& v, ByteWriter* w) {
  QType t = v.type();
  size_t n = v.Count();
  PutListHeader(t, n, w);
  switch (t) {
    case QType::kSymbol: {
      // One Extend for the whole list, then raw memcpy per symbol: the
      // size walk is cache-warm (the pre-pass touched the same headers)
      // and the inner loop dodges per-string capacity checks.
      const std::vector<std::string>& syms = v.SymsView();
      size_t total = 0;
      for (const auto& s : syms) total += s.size() + 1;
      uint8_t* dst = w->Extend(total);
      for (const auto& s : syms) {
        std::memcpy(dst, s.data(), s.size());
        dst += s.size();
        *dst++ = 0;
      }
      return Status::OK();
    }
    case QType::kChar:
      w->PutString(v.CharsView());
      return Status::OK();
    case QType::kMixed:
      for (const auto& e : v.Items()) {
        HQ_RETURN_IF_ERROR(EncodeObject(e, w));
      }
      return Status::OK();
    case QType::kReal: {
      const double* src = v.Floats().data();
      uint8_t* dst = w->Extend(4 * n);
      for (size_t i = 0; i < n; ++i) {
        float f = static_cast<float>(src[i]);
        uint32_t bits;
        std::memcpy(&bits, &f, sizeof(bits));
        if constexpr (kHostIsLittleEndian) {
          std::memcpy(dst + 4 * i, &bits, 4);
        } else {
          for (int b = 0; b < 4; ++b) {
            dst[4 * i + b] = static_cast<uint8_t>(bits >> (8 * b));
          }
        }
      }
      return Status::OK();
    }
    case QType::kFloat:
      w->PutF64ArrayLE(v.Floats().data(), n);
      return Status::OK();
    default: {
      if (!IsIntegralBacked(t)) {
        return ProtocolError(StrCat("cannot encode list of type ",
                                    QTypeName(t)));
      }
      const int64_t* src = v.Ints().data();
      switch (AtomWidth(t)) {
        case 1: {
          // The low byte of the internal value IS the wire byte, nulls
          // included ((uint8_t)INT64_MIN == (uint8_t)WireInt == 0).
          uint8_t* dst = w->Extend(n);
          for (size_t i = 0; i < n; ++i) {
            dst[i] = static_cast<uint8_t>(src[i]);
          }
          return Status::OK();
        }
        case 2: {
          uint8_t* dst = w->Extend(2 * n);
          for (size_t i = 0; i < n; ++i) {
            uint16_t x = static_cast<uint16_t>(WireInt(t, src[i]));
            dst[2 * i] = static_cast<uint8_t>(x);
            dst[2 * i + 1] = static_cast<uint8_t>(x >> 8);
          }
          return Status::OK();
        }
        case 4: {
          uint8_t* dst = w->Extend(4 * n);
          for (size_t i = 0; i < n; ++i) {
            uint32_t x = static_cast<uint32_t>(WireInt(t, src[i]));
            if constexpr (kHostIsLittleEndian) {
              std::memcpy(dst + 4 * i, &x, 4);
            } else {
              for (int b = 0; b < 4; ++b) {
                dst[4 * i + b] = static_cast<uint8_t>(x >> (8 * b));
              }
            }
          }
          return Status::OK();
        }
        default:
          // 8-byte family: the internal int64 payload already carries the
          // wire null sentinel (INT64_MIN), so the whole vector is the
          // wire image.
          w->PutI64ArrayLE(src, n);
          return Status::OK();
      }
    }
  }
}

Status EncodeObject(const QValue& v, ByteWriter* w) {
  if (v.IsGenericNull()) {
    w->PutU8(static_cast<uint8_t>(kGenericNull));
    w->PutU8(0);
    return Status::OK();
  }
  if (v.IsTable()) {
    // Table: 98, attributes, then the column dictionary (99).
    w->PutU8(98);
    w->PutU8(0);
    w->PutU8(99);
    const QTable& t = v.Table();
    // Inline the name/column lists instead of wrapping them in temporary
    // QValues (the old path copied both vectors per table encode).
    PutListHeader(QType::kSymbol, t.names.size(), w);
    for (const auto& s : t.names) w->PutCString(s);
    PutListHeader(QType::kMixed, t.columns.size(), w);
    for (const auto& c : t.columns) {
      HQ_RETURN_IF_ERROR(EncodeObject(c, w));
    }
    return Status::OK();
  }
  if (v.IsDict()) {
    w->PutU8(99);
    HQ_RETURN_IF_ERROR(EncodeObject(*v.Dict().keys, w));
    HQ_RETURN_IF_ERROR(EncodeObject(*v.Dict().values, w));
    return Status::OK();
  }
  if (v.IsLambda()) {
    // Functions travel as their source text (char list), mirroring §4.3's
    // store-as-text representation.
    const std::string& src = v.Lambda().source;
    PutListHeader(QType::kChar, src.size(), w);
    w->PutString(src);
    return Status::OK();
  }
  if (v.is_atom()) return EncodeAtom(v, w);
  return EncodeList(v, w);
}

// -- Pinned element-wise baseline -------------------------------------------

Status EncodeObjectElementwise(const QValue& v, ByteWriter* w);

/// The pre-vectorization list encoder, element at a time through the
/// width-dispatching PutIntOfWidth. Kept verbatim: property tests hold the
/// bulk path to byte identity with this, and bench_wire measures against
/// it.
Status EncodeListElementwise(const QValue& v, ByteWriter* w) {
  QType t = v.type();
  PutListHeader(t, v.Count(), w);
  switch (t) {
    case QType::kSymbol:
      for (const auto& s : v.SymsView()) w->PutCString(s);
      return Status::OK();
    case QType::kChar:
      w->PutString(v.CharsView());
      return Status::OK();
    case QType::kMixed:
      for (const auto& e : v.Items()) {
        HQ_RETURN_IF_ERROR(EncodeObjectElementwise(e, w));
      }
      return Status::OK();
    case QType::kReal:
      for (double d : v.Floats()) {
        float f = static_cast<float>(d);
        uint32_t bits;
        std::memcpy(&bits, &f, sizeof(bits));
        w->PutU32LE(bits);
      }
      return Status::OK();
    case QType::kFloat:
      for (double d : v.Floats()) w->PutF64LE(d);
      return Status::OK();
    default:
      if (IsIntegralBacked(t)) {
        for (int64_t x : v.Ints()) PutIntOfWidth(w, t, x);
        return Status::OK();
      }
      return ProtocolError(StrCat("cannot encode list of type ",
                                  QTypeName(t)));
  }
}

Status EncodeObjectElementwise(const QValue& v, ByteWriter* w) {
  if (v.IsGenericNull()) {
    w->PutU8(static_cast<uint8_t>(kGenericNull));
    w->PutU8(0);
    return Status::OK();
  }
  if (v.IsTable()) {
    w->PutU8(98);
    w->PutU8(0);
    w->PutU8(99);
    const QTable& t = v.Table();
    HQ_RETURN_IF_ERROR(EncodeListElementwise(QValue::Syms(t.names), w));
    HQ_RETURN_IF_ERROR(EncodeListElementwise(QValue::Mixed(t.columns), w));
    return Status::OK();
  }
  if (v.IsDict()) {
    w->PutU8(99);
    HQ_RETURN_IF_ERROR(EncodeObjectElementwise(*v.Dict().keys, w));
    HQ_RETURN_IF_ERROR(EncodeObjectElementwise(*v.Dict().values, w));
    return Status::OK();
  }
  if (v.IsLambda()) {
    return EncodeListElementwise(QValue::Chars(v.Lambda().source), w);
  }
  if (v.is_atom()) return EncodeAtom(v, w);
  return EncodeListElementwise(v, w);
}

// -- Scatter encoder --------------------------------------------------------

/// Collects the wire image as arena runs interleaved with borrowed payload
/// spans. Arena bytes are recorded as offsets (the arena may reallocate
/// while encoding) and resolved to pointers at the end.
class ScatterSink {
 public:
  explicit ScatterSink(ByteWriter* arena)
      : arena_(arena), run_start_(arena->size()) {}

  ByteWriter* arena() { return arena_; }

  /// Emits a slice referencing `len` bytes owned by the encoded value.
  void Borrow(const void* data, size_t len) {
    FlushArenaRun();
    parts_.push_back(Part{/*arena_offset=*/0, data, len});
  }

  /// Resolves all recorded runs into IoSlices over the final arena buffer.
  void Finish(std::vector<IoSlice>* out) {
    FlushArenaRun();
    const uint8_t* base = arena_->data().data();
    out->reserve(out->size() + parts_.size());
    for (const Part& p : parts_) {
      out->push_back(IoSlice{
          p.external != nullptr ? p.external : base + p.arena_offset,
          p.len});
    }
  }

 private:
  struct Part {
    size_t arena_offset;
    const void* external;  // null = arena run
    size_t len;
  };

  void FlushArenaRun() {
    if (arena_->size() > run_start_) {
      parts_.push_back(
          Part{run_start_, nullptr, arena_->size() - run_start_});
    }
    run_start_ = arena_->size();
  }

  ByteWriter* arena_;
  size_t run_start_;
  std::vector<Part> parts_;
};

Status EncodeObjectScatter(const QValue& v, ScatterSink* sink) {
  ByteWriter* w = sink->arena();
  if (!v.IsGenericNull() && !v.IsTable() && !v.IsDict() && !v.IsLambda() &&
      !v.is_atom()) {
    // A list: borrow the payload when it is large, contiguous and already
    // in wire layout; otherwise bulk-encode into the arena.
    QType t = v.type();
    size_t n = v.Count();
    if constexpr (kHostIsLittleEndian) {
      switch (t) {
        case QType::kChar:
          if (n >= kScatterMinBytes) {
            PutListHeader(t, n, w);
            sink->Borrow(v.CharsView().data(), n);
            return Status::OK();
          }
          break;
        case QType::kFloat:
          if (8 * n >= kScatterMinBytes) {
            PutListHeader(t, n, w);
            sink->Borrow(v.Floats().data(), 8 * n);
            return Status::OK();
          }
          break;
        default:
          if (IsIntegralBacked(t) && AtomWidth(t) == 8 &&
              8 * n >= kScatterMinBytes) {
            PutListHeader(t, n, w);
            sink->Borrow(v.Ints().data(), 8 * n);
            return Status::OK();
          }
          break;
      }
    }
    return EncodeList(v, w);
  }
  if (v.IsTable()) {
    w->PutU8(98);
    w->PutU8(0);
    w->PutU8(99);
    const QTable& t = v.Table();
    PutListHeader(QType::kSymbol, t.names.size(), w);
    for (const auto& s : t.names) w->PutCString(s);
    PutListHeader(QType::kMixed, t.columns.size(), w);
    for (const auto& c : t.columns) {
      HQ_RETURN_IF_ERROR(EncodeObjectScatter(c, sink));
    }
    return Status::OK();
  }
  if (v.IsDict()) {
    w->PutU8(99);
    HQ_RETURN_IF_ERROR(EncodeObjectScatter(*v.Dict().keys, sink));
    HQ_RETURN_IF_ERROR(EncodeObjectScatter(*v.Dict().values, sink));
    return Status::OK();
  }
  // Atoms, generic null and lambdas are small: plain arena encode.
  return EncodeObject(v, w);
}

Result<QValue> DecodeObject(ByteReader* r);

Result<QValue> DecodeAtom(QType t, ByteReader* r) {
  switch (t) {
    case QType::kSymbol: {
      HQ_ASSIGN_OR_RETURN(std::string s, r->GetCString());
      return QValue::Sym(std::move(s));
    }
    case QType::kReal: {
      HQ_ASSIGN_OR_RETURN(uint32_t bits, r->GetU32LE());
      float f;
      std::memcpy(&f, &bits, sizeof(f));
      return QValue::Real(f);
    }
    case QType::kFloat: {
      HQ_ASSIGN_OR_RETURN(double d, r->GetF64LE());
      return QValue::Float(d);
    }
    case QType::kChar: {
      HQ_ASSIGN_OR_RETURN(uint8_t c, r->GetU8());
      return QValue::Char(static_cast<char>(c));
    }
    default: {
      if (!IsIntegralBacked(t)) {
        return ProtocolError(StrCat("cannot decode atom of type code ",
                                    static_cast<int>(t)));
      }
      HQ_ASSIGN_OR_RETURN(int64_t v, GetIntOfWidth(r, t));
      return QValue::IntegralAtom(t, v);
    }
  }
}

Result<QValue> DecodeList(QType t, ByteReader* r) {
  HQ_ASSIGN_OR_RETURN(uint8_t attr, r->GetU8());
  (void)attr;
  HQ_ASSIGN_OR_RETURN(int32_t count, r->GetI32LE());
  if (count < 0) return ProtocolError("negative list length");
  size_t n = static_cast<size_t>(count);
  // The count is untrusted: allocate only what the bytes left can hold.
  // Fixed-width elements must all fit before the vector is sized; symbol
  // and mixed elements take at least one byte each.
  const size_t width = t == QType::kReal    ? 4
                       : t == QType::kFloat ? 8
                       : IsIntegralBacked(t)
                           ? static_cast<size_t>(AtomWidth(t))
                           : 0;
  if (width > 0 && n > r->remaining() / width) {
    return ProtocolError(StrCat("list of ", n, " elements overruns frame"));
  }
  const size_t reserve = std::min(n, r->remaining());
  switch (t) {
    case QType::kSymbol: {
      std::vector<std::string> out;
      out.reserve(reserve);
      for (size_t i = 0; i < n; ++i) {
        HQ_ASSIGN_OR_RETURN(std::string s, r->GetCString());
        out.push_back(std::move(s));
      }
      return QValue::Syms(std::move(out));
    }
    case QType::kChar: {
      HQ_ASSIGN_OR_RETURN(std::string s, r->GetString(n));
      return QValue::Chars(std::move(s));
    }
    case QType::kMixed: {
      std::vector<QValue> out;
      out.reserve(reserve);
      for (size_t i = 0; i < n; ++i) {
        HQ_ASSIGN_OR_RETURN(QValue e, DecodeObject(r));
        out.push_back(std::move(e));
      }
      return QValue::Mixed(std::move(out));
    }
    case QType::kReal: {
      // Bounds-check once, then convert from a raw pointer: the per-element
      // Result plumbing dominates decode time for big vectors.
      HQ_ASSIGN_OR_RETURN(const uint8_t* p, r->Raw(4 * n));
      std::vector<double> out(n);
      for (size_t i = 0; i < n; ++i) {
        uint32_t bits;
        if constexpr (kHostIsLittleEndian) {
          std::memcpy(&bits, p + 4 * i, 4);
        } else {
          bits = 0;
          for (int b = 0; b < 4; ++b) {
            bits |= static_cast<uint32_t>(p[4 * i + b]) << (8 * b);
          }
        }
        float f;
        std::memcpy(&f, &bits, sizeof(f));
        out[i] = f;
      }
      return QValue::FloatList(QType::kReal, std::move(out));
    }
    case QType::kFloat: {
      std::vector<double> out(n);
      HQ_RETURN_IF_ERROR(r->GetF64ArrayLE(out.data(), n));
      return QValue::FloatList(QType::kFloat, std::move(out));
    }
    default: {
      if (!IsIntegralBacked(t)) {
        return ProtocolError(StrCat("cannot decode list of type code ",
                                    static_cast<int>(t)));
      }
      std::vector<int64_t> out(n);
      switch (AtomWidth(t)) {
        case 1: {
          HQ_ASSIGN_OR_RETURN(const uint8_t* p, r->Raw(n));
          if (t == QType::kBool) {
            for (size_t i = 0; i < n; ++i) out[i] = p[i] != 0;
          } else {
            for (size_t i = 0; i < n; ++i) {
              out[i] = static_cast<int8_t>(p[i]);
            }
          }
          break;
        }
        case 2: {
          HQ_ASSIGN_OR_RETURN(const uint8_t* p, r->Raw(2 * n));
          for (size_t i = 0; i < n; ++i) {
            uint16_t x;
            if constexpr (kHostIsLittleEndian) {
              std::memcpy(&x, p + 2 * i, 2);
            } else {
              x = static_cast<uint16_t>(p[2 * i] | (p[2 * i + 1] << 8));
            }
            int16_t v = static_cast<int16_t>(x);
            out[i] = v == INT16_MIN ? kNullLong : v;
          }
          break;
        }
        case 4: {
          HQ_ASSIGN_OR_RETURN(const uint8_t* p, r->Raw(4 * n));
          for (size_t i = 0; i < n; ++i) {
            uint32_t x;
            if constexpr (kHostIsLittleEndian) {
              std::memcpy(&x, p + 4 * i, 4);
            } else {
              x = 0;
              for (int b = 0; b < 4; ++b) {
                x |= static_cast<uint32_t>(p[4 * i + b]) << (8 * b);
              }
            }
            int32_t v = static_cast<int32_t>(x);
            out[i] = v == INT32_MIN ? kNullLong : v;
          }
          break;
        }
        default:
          // 8-byte family is the internal representation verbatim
          // (INT64_MIN is both the wire and internal null).
          HQ_RETURN_IF_ERROR(r->GetI64ArrayLE(out.data(), n));
          break;
      }
      return QValue::IntList(t, std::move(out));
    }
  }
}

Result<QValue> DecodeObject(ByteReader* r) {
  HQ_ASSIGN_OR_RETURN(uint8_t raw, r->GetU8());
  int8_t code = static_cast<int8_t>(raw);
  if (code == kGenericNull) {
    HQ_ASSIGN_OR_RETURN(uint8_t pad, r->GetU8());
    (void)pad;
    return QValue();
  }
  if (code == 98) {
    HQ_ASSIGN_OR_RETURN(uint8_t attr, r->GetU8());
    (void)attr;
    HQ_ASSIGN_OR_RETURN(uint8_t dict_marker, r->GetU8());
    if (dict_marker != 99) {
      return ProtocolError("malformed table: expected dict marker 99");
    }
    HQ_ASSIGN_OR_RETURN(QValue names, DecodeObject(r));
    HQ_ASSIGN_OR_RETURN(QValue cols, DecodeObject(r));
    if (names.type() != QType::kSymbol || names.is_atom() ||
        cols.type() != QType::kMixed) {
      return ProtocolError("malformed table payload");
    }
    return QValue::MakeTable(names.SymsView(), cols.Items());
  }
  if (code == 99) {
    HQ_ASSIGN_OR_RETURN(QValue keys, DecodeObject(r));
    HQ_ASSIGN_OR_RETURN(QValue values, DecodeObject(r));
    return QValue::MakeDict(std::move(keys), std::move(values));
  }
  if (code < 0) {
    return DecodeAtom(static_cast<QType>(-code), r);
  }
  return DecodeList(static_cast<QType>(code), r);
}

/// Writes the 8-byte header with the final length known up front — no
/// back-patching pass over the finished buffer.
void PutMessageHeader(ByteWriter* w, MsgType type, size_t payload_size) {
  w->PutU8(1);  // little-endian architecture
  w->PutU8(static_cast<uint8_t>(type));
  w->PutU8(0);  // not compressed
  w->PutU8(0);
  w->PutU32LE(static_cast<uint32_t>(8 + payload_size));
}

}  // namespace

Result<size_t> EncodedObjectSize(const QValue& value) {
  return ObjectSize(value);
}

Status EncodeMessageInto(const QValue& value, MsgType type, ByteWriter* out) {
  out->Clear();
  HQ_ASSIGN_OR_RETURN(size_t payload, ObjectSize(value));
  out->Reserve(8 + payload);
  PutMessageHeader(out, type, payload);
  return EncodeObject(value, out);
}

Result<std::vector<uint8_t>> EncodeMessage(const QValue& value,
                                           MsgType type) {
  ByteWriter w;
  HQ_RETURN_IF_ERROR(EncodeMessageInto(value, type, &w));
  return w.Take();
}

Result<std::vector<uint8_t>> EncodeMessageElementwise(const QValue& value,
                                                      MsgType type) {
  ByteWriter w;
  w.PutU8(1);  // little-endian architecture
  w.PutU8(static_cast<uint8_t>(type));
  w.PutU8(0);  // not compressed
  w.PutU8(0);
  w.PutU32LE(0);  // length patched below
  HQ_RETURN_IF_ERROR(EncodeObjectElementwise(value, &w));
  std::vector<uint8_t> out = w.Take();
  uint32_t len = static_cast<uint32_t>(out.size());
  for (int i = 0; i < 4; ++i) {
    out[4 + i] = static_cast<uint8_t>(len >> (8 * i));
  }
  return out;
}

Status EncodeMessageScatter(const QValue& value, MsgType type,
                            ByteWriter* arena, std::vector<IoSlice>* slices) {
  arena->Clear();
  slices->clear();
  HQ_ASSIGN_OR_RETURN(size_t payload, ObjectSize(value));
  ScatterSink sink(arena);
  PutMessageHeader(arena, type, payload);
  HQ_RETURN_IF_ERROR(EncodeObjectScatter(value, &sink));
  sink.Finish(slices);
  return Status::OK();
}

Result<std::vector<uint8_t>> EncodeMessageCompressed(const QValue& value,
                                                     MsgType type) {
  HQ_ASSIGN_OR_RETURN(size_t payload, ObjectSize(value));
  // Threshold check before encoding: a message that cannot possibly be
  // compressed is encoded exactly once and returned as-is, with no
  // plain→compressed double-buffering.
  if (8 + payload < kMinCompressSize) return EncodeMessage(value, type);
  HQ_ASSIGN_OR_RETURN(std::vector<uint8_t> plain, EncodeMessage(value, type));
  return CompressMessage(std::move(plain));
}

std::vector<uint8_t> EncodeError(const std::string& message, MsgType type) {
  ByteWriter w;
  w.PutU8(1);
  w.PutU8(static_cast<uint8_t>(type));
  w.PutU8(0);
  w.PutU8(0);
  w.PutU32LE(0);
  w.PutU8(static_cast<uint8_t>(kErrorType));
  w.PutCString(message);
  std::vector<uint8_t> out = w.Take();
  uint32_t len = static_cast<uint32_t>(out.size());
  for (int i = 0; i < 4; ++i) {
    out[4 + i] = static_cast<uint8_t>(len >> (8 * i));
  }
  return out;
}

Result<uint32_t> PeekMessageLength(const uint8_t* header8) {
  ByteReader r(header8, 8);
  HQ_RETURN_IF_ERROR(r.GetU32LE().status());  // arch/type/flags
  return r.GetU32LE();
}

Result<DecodedMessage> DecodeMessage(const std::vector<uint8_t>& bytes) {
  if (bytes.size() < 9) {
    return ProtocolError(StrCat("QIPC message too short: ", bytes.size(),
                                " bytes"));
  }
  ByteReader r(bytes);
  HQ_ASSIGN_OR_RETURN(uint8_t arch, r.GetU8());
  if (arch != 1) {
    return ProtocolError("only little-endian QIPC peers are supported");
  }
  HQ_ASSIGN_OR_RETURN(uint8_t type, r.GetU8());
  HQ_ASSIGN_OR_RETURN(uint8_t compressed, r.GetU8());
  if (compressed == 1) {
    HQ_ASSIGN_OR_RETURN(std::vector<uint8_t> plain,
                        DecompressMessage(bytes));
    return DecodeMessage(plain);
  }
  if (compressed != 0) {
    return ProtocolError("unknown QIPC compression scheme");
  }
  HQ_RETURN_IF_ERROR(r.GetU8().status());
  HQ_ASSIGN_OR_RETURN(uint32_t len, r.GetU32LE());
  if (len != bytes.size()) {
    return ProtocolError(StrCat("QIPC length mismatch: header says ", len,
                                ", got ", bytes.size()));
  }
  DecodedMessage out;
  out.type = static_cast<MsgType>(type);

  // Error responses carry type -128 + text.
  if (static_cast<int8_t>(bytes[8]) == kErrorType) {
    ByteReader er(bytes.data() + 9, bytes.size() - 9);
    HQ_ASSIGN_OR_RETURN(out.error, er.GetCString());
    out.is_error = true;
    return out;
  }
  HQ_ASSIGN_OR_RETURN(out.value, DecodeObject(&r));
  return out;
}

std::vector<uint8_t> EncodeHandshake(const std::string& user,
                                     const std::string& password,
                                     uint8_t version) {
  ByteWriter w;
  w.PutString(user);
  w.PutU8(':');
  w.PutString(password);
  w.PutU8(version);
  w.PutU8(0);
  return w.Take();
}

Result<HandshakeRequest> DecodeHandshake(const std::vector<uint8_t>& bytes) {
  if (bytes.size() < 2 || bytes.back() != 0) {
    return AuthError("malformed QIPC handshake");
  }
  HandshakeRequest out;
  out.version = bytes[bytes.size() - 2];
  std::string creds(reinterpret_cast<const char*>(bytes.data()),
                    bytes.size() - 2);
  size_t colon = creds.find(':');
  if (colon == std::string::npos) {
    out.user = creds;
  } else {
    out.user = creds.substr(0, colon);
    out.password = creds.substr(colon + 1);
  }
  return out;
}

}  // namespace qipc
}  // namespace hyperq
