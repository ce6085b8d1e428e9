#include "common/bytes.h"

#include "common/strings.h"

namespace hyperq {

namespace {

// All multi-byte writes go through explicit byte shuffling so the code is
// independent of host endianness.
template <typename T>
void PutLE(std::vector<uint8_t>* buf, T v) {
  for (size_t i = 0; i < sizeof(T); ++i) {
    buf->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

template <typename T>
void PutBE(std::vector<uint8_t>* buf, T v) {
  for (size_t i = sizeof(T); i > 0; --i) {
    buf->push_back(static_cast<uint8_t>(v >> (8 * (i - 1))));
  }
}

}  // namespace

void ByteWriter::PutI64ArrayLE(const int64_t* v, size_t n) {
  if (n == 0) return;
  uint8_t* dst = Extend(n * sizeof(int64_t));
  if constexpr (kHostIsLittleEndian) {
    std::memcpy(dst, v, n * sizeof(int64_t));
  } else {
    for (size_t i = 0; i < n; ++i) {
      uint64_t x = static_cast<uint64_t>(v[i]);
      for (size_t b = 0; b < 8; ++b) {
        dst[i * 8 + b] = static_cast<uint8_t>(x >> (8 * b));
      }
    }
  }
}

void ByteWriter::PutF64ArrayLE(const double* v, size_t n) {
  if (n == 0) return;
  uint8_t* dst = Extend(n * sizeof(double));
  if constexpr (kHostIsLittleEndian) {
    std::memcpy(dst, v, n * sizeof(double));
  } else {
    for (size_t i = 0; i < n; ++i) {
      uint64_t x;
      std::memcpy(&x, &v[i], sizeof(x));
      for (size_t b = 0; b < 8; ++b) {
        dst[i * 8 + b] = static_cast<uint8_t>(x >> (8 * b));
      }
    }
  }
}

void ByteWriter::PutU16LE(uint16_t v) { PutLE(&buffer_, v); }
void ByteWriter::PutU32LE(uint32_t v) { PutLE(&buffer_, v); }
void ByteWriter::PutU64LE(uint64_t v) { PutLE(&buffer_, v); }
void ByteWriter::PutU16BE(uint16_t v) { PutBE(&buffer_, v); }
void ByteWriter::PutU32BE(uint32_t v) { PutBE(&buffer_, v); }
void ByteWriter::PutU64BE(uint64_t v) { PutBE(&buffer_, v); }

void ByteWriter::PutF64LE(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64LE(bits);
}

void ByteWriter::PutF64BE(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64BE(bits);
}

void ByteWriter::PatchU32BE(size_t offset, uint32_t v) {
  for (size_t i = 0; i < 4; ++i) {
    buffer_[offset + i] = static_cast<uint8_t>(v >> (8 * (3 - i)));
  }
}

void ByteWriter::PatchU32LE(size_t offset, uint32_t v) {
  for (size_t i = 0; i < 4; ++i) {
    buffer_[offset + i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

Status ByteReader::Need(size_t n) const {
  if (remaining() < n) {
    return ProtocolError(StrCat("message truncated: need ", n, " bytes at ",
                                pos_, ", have ", remaining()));
  }
  return Status::OK();
}

Result<uint8_t> ByteReader::GetU8() {
  HQ_RETURN_IF_ERROR(Need(1));
  return data_[pos_++];
}

namespace {

template <typename T>
T ReadLE(const uint8_t* p) {
  T v = 0;
  for (size_t i = 0; i < sizeof(T); ++i) {
    v |= static_cast<T>(p[i]) << (8 * i);
  }
  return v;
}

template <typename T>
T ReadBE(const uint8_t* p) {
  T v = 0;
  for (size_t i = 0; i < sizeof(T); ++i) {
    v = static_cast<T>(v << 8) | p[i];
  }
  return v;
}

}  // namespace

Result<uint16_t> ByteReader::GetU16LE() {
  HQ_RETURN_IF_ERROR(Need(2));
  uint16_t v = ReadLE<uint16_t>(data_ + pos_);
  pos_ += 2;
  return v;
}

Result<uint32_t> ByteReader::GetU32LE() {
  HQ_RETURN_IF_ERROR(Need(4));
  uint32_t v = ReadLE<uint32_t>(data_ + pos_);
  pos_ += 4;
  return v;
}

Result<uint64_t> ByteReader::GetU64LE() {
  HQ_RETURN_IF_ERROR(Need(8));
  uint64_t v = ReadLE<uint64_t>(data_ + pos_);
  pos_ += 8;
  return v;
}

Result<int16_t> ByteReader::GetI16LE() {
  HQ_ASSIGN_OR_RETURN(uint16_t v, GetU16LE());
  return static_cast<int16_t>(v);
}
Result<int32_t> ByteReader::GetI32LE() {
  HQ_ASSIGN_OR_RETURN(uint32_t v, GetU32LE());
  return static_cast<int32_t>(v);
}
Result<int64_t> ByteReader::GetI64LE() {
  HQ_ASSIGN_OR_RETURN(uint64_t v, GetU64LE());
  return static_cast<int64_t>(v);
}

Result<double> ByteReader::GetF64LE() {
  HQ_ASSIGN_OR_RETURN(uint64_t bits, GetU64LE());
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Result<uint16_t> ByteReader::GetU16BE() {
  HQ_RETURN_IF_ERROR(Need(2));
  uint16_t v = ReadBE<uint16_t>(data_ + pos_);
  pos_ += 2;
  return v;
}

Result<uint32_t> ByteReader::GetU32BE() {
  HQ_RETURN_IF_ERROR(Need(4));
  uint32_t v = ReadBE<uint32_t>(data_ + pos_);
  pos_ += 4;
  return v;
}

Result<uint64_t> ByteReader::GetU64BE() {
  HQ_RETURN_IF_ERROR(Need(8));
  uint64_t v = ReadBE<uint64_t>(data_ + pos_);
  pos_ += 8;
  return v;
}

Result<int16_t> ByteReader::GetI16BE() {
  HQ_ASSIGN_OR_RETURN(uint16_t v, GetU16BE());
  return static_cast<int16_t>(v);
}
Result<int32_t> ByteReader::GetI32BE() {
  HQ_ASSIGN_OR_RETURN(uint32_t v, GetU32BE());
  return static_cast<int32_t>(v);
}
Result<int64_t> ByteReader::GetI64BE() {
  HQ_ASSIGN_OR_RETURN(uint64_t v, GetU64BE());
  return static_cast<int64_t>(v);
}

Result<double> ByteReader::GetF64BE() {
  HQ_ASSIGN_OR_RETURN(uint64_t bits, GetU64BE());
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Result<const uint8_t*> ByteReader::Raw(size_t len) {
  HQ_RETURN_IF_ERROR(Need(len));
  const uint8_t* p = data_ + pos_;
  pos_ += len;
  return p;
}

Status ByteReader::GetI64ArrayLE(int64_t* out, size_t n) {
  HQ_ASSIGN_OR_RETURN(const uint8_t* p, Raw(n * sizeof(int64_t)));
  if constexpr (kHostIsLittleEndian) {
    if (n > 0) std::memcpy(out, p, n * sizeof(int64_t));  // out may be null
  } else {
    for (size_t i = 0; i < n; ++i) {
      out[i] = static_cast<int64_t>(ReadLE<uint64_t>(p + i * 8));
    }
  }
  return Status::OK();
}

Status ByteReader::GetF64ArrayLE(double* out, size_t n) {
  HQ_ASSIGN_OR_RETURN(const uint8_t* p, Raw(n * sizeof(double)));
  if constexpr (kHostIsLittleEndian) {
    if (n > 0) std::memcpy(out, p, n * sizeof(double));  // out may be null
  } else {
    for (size_t i = 0; i < n; ++i) {
      uint64_t bits = ReadLE<uint64_t>(p + i * 8);
      std::memcpy(&out[i], &bits, sizeof(double));
    }
  }
  return Status::OK();
}

Result<std::vector<uint8_t>> ByteReader::GetBytes(size_t len) {
  HQ_RETURN_IF_ERROR(Need(len));
  std::vector<uint8_t> out(data_ + pos_, data_ + pos_ + len);
  pos_ += len;
  return out;
}

Result<std::string> ByteReader::GetString(size_t len) {
  HQ_RETURN_IF_ERROR(Need(len));
  std::string out(reinterpret_cast<const char*>(data_ + pos_), len);
  pos_ += len;
  return out;
}

Result<std::string> ByteReader::GetCString() {
  size_t end = pos_;
  while (end < size_ && data_[end] != 0) ++end;
  if (end >= size_) {
    return ProtocolError("unterminated string in message");
  }
  std::string out(reinterpret_cast<const char*>(data_ + pos_), end - pos_);
  pos_ = end + 1;
  return out;
}

}  // namespace hyperq
