#include "protocol/qipc/compress.h"

#include <algorithm>

#include "common/strings.h"

namespace hyperq {
namespace qipc {

bool IsCompressedMessage(const std::vector<uint8_t>& message) {
  return message.size() > 2 && message[2] == 1;
}

std::vector<uint8_t> CompressMessage(std::vector<uint8_t> input) {
  size_t t = input.size();
  if (t < kMinCompressSize || t < 12) return input;

  std::vector<uint8_t> y(t);  // bail out if we cannot beat the input size
  // Header: copy arch/type, set the compressed flag; compressed length is
  // patched at the end; bytes 8..11 carry the uncompressed length.
  y[0] = input[0];
  y[1] = input[1];
  y[2] = 1;
  y[3] = input[3];
  uint32_t uncompressed = static_cast<uint32_t>(t);
  for (int k = 0; k < 4; ++k) {
    y[8 + k] = static_cast<uint8_t>(uncompressed >> (8 * k));
  }

  size_t a[256] = {0};  // byte-pair hash -> position in `input`
  size_t s = 8;         // read cursor (payload starts after the header)
  size_t d = 12;        // write cursor
  size_t flag_pos = 0;  // position of the current group's flag byte
  int bit = 0;
  uint8_t f = 0;
  size_t s0 = 0;        // delayed hash-table update for literals
  uint8_t h0 = 0;
  bool have_flag = false;

  while (s < t) {
    if (bit == 0) {
      if (d + 17 > y.size()) return input;  // not compressible enough
      if (have_flag) y[flag_pos] = f;
      flag_pos = d++;
      f = 0;
      have_flag = true;
    }
    uint8_t h = 0;
    size_t p = 0;
    bool literal = true;
    if (s + 2 < t) {
      h = static_cast<uint8_t>(input[s] ^ input[s + 1]);
      p = a[h];
      literal = p == 0 || input[s] != input[p];
    }
    if (s0 > 0) {
      a[h0] = s0;
      s0 = 0;
    }
    if (literal) {
      h0 = h;
      s0 = s;
      if (d >= y.size()) return input;
      y[d++] = input[s++];
    } else {
      a[h] = s;
      f |= static_cast<uint8_t>(1u << bit);
      p += 2;
      s += 2;
      size_t run_start = s;
      size_t limit = std::min(s + 255, t);
      while (s < limit && input[p] == input[s]) {
        ++p;
        ++s;
      }
      if (d + 2 > y.size()) return input;
      y[d++] = h;
      y[d++] = static_cast<uint8_t>(s - run_start);
    }
    bit = (bit + 1) & 7;
  }
  if (have_flag) y[flag_pos] = f;

  if (d >= t) return input;  // no win
  uint32_t compressed = static_cast<uint32_t>(d);
  for (int k = 0; k < 4; ++k) {
    y[4 + k] = static_cast<uint8_t>(compressed >> (8 * k));
  }
  y.resize(d);
  return y;
}

Result<std::vector<uint8_t>> DecompressMessage(
    const std::vector<uint8_t>& input) {
  if (input.size() < 12) {
    return ProtocolError("compressed QIPC message shorter than 12 bytes");
  }
  if (!IsCompressedMessage(input)) {
    return input;  // already plain
  }
  uint32_t total = 0;
  for (int k = 0; k < 4; ++k) {
    total |= static_cast<uint32_t>(input[8 + k]) << (8 * k);
  }
  if (total < 8 || total > (512u << 20)) {
    return ProtocolError(
        StrCat("implausible uncompressed QIPC length ", total));
  }
  std::vector<uint8_t> dst(total);
  dst[0] = input[0];
  dst[1] = input[1];
  dst[2] = 0;  // plain
  dst[3] = input[3];
  for (int k = 0; k < 4; ++k) {
    dst[4 + k] = static_cast<uint8_t>(total >> (8 * k));
  }

  size_t aa[256] = {0};
  size_t s = 8;  // write cursor in dst
  size_t p = 8;  // delayed hash-update cursor
  size_t d = 12; // read cursor in input
  int bit = 0;
  uint8_t f = 0;

  auto need_src = [&](size_t n) -> Status {
    if (d + n > input.size()) {
      return ProtocolError("truncated compressed QIPC stream");
    }
    return Status::OK();
  };

  while (s < dst.size()) {
    if (bit == 0) {
      HQ_RETURN_IF_ERROR(need_src(1));
      f = input[d++];
    }
    size_t copied = 0;
    const bool is_match = (f & (1u << bit)) != 0;
    if (is_match) {
      HQ_RETURN_IF_ERROR(need_src(2));
      size_t r = aa[input[d++]];
      if (r == 0 || r + 1 >= s) {
        return ProtocolError("compressed QIPC back-reference out of range");
      }
      if (s + 2 > dst.size()) {
        return ProtocolError("compressed QIPC output overrun");
      }
      dst[s++] = dst[r++];
      dst[s++] = dst[r++];
      copied = input[d++];
      if (s + copied > dst.size()) {
        return ProtocolError("compressed QIPC output overrun");
      }
      // Byte-by-byte: runs may overlap their own output (RLE).
      for (size_t k = 0; k < copied; ++k) dst[s + k] = dst[r + k];
    } else {
      HQ_RETURN_IF_ERROR(need_src(1));
      if (s >= dst.size()) {
        return ProtocolError("compressed QIPC output overrun");
      }
      dst[s++] = input[d++];
    }
    // Delayed hash-table maintenance mirrors the compressor exactly. The
    // cursor reset applies to EVERY match token, zero-length runs included:
    // the compressor records only the match-start pair, so letting `p` walk
    // across match_start+1 would plant an entry the compressor never made
    // and send later back-references to the wrong position.
    while (p + 1 < s) {
      aa[static_cast<uint8_t>(dst[p] ^ dst[p + 1])] = p;
      ++p;
    }
    if (is_match) {
      s += copied;
      p = s;
    }
    bit = (bit + 1) & 7;
  }
  return dst;
}

}  // namespace qipc
}  // namespace hyperq
