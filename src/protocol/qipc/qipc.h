#ifndef HYPERQ_PROTOCOL_QIPC_QIPC_H_
#define HYPERQ_PROTOCOL_QIPC_QIPC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "net/tcp.h"
#include "qval/qvalue.h"

namespace hyperq {
namespace qipc {

/// Q-Inter Process Communication wire format (§3.1, §4.2). Messages carry
/// one serialized Q object, column-oriented: a whole table travels as a
/// single message (Figure 5), in contrast to PG v3's row streaming.
///
/// Message layout:
///   byte 0: architecture (1 = little endian)
///   byte 1: message type (0 async, 1 sync, 2 response)
///   byte 2: compression scheme (0 plain, 1 kx single-stream — see
///           compress.h; any other value is refused)
///   byte 3: reserved
///   bytes 4..7: total message length, uint32 LE
///   payload: recursive type-coded object encoding.
///
/// Object encoding: a signed type byte (negative = atom, positive = list,
/// kdb+ numbering), followed by the payload; lists carry an attribute byte
/// and an int32 count; symbols are NUL-terminated; a table (98) wraps a
/// dict (99) of column names to column lists.
enum class MsgType : uint8_t { kAsync = 0, kSync = 1, kResponse = 2 };

/// Exact encoded size of the object encoding of `value` — the payload
/// bytes after the 8-byte message header. The size pre-pass lets every
/// encoder below perform a single allocation (or none, into a reusable
/// arena) and write the length header up front instead of back-patching.
/// Fails for the same unencodable types the encoders reject.
Result<size_t> EncodedObjectSize(const QValue& value);

/// Serializes a Q value into a complete QIPC message. Vectorized: the size
/// pre-pass reserves the full message once, and contiguous typed vectors
/// (longs, floats, timestamps, booleans, ...) are copied wholesale on
/// little-endian hosts instead of element at a time.
Result<std::vector<uint8_t>> EncodeMessage(const QValue& value,
                                           MsgType type);

/// Like EncodeMessage but appends into a caller-owned writer (cleared
/// first), so a per-connection arena is reused across responses instead of
/// allocating a fresh message buffer each time.
Status EncodeMessageInto(const QValue& value, MsgType type, ByteWriter* out);

/// The pre-vectorization element-at-a-time encoder, kept as a pinned
/// baseline: property tests assert the bulk path is byte-identical to it,
/// and bench_wire measures the bulk speedup against it. Not used on any
/// serving path.
Result<std::vector<uint8_t>> EncodeMessageElementwise(const QValue& value,
                                                      MsgType type);

/// Scatter encode: framing, counts and small payloads are appended to
/// `arena` (cleared first), while large contiguous typed column payloads
/// (8-byte integral lists, float lists, char lists) are *borrowed* from
/// `value` as slices pointing at its own buffers — zero copies for the
/// bulk of a big table. The resulting slices, in order, spell the complete
/// wire message for TcpConnection::WriteAllV. `value` and `arena` must
/// outlive the write.
Status EncodeMessageScatter(const QValue& value, MsgType type,
                            ByteWriter* arena, std::vector<IoSlice>* slices);

/// Like EncodeMessage, but applies kdb+ IPC compression when the plain
/// message exceeds the compression threshold and actually shrinks
/// (see compress.h). DecodeMessage transparently handles both forms.
Result<std::vector<uint8_t>> EncodeMessageCompressed(const QValue& value,
                                                     MsgType type);

/// Serializes an error response (type -128 + NUL-terminated text).
std::vector<uint8_t> EncodeError(const std::string& message, MsgType type);

struct DecodedMessage {
  MsgType type = MsgType::kSync;
  QValue value;
  bool is_error = false;
  std::string error;
};

/// Parses a complete QIPC message (header + payload).
Result<DecodedMessage> DecodeMessage(const std::vector<uint8_t>& bytes);

/// Reads the total length from an 8-byte header.
Result<uint32_t> PeekMessageLength(const uint8_t* header8);

// -- Handshake (§4.2) -------------------------------------------------------

/// Client credential block: "user:password" + version byte + NUL.
std::vector<uint8_t> EncodeHandshake(const std::string& user,
                                     const std::string& password,
                                     uint8_t version = 3);

struct HandshakeRequest {
  std::string user;
  std::string password;
  uint8_t version = 0;
};

/// Parses the client handshake bytes (everything up to the trailing NUL).
Result<HandshakeRequest> DecodeHandshake(const std::vector<uint8_t>& bytes);

}  // namespace qipc
}  // namespace hyperq

#endif  // HYPERQ_PROTOCOL_QIPC_QIPC_H_
