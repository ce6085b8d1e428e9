#ifndef HYPERQ_PROTOCOL_QIPC_COMPRESS_H_
#define HYPERQ_PROTOCOL_QIPC_COMPRESS_H_

#include <cstdint>
#include <vector>

#include "common/status.h"

namespace hyperq {
namespace qipc {

/// kdb+ IPC compression (§3.1: the QIPC protocol "describes message
/// format, process handshake, and data compression").
///
/// The scheme is the classic kx byte-pair LZ variant: the payload is
/// scanned with a 256-entry hash table of byte-pair positions; output is
/// groups of 8 items, each preceded by a flag byte whose bits mark whether
/// the item is a literal byte or a (hash, extra-length) back-reference.
/// Back-references copy byte-by-byte, so overlapping (RLE-style) runs work.
///
/// Compressed message layout (scheme 1, kx single-stream):
///   bytes 0..7   QIPC header with compression byte 1 and the
///                *compressed* total length at bytes 4..7
///   bytes 8..11  uncompressed total message length (uint32 LE)
///   bytes 12..   flag-byte groups
///
/// Scheme 1 is the only compression a kdb+ peer can decode, so it is
/// the only one this system emits or accepts; `DecodeMessage` refuses
/// any other compression byte with ProtocolError.
///
/// kdb+ only compresses messages over 4096 bytes going to remote hosts;
/// `kMinCompressSize` mirrors that threshold.

inline constexpr size_t kMinCompressSize = 4096;

/// Compresses a complete uncompressed QIPC message (header + payload)
/// with the kx single stream (scheme 1). Takes the message by value:
/// every bail-out path (below threshold, incompressible) *moves* the
/// input back to the caller instead of copying it.
std::vector<uint8_t> CompressMessage(std::vector<uint8_t> message);

/// Decompresses a complete scheme-1 compressed QIPC message back to its
/// plain form. Fails with ProtocolError on malformed streams.
Result<std::vector<uint8_t>> DecompressMessage(
    const std::vector<uint8_t>& message);

/// True when the message's header declares scheme-1 compression.
bool IsCompressedMessage(const std::vector<uint8_t>& message);

}  // namespace qipc
}  // namespace hyperq

#endif  // HYPERQ_PROTOCOL_QIPC_COMPRESS_H_
