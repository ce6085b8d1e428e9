#ifndef HYPERQ_PROTOCOL_PGWIRE_PGWIRE_H_
#define HYPERQ_PROTOCOL_PGWIRE_PGWIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "net/event_server.h"
#include "net/tcp.h"
#include "sqldb/database.h"

namespace hyperq {
namespace pgwire {

/// PostgreSQL v3 wire protocol (§4.2): a message is a single type byte
/// followed by a 4-byte big-endian length (including itself) and the body.
/// The startup message has no type byte. Results stream row-oriented:
/// RowDescription then one DataRow per row then CommandComplete (contrast
/// with QIPC's single column-oriented message, Figure 5).

/// Front-end/back-end message type bytes.
inline constexpr char kMsgQuery = 'Q';
inline constexpr char kMsgPassword = 'p';
inline constexpr char kMsgTerminate = 'X';
inline constexpr char kMsgAuthentication = 'R';
inline constexpr char kMsgParameterStatus = 'S';
inline constexpr char kMsgReadyForQuery = 'Z';
inline constexpr char kMsgRowDescription = 'T';
inline constexpr char kMsgDataRow = 'D';
inline constexpr char kMsgCommandComplete = 'C';
inline constexpr char kMsgErrorResponse = 'E';

inline constexpr int32_t kProtocolVersion3 = 196608;  // 3.0

/// PG type OIDs for the supported column types.
int32_t OidFor(sqldb::SqlType type);
sqldb::SqlType SqlTypeForOid(int32_t oid);

/// Writes one typed message (type byte + length + body).
void WriteMessage(ByteWriter* out, char type,
                  const std::vector<uint8_t>& body);

/// Reads one typed message from a connection.
struct WireMessage {
  char type = 0;
  std::vector<uint8_t> body;
};
Result<WireMessage> ReadMessage(TcpConnection* conn);

// -- Client -----------------------------------------------------------------

/// Minimal PG v3 client: startup, cleartext or MD5 (toy) password auth,
/// simple query protocol. Used by the wire Gateway so Hyper-Q reaches the
/// backend exactly as it would reach a real PG-compatible MPP system.
class PgWireClient {
 public:
  static Result<PgWireClient> Connect(const std::string& host, uint16_t port,
                                      const std::string& user,
                                      const std::string& password,
                                      const std::string& database = "hyperq");

  /// Runs one simple query; buffers the streamed rows into a QueryResult
  /// (the row-set buffering Hyper-Q performs before pivoting, §4.2).
  Result<sqldb::QueryResult> Query(const std::string& sql);

  void Close();

 private:
  explicit PgWireClient(TcpConnection conn) : conn_(std::move(conn)) {}

  TcpConnection conn_;
};

// -- Server -----------------------------------------------------------------

/// Authentication mode for the server side (§4.2 lists clear text, MD5 and
/// Kerberos; Kerberos is out of scope — see DESIGN.md substitutions).
enum class AuthMode { kTrust, kCleartext, kMd5 };

struct ServerOptions {
  AuthMode auth = AuthMode::kTrust;
  std::string user = "hyperq";
  std::string password;
  /// Reactor threads; 0 sizes to the hardware.
  int event_loop_threads = 0;
  /// Query-execution threads; 0 picks a small hardware default.
  int exec_threads = 0;
  /// Hard cap on simultaneously served connections. Refused sockets are
  /// closed before any protocol byte.
  int max_connections = 65536;
  /// Stop() drain bound in milliseconds: how long an in-flight query may
  /// take to finish writing its response before the connection is forced
  /// closed.
  int drain_timeout_ms = 5000;
};

/// Serves the mini PG engine over the PG v3 protocol on the shared
/// EventServer (net/event_server.h), like HyperQServer: an epoll reactor
/// multiplexes every connection as a per-socket protocol state machine
/// (startup → password-wait → ready → execute → respond); queries run on
/// a TaskPool and responses drain asynchronously on EPOLLOUT.
class PgWireServer {
 public:
  PgWireServer(sqldb::Database* db, ServerOptions options);
  ~PgWireServer() { Stop(); }

  /// Binds to 127.0.0.1:port (0 = ephemeral) and starts serving.
  Status Start(uint16_t port) { return events_.Start(port); }
  uint16_t port() const { return events_.port(); }
  void Stop() { events_.Stop(); }

  /// Admitted connections right now.
  int active_connections() const { return events_.active_connections(); }

 private:
  class PgEventConn;
  friend class PgEventConn;

  sqldb::Database* db_;
  ServerOptions options_;
  EventServer events_;  // last: built from options_, destroyed first
};

/// Toy MD5-shaped hash used for the md5 auth flow. NOT cryptographic — it
/// reproduces the message flow (AuthenticationMD5Password + salt), not
/// production security.
std::string ToyMd5(const std::string& input);

}  // namespace pgwire
}  // namespace hyperq

#endif  // HYPERQ_PROTOCOL_PGWIRE_PGWIRE_H_
