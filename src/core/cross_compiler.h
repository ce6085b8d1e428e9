#ifndef HYPERQ_CORE_CROSS_COMPILER_H_
#define HYPERQ_CORE_CROSS_COMPILER_H_

#include <cstdint>
#include <string>

#include "core/gateway.h"
#include "core/query_translator.h"
#include "qval/qvalue.h"

namespace hyperq {

/// The Cross Compiler (XC) of §3.4 / Figure 4: drives one request through
/// the Protocol Translator / Query Translator split. The PT owns message
/// handling (here: query text in, Q value out — the wire encodings live in
/// the Endpoint/Gateway plugins); the QT owns the Q -> XTRA -> SQL
/// translation. One request's life cycle is a fixed sequence (translate,
/// execute with retry, pivot), so it runs straight-line; the §3.4 state
/// machines sit on the per-connection protocol translators (endpoint.cc,
/// pgwire.cc), where events arrive from the socket.
class CrossCompiler {
 public:
  CrossCompiler(QueryTranslator* translator, BackendGateway* gateway);

  /// Runs the full query life cycle for one Q request; returns the Q value
  /// to send back. `timings` (optional) receives the translation stage
  /// breakdown; `executed_sql` (optional) receives the final SQL text.
  /// Honors the thread's ambient Deadline at every stage boundary: an
  /// expired request returns kTimeout instead of continuing.
  Result<QValue> Process(const std::string& q_text,
                         StageTimings* timings = nullptr,
                         std::string* executed_sql = nullptr);

 private:
  /// Dispatches the result query (scatter-gather included, via the
  /// gateway's ExecuteTranslated), retrying transient failures of an
  /// idempotent read with bounded, jittered backoff.
  Status ExecuteWithRetry(const Translation& translation,
                          sqldb::QueryResult* result);
  /// Deterministic jitter factor in [0.5, 1.5).
  double NextJitter();

  QueryTranslator* translator_;
  BackendGateway* gateway_;
  uint64_t jitter_state_;
};

}  // namespace hyperq

#endif  // HYPERQ_CORE_CROSS_COMPILER_H_
