#include "core/cross_compiler.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <thread>

#include "common/deadline.h"
#include "common/metrics.h"
#include "common/strings.h"
#include "core/loader.h"

namespace hyperq {

namespace {

/// Bounded retry for transient backend-gateway failures (connection loss,
/// overload — IsTransient statuses). Only the final, idempotent result
/// query is ever re-dispatched: setup statements (materialized variables)
/// have side effects, and non-SELECT results could double-apply. Backoff
/// is exponential with deterministic, seeded jitter, and never sleeps past
/// the request's deadline.
constexpr int kMaxAttempts = 3;  // total dispatches, first one included
constexpr int kBaseBackoffMs = 2;
constexpr int kMaxBackoffMs = 50;
constexpr uint64_t kJitterSeed = 0x9E3779B97F4A7C15ull;  // replayable runs

/// Per-stage translation histograms (the live counterpart of Figure 7's
/// Algebrizer / XTRA+Xformer / Serializer split) plus end-to-end request
/// counters. Resolved once; mutation afterwards is lock-free.
struct XcMetrics {
  LatencyHistogram* parse_us;
  LatencyHistogram* bind_us;
  LatencyHistogram* xform_us;
  LatencyHistogram* serialize_us;
  LatencyHistogram* cache_us;
  LatencyHistogram* translate_total_us;
  LatencyHistogram* execute_us;
  Counter* requests;
  Counter* translate_errors;
  Counter* execute_errors;
  Counter* retry_attempts;
  Counter* retry_success;
  Counter* retry_exhausted;
  Counter* retry_backoff_ms;
  Counter* deadline_expired;

  static XcMetrics& Get() {
    static XcMetrics* m = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      return new XcMetrics{r.GetHistogram("translate.parse_us"),
                           r.GetHistogram("translate.algebrize_us"),
                           r.GetHistogram("translate.xform_us"),
                           r.GetHistogram("translate.serialize_us"),
                           r.GetHistogram("translate.cache_us"),
                           r.GetHistogram("translate.total_us"),
                           r.GetHistogram("backend.execute_us"),
                           r.GetCounter("xc.requests"),
                           r.GetCounter("xc.translate_errors"),
                           r.GetCounter("xc.execute_errors"),
                           r.GetCounter("retry.attempts"),
                           r.GetCounter("retry.success"),
                           r.GetCounter("retry.exhausted"),
                           r.GetCounter("retry.backoff_ms"),
                           r.GetCounter("deadline.expired_stages")};
    }();
    return *m;
  }
};

/// Only reads are safe to re-dispatch: a retried CREATE/INSERT after an
/// ambiguous failure could double-apply. The translator emits SELECT (or
/// WITH ... SELECT) for every pure result query.
bool IsIdempotentRead(const std::string& sql) {
  std::string_view s = StripWhitespace(sql);
  while (!s.empty() && s.front() == '(') s = StripWhitespace(s.substr(1));
  auto starts_with_ci = [&s](std::string_view kw) {
    if (s.size() < kw.size()) return false;
    for (size_t i = 0; i < kw.size(); ++i) {
      if (std::toupper(static_cast<unsigned char>(s[i])) != kw[i]) {
        return false;
      }
    }
    return true;
  };
  return starts_with_ci("SELECT") || starts_with_ci("WITH") ||
         starts_with_ci("VALUES");
}

}  // namespace

CrossCompiler::CrossCompiler(QueryTranslator* translator,
                             BackendGateway* gateway)
    : translator_(translator), gateway_(gateway), jitter_state_(kJitterSeed) {}

Result<QValue> CrossCompiler::Process(const std::string& q_text,
                                      StageTimings* timings,
                                      std::string* executed_sql) {
  XcMetrics& metrics = XcMetrics::Get();
  metrics.requests->Increment();

  // Stage-boundary cancellation: between every stage an expired ambient
  // deadline turns the request into kTimeout instead of running the next
  // (possibly expensive) stage. A stage that finished after the deadline
  // is also converted — the client asked for a bound, and a late success
  // past it must look the same as a cancelled one.
  const Deadline deadline = Deadline::Current();
  auto check_deadline = [&](const char* stage) -> Status {
    if (!deadline.Expired()) return Status::OK();
    metrics.deadline_expired->Increment();
    return DeadlineExceeded(stage);
  };

  HQ_RETURN_IF_ERROR(check_deadline("request parse"));
  Result<Translation> translated = translator_->Translate(q_text);
  if (!translated.ok()) {
    metrics.translate_errors->Increment();
    return translated.status();
  }
  Translation translation = std::move(translated).value();
  HQ_RETURN_IF_ERROR(check_deadline("translate"));
  // The stage split was measured inside the translator; publish it to the
  // live histograms (Figure 7 per stage, Figure 6 for the total). Cache
  // hits skip the stages they never ran so the per-stage distributions
  // keep describing real pipeline work; the total is recorded for every
  // request either way.
  if (MetricsRegistry::Global().enabled()) {
    if (!translation.cache_hit) {
      metrics.parse_us->Record(translation.timings.parse_us);
      metrics.bind_us->Record(translation.timings.bind_us);
      metrics.xform_us->Record(translation.timings.xform_us);
      metrics.serialize_us->Record(translation.timings.serialize_us);
      metrics.cache_us->Record(translation.timings.cache_us);
    }
    metrics.translate_total_us->Record(translation.timings.total_us());
  }

  // Dispatch the final SQL to the backend; a pure assignment has nothing
  // further to execute.
  sqldb::QueryResult backend_result;
  {
    ScopedLatencyTimer timer(MetricsRegistry::Global(), metrics.execute_us);
    if (!translation.result_sql.empty()) {
      Status executed = ExecuteWithRetry(translation, &backend_result);
      if (!executed.ok()) {
        metrics.execute_errors->Increment();
        return executed;
      }
    }
  }
  HQ_RETURN_IF_ERROR(check_deadline("execute"));

  // Pivot rows into the Q result format (§4.2); assignments answer (::).
  QValue response;
  if (backend_result.has_rows) {
    HQ_ASSIGN_OR_RETURN(response,
                        QValueFromResult(std::move(backend_result),
                                         translation.shape,
                                         translation.key_columns));
  }
  HQ_RETURN_IF_ERROR(check_deadline("result translation"));

  if (timings != nullptr) *timings = translation.timings;
  if (executed_sql != nullptr) *executed_sql = translation.result_sql;
  return response;
}

Status CrossCompiler::ExecuteWithRetry(const Translation& translation,
                                       sqldb::QueryResult* result) {
  XcMetrics& metrics = XcMetrics::Get();
  const Deadline deadline = Deadline::Current();
  int attempt = 0;
  while (true) {
    ++attempt;
    // The whole scatter-gather is re-dispatched on a transient failure:
    // shard partials carry no side effects, so a retry after a partial
    // shard failure is as idempotent as a plain re-SELECT.
    Result<sqldb::QueryResult> r = gateway_->ExecuteTranslated(translation);
    if (r.ok()) {
      if (attempt > 1) metrics.retry_success->Increment();
      *result = std::move(r).value();
      return Status::OK();
    }
    Status s = r.status();
    if (!IsTransient(s) || !IsIdempotentRead(translation.result_sql)) {
      return s;
    }
    if (attempt >= kMaxAttempts) {
      if (attempt > 1) metrics.retry_exhausted->Increment();
      return s;
    }
    int backoff_ms = std::min(kMaxBackoffMs, kBaseBackoffMs << (attempt - 1));
    backoff_ms = static_cast<int>(backoff_ms * NextJitter());
    // Retrying is pointless when the backoff alone would blow the
    // deadline; hand the transient error back instead of a late timeout.
    if (deadline.armed() && deadline.remaining_ms() <= backoff_ms) {
      metrics.retry_exhausted->Increment();
      return s;
    }
    metrics.retry_attempts->Increment();
    metrics.retry_backoff_ms->Increment(static_cast<uint64_t>(backoff_ms));
    if (backoff_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
    }
  }
}

double CrossCompiler::NextJitter() {
  // xorshift64*: deterministic for a given seed, cheap, no global state.
  uint64_t x = jitter_state_;
  x ^= x >> 12;
  x ^= x << 25;
  x ^= x >> 27;
  jitter_state_ = x;
  uint64_t bits = (x * 0x2545F4914F6CDD1Dull) >> 11;  // 53 random bits
  return 0.5 + static_cast<double>(bits) / 9007199254740992.0;  // [0.5,1.5)
}

}  // namespace hyperq
