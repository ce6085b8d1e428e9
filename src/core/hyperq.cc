#include "core/hyperq.h"

#include <cstdlib>

#include "common/fault.h"
#include "common/metrics.h"
#include "common/strings.h"
#include "core/live_store.h"
#include "serializer/serializer.h"

namespace hyperq {

namespace {

struct SessionMetrics {
  Counter* queries;
  Counter* errors;
  Counter* builtin_queries;

  static SessionMetrics& Get() {
    static SessionMetrics* m = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      return new SessionMetrics{r.GetCounter("session.queries"),
                                r.GetCounter("session.errors"),
                                r.GetCounter("session.builtin_queries")};
    }();
    return *m;
  }
};

}  // namespace

QValue HyperQSession::StatsTable() {
  std::vector<MetricsRegistry::Row> rows =
      MetricsRegistry::Global().Snapshot();
  std::vector<std::string> names, kinds;
  std::vector<int64_t> counts;
  std::vector<double> sums, p50s, p95s, p99s;
  names.reserve(rows.size());
  for (const MetricsRegistry::Row& r : rows) {
    names.push_back(r.name);
    kinds.push_back(r.kind);
    counts.push_back(static_cast<int64_t>(r.count));
    sums.push_back(r.sum_us);
    p50s.push_back(r.p50_us);
    p95s.push_back(r.p95_us);
    p99s.push_back(r.p99_us);
  }
  return QValue::MakeTableUnchecked(
      {"metric", "kind", "count", "sum_us", "p50_us", "p95_us", "p99_us"},
      {QValue::Syms(std::move(names)), QValue::Syms(std::move(kinds)),
       QValue::IntList(QType::kLong, std::move(counts)),
       QValue::FloatList(QType::kFloat, std::move(sums)),
       QValue::FloatList(QType::kFloat, std::move(p50s)),
       QValue::FloatList(QType::kFloat, std::move(p95s)),
       QValue::FloatList(QType::kFloat, std::move(p99s))});
}

std::optional<Result<QValue>> HyperQSession::TryBuiltin(
    const std::string& q_text) {
  std::string_view text = StripWhitespace(q_text);
  if (!StartsWith(text, ".hyperq.")) return std::nullopt;
  // Accept both niladic-call and bare-name spellings, as q tooling issues
  // either form; control builtins take one bracketed argument
  // (`.hyperq.fault["net.read=error"]`, `.hyperq.deadline[250]`).
  std::string_view name = text;
  std::string_view arg;
  if (size_t lb = name.find('[');
      lb != std::string_view::npos && EndsWith(name, "]")) {
    arg = StripWhitespace(name.substr(lb + 1, name.size() - lb - 2));
    name = name.substr(0, lb);
    if (arg == "::") arg = {};  // niladic-call spelling
  }
  // Quoted string argument: strip the q quotes.
  if (arg.size() >= 2 && arg.front() == '"' && arg.back() == '"') {
    arg = arg.substr(1, arg.size() - 2);
  }
  auto int_arg = [&arg]() -> Result<int64_t> {
    char* end = nullptr;
    std::string buf(arg);
    int64_t v = std::strtoll(buf.c_str(), &end, 10);
    if (buf.empty() || end == nullptr || *end != '\0') {
      return InvalidArgument(
          StrCat("expected an integer argument, got '", buf, "'"));
    }
    return v;
  };
  SessionMetrics::Get().builtin_queries->Increment();
  if (name == ".hyperq.stats") {
    return Result<QValue>(StatsTable());
  }
  if (name == ".hyperq.statsText") {
    return Result<QValue>(
        QValue::Chars(MetricsRegistry::Global().TextDump()));
  }
  if (name == ".hyperq.resetStats") {
    MetricsRegistry::Global().ResetAll();
    return Result<QValue>(QValue());
  }
  // Runtime control over the translation cache (docs/PERFORMANCE.md).
  // Enable/disable toggle the whole cache (shared across sessions when the
  // endpoint owns it); cacheClear drops every entry.
  if (name == ".hyperq.cacheEnable") {
    tcache_->set_enabled(true);
    return Result<QValue>(QValue());
  }
  if (name == ".hyperq.cacheDisable") {
    tcache_->set_enabled(false);
    return Result<QValue>(QValue());
  }
  if (name == ".hyperq.cacheClear") {
    tcache_->Clear();
    return Result<QValue>(QValue());
  }
  // Runtime fault-injection control (docs/ROBUSTNESS.md). Faults are
  // process-global, like metrics: arming over one connection affects the
  // whole server, which is exactly what a chaos test wants.
  if (name == ".hyperq.fault") {
    Status s = FaultInjector::Global().Arm(std::string(arg));
    if (!s.ok()) return Result<QValue>(s);
    return Result<QValue>(QValue());
  }
  if (name == ".hyperq.faultClear") {
    FaultInjector::Global().Clear();
    return Result<QValue>(QValue());
  }
  if (name == ".hyperq.faultSeed") {
    Result<int64_t> v = int_arg();
    if (!v.ok()) return Result<QValue>(v.status());
    FaultInjector::Global().Reseed(static_cast<uint64_t>(*v));
    return Result<QValue>(QValue());
  }
  if (name == ".hyperq.faultSites") {
    return Result<QValue>(QValue::Syms(FaultInjector::KnownSites()));
  }
  if (name == ".hyperq.faultStats") {
    std::vector<FaultInjector::SiteStats> rows =
        FaultInjector::Global().Stats();
    std::vector<std::string> sites, specs;
    std::vector<int64_t> hits, fires;
    for (FaultInjector::SiteStats& r : rows) {
      sites.push_back(std::move(r.site));
      specs.push_back(std::move(r.spec));
      hits.push_back(static_cast<int64_t>(r.hits));
      fires.push_back(static_cast<int64_t>(r.fires));
    }
    return Result<QValue>(QValue::MakeTableUnchecked(
        {"site", "spec", "hits", "fires"},
        {QValue::Syms(std::move(sites)), QValue::Syms(std::move(specs)),
         QValue::IntList(QType::kLong, std::move(hits)),
         QValue::IntList(QType::kLong, std::move(fires))}));
  }
  // Real-time ingest control (docs/INGEST.md): flush the live tail of one
  // table (or all tables, niladic) into the historical backend, and the
  // per-table ingest counters.
  if (name == ".hyperq.flush") {
    LiveStore* store = gateway_->live_store();
    if (store == nullptr) {
      return Result<QValue>(
          InvalidArgument("this server has no ingest store"));
    }
    // Symbol-argument spelling: `.hyperq.flush[`trade]`.
    if (!arg.empty() && arg.front() == '`') arg = arg.substr(1);
    Status s = arg.empty() ? store->FlushAll() : store->Flush(std::string(arg));
    if (!s.ok()) return Result<QValue>(s);
    return Result<QValue>(QValue());
  }
  if (name == ".hyperq.ingestStats") {
    LiveStore* store = gateway_->live_store();
    if (store == nullptr) {
      return Result<QValue>(
          InvalidArgument("this server has no ingest store"));
    }
    return Result<QValue>(store->StatsTable());
  }
  // Per-session query deadline in ms; 0 disables. Niladic call reports the
  // current setting.
  if (name == ".hyperq.deadline") {
    if (arg.empty()) {
      return Result<QValue>(QValue::Long(deadline_ms_));
    }
    Result<int64_t> v = int_arg();
    if (!v.ok()) return Result<QValue>(v.status());
    set_deadline_ms(*v);
    return Result<QValue>(QValue());
  }
  return Result<QValue>(
      NotFound(StrCat("unknown builtin '", std::string(name), "'")));
}

Result<QValue> HyperQSession::Query(const std::string& q_text) {
  if (std::optional<Result<QValue>> builtin = TryBuiltin(q_text)) {
    return *std::move(builtin);
  }
  SessionMetrics& metrics = SessionMetrics::Get();
  metrics.queries->Increment();
  Result<QValue> result = xc_.Process(q_text, &last_timings_, &last_sql_);
  if (!result.ok()) metrics.errors->Increment();
  return result;
}

Status HyperQSession::Close() {
  // Promote session-scope variables to the server scope (§3.2.3). Scalars
  // have no server-side representation here and are dropped; materialized
  // relations are copied into durable tables named after the variable.
  for (const auto& [name, binding] : scopes_.session_vars()) {
    if (binding.kind != VarBinding::Kind::kRelation) continue;
    if (binding.table == name) continue;  // already durable
    std::string ddl =
        StrCat("CREATE TABLE ", Serializer::QuoteIdent(name),
               " AS SELECT * FROM ", Serializer::QuoteIdent(binding.table));
    Result<sqldb::QueryResult> r = gateway_->Execute(ddl);
    if (!r.ok() && r.status().code() != StatusCode::kAlreadyExists) {
      return r.status();
    }
  }
  return Status::OK();
}

}  // namespace hyperq
