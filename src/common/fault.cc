#include "common/fault.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <utility>

#include "common/metrics.h"
#include "common/strings.h"

namespace hyperq {

namespace {

/// The site catalog: every marked failure point on the serving path, with
/// the StatusCode an injected error surfaces as (each site fails the way
/// its real failure would).
struct SiteInfo {
  const char* name;
  StatusCode code;
  const char* what;
};

constexpr SiteInfo kSites[] = {
    {"net.read", StatusCode::kNetworkError, "socket read"},
    {"net.write", StatusCode::kNetworkError, "socket write"},
    {"qipc.decode", StatusCode::kProtocolError, "QIPC request decode"},
    {"qipc.encode", StatusCode::kInternal, "QIPC response encode"},
    {"backend.execute", StatusCode::kUnavailable, "backend execution"},
    {"pool.task", StatusCode::kInternal, "worker-pool task"},
    {"pgwire.read", StatusCode::kNetworkError, "pg wire read"},
    {"pgwire.write", StatusCode::kNetworkError, "pg wire write"},
    {"shard.execute", StatusCode::kUnavailable, "shard scatter execution"},
    {"shard.gather", StatusCode::kUnavailable, "shard partial gather"},
    {"backend.select", StatusCode::kUnavailable, "backend SELECT execution"},
    {"ingest.upd", StatusCode::kUnavailable, "ingest upd append"},
    {"ingest.flush", StatusCode::kUnavailable, "ingest tail flush"},
};
constexpr size_t kNumSites = sizeof(kSites) / sizeof(kSites[0]);

int SiteIndex(const char* site) {
  for (size_t i = 0; i < kNumSites; ++i) {
    if (std::strcmp(kSites[i].name, site) == 0) return static_cast<int>(i);
  }
  return -1;
}

int SiteIndex(const std::string& site) { return SiteIndex(site.c_str()); }

struct FaultMetrics {
  Gauge* armed;
  Counter* fired;
  Counter* delay_ms;
  Counter* per_site[kNumSites];

  static FaultMetrics& Get() {
    static FaultMetrics* m = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      auto* fm = new FaultMetrics{r.GetGauge("fault.armed"),
                                  r.GetCounter("fault.fired"),
                                  r.GetCounter("fault.delay_ms"),
                                  {}};
      for (size_t i = 0; i < kNumSites; ++i) {
        fm->per_site[i] =
            r.GetCounter(StrCat("fault.fired.", kSites[i].name));
      }
      return fm;
    }();
    return *m;
  }
};

bool ParseUint(const std::string& s, uint64_t* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return false;
  *out = v;
  return true;
}

bool ParseDouble(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  double v = std::strtod(s.c_str(), &end);
  if (end == nullptr || *end != '\0') return false;
  *out = v;
  return true;
}

constexpr uint64_t kDefaultSeed = 0x9E3779B97F4A7C15ull;

}  // namespace

std::atomic<bool> FaultInjector::armed_any_{false};

FaultInjector::FaultInjector()
    : slots_(kNumSites), touches_(kNumSites, 0), rng_state_(kDefaultSeed) {
  if (const char* seed = std::getenv("HYPERQ_FAULT_SEED")) {
    uint64_t v = 0;
    if (ParseUint(seed, &v)) rng_state_ = v ? v : kDefaultSeed;
  }
  if (const char* spec = std::getenv("HYPERQ_FAULTS")) {
    // Startup arming for test binaries; a bad env spec is a hard
    // configuration error worth failing loudly on.
    Status s = Arm(spec);
    if (!s.ok()) {
      std::fprintf(stderr, "HYPERQ_FAULTS rejected: %s\n",
                   s.ToString().c_str());
      std::abort();
    }
  }
}

FaultInjector& FaultInjector::Global() {
  static FaultInjector* injector = new FaultInjector();
  return *injector;
}

std::vector<std::string> FaultInjector::KnownSites() {
  std::vector<std::string> out;
  out.reserve(kNumSites);
  for (const SiteInfo& s : kSites) out.emplace_back(s.name);
  return out;
}

Status FaultInjector::ParseOne(const std::string& text, std::string* site,
                               Config* out) {
  size_t eq = text.find('=');
  if (eq == std::string::npos || eq == 0) {
    return InvalidArgument(
        StrCat("fault spec '", text, "' is not site=action"));
  }
  *site = std::string(StripWhitespace(text.substr(0, eq)));
  if (SiteIndex(*site) < 0) {
    return InvalidArgument(StrCat("unknown fault site '", *site,
                                  "' (see .hyperq.faultSites[])"));
  }
  Config cfg;
  cfg.spec = std::string(StripWhitespace(text));
  std::vector<std::string> parts = Split(text.substr(eq + 1), ',');
  if (parts.empty() || StripWhitespace(parts[0]).empty()) {
    return InvalidArgument(StrCat("fault spec '", text, "' has no action"));
  }
  for (size_t i = 0; i < parts.size(); ++i) {
    std::string tok(StripWhitespace(parts[i]));
    std::string key = tok;
    std::string arg;
    size_t colon = tok.find(':');
    if (colon != std::string::npos) {
      key = tok.substr(0, colon);
      arg = tok.substr(colon + 1);
    }
    if (i == 0) {
      if (key == "error") {
        cfg.action = Config::Action::kError;
        cfg.message = arg;
      } else if (key == "delay") {
        cfg.action = Config::Action::kDelay;
        uint64_t ms = 0;
        if (!ParseUint(arg, &ms) || ms > 60'000) {
          return InvalidArgument(
              StrCat("bad delay in fault spec '", text, "'"));
        }
        cfg.delay_ms = static_cast<int>(ms);
      } else if (key == "short") {
        cfg.action = Config::Action::kShortWrite;
        uint64_t n = 0;
        if (!ParseUint(arg, &n)) {
          return InvalidArgument(
              StrCat("bad short-write length in fault spec '", text, "'"));
        }
        cfg.short_len = static_cast<size_t>(n);
      } else {
        return InvalidArgument(StrCat("unknown fault action '", key,
                                      "' in spec '", text, "'"));
      }
      continue;
    }
    if (key == "p") {
      double p = 0;
      if (!ParseDouble(arg, &p) || p < 0.0 || p > 1.0) {
        return InvalidArgument(
            StrCat("bad probability in fault spec '", text, "'"));
      }
      cfg.probability = p;
    } else if (key == "after") {
      if (!ParseUint(arg, &cfg.skip)) {
        return InvalidArgument(
            StrCat("bad after:N in fault spec '", text, "'"));
      }
    } else if (key == "once") {
      cfg.max_fires = 1;
    } else if (key == "times") {
      if (!ParseUint(arg, &cfg.max_fires) || cfg.max_fires == 0) {
        return InvalidArgument(
            StrCat("bad times:N in fault spec '", text, "'"));
      }
    } else {
      return InvalidArgument(
          StrCat("unknown fault trigger '", key, "' in spec '", text, "'"));
    }
  }
  *out = std::move(cfg);
  return Status::OK();
}

Status FaultInjector::Arm(const std::string& spec) {
  // Parse everything before arming anything: a spec list is atomic.
  std::vector<std::pair<int, Config>> parsed;
  for (const std::string& one : Split(spec, ';')) {
    if (StripWhitespace(one).empty()) continue;
    std::string site;
    Config cfg;
    HQ_RETURN_IF_ERROR(ParseOne(one, &site, &cfg));
    parsed.emplace_back(SiteIndex(site), std::move(cfg));
  }
  if (parsed.empty()) {
    return InvalidArgument("empty fault spec (use .hyperq.faultClear[])");
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [idx, cfg] : parsed) {
    slots_[idx] = std::move(cfg);
  }
  RecomputeArmedLocked();
  return Status::OK();
}

void FaultInjector::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (Config& c : slots_) c = Config{};
  for (uint64_t& t : touches_) t = 0;
  RecomputeArmedLocked();
}

void FaultInjector::Reseed(uint64_t seed) {
  std::lock_guard<std::mutex> lock(mu_);
  rng_state_ = seed ? seed : kDefaultSeed;
}

void FaultInjector::RecomputeArmedLocked() {
  int armed = 0;
  for (const Config& c : slots_) {
    if (!c.spec.empty()) ++armed;
  }
  armed_any_.store(armed > 0, std::memory_order_relaxed);
  FaultMetrics::Get().armed->Set(armed);
}

double FaultInjector::NextUniformLocked() {
  // xorshift64*, folded to [0, 1); deterministic for a given seed.
  rng_state_ ^= rng_state_ >> 12;
  rng_state_ ^= rng_state_ << 25;
  rng_state_ ^= rng_state_ >> 27;
  uint64_t v = rng_state_ * 0x2545F4914F6CDD1Dull;
  return static_cast<double>(v >> 11) / 9007199254740992.0;
}

FaultHit FaultInjector::Evaluate(const char* site) {
  int idx = SiteIndex(site);
  if (idx < 0) return FaultHit{};
  int sleep_ms = 0;
  FaultHit hit;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++touches_[idx];
    Config& cfg = slots_[idx];
    if (cfg.spec.empty()) return FaultHit{};
    ++cfg.hits;
    if (cfg.hits <= cfg.skip) return FaultHit{};
    if (cfg.max_fires != 0 && cfg.fires >= cfg.max_fires) return FaultHit{};
    if (cfg.probability < 1.0 && NextUniformLocked() >= cfg.probability) {
      return FaultHit{};
    }
    ++cfg.fires;
    FaultMetrics& m = FaultMetrics::Get();
    m.fired->Increment();
    m.per_site[idx]->Increment();
    switch (cfg.action) {
      case Config::Action::kDelay:
        sleep_ms = cfg.delay_ms;
        m.delay_ms->Increment(static_cast<uint64_t>(sleep_ms));
        break;
      case Config::Action::kError: {
        std::string msg =
            cfg.message.empty()
                ? StrCat("injected fault at ", kSites[idx].name, " (",
                         kSites[idx].what, ")")
                : cfg.message;
        hit.kind = FaultHit::Kind::kError;
        hit.error = Status(kSites[idx].code, std::move(msg));
        break;
      }
      case Config::Action::kShortWrite:
        hit.kind = FaultHit::Kind::kShortWrite;
        hit.short_len = cfg.short_len;
        break;
    }
  }
  if (sleep_ms > 0) {
    // Sleep outside the lock so a delay at one site never serializes
    // unrelated sites.
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
  }
  return hit;
}

std::vector<FaultInjector::SiteStats> FaultInjector::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SiteStats> out;
  out.reserve(kNumSites);
  for (size_t i = 0; i < kNumSites; ++i) {
    SiteStats s;
    s.site = kSites[i].name;
    s.spec = slots_[i].spec;
    s.hits = slots_[i].spec.empty() ? touches_[i] : slots_[i].hits;
    s.fires = slots_[i].fires;
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace hyperq
