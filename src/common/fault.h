#ifndef HYPERQ_COMMON_FAULT_H_
#define HYPERQ_COMMON_FAULT_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace hyperq {

/// Deterministic fault injection for the serving path (docs/ROBUSTNESS.md).
///
/// Every place the gateway can realistically fail — a socket read, a
/// backend execution, a response encode — is marked with a named fault
/// site. Tests arm faults at those sites and the production code reacts
/// exactly as it would to the real failure, so graceful degradation is
/// provable instead of hoped for (the robustness counterpart of the §5
/// side-by-side oracle).
///
/// Arming uses a small spec mini-language, one spec per site, ';'-joined:
///
///   site '=' action (',' trigger)*
///
///   actions:   error[:message]   fail with the site's natural StatusCode
///              delay:MS          sleep MS milliseconds, then proceed
///              short:BYTES       (write sites) transmit only BYTES bytes,
///                                then fail the write
///   triggers:  p:PROB            fire with probability PROB (seeded RNG)
///              after:N           skip the first N evaluations
///              once              fire at most one time
///              times:N           fire at most N times
///              (no trigger)      fire on every evaluation
///
/// Examples:
///   net.read=error
///   backend.execute=error,after:2,once      (only the 3rd execute fails)
///   net.write=short:16,p:0.25
///   pool.task=delay:5,p:0.1
///
/// Control surfaces: FaultInjector::Global().Arm(...) in-process, the
/// HYPERQ_FAULTS / HYPERQ_FAULT_SEED environment variables at startup, and
/// the `.hyperq.fault["spec"]` / `.hyperq.faultClear[]` /
/// `.hyperq.faultSeed[n]` builtins over the wire.
///
/// Cost when disarmed: CheckFault() is one relaxed atomic load and a
/// predicted-not-taken branch; no site pays for instrumentation it is not
/// using.

/// What a fault site must do when its check fires. Delay actions are
/// applied inside the injector (the call sleeps), so call sites only ever
/// see kNone, kError or kShortWrite.
struct FaultHit {
  enum class Kind { kNone, kError, kShortWrite };
  Kind kind = Kind::kNone;
  /// kError: the status the site should fail with.
  Status error;
  /// kShortWrite: transmit at most this many bytes, then fail.
  size_t short_len = 0;
};

class FaultInjector {
 public:
  /// The process-wide injector (sites are global, like metrics).
  static FaultInjector& Global();

  /// True when any fault is armed anywhere in the process — the only check
  /// compiled into hot paths.
  static bool AnyArmed() {
    return armed_any_.load(std::memory_order_relaxed);
  }

  /// Parses and arms one or more ';'-separated specs. Re-arming a site
  /// replaces its previous config and resets its counters. Unknown sites
  /// and malformed specs are rejected whole (nothing is armed).
  Status Arm(const std::string& spec);

  /// Disarms every fault (hit statistics for armed sites are dropped).
  void Clear();

  /// Reseeds the probability-trigger RNG; same seed => same fire pattern.
  void Reseed(uint64_t seed);

  /// Evaluates the site against the armed config. Slow path — call through
  /// CheckFault() so disarmed runs pay only the AnyArmed() branch.
  FaultHit Evaluate(const char* site);

  /// One row per registered site: the armed spec (empty if disarmed), how
  /// often the site was evaluated and how often it fired.
  struct SiteStats {
    std::string site;
    std::string spec;
    uint64_t hits = 0;
    uint64_t fires = 0;
  };
  std::vector<SiteStats> Stats() const;

  /// The canonical fault-site catalog (docs/ROBUSTNESS.md). Arm() rejects
  /// sites not in this list.
  static std::vector<std::string> KnownSites();

 private:
  FaultInjector();

  struct Config {
    enum class Action { kError, kDelay, kShortWrite };
    Action action = Action::kError;
    std::string message;     // error action; empty = default message
    int delay_ms = 0;        // delay action
    size_t short_len = 0;    // short-write action
    double probability = 1.0;
    uint64_t skip = 0;       // after:N
    uint64_t max_fires = 0;  // 0 = unlimited
    std::string spec;        // the text this was parsed from
    uint64_t hits = 0;
    uint64_t fires = 0;
  };

  static Status ParseOne(const std::string& text, std::string* site,
                         Config* out);
  void RecomputeArmedLocked();
  double NextUniformLocked();

  static std::atomic<bool> armed_any_;

  mutable std::mutex mu_;
  /// Indexed like the site catalog; nullopt-style: armed_[i].spec empty
  /// means the site is disarmed.
  std::vector<Config> slots_;
  /// Evaluation counts even for disarmed sites (once anything is armed),
  /// so tests can assert a site was actually reached.
  std::vector<uint64_t> touches_;
  uint64_t rng_state_ = 0;
};

/// The fault-site check. Returns immediately (one relaxed load) when no
/// fault is armed; otherwise consults the injector, sleeping inline for
/// delay actions.
inline FaultHit CheckFault(const char* site) {
  if (!FaultInjector::AnyArmed()) return FaultHit{};
  return FaultInjector::Global().Evaluate(site);
}

}  // namespace hyperq

#endif  // HYPERQ_COMMON_FAULT_H_
