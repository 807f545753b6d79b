// Deterministic, seed-driven fault injection (the chaos layer).
//
// Robustness claims — auto-suspend after consecutive failures (§3.3.3),
// torn-WAL truncation, checkpoint-rotation fallback, transient-failure
// retry/backoff, downstream skip propagation — are only as good as the
// faults that exercise them. This registry makes every failure path in the
// system reachable on demand, reproducibly:
//
//  - *Named sites.* Each instrumented layer evaluates a site by name
//    (`refresh.execute`, `warehouse.outage`, `runtime.worker`,
//    `persist.file.open`, `persist.file.append`; see ROADMAP "Robustness
//    architecture" for the naming convention). A site that is not armed
//    costs one atomic load.
//  - *Deterministic decisions.* Whether an evaluation fires is a pure
//    function of (seed, site, scope, per-(site,scope) evaluation counter) —
//    never of wall time, thread identity, or evaluation order across
//    scopes. Two runs that evaluate a scope the same number of times get
//    the same fault sequence, which is what lets the chaos suite gate
//    byte-determinism at worker_threads 0 and 4: per-DT refresh attempts
//    are evaluated in per-DT program order regardless of interleaving.
//  - *Fault kinds.* Besides returning an error Status, persist sites can
//    simulate a short write (torn frame, exercises the writer's
//    rewind/poison path) or flip a byte before writing (CRC corruption,
//    exercises torn-tail truncation and `wal_dump --verify`).
//
// Wiring: instrumented layers read one process-global injector pointer
// (ActiveInjector, a common/global_hook.h GlobalHook), installed by
// tests/benches via ScopedInjector. The pointer is atomic and the registry's
// state is mutex-guarded, so armed sites stay TSan-clean under concurrent
// refresh workers.

#ifndef DVS_FAULT_INJECTOR_H_
#define DVS_FAULT_INJECTOR_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "common/global_hook.h"
#include "common/status.h"

namespace dvs {
namespace fault {

// Canonical site names. Every instrumented layer evaluates exactly one of
// these; keep the list in sync with ROADMAP "Robustness architecture".
inline constexpr const char* kSiteRefreshExecute = "refresh.execute";
inline constexpr const char* kSiteWarehouseOutage = "warehouse.outage";
inline constexpr const char* kSiteRuntimeWorker = "runtime.worker";
inline constexpr const char* kSitePersistFileOpen = "persist.file.open";
inline constexpr const char* kSitePersistFileAppend = "persist.file.append";

/// What an armed site does when it fires.
enum class FaultKind : uint8_t {
  kError = 0,       ///< Evaluation returns Status(code, message).
  kShortWrite = 1,  ///< persist.file.append: truncate the frame mid-write.
  kCorruptByte = 2, ///< persist.file.append: flip one payload byte (CRC).
};

struct SiteConfig {
  /// Firing probability per evaluation, decided deterministically from the
  /// injector seed and the (site, scope, counter) triple.
  double probability = 1.0;
  StatusCode code = StatusCode::kUnavailable;
  std::string message = "injected fault";
  FaultKind kind = FaultKind::kError;
  /// Fire only when the evaluation scope contains this substring (e.g. one
  /// DT's name, one warehouse, one file path). Empty = every scope.
  std::string scope_filter;
  /// Once a fire is decided for a scope, the next `burst - 1` evaluations of
  /// the same scope fire too — a warehouse outage lasting N ticks is an
  /// outage site with burst = N evaluated once per tick.
  int burst = 1;
  /// Stop firing after this many fires across all scopes (< 0 = unlimited).
  int max_fires = -1;
};

/// One decided fault, returned to the instrumented layer.
struct InjectedFault {
  StatusCode code = StatusCode::kUnavailable;
  std::string message;
  FaultKind kind = FaultKind::kError;

  Status ToStatus() const { return Status(code, message); }
};

class FaultInjector {
 public:
  explicit FaultInjector(uint64_t seed = 0) : seed_(seed) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Arms (or re-arms, resetting counters for) a site.
  void Arm(const std::string& site, SiteConfig config);
  void Disarm(const std::string& site);
  void DisarmAll();

  /// Evaluates a site. nullopt when the site is unarmed, filtered out, out
  /// of fires, or the deterministic decision is "no fault".
  std::optional<InjectedFault> Evaluate(std::string_view site,
                                        std::string_view scope);

  /// Evaluate + convert: OK or the injected error Status. Sites that only
  /// model errors (not data corruption) use this form.
  Status Check(std::string_view site, std::string_view scope);

  struct SiteStats {
    uint64_t evaluations = 0;
    uint64_t fires = 0;
  };
  SiteStats site_stats(const std::string& site) const;
  uint64_t total_fires() const;
  uint64_t seed() const { return seed_; }

 private:
  struct SiteState {
    SiteConfig config;
    SiteStats stats;
    /// Per-scope evaluation counter: the determinism anchor.
    std::map<std::string, uint64_t, std::less<>> scope_evals;
    /// Per-scope remaining forced fires from an active burst.
    std::map<std::string, int, std::less<>> burst_left;
  };

  const uint64_t seed_;
  mutable std::mutex mu_;
  std::map<std::string, SiteState, std::less<>> sites_;
};

/// The process-global injector the instrumented layers consult. Null (the
/// default) disables injection at the cost of one atomic load.
/// InstallInjector is for harnesses that install / remove the injector at
/// controlled mid-run points (e.g. between scheduler ticks); ScopedInjector
/// is the RAII form.
using InjectorHook = GlobalHook<FaultInjector*, FaultInjector>;
inline FaultInjector* ActiveInjector() { return InjectorHook::Get(); }
inline FaultInjector* InstallInjector(FaultInjector* injector) {
  return InjectorHook::Install(injector);
}
using ScopedInjector = InjectorHook::Scoped;

}  // namespace fault
}  // namespace dvs

#endif  // DVS_FAULT_INJECTOR_H_
