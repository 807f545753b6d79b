// Paper-style introspection surfaces (§3.3.3 "information functions"):
// REFRESH_HISTORY and GRAPH_HISTORY exposed as SQL table functions, plus the
// engine-wide metric aggregation that feeds the obs::Registry.
//
//   SELECT * FROM refresh_history();          -- every refresh log record
//   SELECT * FROM refresh_history('orders');  -- one DT's records
//   SELECT * FROM graph_history();            -- one row per dynamic table
//
// The provider is installed on DvsEngine for *direct* SELECTs only (see
// set_table_function_provider): DT and view definitions bind without it, so
// scheduler state can never leak into a persisted plan. Both functions
// produce rows purely from virtual-time state (the scheduler refresh log and
// catalog metadata), so their output is byte-identical across worker counts
// — bench_e20 gates exactly that.

#ifndef DVS_OBS_INTROSPECT_H_
#define DVS_OBS_INTROSPECT_H_

#include <string>
#include <vector>

#include "dt/engine.h"
#include "obs/metrics.h"
#include "sched/scheduler.h"
#include "sql/binder.h"

namespace dvs {
namespace obs {

/// Builds the table-function provider backing REFRESH_HISTORY(name?) and
/// GRAPH_HISTORY(). `engine` must be non-null and outlive the provider;
/// `scheduler` may be null (refresh_history then returns zero rows and
/// graph_history omits effective lags — useful for engines without a
/// scheduler attached).
sql::TableFunctionProvider MakeIntrospectionProvider(DvsEngine* engine,
                                                     Scheduler* scheduler);

/// Convenience: builds the provider and installs it on `engine`.
void InstallIntrospection(DvsEngine* engine, Scheduler* scheduler);

/// Registers engine-wide aggregate metrics on a registry and unregisters
/// them on destruction (the callbacks capture `engine`, which must outlive
/// this object):
///  - storage.* : every StorageStats counter summed over all catalog objects
///    (deterministic, except the serve-driven snapshot_pins /
///    snapshot_read_rows);
///  - dt.*      : graph state — DT count, suspended/initialized/needs_reinit
///    counts, failure totals (deterministic);
///  - catalog.graph_builds: dependency-graph rebuilds (deterministic).
class EngineMetrics {
 public:
  EngineMetrics(DvsEngine* engine, Registry* registry);
  ~EngineMetrics();

  EngineMetrics(const EngineMetrics&) = delete;
  EngineMetrics& operator=(const EngineMetrics&) = delete;

 private:
  Registry* registry_;
  std::vector<std::string> names_;
};

}  // namespace obs
}  // namespace dvs

#endif  // DVS_OBS_INTROSPECT_H_
