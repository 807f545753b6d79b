// GlobalHook: a process-global, atomically swapped value that instrumented
// code consults on its hot path — the one arming primitive behind the fault
// injector (fault::ActiveInjector), the trace recorder
// (obs::ActiveTraceRecorder) and refresh profiling (obs::ProfilingArmed).
//
// A disarmed site costs one acquire load of the slot (a plain load on x86);
// Get is inline so no call is paid on top. Install swaps the value and
// returns the previous one, for harnesses that arm or disarm at controlled
// mid-run points; Scoped is the RAII form that restores the previous value
// on destruction. Install before starting worker threads and keep the value
// installed until they drain — swapping mid-run is a race by construction.
//
// `Tag` gives every hook its own slot even when two hooks store the same
// type.

#ifndef DVS_COMMON_GLOBAL_HOOK_H_
#define DVS_COMMON_GLOBAL_HOOK_H_

#include <atomic>

namespace dvs {

template <typename T, typename Tag>
class GlobalHook {
 public:
  static T Get() { return slot_.load(std::memory_order_acquire); }

  /// Installs `value`; returns the previously installed one.
  static T Install(T value) {
    return slot_.exchange(value, std::memory_order_acq_rel);
  }

  class Scoped {
   public:
    explicit Scoped(T value) : previous_(Install(value)) {}
    ~Scoped() { Install(previous_); }
    Scoped(const Scoped&) = delete;
    Scoped& operator=(const Scoped&) = delete;

   private:
    T previous_;
  };

 private:
  static inline std::atomic<T> slot_{};
};

}  // namespace dvs

#endif  // DVS_COMMON_GLOBAL_HOOK_H_
