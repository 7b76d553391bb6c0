#pragma once

// Shared pieces of the repo benchmark: the result being assembled,
// order statistics, and the benchmark's own span recorder.
//
// Everything here lives outside the program under test. Spans are
// recorded around calls into the program's public functions (never
// inside them), kept in memory, and written out when the run ends.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "runtime/device.hpp"
#include "runtime/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The command-line flags, plus what run.py adds about the source tree.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans ("" = nowhere).
  std::string trace_dir;
  /// git sha or source digest of the tree that was built.
  std::string source_id = "unknown";
};

/// One metric as printed: name, value, unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload run produces. `e2e` is printed by the untraced run,
/// `layer` by the traced one.
struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> check_failures;
  std::vector<Metric> e2e;
  std::vector<Metric> layer;

  /// Records a failed output check; the run then reports correct=false.
  void check(bool ok, const std::string& what);
  void set_e2e(const std::string& name, double value, const char* unit);
  void set_layer(const std::string& name, double value, const char* unit);
};

/// Everything a workload needs to know about how it is run.
struct RunContext {
  const Args& args;
  /// Parallel "GPU" device, Device::parallel(threads).
  dlbench::runtime::Device parallel;
  /// Width of `parallel`, also the number of crafting workers.
  int threads = 1;
};

/// Median (mean of the middle pair for even counts). NaN when empty.
double median(std::vector<double> values);
/// Linearly interpolated quantile, q in [0, 1]. NaN when empty.
double quantile(std::vector<double> values, double q);

/// Value of one of the program's own trace counters ("tensor.allocs",
/// "pool.tasks", ...) in `report`; 0 when it never fired.
std::int64_t trace_counter(const dlbench::runtime::trace::TraceReport& report,
                           const char* name);

/// Peak resident set of this process, MiB.
double peak_rss_mib();

/// CPU seconds used so far by the whole process (every thread, user +
/// system) and by the calling thread. The guest kernel leaves hypervisor
/// steal out of both, which wall time cannot do: on a shared 4-vCPU host
/// the same work read 2-3x apart in wall time and within 3 % in CPU time.
double process_cpu_s();
double thread_cpu_s();

/// Hypervisor steal so far, seconds summed over all CPUs (/proc/stat);
/// 0 where the kernel does not report it.
double host_steal_s();

/// Benchmark-owned spans. Disabled (every call a no-op) unless
/// enable() was called; the untraced run never enables them.
namespace spans {

void enable();

/// RAII span around one call into the program. `name` must be a string
/// literal. The parent is the innermost open span on the same thread;
/// `request` tags the spans of one serving request.
class Span {
 public:
  explicit Span(const char* name, std::int64_t request = -1);
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span();

 private:
  std::int64_t id_ = -1;
};

/// Total and self time per span name (self = duration minus the time
/// covered by child spans), as a printable table.
std::string self_time_table();
/// Writes every span as JSON (one object per line) to `path`.
void write(const std::string& path);

}  // namespace spans

}  // namespace perfbench
