// Layer probes: the benchmark calls each layer's public API directly, sized
// to the workload (its task count and update payload), and reports host
// time per operation plus heap allocations per operation.
#pragma once

#include <string>
#include <vector>

#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

struct ProbeResult {
  std::string name;      ///< Metric name, e.g. "sim.switch_ns".
  std::string unit;      ///< "ns" or "ms".
  double per_op = 0.0;   ///< Median over repetitions, in `unit`.
  std::string allocs_name;     ///< e.g. "sim.switch.allocs_per_op".
  double allocs_per_op = 0.0;  ///< operator-new calls per operation.
};

/// Run every probe for `workload`; each repetition is recorded as a span.
/// Anything the library writes to std::cerr other than the expected
/// strict-sanitizer clean verdicts is forwarded; `unexpected_stderr` is set
/// when that happens.
[[nodiscard]] std::vector<ProbeResult> run_probes(BenchWorkload& workload,
                                                  SpanRecorder& spans,
                                                  bool* unexpected_stderr);

}  // namespace perfbench
