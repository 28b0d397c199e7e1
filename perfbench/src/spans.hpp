// In-memory span recorder owned by the benchmark.  Spans are recorded only
// around the benchmark's own calls into the simulator's public API (no
// instrumentation lives inside the library), kept in memory while the run
// is measured, and written out as a Chrome trace-event JSON at exit.
//
// A span's self time is its duration minus the time its child spans cover;
// children are the spans opened while it was the innermost open span.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Host monotonic clock in nanoseconds.
[[nodiscard]] std::int64_t host_now_ns() noexcept;

class SpanRecorder {
 public:
  struct Span {
    const char* name;       ///< Static string: layer.operation.
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;             ///< Index of the enclosing span, -1 at the root.
    int cell;               ///< Cell index, -1 outside the cell loop.
  };

  /// RAII span: opens on construction, closes on destruction.  A no-op
  /// when the recorder is disabled.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, const char* name, int cell = -1);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& recorder_;
    int index_;
  };

  void set_enabled(bool on) noexcept { enabled_ = on; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// Self time (ns) of every span, indexed like spans().
  [[nodiscard]] std::vector<std::int64_t> self_times_ns() const;

  /// Self times in ms of every span named `name`.
  [[nodiscard]] std::vector<double> self_ms(const std::string& name) const;

  /// Write the spans as Chrome trace-event JSON ("X" complete events with
  /// cell, parent and self time in args).  False when the file cannot be
  /// written.
  bool write_chrome_trace(const std::string& path) const;

 private:
  int begin(const char* name, int cell);
  void end(int index);

  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> open_;  ///< Stack of open span indices.
};

}  // namespace perfbench
