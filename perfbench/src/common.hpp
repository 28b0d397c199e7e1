// Small helpers shared by the benchmark's sources: order statistics and a
// scoped capture of std::cerr (the library reports sanitizer verdicts
// there, one line per strict run).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (q in (0, 1]); 0 for an empty sample.
inline double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::max<std::size_t>(rank, 1) - 1];
}

/// Median (mean of the two middle values for an even count).
inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Redirects std::cerr into a buffer for its lifetime.
class CerrCapture {
 public:
  CerrCapture() : saved_(std::cerr.rdbuf(buffer_.rdbuf())) {}
  ~CerrCapture() { std::cerr.rdbuf(saved_); }
  CerrCapture(const CerrCapture&) = delete;
  CerrCapture& operator=(const CerrCapture&) = delete;

  [[nodiscard]] std::string text() const { return buffer_.str(); }

 private:
  std::ostringstream buffer_;
  std::streambuf* saved_;
};

/// The line a clean strict-sanitizer run prints: expected output, not a
/// failure.
inline constexpr const char* kSanitizeCleanPrefix = "[sanitize:strict] clean: ";

/// Split captured stderr into the expected clean-verdict lines (counted)
/// and everything else (returned).
inline std::string strip_clean_verdicts(const std::string& text, int* clean) {
  std::string rest;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind(kSanitizeCleanPrefix, 0) == 0) {
      ++*clean;
    } else {
      rest += line + '\n';
    }
  }
  return rest;
}

}  // namespace perfbench
