// The golden-output gate.  A cell's virtual outputs are its
// RunStats::to_fields() minus the fields its workload leaves at a silent
// zero, each value printed with %.17g so that equal text is equal bits.
// The checked-in golden table pins every distinct cell at kDefaultSeed.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "harness/run_config.hpp"
#include "workloads.hpp"

namespace perfbench {

using Fields = std::vector<std::pair<std::string, std::string>>;

[[nodiscard]] Fields cell_fields(const nscc::harness::RunStats& stats,
                                 const std::vector<NaField>& na);

/// Empty when equal, otherwise the first difference.
[[nodiscard]] std::string diff_fields(const Fields& expected,
                                      const Fields& got);

class GoldenTable {
 public:
  /// nullopt (with a message in `error`) when the file is missing or
  /// ill-formed.
  static std::optional<GoldenTable> load(const std::string& path,
                                         std::string* error);
  /// Write a table; false when the file cannot be written.
  static bool write(const std::string& path, const std::string& workload,
                    const std::vector<std::pair<std::string, Fields>>& cells);

  /// The expected fields of the cell labelled `label`, or nullptr.
  [[nodiscard]] const Fields* find(const std::string& label) const;

 private:
  std::map<std::string, Fields> cells_;
};

}  // namespace perfbench
