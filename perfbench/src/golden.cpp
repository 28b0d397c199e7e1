#include "golden.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/json.hpp"
#include "util/json_writer.hpp"

namespace perfbench {

Fields cell_fields(const nscc::harness::RunStats& stats,
                   const std::vector<NaField>& na) {
  Fields out;
  for (const auto& [name, value] : stats.to_fields()) {
    const bool unpublished =
        std::any_of(na.begin(), na.end(),
                    [&](const NaField& f) { return f.field == name; });
    if (unpublished) continue;
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    out.emplace_back(name, buf);
  }
  return out;
}

std::string diff_fields(const Fields& expected, const Fields& got) {
  if (expected.size() != got.size()) {
    return "field count " + std::to_string(got.size()) + " != expected " +
           std::to_string(expected.size());
  }
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (expected[i] != got[i]) {
      return got[i].first + "=" + got[i].second + ", expected " +
             expected[i].first + "=" + expected[i].second;
    }
  }
  return {};
}

std::optional<GoldenTable> GoldenTable::load(const std::string& path,
                                             std::string* error) {
  std::ifstream file(path);
  if (!file) {
    *error = "cannot read golden table " + path;
    return std::nullopt;
  }
  std::stringstream text;
  text << file.rdbuf();
  std::string parse_error;
  const auto doc = nscc::util::json::parse(text.str(), &parse_error);
  const auto* cells = doc ? doc->find("cells") : nullptr;
  if (cells == nullptr || !cells->is_array()) {
    *error = path + ": " +
             (parse_error.empty() ? "no \"cells\" array" : parse_error);
    return std::nullopt;
  }
  GoldenTable table;
  for (const auto& cell : cells->array) {
    const auto* fields = cell.find("fields");
    const std::string label = cell.string_or("label", "");
    if (label.empty() || fields == nullptr || !fields->is_object()) {
      *error = path + ": a cell lacks a label or a fields object";
      return std::nullopt;
    }
    Fields& out = table.cells_[label];
    for (const auto& [name, value] : fields->object) {
      if (!value.is_string()) {
        *error = path + ": field " + name + " of " + label +
                 " is not a string";
        return std::nullopt;
      }
      out.emplace_back(name, value.string);
    }
  }
  return table;
}

bool GoldenTable::write(
    const std::string& path, const std::string& workload,
    const std::vector<std::pair<std::string, Fields>>& cells) {
  using nscc::util::jsonw::append_escaped;
  std::string out = "{\n  \"workload\": ";
  append_escaped(out, workload);
  out += ",\n  \"seed\": " + std::to_string(kDefaultSeed) +
         ",\n  \"cells\": [";
  for (std::size_t c = 0; c < cells.size(); ++c) {
    out += c == 0 ? "\n    {\"label\": " : ",\n    {\"label\": ";
    append_escaped(out, cells[c].first);
    out += ", \"fields\": {";
    const Fields& fields = cells[c].second;
    for (std::size_t i = 0; i < fields.size(); ++i) {
      out += i == 0 ? "\n      " : ",\n      ";
      append_escaped(out, fields[i].first);
      out += ": ";
      append_escaped(out, fields[i].second);
    }
    out += "\n    }}";
  }
  out += "\n  ]\n}\n";
  std::ofstream file(path);
  file << out;
  return static_cast<bool>(file);
}

const Fields* GoldenTable::find(const std::string& label) const {
  const auto it = cells_.find(label);
  return it == cells_.end() ? nullptr : &it->second;
}

}  // namespace perfbench
