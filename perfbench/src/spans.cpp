#include "spans.hpp"

#include <chrono>
#include <cstdio>
#include <fstream>

#include "util/json_writer.hpp"

namespace perfbench {

std::int64_t host_now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SpanRecorder::Scope::Scope(SpanRecorder& recorder, const char* name, int cell)
    : recorder_(recorder),
      index_(recorder.enabled_ ? recorder.begin(name, cell) : -1) {}

SpanRecorder::Scope::~Scope() {
  if (index_ >= 0) recorder_.end(index_);
}

int SpanRecorder::begin(const char* name, int cell) {
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, host_now_ns(), 0, parent, cell});
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void SpanRecorder::end(int index) {
  spans_[static_cast<std::size_t>(index)].end_ns = host_now_ns();
  open_.pop_back();
}

std::vector<std::int64_t> SpanRecorder::self_times_ns() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= s.end_ns - s.start_ns;
    }
  }
  return self;
}

std::vector<double> SpanRecorder::self_ms(const std::string& name) const {
  const auto self = self_times_ns();
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (name == spans_[i].name) {
      out.push_back(static_cast<double>(self[i]) / 1e6);
    }
  }
  return out;
}

bool SpanRecorder::write_chrome_trace(const std::string& path) const {
  const auto self = self_times_ns();
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out += i == 0 ? "  " : ",\n  ";
    out += "{\"name\": ";
    nscc::util::jsonw::append_escaped(out, s.name);
    out += ", \"cat\": \"perfbench\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1";
    out += ", \"ts\": ";
    nscc::util::jsonw::append_number(
        out, static_cast<double>(s.start_ns - origin) / 1e3);
    out += ", \"dur\": ";
    nscc::util::jsonw::append_number(
        out, static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    out += ", \"args\": {\"cell\": " + std::to_string(s.cell) +
           ", \"parent\": " + std::to_string(s.parent) + ", \"self_us\": ";
    nscc::util::jsonw::append_number(out, static_cast<double>(self[i]) / 1e3);
    out += "}}";
  }
  out += "\n]}\n";
  std::ofstream file(path);
  file << out;
  return static_cast<bool>(file);
}

}  // namespace perfbench
