// nscc_perfbench: host-time benchmark for the simulator.
//
// One single-threaded process runs one named workload as a closed loop: a
// single client runs cells back to back, each cell one
// harness::Workload::run call, for --seconds of host time.  Every cell's
// virtual outputs are checked (deadlock, strict-sanitizer verdict,
// diverged == reconciled, workload checks, determinism against the cell's
// first run, and the golden table at the default seed).  The last stdout
// line is one JSON object: {"correct", "attempted", "failed", "metrics"};
// metrics are the end-to-end set with --trace=0 and the per-layer set with
// --trace=1.  perfbench/run.py builds this binary and drives it; see
// perfbench/README.md for the metric definitions.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "golden.hpp"
#include "obs/profiler.hpp"
#include "probes.hpp"
#include "spans.hpp"
#include "util/flags.hpp"
#include "util/json_writer.hpp"
#include "workloads.hpp"

namespace {

using perfbench::BenchWorkload;
using perfbench::CellKey;
using perfbench::Fields;
using perfbench::SpanRecorder;
using nscc::harness::RunStats;

/// Taken during static initialisation, before main(): the start of the
/// set-up interval.
const std::int64_t g_process_start_ns = perfbench::host_now_ns();

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Exact counts of one distinct cell (its first run in the loop).
struct CellCounts {
  double allocs = 0.0;
  double alloc_bytes = 0.0;
  double virt_s = 0.0;
  double msgs = 0.0;
  double gr_blocks = 0.0;
  double read_escalations = 0.0;
  double cache_hits = 0.0;
  double evaluations = 0.0;
};

struct CellResult {
  double host_ms = 0.0;
  double virt_s = 0.0;
  bool ok = false;
  CellCounts counts;
};

double extra_field(const RunStats& stats, const std::string& name) {
  for (const auto& [key, value] : stats.extra) {
    if (key == name) return value;
  }
  return 0.0;
}

/// Runs cells and judges their outputs.
class CellRunner {
 public:
  CellRunner(BenchWorkload& workload, SpanRecorder& spans,
             const perfbench::GoldenTable* golden)
      : workload_(workload),
        spans_(spans),
        golden_(golden),
        na_(workload.na_fields()) {}

  /// Run one cell.  `golden_check`: the key is a default-seed cell whose
  /// first run must match the golden table.
  CellResult run(const CellKey& key, int cell_id, bool golden_check) {
    SpanRecorder::Scope cell_span(spans_, "bench.cell", cell_id);
    const std::int64_t t0 = perfbench::host_now_ns();
    perfbench::CellPlan plan;
    {
      SpanRecorder::Scope span(spans_, "harness.configure", cell_id);
      plan = workload_.configure(key);
    }
    RunStats stats;
    nscc::obs::AllocCounts a0;
    nscc::obs::AllocCounts a1;
    std::string stderr_text;
    {
      SpanRecorder::Scope span(spans_, "harness.run", cell_id);
      perfbench::CerrCapture capture;
      a0 = nscc::obs::alloc_counts();
      stats = workload_.workload().run(plan.run, plan.machine);
      a1 = nscc::obs::alloc_counts();
      stderr_text = capture.text();
    }
    std::string failure;
    {
      SpanRecorder::Scope span(spans_, "bench.check", cell_id);
      failure = check(key, stats, stderr_text, golden_check);
    }
    CellResult result;
    result.host_ms =
        static_cast<double>(perfbench::host_now_ns() - t0) / 1e6;
    result.virt_s = nscc::sim::to_seconds(stats.completion_time);
    result.ok = failure.empty();
    result.counts = {static_cast<double>(a1.count - a0.count),
                     static_cast<double>(a1.bytes - a0.bytes),
                     result.virt_s,
                     static_cast<double>(stats.messages_sent),
                     static_cast<double>(stats.global_read_blocks),
                     static_cast<double>(stats.read_escalations),
                     extra_field(stats, "cache_hits"),
                     extra_field(stats, "evaluations")};
    ++attempted_;
    if (!result.ok) {
      ++failed_;
      std::cerr << "perfbench: cell " << cell_id << " (" << key.label
                << ", seed " << key.seed << ") failed: " << failure << '\n';
    }
    return result;
  }

  /// The fields of every distinct cell run so far, by label, for seed `seed`.
  [[nodiscard]] std::vector<std::pair<std::string, Fields>> fields_of(
      std::uint64_t seed) const {
    std::vector<std::pair<std::string, Fields>> out;
    for (int k = 0; k < perfbench::kDistinctCells; ++k) {
      const CellKey key = workload_.key(seed, k);
      const auto it = first_fields_.find(memo_key(key));
      if (it != first_fields_.end()) out.emplace_back(key.label, it->second);
    }
    return out;
  }

  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }

 private:
  static std::string memo_key(const CellKey& key) {
    return std::to_string(key.seed) + "/" + key.label;
  }

  std::string check(const CellKey& key, const RunStats& stats,
                    const std::string& stderr_text, bool golden_check) {
    int clean = 0;
    const std::string rest =
        perfbench::strip_clean_verdicts(stderr_text, &clean);
    if (!rest.empty()) std::cerr << rest;
    if (stats.deadlocked) return "deadlocked";
    if (stats.sanitize_violations > 0) {
      return std::to_string(stats.sanitize_violations) +
             " strict-sanitizer violation(s)";
    }
    if (workload_.strict() && clean != 1) {
      return "expected one strict-sanitizer clean verdict, got " +
             std::to_string(clean);
    }
    if (stats.diverged_locations != stats.reconciled_locations) {
      return "diverged " + std::to_string(stats.diverged_locations) +
             " != reconciled " + std::to_string(stats.reconciled_locations);
    }
    if (std::string why = workload_.check(stats); !why.empty()) return why;

    Fields fields = perfbench::cell_fields(stats, na_);
    const std::string memo = memo_key(key);
    if (const auto it = first_fields_.find(memo); it != first_fields_.end()) {
      const std::string diff = perfbench::diff_fields(it->second, fields);
      return diff.empty() ? std::string() : "not deterministic: " + diff;
    }
    std::string failure;
    if (golden_check && golden_ != nullptr) {
      const Fields* expected = golden_->find(key.label);
      if (expected == nullptr) {
        failure = "no golden entry for " + key.label;
      } else if (std::string diff = perfbench::diff_fields(*expected, fields);
                 !diff.empty()) {
        failure = "golden mismatch: " + diff;
      }
    }
    first_fields_.emplace(memo, std::move(fields));
    return failure;
  }

  BenchWorkload& workload_;
  SpanRecorder& spans_;
  const perfbench::GoldenTable* golden_;
  std::vector<perfbench::NaField> na_;
  std::map<std::string, Fields> first_fields_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<double> parse_samples(const std::string& csv) {
  std::vector<double> out;
  std::istringstream in(csv);
  for (std::string item; std::getline(in, item, ',');) {
    if (!item.empty()) out.push_back(std::stod(item));
  }
  return out;
}

void print_table(const std::string& title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title.c_str());
  for (const Metric& m : metrics) {
    std::printf("  %-30s %16.6g  %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    nscc::util::jsonw::append_escaped(out, metrics[i].name);
    out += ": {\"value\": ";
    nscc::util::jsonw::append_number(out, metrics[i].value);
    out += ", \"unit\": ";
    nscc::util::jsonw::append_escaped(out, metrics[i].unit);
    out += "}";
  }
  return out + "}";
}

bool write_report(const std::string& path, const BenchWorkload& workload,
                  std::uint64_t seed, bool trace, std::size_t cells,
                  const std::vector<Metric>& end_to_end,
                  const std::vector<Metric>& per_layer,
                  const std::vector<Metric>& extra) {
  using nscc::util::jsonw::append_escaped;
  std::string out = "{\"workload\": ";
  append_escaped(out, workload.name());
  out += ", \"seed\": " + std::to_string(seed) +
         ", \"trace\": " + (trace ? "true" : "false") +
         ", \"cells\": " + std::to_string(cells) +
         ",\n \"end_to_end\": " + metrics_json(end_to_end) +
         ",\n \"per_layer\": " + metrics_json(per_layer) +
         ",\n \"workload_specific\": " + metrics_json(extra) +
         ",\n \"not_published\": [";
  const auto na = workload.na_fields();
  for (std::size_t i = 0; i < na.size(); ++i) {
    out += i == 0 ? "\n  {\"field\": " : ",\n  {\"field\": ";
    append_escaped(out, na[i].field);
    out += ", \"reason\": ";
    append_escaped(out, na[i].reason);
    out += "}";
  }
  out += "]}\n";
  std::ofstream file(path);
  file << out;
  return static_cast<bool>(file);
}

}  // namespace

int main(int argc, char** argv) {
  nscc::util::Flags flags;
  flags
      .add_enum("workload", "ga_island", perfbench::workload_names(),
                "benchmark workload")
      .add_int("seed", static_cast<std::int64_t>(perfbench::kDefaultSeed),
               "run seed; every cell's seed is derived from it")
      .add_double("seconds", 30.0, "host seconds the cell loop measures")
      .add_enum("trace", "0", {"0", "1"},
                "0: end-to-end metrics, tracing off; 1: per-layer metrics "
                "from a traced run")
      .add_string("golden-dir", "perfbench/golden",
                  "directory of the golden tables (<workload>.json)")
      .add_string("out-dir", "",
                  "directory for the span trace and the run report; empty "
                  "writes nothing")
      .add_bool("setup-only", false,
                "set up, print {\"setup_s\": ...} and exit")
      .add_string("setup-samples", "",
                  "comma-separated setup_s of earlier set-up-only runs; "
                  "setup_s reports the median with this run's own")
      .add_bool("write-golden", false,
                "run every distinct cell at the default seed and write the "
                "golden table instead of benchmarking");
  if (!flags.parse(argc, argv)) return 2;

  const std::string name = flags.get_string("workload");
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  const double seconds = flags.get_double("seconds");
  const bool trace = flags.get_string("trace") == "1";
  const std::string golden_path =
      flags.get_string("golden-dir") + "/" + name + ".json";
  const std::string out_dir = flags.get_string("out-dir");

  std::unique_ptr<BenchWorkload> workload = perfbench::make_workload(name);
  const int distinct = perfbench::kDistinctCells;
  SpanRecorder spans;

  if (flags.get_bool("write-golden")) {
    CellRunner runner(*workload, spans, nullptr);
    for (int k = 0; k < distinct; ++k) {
      (void)runner.run(workload->key(perfbench::kDefaultSeed, k), k, false);
    }
    if (runner.failed() > 0 ||
        !perfbench::GoldenTable::write(
            golden_path, name, runner.fields_of(perfbench::kDefaultSeed))) {
      std::cerr << "perfbench: golden table not written\n";
      return 1;
    }
    std::cout << "wrote " << golden_path << '\n';
    return 0;
  }

  std::string golden_error;
  const auto golden = perfbench::GoldenTable::load(golden_path, &golden_error);
  if (!golden) {
    std::cerr << "perfbench: " << golden_error << '\n';
    return 2;
  }

  // ---- set-up: workload construction (above), instances, warm-up cell ----
  spans.set_enabled(trace);
  CellRunner runner(*workload, spans, &*golden);
  {
    SpanRecorder::Scope setup_span(spans, "bench.setup");
    for (int k = 0; k < distinct; ++k) {
      SpanRecorder::Scope span(spans, "app.instance");
      workload->generate_instance(workload->key(seed, k).seed);
    }
    // Warm-up cells are always the default seed's first cells, so the
    // golden gate applies to every run, whatever its seed.
    for (int k = 0; k < workload->warmup_cells(); ++k) {
      (void)runner.run(workload->key(perfbench::kDefaultSeed, k), -1, true);
    }
  }
  const double own_setup_s =
      static_cast<double>(perfbench::host_now_ns() - g_process_start_ns) / 1e9;
  if (flags.get_bool("setup-only")) {
    // A failed warm-up cell is reported by the measuring run, which runs
    // the same cell.
    std::printf("{\"setup_s\": %.9f}\n", own_setup_s);
    return 0;
  }

  // ---- per-layer probes (traced run only) ----
  bool unexpected_stderr = false;
  std::vector<perfbench::ProbeResult> probes;
  if (trace) {
    probes = perfbench::run_probes(*workload, spans, &unexpected_stderr);
  }

  // ---- the measured closed loop ----
  // A traced run alternates whole cycles of untraced and traced cells, so
  // both halves see every distinct cell equally often.  An untraced run
  // times at least 100 cells, so at least 10 lie beyond p90.
  const int min_cells = trace ? 2 * distinct : std::max(distinct, 100);
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  double loop_virt_s = 0.0;
  double loop_host_s = 0.0;
  std::uint64_t correct_cells = 0;
  std::map<int, CellCounts> counts;
  const std::int64_t loop_start = perfbench::host_now_ns();
  const auto deadline =
      loop_start + static_cast<std::int64_t>(seconds * 1e9);
  int cells = 0;
  for (; cells < min_cells || perfbench::host_now_ns() < deadline; ++cells) {
    const CellKey key = workload->key(seed, cells);
    const bool traced = trace && (cells / distinct) % 2 == 1;
    spans.set_enabled(traced);
    const CellResult r =
        runner.run(key, cells, seed == perfbench::kDefaultSeed);
    (traced ? traced_ms : untraced_ms).push_back(r.host_ms);
    if (!traced) {
      loop_virt_s += r.virt_s;
      loop_host_s += r.host_ms / 1e3;
    }
    if (r.ok) ++correct_cells;
    counts.emplace(key.key, r.counts);
  }
  const double loop_s =
      static_cast<double>(perfbench::host_now_ns() - loop_start) / 1e9;
  spans.set_enabled(trace);

  // Rerun the run's first cell: its fields must be byte-identical.
  (void)runner.run(workload->key(seed, 0), cells, false);

  // ---- end-to-end metrics ----
  std::vector<double> setup_samples =
      parse_samples(flags.get_string("setup-samples"));
  setup_samples.push_back(own_setup_s);
  const double p50 = perfbench::percentile(untraced_ms, 0.5);
  const double p90 = perfbench::percentile(untraced_ms, 0.9);
  const std::size_t n = untraced_ms.size();
  const std::size_t beyond_p90 =
      n - static_cast<std::size_t>(std::ceil(0.9 * static_cast<double>(n)));
  const double failed_frac = static_cast<double>(runner.failed()) /
                             static_cast<double>(runner.attempted());
  const std::vector<Metric> end_to_end = {
      {"cell_ms_p50", p50, "ms"},
      {"cell_ms_p90", p90, "ms"},
      {"cells_per_s", static_cast<double>(correct_cells) / loop_s, "1/s"},
      {"sim_s_per_host_s", loop_virt_s / loop_host_s, "virt_s/s"},
      {"setup_s", perfbench::median(setup_samples), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };

  // ---- per-layer metrics ----
  std::vector<Metric> per_layer;
  std::vector<Metric> workload_specific;
  if (trace) {
    for (const char* span : {"harness.configure", "harness.run",
                             "bench.check", "app.instance"}) {
      per_layer.push_back({std::string(span) + "_ms",
                           perfbench::median(spans.self_ms(span)), "ms"});
    }
    double app_compute_ms = 0.0;
    for (const auto& p : probes) {
      per_layer.push_back({p.name, p.per_op, p.unit});
      per_layer.push_back({p.allocs_name, p.allocs_per_op, "count"});
      if (p.name == "app.compute_ms") app_compute_ms = p.per_op;
    }
    CellCounts mean;
    for (const auto& [key, c] : counts) {
      mean.allocs += c.allocs;
      mean.alloc_bytes += c.alloc_bytes;
      mean.virt_s += c.virt_s;
      mean.msgs += c.msgs;
      mean.gr_blocks += c.gr_blocks;
      mean.read_escalations += c.read_escalations;
      mean.cache_hits += c.cache_hits;
      mean.evaluations += c.evaluations;
    }
    const auto k = static_cast<double>(counts.size());
    per_layer.push_back({"cell.allocs", mean.allocs / k, "count"});
    per_layer.push_back({"cell.alloc_mb", mean.alloc_bytes / k / 1e6, "MB"});
    per_layer.push_back({"cell.virt_s", mean.virt_s / k, "virt_s"});
    per_layer.push_back({"cell.msgs", mean.msgs / k, "count"});
    per_layer.push_back({"cell.gr_blocks", mean.gr_blocks / k, "count"});
    per_layer.push_back(
        {"cell.read_escalations", mean.read_escalations / k, "count"});
    per_layer.push_back({"harness.sim_share", 1.0 - app_compute_ms / p50,
                         "fraction"});
    per_layer.push_back(
        {"trace.overhead_frac",
         perfbench::percentile(traced_ms, 0.5) / p50 - 1.0, "fraction"});
    if (name == "ga_island") {
      workload_specific.push_back(
          {"ga.cache_hit_ratio",
           mean.cache_hits / (mean.cache_hits + mean.evaluations),
           "fraction"});
    }
  }

  // ---- report ----
  const bool correct = runner.failed() == 0 && !unexpected_stderr;
  std::printf("perfbench %s seed=%llu trace=%d: closed loop, 1 client, %zu "
              "cells in %.3f s (%zu %s, %zu beyond p90), %llu/%llu cells "
              "failed\n",
              name.c_str(), static_cast<unsigned long long>(seed),
              trace ? 1 : 0, static_cast<std::size_t>(cells), loop_s, n,
              trace ? "untraced" : "timed", beyond_p90,
              static_cast<unsigned long long>(runner.failed()),
              static_cast<unsigned long long>(runner.attempted()));
  std::vector<Metric> shown = end_to_end;
  shown.push_back({"failed_frac", failed_frac, "fraction"});
  print_table("end-to-end", shown);
  if (trace) {
    print_table("per-layer", per_layer);
    if (!workload_specific.empty()) print_table("workload", workload_specific);
  }
  for (const auto& na : workload->na_fields()) {
    std::printf("  N/A %-26s %s\n", na.field.c_str(), na.reason.c_str());
  }
  if (!out_dir.empty()) {
    const std::string stem = out_dir + "/" + name + "-seed" +
                             std::to_string(seed) + "-trace" +
                             (trace ? "1" : "0");
    if (!write_report(stem + ".report.json", *workload, seed, trace,
                      static_cast<std::size_t>(cells), shown, per_layer,
                      workload_specific) ||
        (trace && !spans.write_chrome_trace(stem + ".trace.json"))) {
      std::cerr << "perfbench: cannot write " << stem << ".*\n";
      return 1;
    }
    std::printf("wrote %s.report.json%s\n", stem.c_str(),
                trace ? " and .trace.json" : "");
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(runner.attempted()),
              static_cast<unsigned long long>(runner.failed()),
              metrics_json(trace ? per_layer : end_to_end).c_str());
  std::fflush(stdout);
  return 0;
}
