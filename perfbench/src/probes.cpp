#include "probes.hpp"

#include <cstdint>
#include <functional>
#include <memory>

#include "common.hpp"
#include "dsm/shared_space.hpp"
#include "net/shared_bus.hpp"
#include "obs/profiler.hpp"
#include "rt/packet.hpp"
#include "rt/vm.hpp"
#include "sim/engine.hpp"

namespace perfbench {

namespace {

namespace sim = nscc::sim;
namespace rt = nscc::rt;
namespace dsm = nscc::dsm;

constexpr int kReps = 3;

// Operations per repetition, chosen so each probe repetition takes tens of
// milliseconds on a 4-core x86 host.
constexpr std::uint64_t kCallbacks = 200000;
constexpr std::uint64_t kSwitches = 100000;
constexpr std::uint64_t kWatchdogs = 100000;
constexpr std::uint64_t kFrames = 50000;
constexpr std::uint64_t kMessages = 20000;
constexpr std::uint64_t kUpdates = 20000;
constexpr int kVmBuilds = 10;

constexpr dsm::LocationId kProbeLoc = 7;
/// Virtual time between DSM writes: long enough that the medium never
/// backs up, so every update is delivered before the next round.
constexpr sim::Time kDsmRound = 50 * sim::kMillisecond;

struct Sample {
  double ns_per_op = 0.0;
  double allocs_per_op = 0.0;
};

/// One timed repetition of `body`, which returns its operation count.
Sample time_once(const char* span_name, SpanRecorder& spans,
                 const std::function<std::uint64_t()>& body) {
  SpanRecorder::Scope span(spans, span_name);
  const auto a0 = nscc::obs::alloc_counts();
  const std::int64_t t0 = host_now_ns();
  const std::uint64_t ops = body();
  const std::int64_t t1 = host_now_ns();
  const auto a1 = nscc::obs::alloc_counts();
  const double n = static_cast<double>(ops);
  return {static_cast<double>(t1 - t0) / n,
          static_cast<double>(a1.count - a0.count) / n};
}

/// Median ns/op over kReps repetitions; allocations from the last one.
Sample measure(const char* span_name, SpanRecorder& spans,
               const std::function<std::uint64_t()>& body) {
  std::vector<double> ns;
  Sample last;
  for (int r = 0; r < kReps; ++r) {
    last = time_once(span_name, spans, body);
    ns.push_back(last.ns_per_op);
  }
  return {median(ns), last.allocs_per_op};
}

rt::Packet payload_of(std::uint32_t bytes) {
  rt::Packet p;
  for (std::uint32_t i = 0; i < bytes; ++i) {
    p.pack_u8(static_cast<std::uint8_t>(i));
  }
  return p;
}

std::uint64_t engine_callbacks(int queue_depth) {
  sim::Engine engine;
  std::uint64_t left = kCallbacks;
  std::function<void()> tick = [&] {
    if (left == 0) return;
    --left;
    engine.schedule(engine.now() + 1, tick);
  };
  for (int i = 0; i < queue_depth; ++i) engine.schedule(0, tick);
  engine.run();
  return kCallbacks;
}

std::uint64_t fiber_switches(int processes) {
  sim::Engine engine;
  const std::uint64_t per_process =
      kSwitches / static_cast<std::uint64_t>(processes);
  for (int i = 0; i < processes; ++i) {
    engine.spawn("probe", [per_process](sim::Process& p) {
      for (std::uint64_t k = 0; k < per_process; ++k) p.delay(1);
    });
  }
  engine.run();
  return per_process * static_cast<std::uint64_t>(processes);
}

std::uint64_t watchdog_arm_cancel(int batch) {
  sim::Engine engine;
  std::uint64_t left = kWatchdogs;
  std::function<void()> tick = [&] {
    for (int i = 0; i < batch && left > 0; ++i, --left) {
      engine.cancel_watchdog(engine.set_watchdog(engine.now() + 1, [] {}));
    }
    if (left > 0) engine.schedule(engine.now() + 1, tick);
  };
  engine.schedule(0, tick);
  engine.run();
  return kWatchdogs;
}

std::uint64_t bus_frames(int stations, std::uint32_t payload) {
  sim::Engine engine;
  nscc::net::SharedBus bus(engine, nscc::net::BusConfig{});
  std::uint64_t sent = 0;
  std::uint64_t settled = 0;
  std::function<void()> send_one;
  const nscc::net::SharedBus::Outcome outcome =
      [&](sim::Time, bool, std::uint64_t) {
        ++settled;
        if (sent < kFrames) send_one();
      };
  send_one = [&] {
    const int src =
        static_cast<int>(sent % static_cast<std::uint64_t>(stations));
    ++sent;
    bus.transmit(src, (src + 1) % stations, payload, outcome);
  };
  for (int i = 0; i < stations; ++i) send_one();
  engine.run();
  return settled;
}

/// Every task sends to its ring successor, then receives from its
/// predecessor, kMessages in total.
std::uint64_t ring_messages(int tasks, std::uint32_t payload, bool lossy) {
  rt::MachineConfig cfg;
  cfg.ntasks = tasks;
  if (lossy) {
    cfg.transport.enabled = true;
    cfg.fault.link.loss_prob = 0.02;
  }
  rt::VirtualMachine vm(cfg);
  const rt::Packet value = payload_of(payload);
  const std::uint64_t rounds = kMessages / static_cast<std::uint64_t>(tasks);
  for (int i = 0; i < tasks; ++i) {
    vm.add_task("ring", [&, tasks](rt::Task& t) {
      for (std::uint64_t k = 0; k < rounds; ++k) {
        t.send((t.id() + 1) % tasks, 1, value);
        (void)t.recv(1);
      }
    });
  }
  vm.run();
  return rounds * static_cast<std::uint64_t>(tasks);
}

std::uint64_t vm_builds(const rt::MachineConfig& machine) {
  for (int i = 0; i < kVmBuilds; ++i) {
    rt::VirtualMachine vm(machine);
  }
  return kVmBuilds;
}

/// Task 0 writes one location every round; every other task reads it with
/// Global_Read.  `blocked`: readers ask for the round the writer has not
/// written yet, so each read waits for its update.  Otherwise readers read
/// after the update has landed, so each read admits without waiting.
std::uint64_t dsm_updates(int tasks, std::uint32_t payload, bool blocked,
                          nscc::sanitize::Level level) {
  rt::MachineConfig cfg;
  cfg.ntasks = tasks;
  cfg.sanitize.level = level;
  cfg.sanitize.spec.declare(kProbeLoc, nscc::sanitize::ToleranceRule{});
  rt::VirtualMachine vm(cfg);
  const rt::Packet value = payload_of(payload);
  const int readers = tasks - 1;
  const auto rounds = static_cast<dsm::Iteration>(
      kUpdates / static_cast<std::uint64_t>(readers));
  vm.add_task("writer", [&](rt::Task& t) {
    dsm::SharedSpace space(t);
    std::vector<int> ids;
    for (int r = 1; r < tasks; ++r) ids.push_back(r);
    space.declare_written(kProbeLoc, ids);
    for (dsm::Iteration k = 0; k < rounds; ++k) {
      if (blocked) t.compute(kDsmRound);
      space.write(kProbeLoc, k, value);
      if (!blocked) t.compute(kDsmRound);
    }
  });
  for (int r = 0; r < readers; ++r) {
    vm.add_task("reader", [&](rt::Task& t) {
      dsm::SharedSpace space(t);
      space.declare_read(kProbeLoc, 0);
      for (dsm::Iteration k = 0; k < rounds; ++k) {
        if (!blocked) t.compute(kDsmRound);
        (void)space.global_read(kProbeLoc, k, 0);
      }
    });
  }
  vm.run();
  return static_cast<std::uint64_t>(rounds) *
         static_cast<std::uint64_t>(readers);
}

}  // namespace

std::vector<ProbeResult> run_probes(BenchWorkload& workload,
                                    SpanRecorder& spans,
                                    bool* unexpected_stderr) {
  const int tasks = workload.tasks();
  const std::uint32_t payload = workload.payload_bytes();
  rt::MachineConfig machine =
      workload.configure(workload.key(kDefaultSeed, 0)).machine;
  machine.ntasks = tasks;

  std::vector<ProbeResult> out;
  const auto add = [&](const char* name, const char* unit, const char* allocs,
                       Sample s, double ns_per_unit) {
    out.push_back({name, unit, s.ns_per_op / ns_per_unit, allocs,
                   s.allocs_per_op});
  };

  auto capture = std::make_unique<CerrCapture>();
  add("sim.callback_ns", "ns", "sim.callback.allocs_per_op",
      measure("probe.sim.callback", spans,
              [&] { return engine_callbacks(tasks); }),
      1.0);
  add("sim.switch_ns", "ns", "sim.switch.allocs_per_op",
      measure("probe.sim.switch", spans, [&] { return fiber_switches(tasks); }),
      1.0);
  add("sim.watchdog_ns", "ns", "sim.watchdog.allocs_per_op",
      measure("probe.sim.watchdog", spans,
              [&] { return watchdog_arm_cancel(tasks); }),
      1.0);
  add("net.frame_ns", "ns", "net.frame.allocs_per_op",
      measure("probe.net.frame", spans,
              [&] { return bus_frames(tasks, payload); }),
      1.0);
  add("rt.msg_ns", "ns", "rt.msg.allocs_per_op",
      measure("probe.rt.msg", spans,
              [&] { return ring_messages(tasks, payload, false); }),
      1.0);
  add("rt.reliable_msg_ns", "ns", "rt.reliable_msg.allocs_per_op",
      measure("probe.rt.reliable_msg", spans,
              [&] { return ring_messages(tasks, payload, true); }),
      1.0);
  add("rt.vm_build_ms", "ms", "rt.vm_build.allocs_per_op",
      measure("probe.rt.vm_build", spans, [&] { return vm_builds(machine); }),
      1e6);
  const Sample update_off =
      measure("probe.dsm.update", spans, [&] {
        return dsm_updates(tasks, payload, false, nscc::sanitize::Level::kOff);
      });
  add("dsm.update_ns", "ns", "dsm.update.allocs_per_op", update_off, 1.0);
  add("dsm.blocked_read_ns", "ns", "dsm.blocked_read.allocs_per_op",
      measure("probe.dsm.blocked_read", spans,
              [&] {
                return dsm_updates(tasks, payload, true,
                                   nscc::sanitize::Level::kOff);
              }),
      1.0);
  const Sample update_strict =
      measure("probe.sanitize.read", spans, [&] {
        return dsm_updates(tasks, payload, false,
                           nscc::sanitize::Level::kStrict);
      });
  add("sanitize.read_ns", "ns", "sanitize.read.allocs_per_op",
      {update_strict.ns_per_op - update_off.ns_per_op,
       update_strict.allocs_per_op - update_off.allocs_per_op},
      1.0);
  add("app.compute_ms", "ms", "app.compute.allocs_per_op",
      measure("probe.app.compute", spans,
              [&] {
                workload.sequential_reference(
                    workload.key(kDefaultSeed, 0).seed);
                return std::uint64_t{1};
              }),
      1e6);

  const std::string captured = capture->text();
  capture.reset();
  int clean = 0;
  const std::string rest = strip_clean_verdicts(captured, &clean);
  if (!rest.empty()) {
    *unexpected_stderr = true;
    std::cerr << rest;
  }
  return out;
}

}  // namespace perfbench
