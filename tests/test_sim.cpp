// Tests for the fiber layer and the discrete-event engine: scheduling order,
// virtual-time semantics of delay/suspend/resume, determinism, deadlock
// detection, and teardown of unfinished fibers.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/fiber.hpp"
#include "sim/time.hpp"

namespace {

using nscc::sim::Engine;
using nscc::sim::Fiber;
using nscc::sim::Process;
using nscc::sim::Time;

TEST(Fiber, RunsBodyToCompletion) {
  // Each body finishes on its first resume without ever yielding; control
  // must come back to this frame, with its locals intact, every time.
  int total = 0;
  for (int i = 1; i <= 3; ++i) {
    int steps = 0;
    Fiber f([&steps, i] { steps = i; });
    EXPECT_FALSE(f.finished());
    f.resume();
    EXPECT_TRUE(f.finished());
    EXPECT_EQ(steps, i);
    total += steps;
  }  // Destroying a finished fiber is a no-op.
  EXPECT_EQ(total, 6);
}

TEST(Fiber, YieldSuspendsAndResumes) {
  std::vector<int> trace;
  Fiber* self = nullptr;
  Fiber f([&] {
    trace.push_back(1);
    self->yield();
    trace.push_back(2);
    self->yield();
    trace.push_back(3);
  });
  self = &f;
  f.resume();
  EXPECT_EQ(trace, (std::vector<int>{1}));
  f.resume();
  EXPECT_EQ(trace, (std::vector<int>{1, 2}));
  EXPECT_FALSE(f.finished());
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(trace, (std::vector<int>{1, 2, 3}));
}

TEST(Fiber, KillUnwindsStack) {
  bool destroyed = false;
  struct Sentinel {
    bool* flag;
    ~Sentinel() { *flag = true; }
  };
  Fiber* self = nullptr;
  {
    Fiber f([&] {
      Sentinel s{&destroyed};
      self->yield();  // Never resumed normally.
      FAIL() << "should not get here";
    });
    self = &f;
    f.resume();
    EXPECT_FALSE(destroyed);
  }  // Destructor kills the fiber.
  EXPECT_TRUE(destroyed);
}

TEST(Fiber, KillNeverStartedIsSafe) {
  Fiber f([] { FAIL() << "body must not run"; });
  // Destructor only: the body never runs.
}

struct Guard {
  std::vector<int>* log;
  int depth;
  ~Guard() { log->push_back(depth); }
};

// Recurse `depth` frames, each holding a Guard; at the bottom, throw and
// swallow an unrelated exception, then suspend for good.
void descend_and_suspend(Process& p, std::vector<int>& log, int depth,
                         bool& swallowed) {
  Guard g{&log, depth};
  if (depth > 1) {
    descend_and_suspend(p, log, depth - 1, swallowed);
    return;
  }
  try {
    throw std::runtime_error("unrelated");
  } catch (const std::runtime_error&) {
    swallowed = true;
  }
  p.suspend();
  ADD_FAILURE() << "a killed process must not resume normally";
}

TEST(Fiber, KillUnwindsDeepFramesAfterASwallowedException) {
  Engine eng;
  std::vector<int> log;
  bool swallowed = false;
  bool after_kill = false;
  Process& deep = eng.spawn("deep", [&](Process& p) {
    descend_and_suspend(p, log, 5, swallowed);
  });
  // Another process kills it: the victim's stack unwinds from inside a
  // second fiber, and the killer carries on afterwards.
  eng.spawn("killer", [&](Process& p) {
    p.delay(10);
    EXPECT_TRUE(swallowed);
    EXPECT_TRUE(log.empty());
    eng.kill(deep);
    p.delay(10);
    after_kill = true;
  });
  eng.run();
  EXPECT_TRUE(deep.finished());
  EXPECT_EQ(log, (std::vector<int>{1, 2, 3, 4, 5}));  // Innermost first.
  EXPECT_TRUE(after_kill);
  EXPECT_FALSE(eng.deadlocked());
  EXPECT_EQ(eng.now(), 20);
}

TEST(Fiber, ThousandFibersReplayIdentically) {
  constexpr int kFibers = 1000;
  auto run_once = [] {
    std::vector<int> trace;
    std::vector<std::unique_ptr<Fiber>> fibers;
    fibers.reserve(kFibers);
    for (int i = 0; i < kFibers; ++i) {
      fibers.push_back(std::make_unique<Fiber>(
          [&trace, &fibers, i] {
            for (int k = 0; k <= i % 4; ++k) {
              trace.push_back(i * 8 + k);
              fibers[i]->yield();
            }
            trace.push_back(-i);
          },
          64 * 1024));
    }
    // A fixed, non-sequential resume order (7 is coprime to 1000), swept
    // until every fiber has finished.
    for (bool live = true; live;) {
      live = false;
      for (int n = 0; n < kFibers; ++n) {
        Fiber& f = *fibers[(n * 7) % kFibers];
        if (f.finished()) continue;
        f.resume();
        live = live || !f.finished();
      }
    }
    return trace;
  };
  const auto a = run_once();
  const auto b = run_once();
  // Every fiber records 1..4 steps plus its finish marker.
  EXPECT_EQ(a.size(), static_cast<std::size_t>(kFibers / 4 * (1 + 2 + 3 + 4) +
                                               kFibers));
  EXPECT_EQ(a, b);
}

TEST(Engine, EventsRunInTimeOrder) {
  Engine eng;
  std::vector<int> order;
  eng.schedule(30, [&] { order.push_back(3); });
  eng.schedule(10, [&] { order.push_back(1); });
  eng.schedule(20, [&] { order.push_back(2); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eng.now(), 30);
}

TEST(Engine, TiesBreakByScheduleOrder) {
  Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    eng.schedule(42, [&order, i] { order.push_back(i); });
  }
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, DelayAdvancesVirtualTime) {
  Engine eng;
  std::vector<Time> stamps;
  eng.spawn("p", [&](Process& p) {
    stamps.push_back(p.now());
    p.delay(100);
    stamps.push_back(p.now());
    p.delay(0);
    stamps.push_back(p.now());
    p.delay(50);
    stamps.push_back(p.now());
  });
  eng.run();
  EXPECT_EQ(stamps, (std::vector<Time>{0, 100, 100, 150}));
  EXPECT_EQ(eng.live_processes(), 0u);
}

TEST(Engine, SpawnStartTimeHonoured) {
  Engine eng;
  Time started = -1;
  eng.spawn("late", [&](Process& p) { started = p.now(); }, 777);
  eng.run();
  EXPECT_EQ(started, 777);
}

TEST(Engine, SuspendResumeAcrossProcesses) {
  Engine eng;
  std::vector<std::string> trace;
  Process& consumer = eng.spawn("consumer", [&](Process& p) {
    trace.push_back("c:wait");
    p.suspend();
    trace.push_back("c:resumed@" + std::to_string(p.now()));
  });
  eng.spawn("producer", [&](Process& p) {
    p.delay(500);
    trace.push_back("p:resume");
    consumer.resume_at(p.now() + 10);
  });
  eng.run();
  EXPECT_EQ(trace, (std::vector<std::string>{"c:wait", "p:resume",
                                             "c:resumed@510"}));
}

TEST(Engine, DeadlockDetected) {
  Engine eng;
  eng.spawn("stuck", [](Process& p) { p.suspend(); });
  eng.run();
  EXPECT_TRUE(eng.deadlocked());
  EXPECT_EQ(eng.live_processes(), 1u);
}

TEST(Engine, NoDeadlockWhenAllFinish) {
  Engine eng;
  eng.spawn("ok", [](Process& p) { p.delay(5); });
  eng.run();
  EXPECT_FALSE(eng.deadlocked());
}

TEST(Engine, RunUntilStopsClock) {
  Engine eng;
  int fired = 0;
  eng.schedule(100, [&] { ++fired; });
  eng.schedule(900, [&] { ++fired; });
  eng.run(500);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(eng.now(), 500);
  eng.run();
  EXPECT_EQ(fired, 2);
}

TEST(Engine, ManyProcessesInterleaveDeterministically) {
  auto run_once = [] {
    Engine eng;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i) {
      eng.spawn("p" + std::to_string(i), [&order, i](Process& p) {
        for (int k = 0; k < 3; ++k) {
          p.delay(10 * (i + 1));
          order.push_back(i);
        }
      });
    }
    eng.run();
    return order;
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 24u);
}

TEST(Engine, TeardownWithLiveProcessesUnwinds) {
  bool destroyed = false;
  struct Sentinel {
    bool* flag;
    ~Sentinel() { *flag = true; }
  };
  {
    Engine eng;
    eng.spawn("held", [&](Process& p) {
      Sentinel s{&destroyed};
      p.suspend();
    });
    eng.run();
    EXPECT_TRUE(eng.deadlocked());
  }
  EXPECT_TRUE(destroyed);
}

}  // namespace
