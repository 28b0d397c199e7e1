#include "nn/train.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>
#include <utility>

#include "harness/policy.hpp"
#include "net/load_generator.hpp"
#include "recovery/recovery.hpp"

namespace nscc::nn {

namespace {

constexpr int kGradientTag = 950;

sim::Time gradient_cost(const Mlp& net, int batch, sim::Time per_mac) {
  // Forward + backward ~ 2 passes over the weights per example.
  return static_cast<sim::Time>(net.parameter_count()) * batch * 4 * per_mac;
}

sim::Time eval_cost(const Mlp& net, std::size_t examples, sim::Time per_mac) {
  return static_cast<sim::Time>(net.parameter_count()) *
         static_cast<sim::Time>(examples) * 2 * per_mac;
}

/// Server checkpoint: the model plus the per-worker applied frontier.  The
/// gradient stream has no collective framing (each message is step-stamped),
/// so a snapshot is safe at any message boundary.
class ServerSnapshot : public recovery::Checkpointable {
 public:
  ServerSnapshot(Mlp& net, std::vector<int>& applied,
                 dsm::Iteration& published_round, int& applications)
      : net_(net),
        applied_(applied),
        published_round_(published_round),
        applications_(applications) {}

  rt::Packet checkpoint_state() override {
    rt::Packet p;
    p.pack_double_vec(net_.parameters());
    p.pack_u32(static_cast<std::uint32_t>(applied_.size()));
    for (int a : applied_) p.pack_i32(a);
    p.pack_i64(published_round_);
    p.pack_i32(applications_);
    return p;
  }

  void restore_state(rt::Packet& p) override {
    net_.set_parameters(p.unpack_double_vec());
    const std::uint32_t n = p.unpack_u32();
    applied_.assign(n, 0);
    for (std::uint32_t i = 0; i < n; ++i) applied_[i] = p.unpack_i32();
    published_round_ = p.unpack_i64();
    applications_ = p.unpack_i32();
  }

 private:
  Mlp& net_;
  std::vector<int>& applied_;
  dsm::Iteration& published_round_;
  int& applications_;
};

/// Worker checkpoint: loop position plus the last-seen parameters (the next
/// step refreshes them from the shared space anyway; carrying them keeps a
/// cold cache from training on initialisation weights).
class WorkerSnapshot : public recovery::Checkpointable {
 public:
  WorkerSnapshot(int& step_done, std::size_t& cursor, Mlp& net)
      : step_done_(step_done), cursor_(cursor), net_(net) {}

  rt::Packet checkpoint_state() override {
    rt::Packet p;
    p.pack_i32(step_done_);
    p.pack_u64(cursor_);
    p.pack_double_vec(net_.parameters());
    return p;
  }

  void restore_state(rt::Packet& p) override {
    step_done_ = p.unpack_i32();
    cursor_ = static_cast<std::size_t>(p.unpack_u64());
    net_.set_parameters(p.unpack_double_vec());
  }

 private:
  int& step_done_;
  std::size_t& cursor_;
  Mlp& net_;
};

}  // namespace

sim::Time TrainResult::time_to_loss(double target) const {
  for (const auto& [t, loss] : loss_trajectory) {
    if (loss <= target) return t;
  }
  return -1;
}

TrainResult train_sequential(const Dataset& data, const TrainConfig& config) {
  Mlp net(config.layers, config.seed);
  TrainResult result;
  sim::Time now = 0;
  std::vector<double> grad;
  const double speed = 1.0 + config.node_speed_spread / 2.0;
  util::Xoshiro256 jitter_rng(config.seed ^ 0x0b1);

  // Matches the parallel schedule: steps x workers mini-batches.
  const int total_steps = config.steps * config.workers;
  std::size_t cursor = 0;
  for (int step = 1; step <= total_steps; ++step) {
    net.gradient(data.inputs, data.targets, cursor,
                 static_cast<std::size_t>(config.batch_size), grad);
    net.apply_gradient(grad, config.learning_rate);
    cursor = (cursor + static_cast<std::size_t>(config.batch_size)) %
             data.size();
    const double jitter =
        1.0 + config.per_step_jitter * jitter_rng.uniform(-1.0, 1.0);
    now += static_cast<sim::Time>(
        static_cast<double>(gradient_cost(net, config.batch_size,
                                          config.cost_per_mac)) *
        speed * jitter);
    if (step % config.eval_every == 0) {
      now += static_cast<sim::Time>(
          static_cast<double>(eval_cost(net, data.size(), config.cost_per_mac)) *
          speed);
      result.loss_trajectory.emplace_back(now,
                                          net.loss(data.inputs, data.targets));
    }
  }
  result.completion_time = now;
  result.final_loss = net.loss(data.inputs, data.targets);
  result.final_accuracy = net.accuracy(data.inputs, data.targets);
  return result;
}

TrainResult train_parallel(const Dataset& data, const TrainConfig& config,
                           rt::MachineConfig machine) {
  const int P = config.workers;
  machine.ntasks = P + 1;  // Task 0 is the parameter server.
  machine.seed = config.seed;
  rt::VirtualMachine vm(machine);

  std::unique_ptr<recovery::Coordinator> coord;
  if (config.recovery.enabled()) {
    coord = std::make_unique<recovery::Coordinator>(vm, config.recovery);
  }
  recovery::Coordinator* rc = coord.get();

  util::Xoshiro256 skew_rng(config.seed ^ 0x5ca1eULL);
  std::vector<double> speed(static_cast<std::size_t>(P + 1));
  for (double& s : speed) {
    s = 1.0 + config.node_speed_spread * skew_rng.uniform01();
  }

  TrainResult result;
  util::RunningStats staleness;
  // Slot 0 is the server's space, slot w worker w's.
  std::vector<dsm::DsmStats> task_dsm(static_cast<std::size_t>(P + 1));

  // ---- parameter server -------------------------------------------------------
  vm.add_task("server", [&](rt::Task& task) {
    Mlp net(config.layers, config.seed);
    // The server publishes to everyone and blocks on no one, so it skips
    // the recovery wiring (and its watchdog floor) entirely.
    dsm::SharedSpace space(task, harness::make_policy(config, {}));
    std::vector<int> readers;
    for (int w = 1; w <= P; ++w) readers.push_back(w);
    space.declare_written(kParamsLoc, readers);

    auto publish = [&](dsm::Iteration round) {
      rt::Packet p;
      p.pack_double_vec(net.parameters());
      space.write(kParamsLoc, round, std::move(p));
    };

    std::vector<int> applied(static_cast<std::size_t>(P + 1), 0);
    std::vector<std::vector<double>> pending_sync(
        static_cast<std::size_t>(P + 1));
    dsm::Iteration published_round = 0;
    int applications = 0;

    ServerSnapshot snapshot(net, applied, published_round, applications);
    const std::int64_t restored =
        rc != nullptr ? rc->restore(task, snapshot) : -1;
    if (restored < 0) {
      publish(0);
      if (rc != nullptr) rc->maybe_checkpoint(task, 0, snapshot);
    } else {
      // Re-announce the restored model; gradients applied since the snapshot
      // (and any lost in the crash) are simply dropped progress.
      publish(published_round);
    }

    auto maybe_eval = [&] {
      if (applications % config.eval_every != 0) return;
      task.compute(static_cast<sim::Time>(
          static_cast<double>(eval_cost(net, data.size(), config.cost_per_mac)) *
          speed[0]));
      result.loss_trajectory.emplace_back(task.now(),
                                          net.loss(data.inputs, data.targets));
    };

    auto min_applied = [&] {
      int m = std::numeric_limits<int>::max();
      for (int w = 1; w <= P; ++w) {
        // Dead (or already finished) workers cannot contribute further
        // gradients; waiting on their frontier would block the run forever.
        if (rc != nullptr && !rc->alive(w)) continue;
        m = std::min(m, applied[static_cast<std::size_t>(w)]);
      }
      return m;
    };

    while (min_applied() < config.steps) {
      std::optional<rt::Message> maybe;
      if (rc != nullptr) {
        maybe = task.recv_timeout(kGradientTag,
                                  rc->config().heartbeat_interval);
        if (!maybe) {
          // No gradient this interval — membership may have changed.  The
          // published round is the min over *alive* workers, so a death can
          // advance it even with no new gradient; republishing here is what
          // unblocks survivors whose Global_Read was waiting on the dead
          // worker's frontier.
          if (config.mode != dsm::Mode::kSynchronous) {
            const int m = min_applied();
            if (m != std::numeric_limits<int>::max() &&
                static_cast<dsm::Iteration>(m) > published_round) {
              published_round = static_cast<dsm::Iteration>(m);
              publish(published_round);
            }
          }
          continue;
        }
      } else {
        maybe = task.recv(kGradientTag);
      }
      rt::Message msg = std::move(*maybe);
      const int step = msg.payload.unpack_i32();
      auto grad = msg.payload.unpack_double_vec();

      if (config.mode == dsm::Mode::kSynchronous) {
        // Collect all P gradients of the round, then apply them one after
        // another (same per-gradient learning rate as the serial baseline).
        pending_sync[static_cast<std::size_t>(msg.src)] = std::move(grad);
        applied[static_cast<std::size_t>(msg.src)] = step;
        bool round_full = true;
        for (int w = 1; w <= P; ++w) {
          round_full = round_full &&
                       applied[static_cast<std::size_t>(w)] >= step &&
                       !pending_sync[static_cast<std::size_t>(w)].empty();
        }
        if (round_full) {
          for (int w = 1; w <= P; ++w) {
            auto& g = pending_sync[static_cast<std::size_t>(w)];
            net.apply_gradient(g, config.learning_rate);
            g.clear();
            ++applications;
          }
          task.compute(static_cast<sim::Time>(
              static_cast<double>(
                  static_cast<sim::Time>(net.parameter_count()) * 2 *
                  static_cast<sim::Time>(P) * config.cost_per_mac) *
              speed[0]));
          published_round = step;
          publish(published_round);
          maybe_eval();
        }
      } else {
        // Stale-gradient SGD: apply on arrival at the full learning rate.
        net.apply_gradient(grad, config.learning_rate);
        ++applications;
        task.compute(static_cast<sim::Time>(
            static_cast<double>(static_cast<sim::Time>(net.parameter_count()) *
                                2 * config.cost_per_mac) *
            speed[0]));
        // Retransmits can leapfrog: a lost step-k gradient may be redelivered
        // after step k+1 already arrived.  The frontier is the max seen.
        applied[static_cast<std::size_t>(msg.src)] =
            std::max(applied[static_cast<std::size_t>(msg.src)], step);
        const auto round = static_cast<dsm::Iteration>(min_applied());
        if (round > published_round) {
          published_round = round;
          publish(published_round);
        }
        maybe_eval();
      }
      if (rc != nullptr) {
        rc->maybe_checkpoint(task, applications, snapshot);
      }
    }
    result.final_loss = net.loss(data.inputs, data.targets);
    result.final_accuracy = net.accuracy(data.inputs, data.targets);
    task_dsm[0] = space.stats();
  });

  // ---- workers -----------------------------------------------------------------
  for (int w = 1; w <= P; ++w) {
    vm.add_task("worker" + std::to_string(w), [&, w](rt::Task& task) {
      Mlp net(config.layers, config.seed);
      dsm::SharedSpace space(
          task, harness::make_policy(config, {.recovery = rc, .self = w}));
      space.declare_read(kParamsLoc, 0);
      util::Xoshiro256 jitter_rng = task.rng().split(0xba5e);
      const double my_speed = speed[static_cast<std::size_t>(w)];

      // Each worker strides through its own shard of mini-batches.
      std::size_t cursor = static_cast<std::size_t>(w - 1) *
                           static_cast<std::size_t>(config.batch_size);
      std::vector<double> grad;
      int step_done = 0;

      WorkerSnapshot snapshot(step_done, cursor, net);
      const std::int64_t restored =
          rc != nullptr ? rc->restore(task, snapshot) : -1;
      if (restored < 0 && rc != nullptr) {
        rc->maybe_checkpoint(task, 0, snapshot);
      }

      for (int step = step_done + 1; step <= config.steps; ++step) {
        const dsm::SharedSpace::Value* v = nullptr;
        switch (config.mode) {
          case dsm::Mode::kSynchronous:
            v = &space.global_read(kParamsLoc, step - 1, 0);
            break;
          case dsm::Mode::kPartialAsync:
            v = &space.global_read(kParamsLoc, step - 1, config.age);
            break;
          case dsm::Mode::kAsynchronous:
            v = &space.read(kParamsLoc);
            break;
        }
        if (v->valid) {
          rt::Packet params = v->data;
          net.set_parameters(params.unpack_double_vec());
          staleness.add(static_cast<double>(step - 1 - v->iteration));
        }

        net.gradient(data.inputs, data.targets, cursor,
                     static_cast<std::size_t>(config.batch_size), grad);
        cursor = (cursor + static_cast<std::size_t>(config.batch_size) *
                               static_cast<std::size_t>(P)) %
                 data.size();
        const double jitter =
            1.0 + config.per_step_jitter * jitter_rng.uniform(-1.0, 1.0);
        task.compute(static_cast<sim::Time>(
            static_cast<double>(gradient_cost(net, config.batch_size,
                                              config.cost_per_mac)) *
            my_speed * jitter));

        rt::Packet g;
        g.pack_i32(step);
        g.pack_double_vec(grad);
        task.send(0, kGradientTag, std::move(g));
        step_done = step;
        if (rc != nullptr) rc->maybe_checkpoint(task, step, snapshot);
      }
      task_dsm[static_cast<std::size_t>(w)] = space.stats();
    });
  }

  net::LoadGenerator loader(vm.engine(), vm.bus(),
                            net::LoadGeneratorConfig{
                                .offered_bps = config.loader_offered_bps,
                                .frame_payload_bytes = 1024,
                                .poisson = true,
                                .seed = config.seed ^ 0x70adULL,
                            });
  const sim::Time horizon = 24LL * 3600 * sim::kSecond;
  const sim::Time completion = vm.run(horizon);
  loader.stop();
  static_cast<harness::MachineStats&>(result) =
      harness::collect(vm, task_dsm, rc);
  result.completion_time = completion;
  result.deadlocked = result.deadlocked || completion >= horizon;
  result.mean_staleness = staleness.mean();
  return result;
}

}  // namespace nscc::nn
