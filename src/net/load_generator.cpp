#include "net/load_generator.hpp"

namespace nscc::net {

LoadGenerator::LoadGenerator(sim::Engine& engine, SharedBus& bus,
                             const LoadGeneratorConfig& config)
    : engine_(engine), bus_(bus), config_(config), rng_(config.seed) {
  if (config.offered_bps <= 0.0) {
    running_ = false;
    return;
  }
  mean_period_s_ = static_cast<double>(config.frame_payload_bytes) * 8.0 /
                   config.offered_bps;
  // Self-rescheduling injection event; pure engine-context, no fiber needed.
  engine_.schedule(engine_.now(), [this] { inject(); });
}

void LoadGenerator::inject() {
  if (!running_) return;
  bus_.transmit(config_.frame_payload_bytes, [](sim::Time) {});
  ++frames_injected_;
  const double period_s = config_.poisson
                              ? rng_.exponential(1.0 / mean_period_s_)
                              : mean_period_s_;
  engine_.schedule(engine_.now() + sim::from_seconds(period_s),
                   [this] { inject(); });
}

}  // namespace nscc::net
