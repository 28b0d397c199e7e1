#include "bayes/parallel_sampling.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <vector>

#include "harness/policy.hpp"
#include "net/load_generator.hpp"
#include "obs/obs.hpp"
#include "recovery/recovery.hpp"
#include "util/rng.hpp"

namespace nscc::bayes {

namespace {

/// Deterministic per-(iteration, node) uniform draw: rollback recomputation
/// re-derives identical randomness, so re-sampled values change only
/// downstream of corrected inputs.
double counter_uniform(std::uint64_t seed, std::uint64_t iter, NodeId node) {
  util::SplitMix64 sm(seed ^ (iter * 0x9E3779B97F4A7C15ULL) ^
                      (static_cast<std::uint64_t>(node) * 0xC2B2AE3D27D4EB4FULL));
  return static_cast<double>(sm.next() >> 11) * 0x1.0p-53;
}

/// Communication phase of each node: the number of cross-partition edges on
/// the longest ancestor path.  Within one iteration (one joint sample), a
/// node at phase k can be sampled once the peers' phase-(k-1) interface
/// values for that iteration are known, so a run pipelines through the
/// network in at most max-phase+1 exchange waves (paper Section 3.2:
/// processors receive parents' values and send their nodes' values within
/// each run).
std::vector<int> node_phases(const BeliefNetwork& net, const Partition& part) {
  std::vector<int> phase(static_cast<std::size_t>(net.size()), 0);
  for (NodeId v : net.topological_order()) {
    int ph = 0;
    for (NodeId p : net.node(v).parents) {
      const int cross = part.part_of(p) != part.part_of(v) ? 1 : 0;
      ph = std::max(ph, phase[static_cast<std::size_t>(p)] + cross);
    }
    phase[static_cast<std::size_t>(v)] = ph;
  }
  return phase;
}

struct TaskOutcome {
  std::vector<QueryEstimate> estimates;
  sim::Time first_met_time = -1;
  std::uint64_t validated = 0;
  std::uint64_t rollbacks = 0;
  std::uint64_t rolled_back_iterations = 0;
  std::uint64_t nodes_resampled = 0;
};

}  // namespace

ParallelInferenceResult run_parallel_logic_sampling(
    const BeliefNetwork& net, const std::vector<Evidence>& evidence,
    const std::vector<Query>& queries, const ParallelInferenceConfig& config,
    rt::MachineConfig machine) {
  const int P = config.parts;
  machine.ntasks = P;
  machine.seed = config.seed;

  PartitionConfig pc = config.partition;
  pc.parts = P;
  const Partition part = partition_network(net, pc);

  // Global views every task derives identically.
  const auto topo = net.topological_order();
  const auto defaults = net.default_values();
  const auto phase = node_phases(net, part);
  const int max_phase = *std::max_element(phase.begin(), phase.end());
  if (max_phase + 1 >= kMaxPhases) {
    throw std::logic_error("parallel sampling: partition needs too many phases");
  }

  // exports[p][k]: partition p's interface nodes of phase k (sorted), i.e.
  // p's nodes with a child in another partition.
  std::vector<std::vector<std::vector<NodeId>>> exports(
      static_cast<std::size_t>(P),
      std::vector<std::vector<NodeId>>(static_cast<std::size_t>(max_phase + 1)));
  for (NodeId v = 0; v < net.size(); ++v) {
    for (NodeId u : net.node(v).parents) {
      if (part.part_of(u) != part.part_of(v)) {
        auto& list = exports[static_cast<std::size_t>(part.part_of(u))]
                            [static_cast<std::size_t>(
                                phase[static_cast<std::size_t>(u)])];
        if (std::find(list.begin(), list.end(), u) == list.end()) {
          list.push_back(u);
        }
      }
    }
  }
  for (auto& per_part : exports) {
    for (auto& list : per_part) std::sort(list.begin(), list.end());
  }
  // The last phase block also carries the sender's evidence bit and acts as
  // the per-iteration completion marker, so it is always published.
  const int marker_phase = max_phase;

  rt::VirtualMachine vm(machine);

  std::unique_ptr<recovery::Coordinator> coord;
  if (config.recovery.enabled()) {
    coord = std::make_unique<recovery::Coordinator>(vm, config.recovery);
  }
  recovery::Coordinator* rc = coord.get();

  util::Xoshiro256 skew_rng(config.seed ^ 0x5ca1eULL);
  std::vector<double> speed(static_cast<std::size_t>(P));
  for (double& s : speed) {
    s = 1.0 + config.node_speed_spread * skew_rng.uniform01();
  }

  std::vector<TaskOutcome> outcomes(static_cast<std::size_t>(P));
  std::vector<dsm::DsmStats> part_dsm(static_cast<std::size_t>(P));
  const auto iterations = static_cast<std::int64_t>(config.iterations);

  for (int me = 0; me < P; ++me) {
    vm.add_task("part" + std::to_string(me), [&, me](rt::Task& task) {
      TaskOutcome& out = outcomes[static_cast<std::size_t>(me)];
      util::Xoshiro256 jitter_rng = task.rng().split(0xba5e);
      const double my_speed = speed[static_cast<std::size_t>(me)];
      const int N = net.size();

      // ---- static layout ---------------------------------------------------
      std::vector<std::vector<NodeId>> my_by_phase(
          static_cast<std::size_t>(max_phase + 1));
      std::vector<NodeId> my_nodes;
      for (NodeId v : topo) {
        if (part.part_of(v) == me) {
          my_nodes.push_back(v);
          my_by_phase[static_cast<std::size_t>(
                          phase[static_cast<std::size_t>(v)])]
              .push_back(v);
        }
      }
      std::vector<Evidence> my_evidence;
      for (const Evidence& e : evidence) {
        if (part.part_of(e.node) == me) my_evidence.push_back(e);
      }
      std::vector<Query> my_queries;
      for (const Query& q : queries) {
        if (part.part_of(q.node) == me) my_queries.push_back(q);
      }

      std::vector<int> all_others;
      for (int p = 0; p < P; ++p) {
        if (p != me) all_others.push_back(p);
      }

      // A phase block is "live" when non-empty or the marker phase.
      auto live = [&](int p, int k) {
        return !exports[static_cast<std::size_t>(p)][static_cast<std::size_t>(k)]
                    .empty() ||
               k == marker_phase;
      };
      // Highest live phase of peer p that is <= k-1 (what a phase-k sampler
      // must wait for); -1 when none.
      auto guard_phase = [&](int p, int k) {
        for (int j = k - 1; j >= 0; --j) {
          if (live(p, j)) return j;
        }
        return -1;
      };

      dsm::SharedSpace space(
          task, harness::make_policy(config, {.recovery = rc, .self = me}));
      for (int k = 0; k <= max_phase; ++k) {
        if (live(me, k)) space.declare_written(block_loc(me, k), all_others);
      }
      for (int p : all_others) {
        for (int k = 0; k <= max_phase; ++k) {
          if (live(p, k)) space.declare_read(block_loc(p, k), p);
        }
      }

      // ---- history -----------------------------------------------------------
      std::vector<std::vector<std::int8_t>> samples(static_cast<std::size_t>(N));
      for (NodeId v : my_nodes) {
        samples[static_cast<std::size_t>(v)].assign(
            static_cast<std::size_t>(iterations), -1);
      }
      // Authoritative received value / value actually used, per remote
      // interface node per iteration (same-iteration semantics).
      std::vector<std::vector<std::int8_t>> received(static_cast<std::size_t>(N));
      std::vector<std::vector<std::int8_t>> used(static_cast<std::size_t>(N));
      std::vector<std::int8_t> latest_value(static_cast<std::size_t>(N), -1);
      std::vector<std::int64_t> latest_iter(static_cast<std::size_t>(N), -1);
      for (int p : all_others) {
        for (int k = 0; k <= max_phase; ++k) {
          for (NodeId v :
               exports[static_cast<std::size_t>(p)][static_cast<std::size_t>(k)]) {
            received[static_cast<std::size_t>(v)].assign(
                static_cast<std::size_t>(iterations), -1);
            used[static_cast<std::size_t>(v)].assign(
                static_cast<std::size_t>(iterations), -1);
          }
        }
      }
      std::vector<std::int8_t> evidence_ok_local(
          static_cast<std::size_t>(iterations), -1);
      std::vector<std::vector<std::int8_t>> evidence_ok_remote(
          static_cast<std::size_t>(P));
      // Marker-phase receipt: implies (FIFO bus) all earlier phase blocks of
      // that iteration have arrived too.
      std::vector<std::vector<bool>> have_marker(static_cast<std::size_t>(P));
      std::vector<std::int64_t> contig(static_cast<std::size_t>(P), -1);
      for (int p : all_others) {
        evidence_ok_remote[static_cast<std::size_t>(p)].assign(
            static_cast<std::size_t>(iterations), -1);
        have_marker[static_cast<std::size_t>(p)].assign(
            static_cast<std::size_t>(iterations), false);
      }
      // Last published payload per (phase, iteration) for change detection.
      std::vector<std::vector<std::vector<std::int8_t>>> published(
          static_cast<std::size_t>(max_phase + 1),
          std::vector<std::vector<std::int8_t>>(
              static_cast<std::size_t>(iterations)));

      std::int64_t last_computed = -1;

      // dirty[t] = remote inputs of iteration t whose truth differed from
      // the value used (iterations are independent joint samples, so only
      // iteration t's dependents need recomputation).
      std::map<std::int64_t, std::vector<NodeId>> dirty;

      // Per remote interface node: my nodes reachable through my-partition
      // paths (the dependent set to recompute), in topological order.
      std::map<NodeId, std::vector<NodeId>> my_affected;
      {
        const auto kids = net.children();
        for (int p : all_others) {
          for (int k = 0; k <= max_phase; ++k) {
            for (NodeId v :
                 exports[static_cast<std::size_t>(p)][static_cast<std::size_t>(k)]) {
              std::vector<bool> reach(static_cast<std::size_t>(N), false);
              std::vector<NodeId> stack;
              for (NodeId c : kids[static_cast<std::size_t>(v)]) {
                if (part.part_of(c) == me) stack.push_back(c);
              }
              while (!stack.empty()) {
                const NodeId u = stack.back();
                stack.pop_back();
                if (reach[static_cast<std::size_t>(u)]) continue;
                reach[static_cast<std::size_t>(u)] = true;
                for (NodeId c : kids[static_cast<std::size_t>(u)]) {
                  if (part.part_of(c) == me) stack.push_back(c);
                }
              }
              std::vector<NodeId> affected;
              for (NodeId u : my_nodes) {
                if (reach[static_cast<std::size_t>(u)]) affected.push_back(u);
              }
              my_affected.emplace(v, std::move(affected));
            }
          }
        }
      }

      // ---- observer: every arriving block, including corrections -------------
      // Payload: [start_iter i64][count u32] then per iteration the phase's
      // exported node values (+ evidence bit on the marker phase).
      space.set_update_observer([&](dsm::LocationId loc, dsm::Iteration,
                                    rt::Packet& data) {
        const int src = (static_cast<int>(loc) - 500) / kMaxPhases;
        const int k = (static_cast<int>(loc) - 500) % kMaxPhases;
        const std::int64_t start = data.unpack_i64();
        const auto count = static_cast<std::int64_t>(data.unpack_u32());
        for (std::int64_t iter = start; iter < start + count; ++iter) {
          if (iter < 0 || iter >= iterations) continue;
          const auto t = static_cast<std::size_t>(iter);
          for (NodeId v : exports[static_cast<std::size_t>(src)]
                                 [static_cast<std::size_t>(k)]) {
            const auto value = static_cast<std::int8_t>(data.unpack_u8());
            received[static_cast<std::size_t>(v)][t] = value;
            if (iter >= latest_iter[static_cast<std::size_t>(v)]) {
              latest_iter[static_cast<std::size_t>(v)] = iter;
              latest_value[static_cast<std::size_t>(v)] = value;
            }
            // Mismatch against what was consumed (-1 = never consumed yet;
            // covers mid-iteration arrivals too).
            const std::int8_t u8 = used[static_cast<std::size_t>(v)][t];
            if (u8 != -1 && u8 != value) {
              dirty[iter].push_back(v);
            }
          }
          if (k == marker_phase) {
            evidence_ok_remote[static_cast<std::size_t>(src)][t] =
                static_cast<std::int8_t>(data.unpack_u8());
            have_marker[static_cast<std::size_t>(src)][t] = true;
            auto& c = contig[static_cast<std::size_t>(src)];
            while (c + 1 < iterations &&
                   have_marker[static_cast<std::size_t>(src)]
                              [static_cast<std::size_t>(c + 1)]) {
              ++c;
            }
          }
        }
      });

      // ---- sampling ------------------------------------------------------------
      auto remote_value = [&](NodeId p_node, std::int64_t t) -> int {
        const std::int8_t auth =
            received[static_cast<std::size_t>(p_node)][static_cast<std::size_t>(t)];
        if (auth >= 0) return auth;
        const std::int8_t latest = latest_value[static_cast<std::size_t>(p_node)];
        return latest >= 0 ? latest : defaults[static_cast<std::size_t>(p_node)];
      };

      auto refresh_evidence_bit = [&](std::int64_t t) {
        const auto ti = static_cast<std::size_t>(t);
        std::int8_t ok = 1;
        for (const Evidence& e : my_evidence) {
          if (samples[static_cast<std::size_t>(e.node)][ti] != e.value) {
            ok = 0;
            break;
          }
        }
        evidence_ok_local[ti] = ok;
      };

      auto sample_nodes = [&](std::int64_t t, const std::vector<NodeId>& which) {
        const auto ti = static_cast<std::size_t>(t);
        for (NodeId v : which) {
          const Node& n = net.node(v);
          std::size_t row = 0;
          for (NodeId p : n.parents) {
            int pv = 0;
            if (part.part_of(p) == me) {
              pv = samples[static_cast<std::size_t>(p)][ti];
            } else {
              pv = remote_value(p, t);
              // If a different value for p was already consumed at this
              // iteration (by an earlier wave or recompute pass), its other
              // consumers are now stale: flag p so the rollback machinery
              // re-heals the whole dependent closure.
              auto& slot = used[static_cast<std::size_t>(p)][ti];
              if (slot != -1 && slot != static_cast<std::int8_t>(pv)) {
                dirty[t].push_back(p);
              }
              slot = static_cast<std::int8_t>(pv);
            }
            row = row * static_cast<std::size_t>(net.node(p).cardinality) +
                  static_cast<std::size_t>(pv);
          }
          const double* probs =
              n.cpt.data() + row * static_cast<std::size_t>(n.cardinality);
          double ball =
              counter_uniform(config.seed, static_cast<std::uint64_t>(t), v);
          int value = n.cardinality - 1;
          for (int c = 0; c < n.cardinality - 1; ++c) {
            ball -= probs[c];
            if (ball < 0.0) {
              value = c;
              break;
            }
          }
          samples[static_cast<std::size_t>(v)][ti] =
              static_cast<std::int8_t>(value);
        }
        refresh_evidence_bit(t);
      };

      // ---- publication -----------------------------------------------------------
      int batch = config.batch;
      if (batch <= 0) {
        batch = config.mode == dsm::Mode::kPartialAsync
                    ? std::clamp<int>(static_cast<int>(config.age / 2), 1, 16)
                    : 1;
      }
      if (config.mode == dsm::Mode::kSynchronous) batch = 1;

      auto snapshot = [&](int k, std::int64_t t) {
        const auto ti = static_cast<std::size_t>(t);
        std::vector<std::int8_t> blob;
        for (NodeId v :
             exports[static_cast<std::size_t>(me)][static_cast<std::size_t>(k)]) {
          blob.push_back(samples[static_cast<std::size_t>(v)][ti]);
        }
        if (k == marker_phase) blob.push_back(evidence_ok_local[ti]);
        return blob;
      };
      auto flush_range = [&](int k, std::int64_t from, std::int64_t to) {
        rt::Packet p;
        p.pack_i64(from);
        p.pack_u32(static_cast<std::uint32_t>(to - from + 1));
        for (std::int64_t t = from; t <= to; ++t) {
          for (std::int8_t v :
               published[static_cast<std::size_t>(k)][static_cast<std::size_t>(t)]) {
            p.pack_u8(static_cast<std::uint8_t>(v));
          }
        }
        space.write(block_loc(me, k), to, std::move(p));
      };
      // First iteration not yet flushed, per phase.
      std::vector<std::int64_t> pending_from(
          static_cast<std::size_t>(max_phase + 1), 0);
      auto publish = [&](int k, std::int64_t t) {
        if (!live(me, k)) return;
        const auto blob = snapshot(k, t);
        const auto ti = static_cast<std::size_t>(t);
        auto& pub = published[static_cast<std::size_t>(k)];
        auto& pf = pending_from[static_cast<std::size_t>(k)];
        if (t < pf) {
          // Correction of an already-flushed iteration (anti-message role).
          if (pub[ti] == blob) return;
          pub[ti] = blob;
          flush_range(k, t, t);
          return;
        }
        pub[ti] = blob;
        if (t - pf + 1 >= batch) {
          flush_range(k, pf, t);
          pf = t + 1;
        }
      };

      // Rollback observability: the cascade counters publish through the
      // machine registry and each rollback lands as a trace instant on this
      // task's track (anti-message role, paper Section 3.2).
      obs::Hub* hub =
          task.vm().obs().active() ? &task.vm().obs() : nullptr;
      obs::Counter* rollback_counter =
          hub != nullptr ? &hub->registry().counter("bayes.rollbacks", me)
                         : nullptr;
      obs::Counter* resampled_counter =
          hub != nullptr
              ? &hub->registry().counter("bayes.nodes_resampled", me)
              : nullptr;

      auto handle_rollbacks = [&] {
        while (!dirty.empty()) {
          auto it = dirty.begin();
          const std::int64_t t = it->first;
          std::vector<bool> in_set(static_cast<std::size_t>(N), false);
          for (NodeId v : it->second) {
            for (NodeId u : my_affected.at(v)) {
              in_set[static_cast<std::size_t>(u)] = true;
            }
          }
          dirty.erase(it);
          std::vector<NodeId> affected;
          for (NodeId u : my_nodes) {
            if (in_set[static_cast<std::size_t>(u)]) affected.push_back(u);
          }
          ++out.rollbacks;
          ++out.rolled_back_iterations;
          if (hub != nullptr) {
            rollback_counter->inc();
            resampled_counter->inc(affected.size());
            hub->tracer().instant(me, "rollback", task.now(), "iter", t,
                                  "resampled",
                                  static_cast<std::int64_t>(affected.size()));
          }
          if (!affected.empty()) {
            sample_nodes(t, affected);
            out.nodes_resampled += affected.size();
          } else {
            refresh_evidence_bit(t);
          }
          for (int k = 0; k <= max_phase; ++k) publish(k, t);
          task.compute(static_cast<sim::Time>(
              static_cast<double>(static_cast<sim::Time>(affected.size()) *
                                      config.cost_per_node_sample +
                                  config.rollback_overhead) *
              my_speed));
          space.poll();  // New updates may have arrived during the delay.
        }
      };

      // ---- checkpoints -------------------------------------------------------
      std::vector<std::uint64_t> hits(my_queries.size(), 0);
      auto checkpoint = [&] {
        handle_rollbacks();
        // Validated frontier: marker blocks for every iteration <= v from
        // every peer, and everything locally computed.
        std::int64_t validated = last_computed;
        for (int p : all_others) {
          validated = std::min(validated, contig[static_cast<std::size_t>(p)]);
        }
        std::fill(hits.begin(), hits.end(), 0);
        std::uint64_t used_samples = 0;
        for (std::int64_t t = 0; t <= validated; ++t) {
          const auto ti = static_cast<std::size_t>(t);
          bool ok = evidence_ok_local[ti] == 1;
          for (int p : all_others) {
            ok = ok && evidence_ok_remote[static_cast<std::size_t>(p)][ti] == 1;
          }
          if (!ok) continue;
          ++used_samples;
          for (std::size_t q = 0; q < my_queries.size(); ++q) {
            if (samples[static_cast<std::size_t>(my_queries[q].node)][ti] ==
                my_queries[q].value) {
              ++hits[q];
            }
          }
        }
        out.validated = used_samples;
        bool met = used_samples > 0;
        for (std::size_t q = 0; q < my_queries.size(); ++q) {
          const auto ci =
              util::proportion_ci(hits[q], used_samples, config.confidence);
          if (ci.half_width() > config.precision) met = false;
        }
        if (met && out.first_met_time < 0) out.first_met_time = task.now();
        return used_samples;
      };

      // ---- crash-restart -----------------------------------------------------
      // Full-state checkpoint: the sample history and every consistency
      // structure the anti-message machinery runs on.  Restarting from it
      // is protocol-native — corrections for anything the dead incarnation
      // published but lost locally flow through the ordinary rollback path.
      auto pack_i8s = [](rt::Packet& pk, const std::vector<std::int8_t>& v) {
        for (std::int8_t b : v) pk.pack_u8(static_cast<std::uint8_t>(b));
      };
      auto unpack_i8s = [](rt::Packet& pk, std::vector<std::int8_t>& v) {
        for (auto& b : v) b = static_cast<std::int8_t>(pk.unpack_u8());
      };
      auto each_remote_iface = [&](auto&& fn) {
        for (int p : all_others) {
          for (int k = 0; k <= max_phase; ++k) {
            for (NodeId v : exports[static_cast<std::size_t>(p)]
                                   [static_cast<std::size_t>(k)]) {
              fn(v);
            }
          }
        }
      };
      recovery::FnCheckpoint app(
          [&] {
            rt::Packet pk;
            pk.pack_i64(last_computed);
            for (NodeId v : my_nodes) {
              pack_i8s(pk, samples[static_cast<std::size_t>(v)]);
            }
            pack_i8s(pk, evidence_ok_local);
            each_remote_iface([&](NodeId v) {
              const auto vi = static_cast<std::size_t>(v);
              pack_i8s(pk, received[vi]);
              pack_i8s(pk, used[vi]);
              pk.pack_u8(static_cast<std::uint8_t>(latest_value[vi]));
              pk.pack_i64(latest_iter[vi]);
            });
            for (int p : all_others) {
              const auto pi = static_cast<std::size_t>(p);
              pack_i8s(pk, evidence_ok_remote[pi]);
              for (bool b : have_marker[pi]) pk.pack_u8(b ? 1 : 0);
              pk.pack_i64(contig[pi]);
            }
            for (int k = 0; k <= max_phase; ++k) {
              const auto ki = static_cast<std::size_t>(k);
              for (std::int64_t t = 0; t < iterations; ++t) {
                const auto& blob = published[ki][static_cast<std::size_t>(t)];
                pk.pack_u32(static_cast<std::uint32_t>(blob.size()));
                pack_i8s(pk, blob);
              }
              pk.pack_i64(pending_from[ki]);
            }
            return pk;
          },
          [&](rt::Packet& pk) {
            last_computed = pk.unpack_i64();
            for (NodeId v : my_nodes) {
              unpack_i8s(pk, samples[static_cast<std::size_t>(v)]);
            }
            unpack_i8s(pk, evidence_ok_local);
            each_remote_iface([&](NodeId v) {
              const auto vi = static_cast<std::size_t>(v);
              unpack_i8s(pk, received[vi]);
              unpack_i8s(pk, used[vi]);
              latest_value[vi] = static_cast<std::int8_t>(pk.unpack_u8());
              latest_iter[vi] = pk.unpack_i64();
            });
            for (int p : all_others) {
              const auto pi = static_cast<std::size_t>(p);
              unpack_i8s(pk, evidence_ok_remote[pi]);
              for (std::int64_t t = 0; t < iterations; ++t) {
                have_marker[pi][static_cast<std::size_t>(t)] =
                    pk.unpack_u8() != 0;
              }
              contig[pi] = pk.unpack_i64();
            }
            for (int k = 0; k <= max_phase; ++k) {
              const auto ki = static_cast<std::size_t>(k);
              for (std::int64_t t = 0; t < iterations; ++t) {
                auto& blob = published[ki][static_cast<std::size_t>(t)];
                blob.assign(pk.unpack_u32(), 0);
                unpack_i8s(pk, blob);
              }
              pending_from[ki] = pk.unpack_i64();
            }
          });
      const std::int64_t restored = rc != nullptr ? rc->restore(task, app) : -1;
      if (restored < 0) {
        if (rc != nullptr) rc->maybe_checkpoint(task, 0, app);
      } else {
        // Re-write the newest flushed iteration per phase so the fresh
        // SharedSpace holds a local copy that can serve peer demands.
        for (int k = 0; k <= max_phase; ++k) {
          if (!live(me, k)) continue;
          const std::int64_t pf = pending_from[static_cast<std::size_t>(k)];
          if (pf > 0) flush_range(k, pf - 1, pf - 1);
        }
      }

      // ---- main loop -----------------------------------------------------------
      for (std::int64_t t = restored + 1; t < iterations; ++t) {
        if (config.mode == dsm::Mode::kSynchronous && t > 0) task.barrier();

        for (int k = 0; k <= max_phase; ++k) {
          if (k > 0) {
            for (int p : all_others) {
              const int g = guard_phase(p, k);
              if (g < 0) continue;
              switch (config.mode) {
                case dsm::Mode::kSynchronous:
                  (void)space.global_read(block_loc(p, g), t, 0);
                  break;
                case dsm::Mode::kPartialAsync:
                  // Within the first `age` iterations the gamble is free
                  // (nothing is required yet); afterwards Global_Read
                  // bounds the run-ahead.
                  if (t > config.age) {
                    (void)space.global_read(block_loc(p, g), t, config.age);
                  } else {
                    space.poll();
                  }
                  break;
                case dsm::Mode::kAsynchronous:
                  space.poll();
                  break;
              }
            }
          }
          sample_nodes(t, my_by_phase[static_cast<std::size_t>(k)]);
          if (k == marker_phase) last_computed = t;
          publish(k, t);
        }
        handle_rollbacks();

        const double jitter =
            1.0 + config.per_iter_jitter * jitter_rng.uniform(-1.0, 1.0);
        task.compute(static_cast<sim::Time>(
            static_cast<double>(static_cast<sim::Time>(my_nodes.size()) *
                                config.cost_per_node_sample) *
            my_speed * jitter));
        if (jitter_rng.bernoulli(config.stall_probability)) {
          task.compute(static_cast<sim::Time>(
              jitter_rng.uniform(static_cast<double>(config.stall_min),
                                 static_cast<double>(config.stall_max))));
        }

        if ((t + 1) % config.check_interval == 0 && out.first_met_time < 0) {
          (void)checkpoint();
        }
        if (rc != nullptr) rc->maybe_checkpoint(task, t, app);
      }

      // Flush any unsent batch tails before settling.
      for (int k = 0; k <= max_phase; ++k) {
        if (!live(me, k)) continue;
        auto& pf = pending_from[static_cast<std::size_t>(k)];
        if (pf <= iterations - 1) {
          flush_range(k, pf, iterations - 1);
          pf = iterations;
        }
      }

      // ---- settle: reach the cross-partition fixpoint ------------------------
      // Passing a barrier guarantees every message sent before any task's
      // barrier arrival has been delivered (single FIFO bus), so rounds of
      // "barrier; absorb; correct; OR-reduce whether anyone corrected"
      // terminate exactly when the sample stream is globally consistent.
      constexpr int kSettleBitTag = 900;
      constexpr int kSettleResultTag = 901;
      for (;;) {
        task.barrier();
        space.poll();
        const bool had_work = !dirty.empty();
        handle_rollbacks();  // May publish corrections for the next round.

        std::uint8_t global_had = had_work ? 1 : 0;
        if (me == 0) {
          for (int i = 1; i < P; ++i) {
            global_had |= task.recv(kSettleBitTag).payload.unpack_u8();
          }
          rt::Packet res;
          res.pack_u8(global_had);
          for (int i = 1; i < P; ++i) task.send(i, kSettleResultTag, res);
        } else {
          rt::Packet bit;
          bit.pack_u8(global_had);
          task.send(0, kSettleBitTag, std::move(bit));
          global_had = task.recv(kSettleResultTag).payload.unpack_u8();
        }
        if (global_had == 0) break;
      }

      const std::uint64_t used_samples = checkpoint();
      // Final estimates on validated samples.
      for (std::size_t q = 0; q < my_queries.size(); ++q) {
        QueryEstimate est;
        est.query = my_queries[q];
        est.probability = used_samples == 0
                              ? 0.0
                              : static_cast<double>(hits[q]) /
                                    static_cast<double>(used_samples);
        est.ci = util::proportion_ci(hits[q], used_samples, config.confidence);
        out.estimates.push_back(est);
      }
      part_dsm[static_cast<std::size_t>(me)] = space.stats();
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
  const sim::Time full_time = vm.run(horizon);
  loader.stop();

  ParallelInferenceResult result;
  static_cast<harness::MachineStats&>(result) =
      harness::collect(vm, part_dsm, rc);
  result.full_run_time = full_time;
  result.deadlocked = result.deadlocked || full_time >= horizon;
  result.iterations = config.iterations;
  if (vm.warp_meter().samples() > 0) {
    result.mean_warp = vm.warp_meter().overall().mean();
  }
  result.edge_cut = edge_cut(net, part);

  sim::Time completion = 0;
  result.converged = true;
  result.validated_samples = std::numeric_limits<std::uint64_t>::max();
  for (int p = 0; p < P; ++p) {
    const TaskOutcome& out = outcomes[static_cast<std::size_t>(p)];
    if (out.first_met_time < 0) {
      result.converged = false;
    } else {
      completion = std::max(completion, out.first_met_time);
    }
    result.rollbacks += out.rollbacks;
    result.rolled_back_iterations += out.rolled_back_iterations;
    result.nodes_resampled += out.nodes_resampled;
    result.validated_samples = std::min(result.validated_samples, out.validated);
    for (const QueryEstimate& est : out.estimates) {
      result.estimates.push_back(est);
    }
  }
  // Return estimates in the caller's query order, not partition order.
  std::vector<QueryEstimate> ordered;
  for (const Query& q : queries) {
    for (const QueryEstimate& est : result.estimates) {
      if (est.query.node == q.node && est.query.value == q.value) {
        ordered.push_back(est);
        break;
      }
    }
  }
  result.estimates = std::move(ordered);
  result.completion_time = result.converged ? completion : full_time;
  return result;
}

}  // namespace nscc::bayes
