// Network generators reproducing the paper's Table 2 test set.
//
// A, AA and C are "randomly generated" networks following Kozlov & Singh
// [12] as the paper describes: conceptually a completely interconnected DAG
// whose edges are deleted at random until the target edge count remains.
// The Hailfinder network itself is proprietary-era and its hosting site is
// gone, so make_hailfinder_like() synthesises a network matching Table 2's
// published structural statistics (56 nodes, ~1.2 edges/node, 4 values per
// node) with strongly skewed CPTs, as expected of a real diagnostic model —
// the property that makes default-value speculation effective (DESIGN.md
// records this substitution).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bayes/network.hpp"

namespace nscc::bayes {

struct RandomNetworkConfig {
  int nodes = 54;
  /// Target total edge count (Table 2 lists edges *per node*).
  int edges = 119;
  int cardinality = 2;
  /// Maximum parents per node, bounding CPT size (2^k rows for binary).
  int max_parents = 8;
  /// CPT skew: 0 = near-uniform rows, 1 = heavily skewed rows.
  double skew = 0.25;
  std::uint64_t seed = 1;
};

/// Random DAG per the paper's recipe, with random CPTs.
BeliefNetwork make_random_network(const RandomNetworkConfig& config);

/// The paper's three random networks with Table 2's parameters.
BeliefNetwork make_network_a();
BeliefNetwork make_network_aa();
BeliefNetwork make_network_c();

/// Hailfinder-like synthetic diagnostic network (see header comment).
BeliefNetwork make_hailfinder_like();

/// A belief network with the name tables print it under.
struct NamedNetwork {
  std::string name;
  BeliefNetwork net;
};

/// The paper's four-network test set, in Table 2 order: A, AA, C and
/// Hailfinder.
std::vector<NamedNetwork> table2_networks();

}  // namespace nscc::bayes
