// Differential check of Netlist's cached graph queries against the
// three-pass build they replaced, kept here as a tests-only reference:
// fanout CSR, then Kahn's FIFO walk that re-scans a consumer's fanin list
// for each fanout edge to find the pin's multiplicity, then a separate
// levels pass over the topological order. topo_span(), is_cyclic(), every
// fanout(id) row and levels_span() must equal it exactly on random acyclic
// and cyclic netlists (duplicate pins, self-loops), after structural edits,
// on every registry scheme's lock and on a key-cone fixed region.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "core/locked_circuit.h"
#include "locking/scheme.h"
#include "netlist/profiles.h"
#include "netlist/structure.h"

namespace fl::netlist {
namespace {

struct ReferenceGraph {
  bool cyclic = false;
  std::vector<GateId> topo;                 // empty when cyclic
  std::vector<std::vector<GateId>> fanout;  // dedup, ascending per row
  std::vector<int> levels;                  // empty when cyclic
};

ReferenceGraph reference_graph(const Netlist& net) {
  const std::size_t n = net.num_gates();
  ReferenceGraph ref;
  // Pass 1: fanout rows. Consumers in ascending id order, so a repeated pin
  // of one consumer lands next to its first.
  ref.fanout.resize(n);
  for (GateId g = 0; g < n; ++g) {
    for (const GateId f : net.fanin(g)) {
      if (ref.fanout[f].empty() || ref.fanout[f].back() != g) {
        ref.fanout[f].push_back(g);
      }
    }
  }
  // Pass 2: Kahn's algorithm; a gate reading the same net k times has its
  // pending count decremented by k at once.
  std::vector<std::size_t> pending(n);
  for (GateId g = 0; g < n; ++g) pending[g] = net.fanin_size(g);
  for (GateId g = 0; g < n; ++g) {
    if (pending[g] == 0) ref.topo.push_back(g);
  }
  for (std::size_t head = 0; head < ref.topo.size(); ++head) {
    const GateId g = ref.topo[head];
    for (const GateId out : ref.fanout[g]) {
      const auto fanin = net.fanin(out);
      pending[out] -= static_cast<std::size_t>(
          std::count(fanin.begin(), fanin.end(), g));
      if (pending[out] == 0) ref.topo.push_back(out);
    }
  }
  ref.cyclic = ref.topo.size() != n;
  if (ref.cyclic) {
    ref.topo.clear();
    return ref;
  }
  // Pass 3: levels over the topological order.
  ref.levels.assign(n, 0);
  for (const GateId g : ref.topo) {
    int level = 0;
    for (const GateId f : net.fanin(g)) {
      level = std::max(level, ref.levels[f] + 1);
    }
    ref.levels[g] = level;
  }
  return ref;
}

template <typename T>
std::vector<T> to_vector(std::span<const T> s) {
  return std::vector<T>(s.begin(), s.end());
}

void expect_graph_matches_reference(const Netlist& net) {
  const ReferenceGraph ref = reference_graph(net);
  ASSERT_EQ(net.is_cyclic(), ref.cyclic);
  EXPECT_EQ(to_vector(net.topo_span()), ref.topo);
  EXPECT_EQ(to_vector(net.levels_span()), ref.levels);
  EXPECT_EQ(net.topological_order().has_value(), !ref.cyclic);
  EXPECT_EQ(net.levels().has_value(), !ref.cyclic);
  for (GateId g = 0; g < net.num_gates(); ++g) {
    ASSERT_EQ(to_vector(net.fanout(g)), ref.fanout[g]) << "fanout of " << g;
  }
  EXPECT_EQ(net.fanout_map(), ref.fanout);
}

constexpr GateType kLogicTypes[] = {
    GateType::kBuf, GateType::kNot, GateType::kAnd,  GateType::kNand,
    GateType::kOr,  GateType::kNor, GateType::kXor,  GateType::kXnor,
    GateType::kMux,
};

std::size_t arity_for(GateType type, std::mt19937_64& rng) {
  const int fixed = fixed_arity(type);
  return fixed >= 0 ? static_cast<std::size_t>(fixed) : 2 + rng() % 4;
}

// Random netlist in id order. Fanins are drawn mostly from the last few
// nets, so repeated pins (AND(a, a, b)) are common.
Netlist random_netlist(std::mt19937_64& rng, std::size_t n_gates) {
  Netlist net("random");
  const std::size_t n_inputs = 1 + rng() % 5;
  for (std::size_t i = 0; i < n_inputs; ++i) {
    net.add_input("i" + std::to_string(i));
  }
  for (std::size_t k = rng() % 3; k > 0; --k) {
    net.add_key("keyinput" + std::to_string(k));
  }
  if (rng() % 2 == 0) net.add_const(rng() % 2 == 0);
  for (std::size_t g = 0; g < n_gates; ++g) {
    const GateType type = kLogicTypes[rng() % std::size(kLogicTypes)];
    std::vector<GateId> fanin(arity_for(type, rng));
    const std::size_t window = std::min<std::size_t>(net.num_gates(), 6);
    for (GateId& f : fanin) {
      f = static_cast<GateId>(rng() % 4 == 0
                                  ? rng() % net.num_gates()
                                  : net.num_gates() - 1 - rng() % window);
    }
    net.add_gate(type, fanin);
  }
  for (std::size_t o = 1 + rng() % 3; o > 0; --o) {
    net.mark_output(static_cast<GateId>(rng() % net.num_gates()));
  }
  return net;
}

GateId random_logic_gate(const Netlist& net, std::mt19937_64& rng) {
  for (;;) {
    const GateId g = static_cast<GateId>(rng() % net.num_gates());
    if (!is_source(net.gate_type(g))) return g;
  }
}

TEST(GraphReference, RandomAcyclicNetlists) {
  std::mt19937_64 rng(101);
  for (int round = 0; round < 300; ++round) {
    const Netlist net = random_netlist(rng, 1 + rng() % 120);
    SCOPED_TRACE(round);
    ASSERT_FALSE(net.is_cyclic());
    expect_graph_matches_reference(net);
  }
}

TEST(GraphReference, RandomCyclicNetlists) {
  std::mt19937_64 rng(202);
  std::size_t cyclic = 0;
  for (int round = 0; round < 300; ++round) {
    Netlist net = random_netlist(rng, 2 + rng() % 120);
    // Re-point a few pins anywhere, forward edges and self-loops included.
    for (std::size_t e = 1 + rng() % 3; e > 0; --e) {
      const GateId g = random_logic_gate(net, rng);
      std::vector<GateId> fanin = net.gate(g).fanin_vector();
      fanin[rng() % fanin.size()] =
          rng() % 3 == 0 ? g : static_cast<GateId>(rng() % net.num_gates());
      net.set_fanin(g, fanin);
    }
    SCOPED_TRACE(round);
    cyclic += net.is_cyclic() ? 1 : 0;
    expect_graph_matches_reference(net);
  }
  EXPECT_GT(cyclic, 100u);
}

TEST(GraphReference, HandWrittenShapes) {
  {
    const Netlist empty;
    expect_graph_matches_reference(empty);
  }
  Netlist net;
  const GateId a = net.add_input("a");
  const GateId b = net.add_input("b");
  const GateId dup = net.add_gate(GateType::kAnd, {a, a, b});
  const GateId mux = net.add_gate(GateType::kMux, {dup, dup, dup});
  net.mark_output(mux, "y");
  expect_graph_matches_reference(net);
  EXPECT_EQ(to_vector(net.fanout(a)), std::vector<GateId>{dup});
  EXPECT_EQ(net.levels_span()[mux], 2);
  // Self-loop with a repeated pin.
  const GateId loop = net.add_gate(GateType::kOr, {a, b});
  net.set_fanin(loop, {loop, loop});
  expect_graph_matches_reference(net);
  EXPECT_TRUE(net.is_cyclic());
}

TEST(GraphReference, AfterStructuralEdits) {
  std::mt19937_64 rng(303);
  for (int round = 0; round < 100; ++round) {
    Netlist net = random_netlist(rng, 10 + rng() % 80);
    SCOPED_TRACE(round);
    for (int edit = 0; edit < 8; ++edit) {
      expect_graph_matches_reference(net);  // fills the cache first
      const GateId g = random_logic_gate(net, rng);
      switch (rng() % 4) {
        case 0:  // replace_net, possibly creating a cycle
          net.replace_net(static_cast<GateId>(rng() % net.num_gates()),
                          static_cast<GateId>(rng() % net.num_gates()));
          break;
        case 1: {  // growing set_fanin relocates the arena segment
          if (fixed_arity(net.gate_type(g)) >= 0) break;
          std::vector<GateId> fanin = net.gate(g).fanin_vector();
          fanin.push_back(fanin.front());
          fanin.push_back(static_cast<GateId>(rng() % g));
          net.set_fanin(g, fanin);
          break;
        }
        case 2: {  // retype within the same arity class
          const bool unary = net.fanin_size(g) == 1;
          const bool mux = net.gate_type(g) == GateType::kMux;
          if (!unary && !mux) {
            net.retype(g, rng() % 2 == 0 ? GateType::kXnor : GateType::kNor);
          } else if (unary) {
            net.retype(g, GateType::kNot);
          }
          break;
        }
        case 3:  // append a gate reading existing nets
          net.add_gate(GateType::kXor,
                       {static_cast<GateId>(rng() % net.num_gates()), g});
          break;
      }
    }
    expect_graph_matches_reference(net);
  }
}

TEST(GraphReference, EveryRegistrySchemeLockAndFixedRegion) {
  const Netlist original = make_circuit("c432", 2);
  expect_graph_matches_reference(original);
  std::size_t checked = 0;
  for (const lock::LockScheme* scheme : lock::registry()) {
    SCOPED_TRACE(std::string(scheme->name()));
    // Cross-lock's default crossbar needs more antichain wires than c432
    // offers.
    const std::string_view params =
        scheme->name() == "cross-lock" ? "sources=8" : "";
    const core::LockedCircuit locked =
        scheme->lock(original, lock::make_options(3, {}, params));
    expect_graph_matches_reference(locked.netlist);
    ++checked;
  }
  EXPECT_GE(checked, 8u);

  const core::LockedCircuit locked =
      lock::lock_with("rll", original, lock::make_options(4, {}, "keys=16"));
  KeyConePartition partition(locked.netlist);
  expect_graph_matches_reference(partition.fixed_region());
}

}  // namespace
}  // namespace fl::netlist
