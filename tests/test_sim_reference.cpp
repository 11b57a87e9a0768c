// Differential check of every acyclic simulation entry point against an
// independent scalar reference: eval_gate() over Netlist::topo_span(), one
// word per GateId. Simulator::run/run_full/run_batch and the Oracle's
// query/query_words/query_batch all share one compiled sweep, so comparing
// them with each other alone would not catch a bug in that sweep.
#include <gtest/gtest.h>

#include <random>
#include <string>

#include "attacks/oracle.h"
#include "core/locked_circuit.h"
#include "locking/scheme.h"
#include "netlist/profiles.h"
#include "netlist/simulator.h"
#include "netlist/structure.h"

namespace fl::netlist {
namespace {

using attacks::Oracle;

constexpr std::size_t kWordCounts[] = {1, 3, 7, 8, 13, 69};

// Value of every net (indexed by GateId) under one word of stimulus.
std::vector<Word> reference_nets(const Netlist& net,
                                 std::span<const Word> inputs,
                                 std::span<const Word> keys) {
  std::vector<Word> value(net.num_gates(), 0);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    value[net.inputs()[i]] = inputs[i];
  }
  for (std::size_t k = 0; k < keys.size(); ++k) value[net.keys()[k]] = keys[k];
  std::vector<Word> fanin;
  for (const GateId g : net.topo_span()) {
    const GateType type = net.gate_type(g);
    if (type == GateType::kInput || type == GateType::kKey) continue;
    fanin.clear();
    for (const GateId f : net.fanin(g)) fanin.push_back(value[f]);
    value[g] = eval_gate(type, fanin);
  }
  return value;
}

std::vector<Word> reference_outputs(const Netlist& net,
                                    std::span<const Word> inputs,
                                    std::span<const Word> keys) {
  const std::vector<Word> value = reference_nets(net, inputs, keys);
  std::vector<Word> out;
  for (const OutputPort& o : net.outputs()) out.push_back(value[o.gate]);
  return out;
}

// Word w of every row of a net-major matrix with `n_words` columns.
std::vector<Word> column(const std::vector<Word>& matrix, std::size_t rows,
                         std::size_t n_words, std::size_t w) {
  std::vector<Word> col(rows);
  for (std::size_t r = 0; r < rows; ++r) col[r] = matrix[r * n_words + w];
  return col;
}

std::vector<Word> random_words(std::size_t n, std::mt19937_64& rng) {
  std::vector<Word> w(n);
  for (Word& x : w) x = rng();
  return w;
}

// Random DAG over every gate type: n-ary gates up to arity 12, MUXes,
// constants scattered among the logic, and output ports that are primary
// inputs, keys, constants and duplicates of other ports.
Netlist random_mixed_circuit(std::uint64_t seed, std::size_t n_in,
                             std::size_t n_key, std::size_t n_gates) {
  std::mt19937_64 rng(seed);
  Netlist net("mixed" + std::to_string(seed));
  std::vector<GateId> nets;
  for (std::size_t i = 0; i < n_in; ++i) {
    nets.push_back(net.add_input("i" + std::to_string(i)));
  }
  for (std::size_t k = 0; k < n_key; ++k) {
    nets.push_back(net.add_key("k" + std::to_string(k)));
  }
  const GateId c0 = net.add_const(false);
  const GateId c1 = net.add_const(true);
  nets.push_back(c0);
  nets.push_back(c1);
  // Logic types are the contiguous enum range kBuf..kMux.
  const int first_logic = static_cast<int>(GateType::kBuf);
  const int n_logic = static_cast<int>(GateType::kMux) - first_logic + 1;
  const auto pick = [&] {
    // Mostly recent nets (deep logic), sometimes any net (wide fanout).
    const std::size_t span =
        rng() % 4 == 0 ? nets.size() : std::min<std::size_t>(nets.size(), 24);
    return nets[nets.size() - 1 - rng() % span];
  };
  for (std::size_t g = 0; g < n_gates; ++g) {
    if (g % 41 == 40) nets.push_back(net.add_const(rng() % 2 == 0));
    const GateType type =
        static_cast<GateType>(first_logic + static_cast<int>(rng() % n_logic));
    const int fixed = fixed_arity(type);
    const std::size_t arity =
        fixed >= 0 ? static_cast<std::size_t>(fixed)
                   : 2 + rng() % (rng() % 5 == 0 ? 11 : 3);
    std::vector<GateId> fanin(arity);
    for (GateId& f : fanin) f = pick();
    nets.push_back(net.add_gate(type, fanin));
  }
  for (std::size_t o = 0; o < 6; ++o) {
    net.mark_output(nets[nets.size() - 1 - o]);
  }
  net.mark_output(net.inputs()[0], "pi_out");
  if (n_key > 0) net.mark_output(net.keys()[n_key - 1], "key_out");
  net.mark_output(c0, "const0_out");
  net.mark_output(c1, "const1_out");
  net.mark_output(net.outputs()[0].gate, "dup_out");
  return net;
}

// run(), run_full() and run_batch() (every word count, broadcast and
// per-word keys) against the reference.
void expect_simulator_matches_reference(const Netlist& net,
                                        std::uint64_t seed) {
  const Simulator sim(net);
  const std::size_t n_in = net.num_inputs();
  const std::size_t n_key = net.num_keys();
  const std::size_t n_out = net.num_outputs();
  std::mt19937_64 rng(seed);
  for (int trial = 0; trial < 4; ++trial) {
    const std::vector<Word> in = random_words(n_in, rng);
    const std::vector<Word> keys = random_words(n_key, rng);
    EXPECT_EQ(sim.run_full(in, keys), reference_nets(net, in, keys));
    EXPECT_EQ(sim.run(in, keys), reference_outputs(net, in, keys));
  }
  Simulator::Scratch scratch;  // reused across word counts
  for (const std::size_t n_words : kWordCounts) {
    for (const bool broadcast : {true, false}) {
      SCOPED_TRACE("n_words " + std::to_string(n_words) +
                   (broadcast ? " broadcast keys" : " per-word keys"));
      const std::vector<Word> in = random_words(n_in * n_words, rng);
      const std::vector<Word> keys =
          random_words(broadcast ? n_key : n_key * n_words, rng);
      std::vector<Word> got(n_out * n_words);
      sim.run_batch(in, keys, n_words, scratch, got);
      std::vector<Word> want(n_out * n_words);
      for (std::size_t w = 0; w < n_words; ++w) {
        const std::vector<Word> key_w =
            broadcast ? keys : column(keys, n_key, n_words, w);
        const std::vector<Word> ref =
            reference_outputs(net, column(in, n_in, n_words, w), key_w);
        for (std::size_t o = 0; o < n_out; ++o) want[o * n_words + w] = ref[o];
      }
      EXPECT_EQ(got, want);
    }
  }
}

TEST(SimReference, RandomMixedCircuits) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Netlist net = random_mixed_circuit(seed, 10, 6, 600);
    expect_simulator_matches_reference(net, seed * 31);
  }
}

TEST(SimReference, SourceOnlyAndEmptyLogic) {
  // No logic at all: outputs read inputs, keys and constants directly.
  Netlist net;
  const GateId a = net.add_input("a");
  const GateId k = net.add_key("k");
  net.mark_output(k, "k_out");
  net.mark_output(net.add_const(true), "one");
  net.mark_output(a, "a_out");
  net.mark_output(a, "a_again");
  expect_simulator_matches_reference(net, 5);
}

TEST(SimReference, OracleEntryPoints) {
  const Netlist net = random_mixed_circuit(9, 12, 0, 800);
  const Oracle oracle(net);
  const std::size_t n_in = net.num_inputs();
  const std::size_t n_out = net.num_outputs();
  std::mt19937_64 rng(77);
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<bool> bits(n_in);
    std::vector<Word> words(n_in);
    for (std::size_t i = 0; i < n_in; ++i) {
      bits[i] = (rng() & 1) != 0;
      words[i] = bits[i] ? ~Word{0} : Word{0};
    }
    const std::vector<Word> ref = reference_outputs(net, words, {});
    const std::vector<bool> got = oracle.query(bits);
    ASSERT_EQ(got.size(), n_out);
    for (std::size_t o = 0; o < n_out; ++o) {
      EXPECT_EQ(got[o], (ref[o] & 1) != 0) << "output " << o;
    }
  }
  for (int trial = 0; trial < 4; ++trial) {
    const std::vector<Word> in = random_words(n_in, rng);
    EXPECT_EQ(oracle.query_words(in, 64), reference_outputs(net, in, {}));
  }
  for (const std::size_t n_words : kWordCounts) {
    SCOPED_TRACE("n_words " + std::to_string(n_words));
    const std::vector<Word> in = random_words(n_in * n_words, rng);
    std::vector<Word> got(n_out * n_words);
    oracle.query_batch(in, n_words, n_words * 64, got);
    std::vector<Word> want(n_out * n_words);
    for (std::size_t w = 0; w < n_words; ++w) {
      const std::vector<Word> ref =
          reference_outputs(net, column(in, n_in, n_words, w), {});
      for (std::size_t o = 0; o < n_out; ++o) want[o * n_words + w] = ref[o];
    }
    EXPECT_EQ(got, want);
  }
}

TEST(SimReference, EveryAcyclicRegistrySchemeLock) {
  const Netlist original = make_circuit("c432", 2);
  std::size_t checked = 0;
  for (const lock::LockScheme* scheme : lock::registry()) {
    if (scheme->caps().may_be_cyclic) continue;
    SCOPED_TRACE(std::string(scheme->name()));
    // Cross-lock's default crossbar needs more antichain wires than c432
    // offers.
    const std::string_view params =
        scheme->name() == "cross-lock" ? "sources=8" : "";
    const core::LockedCircuit locked =
        scheme->lock(original, lock::make_options(3, {}, params));
    ASSERT_FALSE(locked.netlist.is_cyclic());
    expect_simulator_matches_reference(locked.netlist, 11);
    ++checked;
  }
  EXPECT_GE(checked, 6u);
}

TEST(SimReference, KeyConeFixedRegion) {
  const Netlist original = make_circuit("c880", 1);
  const core::LockedCircuit locked =
      lock::lock_with("rll", original, lock::make_options(4, {}, "keys=16"));
  KeyConePartition partition(locked.netlist);
  const Netlist& fixed = partition.fixed_region();
  ASSERT_EQ(fixed.num_keys(), 0u);
  ASSERT_GT(fixed.num_outputs(), 0u);
  expect_simulator_matches_reference(fixed, 13);
}

}  // namespace
}  // namespace fl::netlist
