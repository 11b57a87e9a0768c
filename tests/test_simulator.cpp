// Bit-parallel simulation: per-gate semantics, acyclic sweeps, cyclic
// relaxation, convergence masks.
#include <gtest/gtest.h>

#include <random>

#include "netlist/profiles.h"
#include "netlist/simulator.h"

namespace fl::netlist {
namespace {

TEST(EvalGate, TwoInputTruthTables) {
  const Word a = 0b0011;  // pattern: a = 0,0,1,1 over 4 slots? bits LSB-first
  const Word b = 0b0101;
  EXPECT_EQ(eval_gate(GateType::kAnd, std::vector<Word>{a, b}) & 0xF,
            Word{0b0001});
  EXPECT_EQ(eval_gate(GateType::kNand, std::vector<Word>{a, b}) & 0xF,
            Word{0b1110});
  EXPECT_EQ(eval_gate(GateType::kOr, std::vector<Word>{a, b}) & 0xF,
            Word{0b0111});
  EXPECT_EQ(eval_gate(GateType::kNor, std::vector<Word>{a, b}) & 0xF,
            Word{0b1000});
  EXPECT_EQ(eval_gate(GateType::kXor, std::vector<Word>{a, b}) & 0xF,
            Word{0b0110});
  EXPECT_EQ(eval_gate(GateType::kXnor, std::vector<Word>{a, b}) & 0xF,
            Word{0b1001});
  EXPECT_EQ(eval_gate(GateType::kBuf, std::vector<Word>{a}) & 0xF, a);
  EXPECT_EQ(eval_gate(GateType::kNot, std::vector<Word>{a}) & 0xF,
            Word{0b1100});
}

TEST(EvalGate, MuxSelectsSecondInputWhenSelHigh) {
  const Word sel = 0b10;
  const Word in_a = 0b01;
  const Word in_b = 0b10;
  // bit0: sel=0 -> a(bit0)=1; bit1: sel=1 -> b(bit1)=1.
  EXPECT_EQ(eval_gate(GateType::kMux, std::vector<Word>{sel, in_a, in_b}) & 3,
            Word{0b11});
}

TEST(EvalGate, NaryGates) {
  const std::vector<Word> fan{0b1110, 0b1101, 0b1011};
  EXPECT_EQ(eval_gate(GateType::kAnd, fan) & 0xF, Word{0b1000});
  EXPECT_EQ(eval_gate(GateType::kOr, fan) & 0xF, Word{0b1111});
  EXPECT_EQ(eval_gate(GateType::kXor, fan) & 0xF,
            Word{0b1110 ^ 0b1101 ^ 0b1011} & 0xF);
}

TEST(Simulator, C17KnownVectors) {
  const Netlist c17 = make_c17();
  const Simulator sim(c17);
  // All-zero input: 10=NAND(0,0)=1, 11=1, 16=NAND(0,1)=1, 19=1,
  // 22=NAND(1,1)=0, 23=0.
  const std::vector<Word> zeros(5, 0);
  const auto out0 = sim.run(zeros, {});
  EXPECT_EQ(out0[0] & 1, 0u);
  EXPECT_EQ(out0[1] & 1, 0u);
  // All-one input: 10=0, 11=0, 16=NAND(1,0)=1, 19=NAND(0,1)=1,
  // 22=NAND(0,1)=1, 23=NAND(1,1)=0.
  const std::vector<Word> ones(5, ~Word{0});
  const auto out1 = sim.run(ones, {});
  EXPECT_EQ(out1[0] & 1, 1u);
  EXPECT_EQ(out1[1] & 1, 0u);
}

TEST(Simulator, RejectsCyclicNetlist) {
  Netlist n;
  const GateId a = n.add_input("a");
  const GateId g1 = n.add_gate(GateType::kAnd, {a, a});
  const GateId g2 = n.add_gate(GateType::kOr, {g1, a});
  n.replace_fanin_of(g1, a, g2);
  n.mark_output(g2);
  EXPECT_THROW(Simulator{n}, std::invalid_argument);
}

TEST(Simulator, StimulusWidthChecked) {
  const Netlist c17 = make_c17();
  const Simulator sim(c17);
  const std::vector<Word> wrong(3, 0);
  EXPECT_THROW(sim.run(wrong, {}), std::invalid_argument);
}

TEST(Simulator, ThrowsAfterStructuralEdit) {
  // The compiled program is a snapshot: once the netlist grows, every entry
  // point refuses to answer for the old circuit.
  Netlist n;
  const GateId a = n.add_input("a");
  const GateId b = n.add_input("b");
  const GateId g = n.add_gate(GateType::kAnd, {a, b});
  n.mark_output(g, "y");
  const Simulator sim(n);
  const std::vector<Word> zeros(2, 0);
  EXPECT_EQ(sim.run(zeros, {}), std::vector<Word>{0});

  n.mark_output(n.add_gate(GateType::kNot, {g}), "z");
  EXPECT_EQ(eval_once(n, {false, false}, {}), (std::vector<bool>{false, true}));
  EXPECT_THROW(sim.run(zeros, {}), std::logic_error);
  EXPECT_THROW(sim.run_full(zeros, {}), std::logic_error);
  Simulator::Scratch scratch;
  std::vector<Word> out(2);
  EXPECT_THROW(sim.run_batch(zeros, {}, 1, scratch, out), std::logic_error);

  // In-place edits bump the generation too.
  const Simulator fresh(n);
  n.retype(g, GateType::kOr);
  EXPECT_THROW(fresh.run(zeros, {}), std::logic_error);
}

TEST(Simulator, OutputPortsAreReadLive) {
  // Port edits on existing nets do not change the compiled structure; the
  // simulator reads the current ports on every run.
  Netlist n;
  const GateId a = n.add_input("a");
  const GateId b = n.add_input("b");
  const GateId g = n.add_gate(GateType::kXor, {a, b});
  n.mark_output(g, "y");
  const Simulator sim(n);
  const std::vector<Word> in{0b1100, 0b1010};
  n.mark_output(a, "a_out");
  EXPECT_EQ(sim.run(in, {}), (std::vector<Word>{0b0110, 0b1100}));
  n.clear_outputs();
  n.mark_output(b, "b_out");
  EXPECT_EQ(sim.run(in, {}), std::vector<Word>{0b1010});
  Simulator::Scratch scratch;
  std::vector<Word> out(1);
  sim.run_batch(in, {}, 1, scratch, out);
  EXPECT_EQ(out, std::vector<Word>{0b1010});
}

TEST(SimulateCyclic, MatchesAcyclicOnDag) {
  // On an acyclic netlist, relaxation must agree with the topological sweep.
  const Netlist c17 = make_c17();
  const Simulator sim(c17);
  std::mt19937_64 rng(11);
  for (int round = 0; round < 8; ++round) {
    std::vector<Word> in(5);
    for (Word& w : in) w = rng();
    const auto expected = sim.run(in, {});
    const auto got = simulate_cyclic(c17, in, {});
    EXPECT_EQ(got.converged, ~Word{0});
    for (std::size_t o = 0; o < expected.size(); ++o) {
      EXPECT_EQ(expected[o], got.outputs[o]);
    }
  }
}

TEST(SimulateCyclic, LatchingCycleConverges) {
  // OR feedback loop: g = OR(a, g). From init 0 it settles at g = a.
  Netlist n;
  const GateId a = n.add_input("a");
  const GateId g = n.add_gate(GateType::kOr, {a, a});
  n.replace_fanin_of(g, a, g);  // only the second pin
  // Now g = OR(a, g)? replace_fanin_of replaced *all* pins; rebuild:
  n.set_fanin(g, {a, g});
  n.mark_output(g);
  const std::vector<Word> in{0b10};
  const auto result = simulate_cyclic(n, in, {});
  EXPECT_EQ(result.converged, ~Word{0});
  EXPECT_EQ(result.outputs[0] & 3, Word{0b10});
}

TEST(SimulateCyclic, OscillatingRingFlagsNonConvergence) {
  // g = NOT(g): classic oscillator; must be flagged, not looped forever.
  Netlist n;
  const GateId a = n.add_input("a");
  const GateId g = n.add_gate(GateType::kNot, {a});
  n.set_fanin(g, {g});
  n.mark_output(g);
  const std::vector<Word> in{0};
  const auto result = simulate_cyclic(n, in, {});
  EXPECT_EQ(result.converged, Word{0});
}

TEST(EvalOnce, SinglePatternMatchesBitParallel) {
  const Netlist c17 = make_c17();
  const Simulator sim(c17);
  std::mt19937_64 rng(5);
  for (int trial = 0; trial < 16; ++trial) {
    std::vector<bool> in(5);
    std::vector<Word> in_words(5);
    for (int i = 0; i < 5; ++i) {
      in[i] = (rng() & 1) != 0;
      in_words[i] = in[i] ? ~Word{0} : 0;
    }
    const auto bits = eval_once(c17, in, {});
    const auto words = sim.run(in_words, {});
    for (std::size_t o = 0; o < bits.size(); ++o) {
      EXPECT_EQ(bits[o], (words[o] & 1) != 0);
    }
  }
}

TEST(SimulatorScratch, TrimReleasesOnlyAboveRetainBudget) {
  // Long-lived (thread_local) scratches grow to the largest batch they ever
  // served; trim() frees the block only when it exceeds the retain budget.
  Simulator::Scratch scratch;
  scratch.value.resize(1 << 16);
  const std::size_t grown = scratch.capacity_bytes();
  ASSERT_GE(grown, (std::size_t{1} << 16) * sizeof(Word));
  scratch.trim(grown);  // within budget: storage kept
  EXPECT_GE(scratch.capacity_bytes(), grown);
  scratch.trim(grown - 1);  // over budget: released
  EXPECT_LT(scratch.capacity_bytes(), grown);
  EXPECT_TRUE(scratch.value.empty());
}

}  // namespace
}  // namespace fl::netlist
