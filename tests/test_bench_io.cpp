// .bench reader/writer: round-trips, key-input convention, text variants,
// error paths.
#include <gtest/gtest.h>

#include <random>

#include "core/full_lock.h"
#include "netlist/bench_io.h"
#include "netlist/generator.h"
#include "netlist/profiles.h"
#include "netlist/simulator.h"

namespace fl::netlist {
namespace {

// Exact equality: gate ids, types, names, fanin order, inputs, keys and
// output ports (with `port_names`, their names too).
testing::AssertionResult same_netlist(const Netlist& a, const Netlist& b,
                                      bool port_names = true) {
  if (a.num_gates() != b.num_gates()) {
    return testing::AssertionFailure()
           << "gate count " << a.num_gates() << " vs " << b.num_gates();
  }
  for (GateId g = 0; g < a.num_gates(); ++g) {
    const GateView x = a.gate(g);
    const GateView y = b.gate(g);
    if (x.type != y.type || x.name != y.name ||
        x.fanin_vector() != y.fanin_vector()) {
      return testing::AssertionFailure()
             << "gate " << g << ": '" << x.name << "' " << to_string(x.type)
             << " vs '" << y.name << "' " << to_string(y.type);
    }
  }
  const auto ids = [](std::span<const GateId> s) {
    return std::vector<GateId>(s.begin(), s.end());
  };
  if (ids(a.inputs()) != ids(b.inputs()) || ids(a.keys()) != ids(b.keys())) {
    return testing::AssertionFailure() << "inputs or keys differ";
  }
  if (a.num_outputs() != b.num_outputs()) {
    return testing::AssertionFailure() << "output count differs";
  }
  for (std::size_t o = 0; o < a.num_outputs(); ++o) {
    const OutputPort& x = a.outputs()[o];
    const OutputPort& y = b.outputs()[o];
    if (x.gate != y.gate || (port_names && x.name != y.name)) {
      return testing::AssertionFailure() << "output " << o << " differs";
    }
  }
  return testing::AssertionSuccess();
}

// Expects a std::runtime_error naming `line`.
void expect_line_error(const std::string& text, int line) {
  try {
    read_bench_string(text);
    ADD_FAILURE() << "expected parse error for: " << text;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("bench line " +
                                         std::to_string(line) + ":"),
              std::string::npos)
        << text << " -> " << e.what();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "wrong exception type for: " << text << " -> "
                  << e.what();
  }
}

TEST(BenchIo, ParsesC17) {
  const Netlist c17 = make_c17();
  EXPECT_EQ(c17.num_inputs(), 5u);
  EXPECT_EQ(c17.num_outputs(), 2u);
  EXPECT_EQ(c17.num_logic_gates(), 6u);
  const auto hist = c17.type_histogram();
  EXPECT_EQ(hist[static_cast<std::size_t>(GateType::kNand)], 6u);
}

TEST(BenchIo, KeyInputConvention) {
  const Netlist n = read_bench_string(R"(
INPUT(a)
INPUT(keyinput0)
OUTPUT(y)
y = XOR(a, keyinput0)
)");
  EXPECT_EQ(n.num_inputs(), 1u);
  EXPECT_EQ(n.num_keys(), 1u);
}

TEST(BenchIo, RoundTripPreservesFunction) {
  GeneratorConfig config;
  config.num_inputs = 8;
  config.num_outputs = 4;
  config.num_gates = 60;
  config.seed = 21;
  const Netlist original = generate_circuit(config);
  const Netlist reparsed =
      read_bench_string(write_bench_string(original), "reparsed");
  ASSERT_EQ(reparsed.num_inputs(), original.num_inputs());
  ASSERT_EQ(reparsed.num_outputs(), original.num_outputs());
  const Simulator sim_a(original);
  const Simulator sim_b(reparsed);
  std::mt19937_64 rng(9);
  for (int round = 0; round < 16; ++round) {
    std::vector<Word> in(original.num_inputs());
    for (Word& w : in) w = rng();
    const auto out_a = sim_a.run(in, {});
    const auto out_b = sim_b.run(in, {});
    for (std::size_t o = 0; o < out_a.size(); ++o) {
      ASSERT_EQ(out_a[o], out_b[o]) << "round " << round << " output " << o;
    }
  }
}

TEST(BenchIo, OutOfOrderDefinitionsResolve) {
  const Netlist n = read_bench_string(R"(
INPUT(a)
OUTPUT(y)
y = NOT(t)      # uses t before its definition
t = BUF(a)
)");
  EXPECT_EQ(n.num_logic_gates(), 2u);
  EXPECT_FALSE(n.is_cyclic());
}

TEST(BenchIo, CyclicBenchIsRepresentable) {
  const Netlist n = read_bench_string(R"(
INPUT(a)
OUTPUT(y)
y = OR(a, z)
z = BUF(y)
)");
  EXPECT_TRUE(n.is_cyclic());
  // And it round-trips.
  const Netlist again = read_bench_string(write_bench_string(n));
  EXPECT_TRUE(again.is_cyclic());
}

TEST(BenchIo, SelfLoopIsRepresentable) {
  const Netlist n = read_bench_string("INPUT(a)\nOUTPUT(y)\ny = OR(a, y)\n");
  EXPECT_EQ(n.gate(1).fanin_vector(), (std::vector<GateId>{0, 1}));
  EXPECT_TRUE(n.is_cyclic());
}

TEST(BenchIo, MuxAndConstantsSupported) {
  const Netlist n = read_bench_string(R"(
INPUT(s)
INPUT(a)
INPUT(b)
OUTPUT(y)
c1 = CONST1()
m = MUX(s, a, b)
y = AND(m, c1)
)");
  EXPECT_EQ(n.num_logic_gates(), 2u);
  const auto out = eval_once(n, std::vector<bool>{true, false, true}, {});
  EXPECT_TRUE(out[0]);  // s=1 selects b=1
}

TEST(BenchIo, ErrorsAreLineNumbered) {
  expect_line_error("INPUT(a)\ny = FROB(a)\nOUTPUT(y)\n", 2);
}

TEST(BenchIo, UndefinedSignalRejected) {
  expect_line_error("INPUT(a)\nOUTPUT(y)\ny = NOT(zz)\n", 3);
  expect_line_error("INPUT(a)\nOUTPUT(y)\n\ny = AND(a, zz)\n", 4);
}

TEST(BenchIo, UndefinedOutputRejected) {
  expect_line_error("INPUT(a)\nOUTPUT(nope)\n", 2);
}

TEST(BenchIo, DuplicateDefinitionRejected) {
  expect_line_error("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny = BUF(a)\n", 4);
  expect_line_error("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\na = BUF(y)\n", 4);
  // A name is declared once, INPUT included.
  expect_line_error("INPUT(a)\nINPUT(a)\nOUTPUT(y)\ny = NOT(a)\n", 2);
  expect_line_error("INPUT(keyinput0)\nINPUT(a)\nINPUT(keyinput0)\n", 3);
}

TEST(BenchIo, CommentsAndBlankLinesIgnored) {
  const Netlist n = read_bench_string(R"(
# header comment

INPUT(a)   # trailing comment
OUTPUT(y)
y = NOT(a)
)");
  EXPECT_EQ(n.num_logic_gates(), 1u);
}

TEST(BenchIo, MalformedDeclarationsAreLineNumbered) {
  const struct {
    const char* text;
    int line;
  } cases[] = {
      {"INPUT(a\nOUTPUT(y)\ny = NOT(a)\n", 1},       // missing ')'
      {"INPUT(a)\nOUTPUT(y) junk\ny = NOT(a)\n", 2},  // trailing characters
      {"INPUT(a)\nOUTPUT()\ny = NOT(a)\n", 2},        // empty name
      {"INPUT(a)\nOUTPUT(a=b)\ny = NOT(a)\n", 2},     // structural char in name
      {"INPUT(a)\nFROB(a)\ny = NOT(a)\n", 2},         // unknown declaration
      {"INPUT(a)\nOUTPUT(y)\njust a bare line\n", 3},  // no '=' and no '('
  };
  for (const auto& c : cases) expect_line_error(c.text, c.line);
}

TEST(BenchIo, MalformedGateDefinitionsAreLineNumbered) {
  const struct {
    const char* text;
    int line;
  } cases[] = {
      {"INPUT(a)\nOUTPUT(y)\ny = NOT a\n", 3},        // missing '('
      {"INPUT(a)\nOUTPUT(y)\ny = NOT(a\n", 3},        // missing ')'
      {"INPUT(a)\nOUTPUT(y)\ny = NOT(a) x\n", 3},     // trailing characters
      {"INPUT(a)\nOUTPUT(y)\ny =\n", 3},              // empty right-hand side
      {"INPUT(a)\nOUTPUT(y)\ny = AND(a,)\n", 3},      // dangling comma
      {"INPUT(a)\nOUTPUT(y)\ny = AND(a,,a)\n", 3},    // empty fanin token
      {"INPUT(a)\nOUTPUT(y)\n = NOT(a)\n", 3},        // empty gate name
  };
  for (const auto& c : cases) expect_line_error(c.text, c.line);
}

TEST(BenchIo, ConstGatesStillAcceptEmptyArgumentList) {
  const Netlist n = read_bench_string("OUTPUT(y)\ny = CONST1()\n");
  const auto out = eval_once(n, std::vector<bool>{}, {});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0]);
}

TEST(BenchIo, WriterEmitsKeysAsKeyinputs) {
  Netlist n;
  n.add_input("a");
  const GateId k = n.add_key("keyinput0");
  const GateId g = n.add_gate(GateType::kXor, {0, k}, "y");
  n.mark_output(g, "y");
  const Netlist round = read_bench_string(write_bench_string(n));
  EXPECT_EQ(round.num_keys(), 1u);
}

TEST(BenchIo, StrictnessErrorsAreLineNumbered) {
  // Wrong arity on an empty list is a parse error, not a netlist exception.
  expect_line_error("INPUT(a)\nOUTPUT(y)\ny = NOT()\n", 3);
  expect_line_error("INPUT(a)\nOUTPUT(y)\ny = MUX(a, a)\n", 3);
  expect_line_error("INPUT(a)\nOUTPUT(y)\ny = AND(a)\n", 3);
  // Constants take no fanins, defined or not.
  expect_line_error("INPUT(a)\nOUTPUT(y)\ny = CONST0(a)\n", 3);
  expect_line_error("INPUT(a)\nOUTPUT(y)\ny = CONST1(zz)\n", 3);
  // Whitespace inside a name is not part of the grammar.
  expect_line_error("INPUT(a)\nOUTPUT(y)\ny = AND(a, a\rb)\n", 3);
}

TEST(BenchIo, TextVariantsParseIdentically) {
  const Netlist canonical = read_bench_string(
      "INPUT(a)\nINPUT(keyinput0)\nINPUT(b)\nOUTPUT(y)\nOUTPUT(m)\n"
      "t = NAND(a, b)\nm = MUX(keyinput0, t, b)\ny = XOR(m, t, a)\n");
  const char* variants[] = {
      // CRLF line endings.
      "INPUT(a)\r\nINPUT(keyinput0)\r\nINPUT(b)\r\nOUTPUT(y)\r\nOUTPUT(m)\r\n"
      "t = NAND(a, b)\r\nm = MUX(keyinput0, t, b)\r\ny = XOR(m, t, a)\r\n",
      // Tabs, extra spaces, lower-case keywords, no final newline.
      "\tinput( a )\nINPUT\t(keyinput0)\nInput(b)\noutput(y)\nOUTPUT(m)\n"
      "t\t=\tnand(a,b)\nm=mux( keyinput0 ,t,\tb )\n  y = Xor(m , t , a)",
      // Trailing and whole-line comments, blank lines.
      "# header\nINPUT(a)  # first input\nINPUT(keyinput0)#key\nINPUT(b)\n\n"
      "OUTPUT(y) # out\nOUTPUT(m)\n   # indented comment\n"
      "t = NAND(a, b) # comment with (parens) = and, commas\n"
      "m = MUX(keyinput0, t, b)\ny = XOR(m, t, a)\n",
      // Out-of-order definitions and declarations after gates: ids still
      // follow INPUT order, then definition order.
      "OUTPUT(y)\nINPUT(a)\nt = NAND(a, b)\nINPUT(keyinput0)\n"
      "m = MUX(keyinput0, t, b)\nOUTPUT(m)\ny = XOR(m, t, a)\nINPUT(b)\n",
  };
  for (const char* text : variants) {
    EXPECT_TRUE(same_netlist(canonical, read_bench_string(text))) << text;
  }
  // Forward references get the same ids as the in-order file would.
  const Netlist forward = read_bench_string(
      "INPUT(a)\nINPUT(keyinput0)\nINPUT(b)\nOUTPUT(y)\nOUTPUT(m)\n"
      "y = XOR(m, t, a)\nt = NAND(a, b)\nm = MUX(keyinput0, t, b)\n");
  EXPECT_EQ(forward.gate_name(3), "y");
  EXPECT_EQ(forward.gate(3).fanin_vector(), (std::vector<GateId>{5, 4, 0}));
  EXPECT_EQ(forward.gate(5).fanin_vector(), (std::vector<GateId>{1, 4, 2}));
}

TEST(BenchIo, NoInputsGetsConstPlaceholderFirst) {
  // Logic first: an unnamed CONST0 takes id 0.
  const Netlist logic_first =
      read_bench_string("OUTPUT(y)\ny = NOT(z)\nz = CONST1()\n");
  ASSERT_EQ(logic_first.num_gates(), 3u);
  EXPECT_EQ(logic_first.gate_type(0), GateType::kConst0);
  EXPECT_EQ(logic_first.gate(1).fanin_vector(), std::vector<GateId>{2});
  // A constant first needs no placeholder.
  const Netlist const_first =
      read_bench_string("OUTPUT(y)\nz = CONST1()\ny = NOT(z)\n");
  ASSERT_EQ(const_first.num_gates(), 2u);
  EXPECT_EQ(const_first.gate_type(0), GateType::kConst1);
  EXPECT_EQ(const_first.outputs()[0].gate, 1u);
}

// read(write(n)) is a fixed point: once parsed, a netlist survives another
// write/read exactly, and the writer's bytes do not change.
void expect_round_trip_identity(const Netlist& n) {
  const std::string text = write_bench_string(n);
  const Netlist parsed = read_bench_string(text, n.name());
  const Netlist again = read_bench_string(write_bench_string(parsed), n.name());
  EXPECT_TRUE(same_netlist(parsed, again)) << n.name();
  EXPECT_EQ(write_bench_string(parsed), text) << n.name();
}

TEST(BenchIo, RoundTripIdentityOnIscasProfiles) {
  expect_round_trip_identity(make_c17());
  for (const BenchmarkProfile& p : table5_profiles()) {
    if (p.name.front() != 'c') continue;  // ISCAS-85 only
    const Netlist n = make_circuit(p, 5);
    expect_round_trip_identity(n);
    // Generated circuits are already in reader order (inputs, then gates,
    // all named), so the parse reproduces them; only port names follow the
    // gate names on the way out.
    EXPECT_TRUE(same_netlist(
        n, read_bench_string(write_bench_string(n), n.name()),
        /*port_names=*/false))
        << p.name;
  }
}

TEST(BenchIo, RoundTripIdentityOnSynthCircuits) {
  for (const std::size_t gates : {1, 40, 500, 3000}) {
    GeneratorConfig config;
    config.num_inputs = 12;
    config.num_outputs = gates < 4 ? 1 : 6;
    config.num_gates = gates;
    config.seed = 100 + gates;
    const Netlist n = generate_circuit(config);
    expect_round_trip_identity(n);
    EXPECT_TRUE(same_netlist(
        n, read_bench_string(write_bench_string(n), n.name()),
        /*port_names=*/false));
  }
}

TEST(BenchIo, RoundTripIdentityOnCyclicFullLock) {
  const Netlist original = make_circuit("c880", 34);
  const core::LockedCircuit locked = core::full_lock(
      original,
      core::FullLockConfig::with_plrs({8}, core::ClnTopology::kBanyanNonBlocking,
                                      core::CycleMode::kForce));
  ASSERT_TRUE(locked.netlist.is_cyclic());
  expect_round_trip_identity(locked.netlist);
  const Netlist parsed = read_bench_string(write_bench_string(locked.netlist));
  EXPECT_TRUE(parsed.is_cyclic());
  EXPECT_EQ(parsed.num_keys(), locked.netlist.num_keys());
}

TEST(BenchIo, WriterNamesAnonymousAndRepeatedNets) {
  Netlist n("w");
  const GateId a = n.add_input("a");
  const GateId c = n.add_const(true);
  const GateId x = n.add_gate(GateType::kAnd, {a, c}, "n0");  // taken name
  const GateId y = n.add_gate(GateType::kOr, {a, x}, "n0");   // repeated
  const GateId z = n.add_gate(GateType::kNot, {y});           // anonymous
  n.mark_output(z, "z");
  EXPECT_EQ(write_bench_string(n),
            "# w (1 inputs, 0 keys, 1 outputs, 3 gates)\n"
            "INPUT(a)\nOUTPUT(n3)\nn1 = CONST1()\nn0 = AND(a, n1)\n"
            "n2 = OR(a, n0)\nn3 = NOT(n2)\n");
}

// The reader tells keys from primary inputs by the keyinput/KEYINPUT name
// prefix alone, so the writer refuses any net whose name would come back in
// the other role, naming the net.
void expect_role_error(const Netlist& n, const std::string& net) {
  try {
    write_bench_string(n);
    ADD_FAILURE() << "expected a role error naming " << net;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'" + net + "'"), std::string::npos)
        << e.what();
  }
}

TEST(BenchIo, WriterRejectsKeyWithoutKeyinputPrefix) {
  Netlist n;
  const GateId a = n.add_input("a");
  const GateId k = n.add_key("k");
  n.mark_output(n.add_gate(GateType::kXor, {a, k}, "y"), "y");
  expect_role_error(n, "k");
}

TEST(BenchIo, WriterRejectsInputWithKeyinputPrefix) {
  Netlist n;
  const GateId a = n.add_input("keyinput_data");
  const GateId k = n.add_key("keyinput0");
  n.mark_output(n.add_gate(GateType::kXor, {a, k}, "y"), "y");
  expect_role_error(n, "keyinput_data");
}

TEST(BenchIo, WriterRejectsAnonymousKey) {
  Netlist n;
  const GateId a = n.add_input("a");
  const GateId k = n.add_key("");  // printed as n<k>
  n.mark_output(n.add_gate(GateType::kXor, {a, k}, "y"), "y");
  expect_role_error(n, "n0");
}

}  // namespace
}  // namespace fl::netlist
