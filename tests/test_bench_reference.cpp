// Differential check of the .bench reader against the line-by-line reader
// it replaced, kept here verbatim as a tests-only reference (lexer, the
// 24-byte-slot name index, resolver and builder). Both readers get the
// same texts: the fuzz mutants of bench_mutants.h, hand-written inputs that
// exercise the order in which errors are reported, and large files written
// by the writer. They must agree on accept/reject, on the exact error text
// and on the netlist: gate ids, types, names, fanin lists, and the order
// and names of inputs, keys and outputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <random>
#include <stdexcept>
#include <string>
#include <string_view>
#include <typeinfo>
#include <vector>

#include "bench_mutants.h"
#include "locking/scheme.h"
#include "netlist/bench_io.h"
#include "netlist/profiles.h"

namespace fl::netlist {
namespace {
namespace reference {

bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\v' ||
         c == '\f';
}

std::string_view trim(std::string_view s) {
  std::size_t b = 0, e = s.size();
  while (b < e && is_space(s[b])) ++b;
  while (e > b && is_space(s[e - 1])) --e;
  return s.substr(b, e - b);
}

// ASCII case-insensitive comparison against an upper-case keyword.
bool keyword_is(std::string_view token, std::string_view keyword) {
  if (token.size() != keyword.size()) return false;
  for (std::size_t i = 0; i < token.size(); ++i) {
    char c = token[i];
    if (c >= 'a' && c <= 'z') c = static_cast<char>(c - 'a' + 'A');
    if (c != keyword[i]) return false;
  }
  return true;
}

bool is_key_name(std::string_view name) {
  return name.starts_with("keyinput") || name.starts_with("KEYINPUT");
}

[[noreturn]] void fail(std::size_t line_no, std::string_view what) {
  throw std::runtime_error("bench line " + std::to_string(line_no) + ": " +
                           std::string(what));
}

std::string quoted(std::string_view name) {
  std::string out = "'";
  out += name;
  out += '\'';
  return out;
}

GateType parse_gate_type(std::string_view token, std::size_t line_no) {
  static constexpr struct {
    std::string_view keyword;
    GateType type;
  } kTypes[] = {
      {"AND", GateType::kAnd},       {"NAND", GateType::kNand},
      {"OR", GateType::kOr},         {"NOR", GateType::kNor},
      {"XOR", GateType::kXor},       {"XNOR", GateType::kXnor},
      {"NOT", GateType::kNot},       {"INV", GateType::kNot},
      {"BUF", GateType::kBuf},       {"BUFF", GateType::kBuf},
      {"MUX", GateType::kMux},       {"CONST0", GateType::kConst0},
      {"CONST1", GateType::kConst1},
  };
  for (const auto& t : kTypes) {
    if (keyword_is(token, t.keyword)) return t.type;
  }
  fail(line_no, "unknown gate type " + quoted(token));
}

// Signal names may not be empty or contain structural characters or
// whitespace; catching this here turns "garbage substring parsed as a name"
// into a line-numbered parse error.
void expect_signal_name(std::string_view name, std::size_t line_no,
                        const char* what) {
  if (name.empty()) fail(line_no, std::string("empty ") + what + " name");
  for (const char c : name) {
    if (is_space(c) || c == '(' || c == ')' || c == '=' || c == ',' ||
        c == '#') {
      fail(line_no, std::string("bad ") + what + " name " + quoted(name));
    }
  }
}

void expect_arity(GateType type, std::size_t n_fanin, std::string_view gate,
                  std::size_t line_no) {
  const int fixed = fixed_arity(type);
  if (fixed >= 0 ? n_fanin == static_cast<std::size_t>(fixed) : n_fanin >= 2) {
    return;
  }
  fail(line_no, "gate arity mismatch: " + quoted(gate) + " = " +
                    std::string(to_string(type)) + " takes " +
                    (fixed >= 0 ? std::to_string(fixed) : "at least 2") +
                    " fanins, got " + std::to_string(n_fanin));
}

// --- lexing ------------------------------------------------------------------
// Every name is a view into the caller's text buffer, which outlives the
// parse.

struct Declaration {
  std::string_view name;
  std::size_t line_no;
};

struct PendingGate {
  std::string_view name;
  GateType type;
  std::size_t fanin_begin;  // into BenchText::fanins
  std::size_t fanin_count;
  std::size_t line_no;
};

struct BenchText {
  std::vector<Declaration> inputs;  // INPUT lines, keys included
  std::vector<Declaration> outputs;
  std::vector<PendingGate> gates;   // definition order
  std::vector<std::string_view> fanins;
};

void lex_declaration(std::string_view text, std::size_t lpar,
                     std::size_t line_no, BenchText& out) {
  if (lpar == std::string_view::npos) {
    fail(line_no, "malformed declaration (expected INPUT(name) or "
                  "OUTPUT(name))");
  }
  const std::size_t rpar = text.find(')', lpar + 1);
  if (rpar == std::string_view::npos) {
    fail(line_no, "missing ')' in declaration");
  }
  if (!trim(text.substr(rpar + 1)).empty()) {
    fail(line_no, "trailing characters after ')'");
  }
  const std::string_view kind = trim(text.substr(0, lpar));
  const std::string_view arg = trim(text.substr(lpar + 1, rpar - lpar - 1));
  if (keyword_is(kind, "INPUT")) {
    expect_signal_name(arg, line_no, "input");
    out.inputs.push_back({arg, line_no});
  } else if (keyword_is(kind, "OUTPUT")) {
    expect_signal_name(arg, line_no, "output");
    out.outputs.push_back({arg, line_no});
  } else {
    fail(line_no, "expected INPUT/OUTPUT, got " + quoted(kind));
  }
}

void lex_gate(std::string_view text, std::size_t eq, std::size_t line_no,
              BenchText& out) {
  const std::string_view lhs = trim(text.substr(0, eq));
  expect_signal_name(lhs, line_no, "gate");
  const std::string_view rhs = trim(text.substr(eq + 1));
  if (rhs.empty()) fail(line_no, "missing gate expression after '='");
  const std::size_t lpar = rhs.find('(');
  if (lpar == std::string_view::npos) {
    fail(line_no, "malformed gate definition (expected TYPE(args))");
  }
  const std::size_t rpar = rhs.find(')', lpar + 1);
  if (rpar == std::string_view::npos) {
    fail(line_no, "missing ')' in gate definition");
  }
  if (!trim(rhs.substr(rpar + 1)).empty()) {
    fail(line_no, "trailing characters after ')'");
  }
  const GateType type = parse_gate_type(trim(rhs.substr(0, lpar)), line_no);
  const std::size_t begin = out.fanins.size();
  // An empty list is zero fanins; otherwise every comma-separated token
  // must be a name (so "AND(a,)" and "AND(a,,b)" are errors).
  const std::string_view args = trim(rhs.substr(lpar + 1, rpar - lpar - 1));
  for (std::size_t pos = 0; !args.empty();) {
    const std::size_t comma = args.find(',', pos);
    const std::string_view fanin = trim(args.substr(
        pos, comma == std::string_view::npos ? comma : comma - pos));
    if (fanin.empty()) fail(line_no, "empty fanin name in " + quoted(lhs));
    expect_signal_name(fanin, line_no, "fanin");
    out.fanins.push_back(fanin);
    if (comma == std::string_view::npos) break;
    pos = comma + 1;
  }
  const std::size_t count = out.fanins.size() - begin;
  expect_arity(type, count, lhs, line_no);
  out.gates.push_back({lhs, type, begin, count, line_no});
}

BenchText lex(std::string_view text) {
  BenchText out;
  // Every gate sits on its own line and has at most one more fanin than
  // its list has commas.
  const std::size_t lines =
      static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n')) + 1;
  out.gates.reserve(lines);
  out.fanins.reserve(
      lines + static_cast<std::size_t>(std::count(text.begin(), text.end(), ',')));
  std::size_t line_no = 0;
  for (std::size_t pos = 0; pos < text.size();) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    std::string_view line = text.substr(pos, end - pos);
    pos = end + 1;
    ++line_no;
    line = trim(line.substr(0, line.find('#')));
    if (line.empty()) continue;
    const std::size_t lpar = line.find('(');
    const std::size_t eq = line.find('=');
    // A '(' before any '=' means the '=' (if present at all) sits inside the
    // argument list — route to the declaration branch so "OUTPUT(a=b)" is
    // rejected as a bad name instead of mangled by substring arithmetic.
    if (eq == std::string_view::npos ||
        (lpar != std::string_view::npos && lpar < eq)) {
      lex_declaration(line, lpar, line_no, out);
    } else {
      lex_gate(line, eq, line_no, out);
    }
  }
  return out;
}

// --- name index ----------------------------------------------------------------

// Open-addressed name -> id table (linear probing) over views owned by the
// caller. Grows to keep the load at most 2/3.
class NameIndex {
 public:
  explicit NameIndex(std::size_t expected) { rehash(expected); }

  // Adds name -> id; false (and no change) when the name is already present.
  bool insert(std::string_view name, GateId id) {
    if (3 * (size_ + 1) > 2 * slots_.size()) rehash(2 * size_ + 2);
    const std::uint32_t hash = hash_of(name);
    Slot& slot = slots_[probe(name, hash)];
    if (slot.id != kNullGate) return false;
    slot = Slot{name, hash, id};
    ++size_;
    return true;
  }

  // kNullGate when absent.
  GateId find(std::string_view name) const {
    return slots_[probe(name, hash_of(name))].id;
  }

 private:
  struct Slot {
    std::string_view name;
    std::uint32_t hash = 0;
    GateId id = kNullGate;  // kNullGate marks an empty slot
  };

  static std::uint32_t hash_of(std::string_view name) {
    return static_cast<std::uint32_t>(std::hash<std::string_view>{}(name));
  }

  // Index of name's slot, or of the empty slot where it would go.
  std::size_t probe(std::string_view name, std::uint32_t hash) const {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
      const Slot& slot = slots_[i];
      if (slot.id == kNullGate ||
          (slot.hash == hash && slot.name == name)) {
        return i;
      }
    }
  }

  void rehash(std::size_t expected) {
    std::size_t capacity = 16;
    while (2 * capacity < 3 * expected) capacity *= 2;
    std::vector<Slot> old(capacity);
    old.swap(slots_);
    for (const Slot& slot : old) {
      if (slot.id != kNullGate) slots_[probe(slot.name, slot.hash)] = slot;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

// --- netlist construction ------------------------------------------------------

struct ResolvedIds {
  bool placeholder = false;     // an unnamed CONST0 precedes the gates
  std::vector<GateId> fanins;   // parallel to BenchText::fanins
  std::vector<GateId> outputs;  // parallel to BenchText::outputs
};

// Assigns ids without building anything: INPUT lines in declaration order,
// then gates in definition order. When there are no inputs and the first
// gate is logic, an unnamed CONST0 takes id 0 so that the placeholder
// fanins of build() have a net to point at. Rejects names declared twice
// and names used but never defined.
ResolvedIds resolve(const BenchText& bench) {
  NameIndex index(bench.inputs.size() + bench.gates.size());
  for (std::size_t i = 0; i < bench.inputs.size(); ++i) {
    const Declaration& in = bench.inputs[i];
    if (!index.insert(in.name, static_cast<GateId>(i))) {
      fail(in.line_no, "duplicate INPUT(" + std::string(in.name) + ")");
    }
  }
  ResolvedIds ids;
  ids.placeholder = bench.inputs.empty() && !bench.gates.empty() &&
                    !is_source(bench.gates.front().type);
  const GateId first = static_cast<GateId>(bench.inputs.size() +
                                           (ids.placeholder ? 1 : 0));
  for (std::size_t i = 0; i < bench.gates.size(); ++i) {
    const PendingGate& g = bench.gates[i];
    if (!index.insert(g.name, first + static_cast<GateId>(i))) {
      fail(g.line_no, "duplicate definition of " + quoted(g.name));
    }
  }
  ids.fanins.resize(bench.fanins.size());
  for (const PendingGate& g : bench.gates) {
    for (std::size_t k = g.fanin_begin; k < g.fanin_begin + g.fanin_count;
         ++k) {
      ids.fanins[k] = index.find(bench.fanins[k]);
      if (ids.fanins[k] == kNullGate) {
        fail(g.line_no, "undefined signal " + quoted(bench.fanins[k]));
      }
    }
  }
  for (const Declaration& out : bench.outputs) {
    ids.outputs.push_back(index.find(out.name));
    if (ids.outputs.back() == kNullGate) {
      fail(out.line_no, "OUTPUT(" + std::string(out.name) + ") never defined");
    }
  }
  return ids;
}

Netlist build(BenchText bench, std::string name) {
  const ResolvedIds ids = resolve(bench);
  // The fanin names are resolved; free them before the netlist grows.
  std::vector<std::string_view>().swap(bench.fanins);

  Netlist netlist(std::move(name));
  for (const Declaration& in : bench.inputs) {
    if (is_key_name(in.name)) {
      netlist.add_key(std::string(in.name));
    } else {
      netlist.add_input(std::string(in.name));
    }
  }
  // Fanins may point forward or form cycles, so every logic gate starts on
  // placeholder id 0 and is patched once all gates exist. Constants keep no
  // name (only output ports carry it).
  if (ids.placeholder) netlist.add_const(false);
  const GateId first = static_cast<GateId>(netlist.num_gates());
  std::vector<GateId> zeros;
  for (const PendingGate& g : bench.gates) {
    if (is_source(g.type)) {
      netlist.add_const(g.type == GateType::kConst1);
      continue;
    }
    if (zeros.size() < g.fanin_count) zeros.resize(g.fanin_count, 0);
    netlist.add_gate(g.type,
                     std::span<const GateId>(zeros.data(), g.fanin_count),
                     std::string(g.name));
  }
  for (std::size_t i = 0; i < bench.gates.size(); ++i) {
    const PendingGate& g = bench.gates[i];
    if (is_source(g.type)) continue;
    netlist.set_fanin(first + static_cast<GateId>(i),
                      std::span<const GateId>(
                          ids.fanins.data() + g.fanin_begin, g.fanin_count));
  }
  for (std::size_t o = 0; o < bench.outputs.size(); ++o) {
    netlist.mark_output(ids.outputs[o], std::string(bench.outputs[o].name));
  }
  netlist.validate();
  return netlist;
}


Netlist read_bench_string(std::string_view text, std::string name) {
  return build(lex(text), std::move(name));
}

}  // namespace reference

// What a reader made of a text: a netlist, or the type and text of the
// exception it threw.
struct Outcome {
  bool accepted = false;
  std::string error;
  Netlist netlist;
};

template <typename Reader>
Outcome read_with(Reader reader, std::string_view text) {
  Outcome out;
  try {
    out.netlist = reader(text, "ref");
    out.accepted = true;
  } catch (const std::exception& e) {
    out.error = std::string(typeid(e).name()) + ": " + e.what();
  }
  return out;
}

testing::AssertionResult same_gates(const Netlist& a, const Netlist& b) {
  if (a.name() != b.name() || a.num_gates() != b.num_gates()) {
    return testing::AssertionFailure() << "name or gate count differs";
  }
  for (GateId g = 0; g < a.num_gates(); ++g) {
    const GateView x = a.gate(g);
    const GateView y = b.gate(g);
    if (x.type != y.type || x.name != y.name ||
        !std::ranges::equal(x.fanin, y.fanin)) {
      return testing::AssertionFailure() << "gate " << g << " differs";
    }
  }
  if (!std::ranges::equal(a.inputs(), b.inputs()) ||
      !std::ranges::equal(a.keys(), b.keys()) ||
      a.num_outputs() != b.num_outputs()) {
    return testing::AssertionFailure() << "inputs, keys or outputs differ";
  }
  for (std::size_t o = 0; o < a.num_outputs(); ++o) {
    if (a.outputs()[o].gate != b.outputs()[o].gate ||
        a.outputs()[o].name != b.outputs()[o].name) {
      return testing::AssertionFailure() << "output " << o << " differs";
    }
  }
  return testing::AssertionSuccess();
}

testing::AssertionResult readers_agree(std::string_view text) {
  const Outcome want = read_with(reference::read_bench_string, text);
  const Outcome got = read_with(read_bench_string, text);
  if (want.accepted != got.accepted || want.error != got.error) {
    return testing::AssertionFailure()
           << "reference: " << (want.accepted ? "accepted" : want.error)
           << "\n     reader: " << (got.accepted ? "accepted" : got.error);
  }
  if (want.accepted) return same_gates(want.netlist, got.netlist);
  return testing::AssertionSuccess();
}

std::string error_of(std::string_view text) {
  return read_with(read_bench_string, text).error;
}

TEST(BenchReference, FuzzMutantsAgree) {
  const std::vector<std::string> corpus = bench_mutants::seed_corpus();
  std::mt19937_64 rng(20190602);
  int accepted = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::string text =
        bench_mutants::mutate(corpus[i % corpus.size()], corpus, rng);
    ASSERT_TRUE(readers_agree(text)) << "mutant " << i << ":\n" << text;
    accepted += read_with(read_bench_string, text).accepted ? 1 : 0;
  }
  // Both outcomes must be exercised.
  EXPECT_GT(accepted, 1000);
  EXPECT_LT(accepted, 19000);
}

TEST(BenchReference, ErrorPrecedenceAgrees) {
  using namespace std::string_literals;
  const std::string lines[] = {
      "FOO(x", "FOO(x) y", "FOO()", "(a)", "()", "a = (b)", "a = ()",
      "a = AND(b,)", "a = AND(,b)", "a = AND(,)", "a = AND( , )",
      "a = AND( )", "a = AND()", "a = CONST0( )", "a = CONST1(b)",
      "OUTPUT(a=b)", "INPUT(a=b)", "INPUT((a)", "INPUT(a))", "INPUT(a)(b)",
      "INPUT(a b)", "INPUT( a )", "INPUT()", "INPUT( )", "INPUT a",
      "INPUT(a", "input(a)", "Output(y)", "INPUTS(a)", "IN PUT(a)",
      "a b = AND(c, d)", "a) = AND(c, d)", "a, = AND(c, d)", "= AND(a, b)",
      "a =", "a = ", "a = AND", "a = AND b", "a = = AND(b, c)",
      "a = AND(b c, d)", "a = AND(b, c d)", "a = AND(b(c), d)",
      "a = AND(b, c) junk", "a = AND(b, c))", "a = AND(b, c", "a = AND(b, (c",
      "a = AN D(b, c)", "a = and(b, c)", "a = Xnor(b, c)", "a = buff(b)",
      "a = INVX(b)", "a = NOT(b, c)", "a = MUX(b, c)", "a = AND(b)",
      "a = AND(b,, c)", "a = AND(b, c,)", "a = AND(b=c, d)",
      "a = AND(b, c=d)", "x(y = AND(b, c)", "x=y(z)", "a = AND(b, #c)",
      "a = AND(b, c) # (d)", "INPUT(a # b)", "# only a comment",
      "   ", "\t\v\f\r", "a\r = NOT(b)\r", "a = NOT(b\rc)",
      "a = NOT(b)\r\r", "\x00 = NOT(b)"s, "a = NOT(\x00)"s, "\xff = NOT(b)",
      "a = NOT(\xc3\xa9)", "INPUT(\x80)", "a = NOT(b\x00)"s, "a\x00b"s,
      "KEYINPUT(a)", "a = AND(keyinput0, b)",
  };
  const std::string context[] = {
      "",
      "INPUT(b)\nINPUT(c)\nINPUT(d)\nOUTPUT(a)\n",
      "INPUT(b)\nOUTPUT(a)\nz = NOT(undefined)\n",
      "OUTPUT(a)\nb = CONST1()\nc = NOT(b)\nd = NOT(a)\n",
  };
  for (const std::string& line : lines) {
    for (const std::string& before : context) {
      for (const char* after : {"", "\n", "\r\n", "\nq = NOT(b)\n",
                                "\nOUTPUT(missing)\n"}) {
        const std::string text = before + line + after;
        EXPECT_TRUE(readers_agree(text)) << text;
      }
    }
  }
  // A few outcomes spelled out, so agreement is not agreement on garbage.
  EXPECT_EQ(error_of("FOO(x"),
            std::string(typeid(std::runtime_error).name()) +
                ": bench line 1: missing ')' in declaration");
  EXPECT_NE(error_of("a = (b)").find("unknown gate type ''"),
            std::string::npos);
  EXPECT_NE(error_of("a = AND(b,)").find("empty fanin name in 'a'"),
            std::string::npos);
  EXPECT_NE(error_of("OUTPUT(a=b)").find("bad output name 'a=b'"),
            std::string::npos);
  EXPECT_NE(error_of("a = AND(b, #c)").find("missing ')' in gate definition"),
            std::string::npos);
  // Lexing errors win over resolution errors on earlier lines.
  EXPECT_NE(error_of("y = NOT(zz)\nx = FROB(y)\n").find("bench line 2:"),
            std::string::npos);
}

TEST(BenchReference, WrittenCircuitsAgree) {
  std::vector<Netlist> circuits;
  circuits.push_back(make_circuit("synth64k", 1));
  const Netlist c432 = make_circuit("c432", 3);
  circuits.push_back(c432);
  for (const lock::LockScheme* scheme : lock::registry()) {
    const std::string_view params =
        scheme->name() == "cross-lock" ? "sources=8" : "";
    circuits.push_back(
        scheme->lock(c432, lock::make_options(5, {}, params)).netlist);
  }
  for (const Netlist& n : circuits) {
    const std::string text = write_bench_string(n);
    EXPECT_TRUE(readers_agree(text)) << n.name();
    // The same file with CRLF endings and padded tokens.
    std::string padded;
    for (const char c : text) {
      if (c == '\n') padded += " \r";
      if (c == ',' || c == '(') padded += '\t';
      padded += c;
    }
    EXPECT_TRUE(readers_agree(padded)) << n.name();
  }
}

}  // namespace
}  // namespace fl::netlist
