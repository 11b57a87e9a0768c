#include "netlist/bench_io.h"

#include <array>
#include <charconv>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace fl::netlist {

namespace {

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

// Matched on the first letter, then on the whole keyword.
GateType parse_gate_type(std::string_view token, std::size_t line_no) {
  const auto is = [&](std::string_view keyword) {
    return keyword_is(token, keyword);
  };
  switch (token.empty() ? '\0' : token[0] & ~0x20) {  // ASCII upper case
    case 'A':
      if (is("AND")) return GateType::kAnd;
      break;
    case 'B':
      if (is("BUF") || is("BUFF")) return GateType::kBuf;
      break;
    case 'C':
      if (is("CONST0")) return GateType::kConst0;
      if (is("CONST1")) return GateType::kConst1;
      break;
    case 'I':
      if (is("INV")) return GateType::kNot;
      break;
    case 'M':
      if (is("MUX")) return GateType::kMux;
      break;
    case 'N':
      if (is("NAND")) return GateType::kNand;
      if (is("NOR")) return GateType::kNor;
      if (is("NOT")) return GateType::kNot;
      break;
    case 'O':
      if (is("OR")) return GateType::kOr;
      break;
    case 'X':
      if (is("XOR")) return GateType::kXor;
      if (is("XNOR")) return GateType::kXnor;
      break;
  }
  fail(line_no, "unknown gate type " + quoted(token));
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
// One forward scan per line. Every name is a view into the caller's text
// buffer, which outlives the parse.

// Byte classes. '#' and '\n' both end a line's content; every byte that is
// neither whitespace nor structural is a name byte (NUL and high bytes
// included).
enum CharClass : std::uint8_t {
  kName,
  kSpace,
  kLpar,
  kRpar,
  kEq,
  kComma,
  kEnd,
};

constexpr std::array<std::uint8_t, 256> kCharClass = [] {
  std::array<std::uint8_t, 256> table{};  // kName
  for (const char c : {' ', '\t', '\r', '\v', '\f'}) {
    table[static_cast<unsigned char>(c)] = kSpace;
  }
  table['('] = kLpar;
  table[')'] = kRpar;
  table['='] = kEq;
  table[','] = kComma;
  table['#'] = kEnd;
  table['\n'] = kEnd;
  return table;
}();

constexpr unsigned bit(CharClass c) { return 1u << c; }

struct Cursor {
  const char* p;
  const char* end;  // end of the whole text

  // Class of the byte under the cursor; kEnd past the text.
  std::uint8_t at() const {
    return p < end ? kCharClass[static_cast<unsigned char>(*p)]
                   : std::uint8_t{kEnd};
  }
};

// The whitespace-trimmed run from the cursor up to (not including) the
// first byte whose class is in `stop`, or the end of the line's content.
// `bad` marks a run that is not a name: whitespace or one of "()=," between
// its first and last non-space byte.
struct Field {
  const char* begin;
  const char* end;
  bool bad = false;

  std::string_view view() const {
    return {begin, static_cast<std::size_t>(end - begin)};
  }
  bool empty() const { return begin == end; }
};

Field scan_field(Cursor& c, unsigned stop) {
  stop |= bit(kEnd);
  Cursor at = c;  // a local copy stays in registers
  while (at.at() == kSpace) ++at.p;
  Field f{at.p, at.p};
  bool gap = false;
  for (;;) {
    const char* run = at.p;
    while (at.p < at.end &&
           kCharClass[static_cast<unsigned char>(*at.p)] == kName) {
      ++at.p;
    }
    if (at.p != run) {
      f.bad |= gap;
      f.end = at.p;
    }
    const std::uint8_t cls = at.at();
    if ((stop >> cls) & 1u) break;
    if (cls == kSpace) {
      gap = true;  // leading spaces were skipped, so this one follows a byte
    } else {
      f.bad = true;  // a structural byte inside the run
      f.end = at.p + 1;
    }
    ++at.p;
  }
  c.p = at.p;
  return f;
}

// Only whitespace may follow a closing ')'.
void expect_line_end(Cursor& c, std::size_t line_no) {
  while (c.at() == kSpace) ++c.p;
  if (c.at() != kEnd) fail(line_no, "trailing characters after ')'");
}

// Signal names may not be empty or contain structural characters or
// whitespace; catching this here turns "garbage substring parsed as a name"
// into a line-numbered parse error.
void expect_signal_name(const Field& name, std::size_t line_no,
                        const char* what) {
  if (name.empty()) fail(line_no, std::string("empty ") + what + " name");
  if (name.bad) {
    fail(line_no, std::string("bad ") + what + " name " + quoted(name.view()));
  }
}

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

// INPUT(name) / OUTPUT(name); the cursor is just past the '('. Checks run
// in a fixed order: ')' present, nothing after it, the keyword, the name.
void lex_declaration(const Field& kind, Cursor& c, std::size_t line_no,
                     BenchText& out) {
  const Field arg = scan_field(c, bit(kRpar));
  if (c.at() != kRpar) fail(line_no, "missing ')' in declaration");
  ++c.p;
  expect_line_end(c, line_no);
  if (keyword_is(kind.view(), "INPUT")) {
    expect_signal_name(arg, line_no, "input");
    out.inputs.push_back({arg.view(), line_no});
  } else if (keyword_is(kind.view(), "OUTPUT")) {
    expect_signal_name(arg, line_no, "output");
    out.outputs.push_back({arg.view(), line_no});
  } else {
    fail(line_no, "expected INPUT/OUTPUT, got " + quoted(kind.view()));
  }
}

// name = TYPE(a, b, ...); the cursor is just past the '='. Checks run in a
// fixed order: the gate name, a right-hand side, '(', ')', nothing after
// it, the type, each fanin name in order, the arity.
void lex_gate(const Field& lhs, Cursor& c, std::size_t line_no,
              BenchText& out) {
  expect_signal_name(lhs, line_no, "gate");
  const Field type = scan_field(c, bit(kLpar));
  if (c.at() != kLpar) {
    if (type.empty()) fail(line_no, "missing gate expression after '='");
    fail(line_no, "malformed gate definition (expected TYPE(args))");
  }
  ++c.p;
  // An empty list is zero fanins; otherwise every comma-separated token
  // must be a name (so "AND(a,)" and "AND(a,,b)" are errors). The first
  // offending token is reported only once the line's shape is known good.
  const std::size_t begin = out.fanins.size();
  std::optional<Field> first_bad;
  for (bool more = true; more;) {
    const Field fanin = scan_field(c, bit(kComma) | bit(kRpar));
    const std::uint8_t cls = c.at();
    if (cls == kEnd) fail(line_no, "missing ')' in gate definition");
    ++c.p;
    more = cls == kComma;
    if (!more && fanin.empty() && out.fanins.size() == begin) break;  // "()"
    if (!first_bad && (fanin.empty() || fanin.bad)) first_bad = fanin;
    out.fanins.push_back(fanin.view());
  }
  expect_line_end(c, line_no);
  const GateType gate_type = parse_gate_type(type.view(), line_no);
  if (first_bad) {
    if (first_bad->empty()) {
      fail(line_no, "empty fanin name in " + quoted(lhs.view()));
    }
    expect_signal_name(*first_bad, line_no, "fanin");
  }
  const std::size_t count = out.fanins.size() - begin;
  expect_arity(gate_type, count, lhs.view(), line_no);
  out.gates.push_back({lhs.view(), gate_type, begin, count, line_no});
}

BenchText lex(std::string_view text) {
  BenchText out;
  // Every gate sits on its own line and has at most one more fanin than
  // its list has commas.
  std::size_t lines = 1;
  std::size_t commas = 0;
  for (const char ch : text) {
    lines += ch == '\n';
    commas += ch == ',';
  }
  out.gates.reserve(lines);
  out.fanins.reserve(lines + commas);
  Cursor c{text.data(), text.data() + text.size()};
  for (std::size_t line_no = 1; c.p < c.end; ++line_no) {
    // The first '(' or '=' decides the statement: a '(' first means any
    // '=' sits inside the argument list, so "OUTPUT(a=b)" is rejected as
    // a bad name.
    const Field head = scan_field(c, bit(kLpar) | bit(kEq));
    switch (c.at()) {
      case kLpar:
        ++c.p;
        lex_declaration(head, c, line_no, out);
        break;
      case kEq:
        ++c.p;
        lex_gate(head, c, line_no, out);
        break;
      default:  // end of the line's content
        if (!head.empty()) {
          fail(line_no, "malformed declaration (expected INPUT(name) or "
                        "OUTPUT(name))");
        }
    }
    // The cursor sits at the content's end: '#', '\n' or the text's end.
    if (c.p < c.end && *c.p == '#') {
      const void* nl =
          std::memchr(c.p, '\n', static_cast<std::size_t>(c.end - c.p));
      c.p = nl != nullptr ? static_cast<const char*>(nl) : c.end;
    }
    if (c.p < c.end) ++c.p;  // the '\n'
  }
  return out;
}

// --- name index ----------------------------------------------------------------

// Open-addressed name -> id table with linear probing. Each 8-byte slot
// holds a name's 32-bit hash and the index of its entry in a dense
// {name, id} array, so a probe reads one small slot and compares text only
// on a hash match. Names are views owned by the caller. Grows to keep the
// load at most 2/3.
//
// The bulk calls hash every name first, then probe in order with the slot
// of the name kAhead places on prefetched, so the cache misses of
// consecutive names overlap.
class NameIndex {
 public:
  explicit NameIndex(std::size_t expected) {
    entries_.reserve(expected);
    rehash(expected);
  }

  // Adds name -> id; false (and no change) when the name is already present.
  bool insert(std::string_view name, GateId id) {
    return insert(name, hash_of(name), id);
  }

  // kNullGate when absent.
  GateId find(std::string_view name) const {
    return id_at(probe(name, hash_of(name)));
  }

  // insert(name_at(i), first_id + i) for i = 0, 1, ... in order. Returns
  // `count`, or the first i whose name is already present (nothing from i
  // on is inserted).
  template <typename NameAt>
  std::size_t insert_all(std::size_t count, NameAt name_at, GateId first_id) {
    std::vector<std::uint32_t> hashes(count);
    for (std::size_t i = 0; i < count; ++i) hashes[i] = hash_of(name_at(i));
    // Grow once up front so the slot array does not move under the
    // prefetches.
    const std::size_t total = entries_.size() + count;
    if (3 * total > 2 * slots_.size()) rehash(total);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = 0; i < count; ++i) {
      if (i + kAhead < count) {
        __builtin_prefetch(&slots_[hashes[i + kAhead] & mask]);
      }
      if (!insert(name_at(i), hashes[i], first_id + static_cast<GateId>(i))) {
        return i;
      }
    }
    return count;
  }

  // ids[k] = find(names[k]) for every k.
  void find_all(std::span<const std::string_view> names,
                std::span<GateId> ids) const {
    static_assert(sizeof(GateId) == sizeof(std::uint32_t));
    // ids doubles as the hash buffer: ids[k] holds names[k]'s hash until
    // its lookup overwrites it.
    const std::size_t n = names.size();
    for (std::size_t k = 0; k < n; ++k) ids[k] = hash_of(names[k]);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t k = 0; k < n; ++k) {
      if (k + kAhead < n) __builtin_prefetch(&slots_[ids[k + kAhead] & mask]);
      ids[k] = id_at(probe(names[k], ids[k]));
    }
  }

 private:
  static constexpr std::size_t kAhead = 16;
  static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};

  struct Slot {
    std::uint32_t hash = 0;
    std::uint32_t entry = kEmpty;  // kEmpty marks an empty slot
  };

  struct Entry {
    std::string_view name;
    GateId id;
  };

  static std::uint32_t hash_of(std::string_view name) {
    return static_cast<std::uint32_t>(std::hash<std::string_view>{}(name));
  }

  bool insert(std::string_view name, std::uint32_t hash, GateId id) {
    if (3 * (entries_.size() + 1) > 2 * slots_.size()) {
      rehash(2 * entries_.size() + 2);
    }
    Slot& slot = slots_[probe(name, hash)];
    if (slot.entry != kEmpty) return false;
    slot = Slot{hash, static_cast<std::uint32_t>(entries_.size())};
    entries_.push_back({name, id});
    return true;
  }

  GateId id_at(std::size_t slot) const {
    const std::uint32_t entry = slots_[slot].entry;
    return entry == kEmpty ? kNullGate : entries_[entry].id;
  }

  // Index of name's slot, or of the empty slot where it would go.
  std::size_t probe(std::string_view name, std::uint32_t hash) const {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
      const Slot& slot = slots_[i];
      if (slot.entry == kEmpty ||
          (slot.hash == hash && entries_[slot.entry].name == name)) {
        return i;
      }
    }
  }

  void rehash(std::size_t expected) {
    std::size_t capacity = 16;
    while (2 * capacity < 3 * expected) capacity *= 2;
    std::vector<Slot> old(capacity);
    old.swap(slots_);
    const std::size_t mask = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.entry == kEmpty) continue;
      std::size_t i = slot.hash & mask;
      while (slots_[i].entry != kEmpty) i = (i + 1) & mask;
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
  std::vector<Entry> entries_;
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
  const std::size_t dup_input = index.insert_all(
      bench.inputs.size(), [&](std::size_t i) { return bench.inputs[i].name; },
      0);
  if (dup_input < bench.inputs.size()) {
    const Declaration& in = bench.inputs[dup_input];
    fail(in.line_no, "duplicate INPUT(" + std::string(in.name) + ")");
  }
  ResolvedIds ids;
  ids.placeholder = bench.inputs.empty() && !bench.gates.empty() &&
                    !is_source(bench.gates.front().type);
  const GateId first = static_cast<GateId>(bench.inputs.size() +
                                           (ids.placeholder ? 1 : 0));
  const std::size_t dup_gate = index.insert_all(
      bench.gates.size(), [&](std::size_t i) { return bench.gates[i].name; },
      first);
  if (dup_gate < bench.gates.size()) {
    const PendingGate& g = bench.gates[dup_gate];
    fail(g.line_no, "duplicate definition of " + quoted(g.name));
  }
  ids.fanins.resize(bench.fanins.size());
  index.find_all(bench.fanins, ids.fanins);
  // Fanins are stored in definition order, so the first miss is the one
  // the earliest gate reads.
  for (const PendingGate& g : bench.gates) {
    for (std::size_t k = g.fanin_begin; k < g.fanin_begin + g.fanin_count;
         ++k) {
      if (ids.fanins[k] == kNullGate) {
        fail(g.line_no, "undefined signal " + quoted(bench.fanins[k]));
      }
    }
  }
  ids.outputs.reserve(bench.outputs.size());
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
  netlist.reserve(bench.inputs.size() + (ids.placeholder ? 1 : 0) +
                      bench.gates.size(),
                  ids.fanins.size());
  for (const Declaration& in : bench.inputs) {
    if (is_key_name(in.name)) {
      netlist.add_key(std::string(in.name));
    } else {
      netlist.add_input(std::string(in.name));
    }
  }
  // A gate whose fanins all exist already is added as is. Fanins may point
  // forward or form cycles, so any other logic gate starts on placeholder
  // id 0 and is patched once all gates exist. Constants keep no name (only
  // output ports carry it).
  if (ids.placeholder) netlist.add_const(false);
  std::vector<GateId> zeros;
  std::vector<std::size_t> forward;  // gates to patch, definition order
  for (std::size_t i = 0; i < bench.gates.size(); ++i) {
    const PendingGate& g = bench.gates[i];
    if (is_source(g.type)) {
      netlist.add_const(g.type == GateType::kConst1);
      continue;
    }
    std::span<const GateId> fanin(ids.fanins.data() + g.fanin_begin,
                                  g.fanin_count);
    const GateId self = static_cast<GateId>(netlist.num_gates());
    bool reads_forward = false;
    for (const GateId f : fanin) reads_forward |= f >= self;
    if (reads_forward) {
      forward.push_back(i);
      if (zeros.size() < g.fanin_count) zeros.resize(g.fanin_count, 0);
      fanin = std::span<const GateId>(zeros.data(), g.fanin_count);
    }
    netlist.add_gate(g.type, fanin, std::string(g.name));
  }
  const GateId first = static_cast<GateId>(netlist.num_gates() -
                                           bench.gates.size());
  for (const std::size_t i : forward) {
    const PendingGate& g = bench.gates[i];
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

}  // namespace

Netlist read_bench_string(std::string_view text, std::string name) {
  return build(lex(text), std::move(name));
}

std::string read_bench_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open bench file: " + path);
  std::ostringstream text;
  text << in.rdbuf();
  if (in.bad()) throw std::runtime_error("cannot read bench file: " + path);
  return std::move(text).str();
}

Netlist read_bench_file(const std::string& path) {
  const std::string text = read_bench_text(path);
  std::string name = path;
  const std::size_t slash = name.find_last_of('/');
  if (slash != std::string::npos) name.erase(0, slash + 1);
  return read_bench_string(text, std::move(name));
}

namespace {

// Every gate needs a unique printable name: the first gate carrying a name
// keeps it, anonymous and repeated names become the first free "n<k>".
// Views point into the netlist or into `generated`.
std::vector<std::string_view> printable_names(
    const Netlist& netlist, std::deque<std::string>& generated) {
  const std::size_t n = netlist.num_gates();
  std::vector<std::string_view> names(n);
  NameIndex used(n);
  for (std::size_t g = 0; g < n; ++g) {
    const std::string& name = netlist.gate_name(static_cast<GateId>(g));
    if (!name.empty() && used.insert(name, static_cast<GateId>(g))) {
      names[g] = name;
    }
  }
  std::size_t counter = 0;
  for (std::size_t g = 0; g < n; ++g) {
    if (!names[g].empty()) continue;
    char buffer[24] = {'n'};
    std::string_view candidate;
    do {
      const char* end =
          std::to_chars(buffer + 1, buffer + sizeof buffer, counter++).ptr;
      candidate = std::string_view(buffer, end - buffer);
    } while (used.find(candidate) != kNullGate);
    generated.emplace_back(candidate);
    used.insert(generated.back(), static_cast<GateId>(g));
    names[g] = generated.back();
  }
  return names;
}

// The reader tells keys from primary inputs by name alone, so a net whose
// printable name disagrees with its role would come back in the other role.
void expect_role_preserved(std::span<const GateId> nets,
                           std::span<const std::string_view> names,
                           bool keys) {
  for (const GateId g : nets) {
    if (is_key_name(names[g]) == keys) continue;
    throw std::invalid_argument(
        std::string("write_bench: ") + (keys ? "key" : "primary input") +
        " net " + quoted(names[g]) +
        (keys ? " lacks" : " has") +
        " the keyinput/KEYINPUT prefix and would read back as " +
        (keys ? "a primary input" : "a key"));
  }
}

}  // namespace

std::string write_bench_string(const Netlist& netlist) {
  std::deque<std::string> generated;
  const std::vector<std::string_view> names =
      printable_names(netlist, generated);
  expect_role_preserved(netlist.inputs(), names, /*keys=*/false);
  expect_role_preserved(netlist.keys(), names, /*keys=*/true);
  std::string out = "# " + netlist.name() + " (" +
                    std::to_string(netlist.num_inputs()) + " inputs, " +
                    std::to_string(netlist.num_keys()) + " keys, " +
                    std::to_string(netlist.num_outputs()) + " outputs, " +
                    std::to_string(netlist.num_logic_gates()) + " gates)\n";
  const auto declare = [&](std::string_view kind, GateId g) {
    out += kind;
    out += '(';
    out += names[g];
    out += ")\n";
  };
  for (const GateId g : netlist.inputs()) declare("INPUT", g);
  for (const GateId g : netlist.keys()) declare("INPUT", g);
  for (const OutputPort& o : netlist.outputs()) declare("OUTPUT", o.gate);
  for (std::size_t g = 0; g < netlist.num_gates(); ++g) {
    const GateView gate = netlist.gate(static_cast<GateId>(g));
    if (gate.type == GateType::kInput || gate.type == GateType::kKey) continue;
    out += names[g];
    out += " = ";
    out += to_string(gate.type);  // constants print as CONST0() / CONST1()
    out += '(';
    for (std::size_t i = 0; i < gate.fanin.size(); ++i) {
      if (i != 0) out += ", ";
      out += names[gate.fanin[i]];
    }
    out += ")\n";
  }
  return out;
}

void write_bench(const Netlist& netlist, std::ostream& out) {
  const std::string text = write_bench_string(netlist);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
}

void write_bench_file(const Netlist& netlist, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot write bench file: " + path);
  write_bench(netlist, out);
}

}  // namespace fl::netlist
