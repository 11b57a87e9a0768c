// ISCAS-85 ".bench" reader/writer.
//
// Grammar, one statement per line ('#' starts a comment that runs to the end
// of the line; blank lines, CRLF endings and spaces or tabs around tokens are
// ignored; keywords and gate types are case-insensitive):
//   INPUT(name)
//   OUTPUT(name)
//   name = GATE(a, b, ...)     GATE in {AND,NAND,OR,NOR,XOR,XNOR,NOT,INV,
//                                       BUF,BUFF,MUX,CONST0,CONST1}
// Names are non-empty and contain no whitespace and none of "()=,#".
// Gates may be defined in any order and may form cycles (Full-Lock emits
// cyclic locks).
//
// Logic-locking convention: inputs whose name starts with "keyinput" are
// parsed as key inputs (and written back the same way).
//
// Gate ids are assigned deterministically: INPUT lines (inputs and keys) in
// declaration order, then gates in definition order. A file with no INPUT
// line whose first gate is not a constant gets an unnamed CONST0 at id 0
// first. Constants are added unnamed; outputs refer to them by port name.
//
// The reader rejects, with a std::runtime_error whose message starts with
// "bench line N:", any line that does not match the grammar, a bad or empty
// name, an unknown gate type, a wrong fanin count (NOT/BUF take 1, MUX 3,
// CONST0/CONST1 none, every other gate at least 2), a name declared or
// defined twice (INPUT included), a fanin that is never defined, and an
// OUTPUT that is never defined.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "netlist/netlist.h"

namespace fl::netlist {

Netlist read_bench_string(std::string_view text, std::string name = "bench");
Netlist read_bench_file(const std::string& path);
// The whole file as one buffer, for callers that inspect the text before
// handing it to read_bench_string. Throws std::runtime_error if unreadable.
std::string read_bench_text(const std::string& path);

void write_bench(const Netlist& netlist, std::ostream& out);
std::string write_bench_string(const Netlist& netlist);
void write_bench_file(const Netlist& netlist, const std::string& path);

}  // namespace fl::netlist
