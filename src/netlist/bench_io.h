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
// Logic-locking convention: INPUT names that start with "keyinput" or
// "KEYINPUT" are parsed as key inputs, every other INPUT as a primary input.
// The writer keeps that round trip honest: it throws std::invalid_argument,
// naming the net, when a key's printable name lacks the prefix or a primary
// input's name has it, since the file would read back with the roles
// swapped.
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
// OUTPUT that is never defined. Lexing errors are reported before name
// errors; within a line the checks run in a fixed order (see bench_io.cpp).
//
// Reading is one forward scan per line over a 256-entry byte-class table
// that finds the comment, the statement's shape and every token bound at
// once, then one name resolution: an open-addressed table of 8-byte
// {hash, entry} slots over a dense {name, id} array, filled in declaration
// order and probed for every fanin with the slots a fixed distance ahead
// prefetched. The writer names anonymous and repeated nets through the same
// table.
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
