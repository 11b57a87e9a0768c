// Seeded .bench mutation generator shared by the reader fuzz
// (test_bench_fuzz) and the differential reader check
// (test_bench_reference): a small corpus of valid files and a mutator that
// overwrites, inserts (NUL and high bytes included), deletes, duplicates,
// drops, truncates, swaps and splices lines.
#pragma once

#include <algorithm>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/full_lock.h"
#include "netlist/bench_io.h"
#include "netlist/generator.h"
#include "netlist/profiles.h"

namespace fl::netlist::bench_mutants {

inline std::vector<std::string> seed_corpus() {
  std::vector<std::string> corpus;
  corpus.push_back(write_bench_string(make_c17()));
  GeneratorConfig config;
  config.num_inputs = 6;
  config.num_outputs = 3;
  config.num_gates = 24;
  config.seed = 3;
  corpus.push_back(write_bench_string(generate_circuit(config)));
  const core::LockedCircuit cyclic = core::full_lock(
      make_circuit("c432", 7),
      core::FullLockConfig::with_plrs({4}, core::ClnTopology::kBanyanNonBlocking,
                                      core::CycleMode::kForce));
  corpus.push_back(write_bench_string(cyclic.netlist));
  corpus.push_back(
      "# hand-written\r\nINPUT(s)\r\nINPUT(keyinput0)\r\nOUTPUT(y)\r\n"
      "OUTPUT(c)\r\nc = CONST1()\r\nm = MUX(s, keyinput0, c)  # mux\r\n"
      "y = XNOR(m, t, s)\r\nt = BUFF(m)\r\nz = INV(t)\r\n");
  corpus.push_back("OUTPUT(y)\ny = NOR(y0, y1)\ny0 = CONST0()\n"
                   "y1 = NOT(y)\nw = AND(w, y)\n");
  return corpus;
}

// Bytes that steer the lexer into its interesting branches.
inline constexpr std::string_view kAlphabet = "()=,#\t \r\nakyN0OTCST1_";

inline std::string mutate(std::string text, const std::vector<std::string>& corpus,
                   std::mt19937_64& rng) {
  const auto pick = [&](std::size_t n) {
    return n == 0 ? 0 : static_cast<std::size_t>(rng() % n);
  };
  const auto line_at = [&](std::size_t pos) {
    std::size_t begin = text.rfind('\n', pos);
    begin = begin == std::string::npos ? 0 : begin + 1;
    std::size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    return std::pair{begin, end};
  };
  const int edits = 1 + static_cast<int>(rng() % 3);
  for (int e = 0; e < edits; ++e) {
    const std::size_t pos = pick(text.size());
    switch (rng() % 8) {
      case 0:  // overwrite a byte
        if (!text.empty()) text[pos] = kAlphabet[pick(kAlphabet.size())];
        break;
      case 1:  // insert a byte (any value, NUL and high bytes included)
        text.insert(pos, 1,
                    rng() % 4 == 0 ? static_cast<char>(rng())
                                   : kAlphabet[pick(kAlphabet.size())]);
        break;
      case 2:  // delete a short run
        if (!text.empty()) text.erase(pos, 1 + pick(6));
        break;
      case 3: {  // duplicate a line somewhere else
        const auto [b, end] = line_at(pos);
        const std::string line = text.substr(b, end - b) + "\n";
        text.insert(pick(text.size() + 1), line);
        break;
      }
      case 4: {  // drop a line
        const auto [b, end] = line_at(pos);
        text.erase(b, end - b);
        break;
      }
      case 5:  // truncate
        text.resize(pos);
        break;
      case 6: {  // swap two lines
        const auto [b1, e1] = line_at(pos);
        const std::string first = text.substr(b1, e1 - b1);
        text.erase(b1, e1 - b1);
        const auto [b2, e2] = line_at(pick(text.size()));
        const std::string second = text.substr(b2, e2 - b2);
        text.replace(b2, e2 - b2, first);
        text.insert(std::min(b1, text.size()), second);
        break;
      }
      case 7: {  // splice in a line of another corpus entry
        const std::string& other = corpus[pick(corpus.size())];
        std::size_t b = other.rfind('\n', pick(other.size()));
        b = b == std::string::npos ? 0 : b + 1;
        const std::size_t end = other.find('\n', b);
        text.insert(pick(text.size() + 1),
                    other.substr(b, end == std::string::npos ? end : end - b + 1));
        break;
      }
    }
  }
  return text;
}

}  // namespace fl::netlist::bench_mutants
