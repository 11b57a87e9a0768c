// Seeded mutation fuzz of the .bench reader. Every mutant of a small corpus
// must either parse into a netlist that validates (and survives another
// write/read), or be rejected with a std::runtime_error naming the bench
// text ("bench line N: ..." or "bench: ..."). Any other exception type is a
// failure, and a crash or out-of-bounds access fails the run (the test runs
// in the AddressSanitizer + UndefinedBehaviorSanitizer build too).
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "bench_mutants.h"
#include "netlist/bench_io.h"

namespace fl::netlist {
namespace {

using bench_mutants::mutate;
using bench_mutants::seed_corpus;

TEST(BenchFuzz, MutantsParseCleanlyOrFailWithBenchErrors) {
  const std::vector<std::string> corpus = seed_corpus();
  std::mt19937_64 rng(20190602);
  int accepted = 0;
  int rejected = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::string text = mutate(corpus[i % corpus.size()], corpus, rng);
    try {
      const Netlist n = read_bench_string(text, "mutant");
      n.validate();
      const Netlist again = read_bench_string(write_bench_string(n));
      EXPECT_EQ(again.num_gates(), n.num_gates()) << text;
      ++accepted;
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      if (what.find("bench line ") == std::string::npos &&
          what.find("bench:") == std::string::npos) {
        ADD_FAILURE() << "unexpected message '" << what << "' for:\n" << text;
      }
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "non-parse exception '" << e.what() << "' for:\n"
                    << text;
    }
    if (HasFailure()) break;
  }
  // Both outcomes must be exercised, or the mutator is degenerate.
  EXPECT_GT(accepted, 1000);
  EXPECT_GT(rejected, 1000);
}

}  // namespace
}  // namespace fl::netlist
