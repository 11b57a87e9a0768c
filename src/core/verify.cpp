#include "core/verify.h"

#include <bit>
#include <stdexcept>
#include <string>

#include "cnf/miter.h"
#include "netlist/simulator.h"

namespace fl::core {

using netlist::Netlist;
using netlist::Word;

namespace {

std::vector<Word> random_words(std::size_t n, std::mt19937_64& rng) {
  std::vector<Word> w(n);
  for (Word& x : w) x = rng();
  return w;
}

// Zero or negative rounds would compare nothing and accept any key.
void check_rounds(int rounds, const char* what) {
  if (rounds < 1) {
    throw std::invalid_argument(std::string(what) + ": rounds must be >= 1");
  }
}

std::vector<Word> key_words(const std::vector<bool>& key) {
  std::vector<Word> w(key.size());
  for (std::size_t i = 0; i < key.size(); ++i) {
    w[i] = key[i] ? ~Word{0} : Word{0};
  }
  return w;
}

// Returns (#differing bits, #total bits) for one 64-pattern round against a
// cyclic locked netlist.
std::pair<std::uint64_t, std::uint64_t> diff_round_cyclic(
    const netlist::Simulator& gold, const Netlist& locked,
    const std::vector<bool>& key, std::mt19937_64& rng) {
  const std::vector<Word> inputs = random_words(locked.num_inputs(), rng);
  const std::vector<Word> kw = key_words(key);
  const std::vector<Word> expected = gold.run(inputs, {});
  const netlist::CyclicSimResult r =
      netlist::simulate_cyclic(locked, inputs, kw);
  std::uint64_t diff = 0;
  for (std::size_t o = 0; o < expected.size(); ++o) {
    // Non-converged patterns count as wrong on every output.
    diff += std::popcount((expected[o] ^ r.outputs[o]) | ~r.converged);
  }
  return {diff, expected.size() * 64};
}

// All rounds at once through the wide simulator (acyclic locked netlists).
// Draws the RNG in the same round-major order as the per-round path, so
// results are bit-identical for a given seed.
std::pair<std::uint64_t, std::uint64_t> diff_batch(
    const netlist::Simulator& gold, const netlist::Simulator& locked_sim,
    const std::vector<bool>& key, int rounds, std::mt19937_64& rng) {
  const std::size_t n_in = gold.netlist().num_inputs();
  const std::size_t n_out = gold.netlist().num_outputs();
  const std::size_t n_words = static_cast<std::size_t>(rounds);
  std::vector<Word> inputs(n_in * n_words);
  for (std::size_t r = 0; r < n_words; ++r) {
    for (std::size_t i = 0; i < n_in; ++i) inputs[i * n_words + r] = rng();
  }
  const std::vector<Word> kw = key_words(key);
  netlist::Simulator::Scratch scratch;
  std::vector<Word> expected(n_out * n_words);
  std::vector<Word> got(n_out * n_words);
  gold.run_batch(inputs, {}, n_words, scratch, expected);
  locked_sim.run_batch(inputs, kw, n_words, scratch, got);
  std::uint64_t diff = 0;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    diff += std::popcount(expected[i] ^ got[i]);
  }
  return {diff, expected.size() * 64};
}

}  // namespace

bool verify_unlocks(const Netlist& original, const Netlist& locked,
                    const std::vector<bool>& key, int rounds, std::uint64_t seed,
                    bool also_sat_check) {
  check_rounds(rounds, "verify_unlocks");
  if (original.num_inputs() != locked.num_inputs() ||
      original.num_outputs() != locked.num_outputs()) {
    return false;
  }
  std::mt19937_64 rng(seed);
  const netlist::Simulator gold(original);
  const bool cyclic = locked.is_cyclic();
  if (cyclic) {
    for (int r = 0; r < rounds; ++r) {
      const auto [diff, total] = diff_round_cyclic(gold, locked, key, rng);
      if (diff != 0) return false;
    }
  } else {
    const netlist::Simulator locked_sim(locked);
    const auto [diff, total] = diff_batch(gold, locked_sim, key, rounds, rng);
    if (diff != 0) return false;
  }
  if (also_sat_check && !cyclic) {
    return cnf::check_equivalence(original, {}, locked, key);
  }
  return true;
}

double error_rate(const Netlist& original, const Netlist& locked,
                  const std::vector<bool>& key, int rounds, std::uint64_t seed) {
  check_rounds(rounds, "error_rate");
  std::mt19937_64 rng(seed);
  const netlist::Simulator gold(original);
  const bool cyclic = locked.is_cyclic();
  if (!cyclic) {
    const netlist::Simulator locked_sim(locked);
    const auto [diff, total] = diff_batch(gold, locked_sim, key, rounds, rng);
    return total == 0 ? 0.0 : static_cast<double>(diff) / total;
  }
  std::uint64_t diff = 0, total = 0;
  for (int r = 0; r < rounds; ++r) {
    const auto [d, t] = diff_round_cyclic(gold, locked, key, rng);
    diff += d;
    total += t;
  }
  return total == 0 ? 0.0 : static_cast<double>(diff) / total;
}

CorruptionStats output_corruption(const Netlist& original,
                                  const LockedCircuit& locked, int num_keys,
                                  int rounds_per_key, std::uint64_t seed) {
  check_rounds(rounds_per_key, "output_corruption");
  std::mt19937_64 rng(seed);
  CorruptionStats stats;
  for (int k = 0; k < num_keys; ++k) {
    std::vector<bool> key(locked.correct_key.size());
    for (std::size_t i = 0; i < key.size(); ++i) key[i] = (rng() & 1) != 0;
    if (key == locked.correct_key) continue;  // want wrong keys only
    const double e =
        error_rate(original, locked.netlist, key, rounds_per_key, rng());
    stats.mean_error_rate += e;
    stats.min_error_rate = std::min(stats.min_error_rate, e);
    stats.max_error_rate = std::max(stats.max_error_rate, e);
    ++stats.keys_sampled;
  }
  if (stats.keys_sampled > 0) stats.mean_error_rate /= stats.keys_sampled;
  return stats;
}

}  // namespace fl::core
