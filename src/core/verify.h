// Verification and corruption metrics for locked circuits.
#pragma once

#include <cstdint>
#include <random>

#include "core/locked_circuit.h"

namespace fl::core {

// Checks that `locked` under `key` matches `original` on `rounds` x 64
// random patterns (relaxation simulation if the locked netlist is cyclic).
// For acyclic locked netlists, pass `also_sat_check` to additionally run a
// complete SAT equivalence proof. Throws std::invalid_argument if
// rounds < 1 (no pattern would be compared, so every key would pass).
bool verify_unlocks(const netlist::Netlist& original,
                    const netlist::Netlist& locked,
                    const std::vector<bool>& key, int rounds, std::uint64_t seed,
                    bool also_sat_check = false);

inline bool verify_unlocks(const netlist::Netlist& original,
                           const LockedCircuit& locked, int rounds,
                           std::uint64_t seed, bool also_sat_check = false) {
  return verify_unlocks(original, locked.netlist, locked.correct_key, rounds,
                        seed, also_sat_check);
}

// Fraction of (pattern, output-bit) pairs that differ from the original
// under `key`, over `rounds` x 64 random patterns. Patterns that fail to
// converge (cyclic oscillation) count as fully corrupted. Throws
// std::invalid_argument if rounds < 1.
double error_rate(const netlist::Netlist& original,
                  const netlist::Netlist& locked, const std::vector<bool>& key,
                  int rounds, std::uint64_t seed);

// Average error rate over `num_keys` uniformly random keys — the paper's
// "output corruption" claim (Full-Lock corrupts heavily under wrong keys,
// unlike SARLock/Anti-SAT point functions). Throws std::invalid_argument
// if rounds_per_key < 1.
struct CorruptionStats {
  double mean_error_rate = 0.0;
  double min_error_rate = 1.0;
  double max_error_rate = 0.0;
  int keys_sampled = 0;
};
CorruptionStats output_corruption(const netlist::Netlist& original,
                                  const LockedCircuit& locked, int num_keys,
                                  int rounds_per_key, std::uint64_t seed);

}  // namespace fl::core
