// Verification & corruption metrics.
#include <gtest/gtest.h>

#include "core/full_lock.h"
#include "core/verify.h"
#include "locking/rll.h"
#include "locking/sarlock.h"
#include "netlist/profiles.h"

namespace fl::core {
namespace {

using netlist::GateId;
using netlist::GateType;
using netlist::Netlist;

TEST(VerifyUnlocks, AcceptsIdentity) {
  const Netlist c17 = netlist::make_c17();
  EXPECT_TRUE(verify_unlocks(c17, c17, {}, 8, 1, /*sat=*/true));
}

TEST(VerifyUnlocks, RejectsWrongKey) {
  const Netlist original = netlist::make_circuit("c432", 3);
  const LockedCircuit locked =
      full_lock(original, FullLockConfig::with_plrs({8}));
  // Inverting the whole key scrambles routing, inverters and LUT tables;
  // use the complete SAT check so the verdict is exact.
  std::vector<bool> wrong = locked.correct_key;
  wrong.flip();
  EXPECT_FALSE(
      verify_unlocks(original, locked.netlist, wrong, 16, 1, /*sat=*/true));
  // And statistically: random wrong keys corrupt at least sometimes.
  const CorruptionStats stats = output_corruption(original, locked, 16, 4, 9);
  EXPECT_GT(stats.mean_error_rate, 0.0);
}

TEST(VerifyUnlocks, InterfaceMismatchIsFalse) {
  const Netlist c17 = netlist::make_c17();
  const Netlist other = netlist::make_circuit("i4", 1);
  EXPECT_FALSE(verify_unlocks(c17, other, {}, 1, 1));
}

TEST(VerifyUnlocks, NonPositiveRoundsRejected) {
  // With no rounds nothing is compared: a wrong key must not pass by
  // default, so rounds < 1 is a caller error on every entry point.
  const Netlist original = netlist::make_circuit("c432", 1);
  lock::RllConfig rll;
  rll.num_keys = 16;
  const LockedCircuit locked = lock::rll_lock(original, rll);
  std::vector<bool> wrong = locked.correct_key;
  wrong.flip();
  ASSERT_FALSE(verify_unlocks(original, locked.netlist, wrong, 1, 1));
  for (const int rounds : {0, -3}) {
    EXPECT_THROW(verify_unlocks(original, locked.netlist, wrong, rounds, 1),
                 std::invalid_argument);
    EXPECT_THROW(verify_unlocks(original, locked, rounds, 1),
                 std::invalid_argument);
    EXPECT_THROW(error_rate(original, locked.netlist, wrong, rounds, 1),
                 std::invalid_argument);
    EXPECT_THROW(output_corruption(original, locked, 4, rounds, 1),
                 std::invalid_argument);
  }
}

TEST(ErrorRate, ZeroForCorrectKey) {
  const Netlist original = netlist::make_circuit("c499", 4);
  const LockedCircuit locked =
      full_lock(original, FullLockConfig::with_plrs({8}));
  EXPECT_EQ(error_rate(original, locked.netlist, locked.correct_key, 8, 2),
            0.0);
}

TEST(ErrorRate, HalfForInvertedOutput) {
  // locked = original with one output inverted -> that output is always
  // wrong; with 2 outputs the bit error rate is 0.5.
  const Netlist c17 = netlist::make_c17();
  Netlist broken = c17;
  const GateId inv =
      broken.add_gate(GateType::kNot, {broken.outputs()[0].gate});
  broken.set_output_gate(0, inv);
  const double e = error_rate(c17, broken, {}, 16, 3);
  EXPECT_NEAR(e, 0.5, 1e-9);
}

TEST(Corruption, FullLockBeatsSarlock) {
  // The paper's §2 property (2): DPLL-hard schemes corrupt heavily, point
  // functions barely.
  const Netlist original = netlist::make_circuit("c880", 5);
  const LockedCircuit fulllock =
      full_lock(original, FullLockConfig::with_plrs({16}));
  lock::SarLockConfig sar;
  sar.num_keys = 12;
  const LockedCircuit sarlock = lock::sarlock_lock(original, sar);

  const CorruptionStats cf = output_corruption(original, fulllock, 16, 4, 6);
  const CorruptionStats cs = output_corruption(original, sarlock, 16, 4, 6);
  EXPECT_GT(cf.mean_error_rate, 10 * std::max(cs.mean_error_rate, 1e-6));
}

TEST(Corruption, StatsRangesSane) {
  const Netlist original = netlist::make_circuit("c432", 6);
  lock::RllConfig rll;
  rll.num_keys = 16;
  const LockedCircuit locked = lock::rll_lock(original, rll);
  const CorruptionStats stats = output_corruption(original, locked, 20, 4, 7);
  EXPECT_GT(stats.keys_sampled, 0);
  EXPECT_LE(stats.min_error_rate, stats.mean_error_rate);
  EXPECT_GE(stats.max_error_rate, stats.mean_error_rate);
  EXPECT_LE(stats.max_error_rate, 1.0);
}

}  // namespace
}  // namespace fl::core
