// Cooperative parallel SAT: clause-sharing soundness, cube-and-conquer
// partitioning, and the differential guarantees the attack relies on (a
// parallel solve must agree with a sequential solve on every instance).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <random>
#include <vector>

#include "attacks/oracle.h"
#include "attacks/sat_attack.h"
#include "core/full_lock.h"
#include "core/verify.h"
#include "netlist/profiles.h"
#include "sat/ksat.h"
#include "sat/parallel.h"
#include "sat/solver.h"

namespace fl::sat {
namespace {

bool satisfies(const Cnf& cnf, const std::vector<bool>& model) {
  for (const Clause& c : cnf.clauses) {
    bool sat = false;
    for (const Lit l : c) {
      if (model[l.var()] != l.negated()) {
        sat = true;
        break;
      }
    }
    if (!sat) return false;
  }
  return true;
}

void load(SolverIface& solver, const Cnf& cnf) {
  for (int v = 0; v < cnf.num_vars; ++v) solver.new_var();
  for (const Clause& c : cnf.clauses) solver.add_clause(c);
}

Cnf phase_transition_cnf(int num_vars, std::uint64_t seed) {
  KSatConfig config;
  config.num_vars = num_vars;
  config.num_clauses = static_cast<int>(num_vars * 4.26);
  config.seed = seed;
  return random_ksat(config);
}

TEST(ParMode, ParseRoundTrips) {
  for (const ParMode mode :
       {ParMode::kRace, ParMode::kShare, ParMode::kCubes}) {
    const auto parsed = parse_par_mode(to_string(mode));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, mode);
  }
  EXPECT_FALSE(parse_par_mode("portfolio").has_value());
  EXPECT_FALSE(parse_par_mode("").has_value());
}

TEST(BuildCubes, PartitionsTheAssignmentSpace) {
  const std::vector<Var> vars = {3, 7, 11};
  const std::vector<std::vector<Lit>> cubes = build_cubes(vars);
  ASSERT_EQ(cubes.size(), 8u);
  // Every total assignment of the split variables is consistent with
  // exactly one cube: the cubes partition the space.
  for (unsigned assignment = 0; assignment < 8; ++assignment) {
    int consistent = 0;
    for (const std::vector<Lit>& cube : cubes) {
      ASSERT_EQ(cube.size(), vars.size());
      bool matches = true;
      for (const Lit l : cube) {
        std::size_t j = 0;
        while (vars[j] != l.var()) ++j;
        const bool value = ((assignment >> j) & 1u) != 0;
        if (value == l.negated()) matches = false;
      }
      if (matches) ++consistent;
    }
    EXPECT_EQ(consistent, 1) << "assignment " << assignment;
  }
}

TEST(ClausePool, DedupsAcrossProducersAndSkipsOwnShard) {
  ClausePool pool(3, 16);
  const std::vector<Lit> c1 = {pos(0), neg(1)};
  const std::vector<Lit> c2 = {pos(2), pos(3), neg(4)};
  EXPECT_TRUE(pool.publish(0, c1, 2));
  EXPECT_FALSE(pool.publish(1, c1, 2));  // duplicate, any producer
  EXPECT_TRUE(pool.publish(1, c2, 2));

  // A consumer never re-imports from its own shard.
  std::size_t delivered = 0;
  const auto count = [&](std::span<const Lit>, std::uint32_t) { ++delivered; };
  EXPECT_EQ(pool.consume(0, 100, count), 1u);  // sees c2 only
  EXPECT_EQ(pool.consume(1, 100, count), 1u);  // sees c1 only
  EXPECT_EQ(pool.consume(2, 100, count), 2u);  // sees both
  EXPECT_EQ(delivered, 4u);
  // Cursors advanced: nothing new on a second pass.
  EXPECT_EQ(pool.consume(2, 100, count), 0u);

  const ClausePool::Stats stats = pool.stats();
  EXPECT_EQ(stats.published, 2u);
  EXPECT_EQ(stats.duplicates, 1u);
  EXPECT_EQ(stats.consumed, 4u);
}

TEST(ClausePool, RespectsBudgetAndCapacity) {
  ClausePool pool(2, 2);  // tiny shards: 2 clauses per producer
  for (int i = 0; i < 4; ++i) {
    const std::vector<Lit> c = {pos(i), neg(i + 1)};
    pool.publish(0, c, 2);
  }
  EXPECT_EQ(pool.stats().published, 2u);
  EXPECT_EQ(pool.stats().overflow, 2u);

  std::size_t delivered = 0;
  const auto count = [&](std::span<const Lit>, std::uint32_t) { ++delivered; };
  EXPECT_EQ(pool.consume(1, 1, count), 1u);  // budget cuts the batch
  EXPECT_EQ(pool.consume(1, 8, count), 1u);  // remainder next call
  EXPECT_EQ(delivered, 2u);
}

TEST(ParallelSolver, Width1MatchesPlainSolver) {
  const Cnf cnf = phase_transition_cnf(80, 5);
  Solver seq;
  load(seq, cnf);
  const LBool expected = seq.solve();

  ParallelConfig config;
  config.num_workers = 1;
  ParallelSolver par(config);
  load(par, cnf);
  EXPECT_EQ(par.solve(), expected);
  EXPECT_EQ(par.parallel_stats().inline_solves, 1u);
  EXPECT_EQ(par.pool(), nullptr);
  if (expected == LBool::kTrue) {
    EXPECT_EQ(par.model(), seq.model());
  }
}

TEST(ParallelSolver, ShareAgreesWithSequentialAcrossSeeds) {
  // The core differential guarantee: importing shared clauses must never
  // flip a SAT/UNSAT answer (every shared clause is a logical consequence
  // of the common formula). Phase-transition instances mix both outcomes.
  for (const std::uint64_t seed : {1, 2, 3, 4, 5, 6}) {
    const Cnf cnf = phase_transition_cnf(90, seed);
    Solver seq;
    load(seq, cnf);
    const LBool expected = seq.solve();
    ASSERT_NE(expected, LBool::kUndef);

    ParallelConfig config;
    config.num_workers = 4;
    config.mode = ParMode::kShare;
    config.inline_budget = 0;  // force the fan-out path under test
    ParallelSolver par(config);
    load(par, cnf);
    const LBool got = par.solve();
    EXPECT_EQ(got, expected) << "seed " << seed;
    if (got == LBool::kTrue) {
      EXPECT_TRUE(satisfies(cnf, par.model())) << "seed " << seed;
    }
  }
}

TEST(ParallelSolver, SharedClausesAreLogicalConsequences) {
  // Stronger than the differential: every clause still buffered in the pool
  // must individually follow from the formula (formula AND NOT C is UNSAT).
  const Cnf cnf = phase_transition_cnf(100, 1);
  ParallelConfig config;
  config.num_workers = 4;
  config.mode = ParMode::kShare;
  config.inline_budget = 0;  // force the fan-out path under test
  ParallelSolver par(config);
  load(par, cnf);
  par.solve();
  ASSERT_NE(par.pool(), nullptr);
  const auto shared = par.pool()->snapshot();
  ASSERT_GT(par.stats().exported_clauses, 0u);
  for (const auto& [clause, lbd] : shared) {
    Solver check;
    load(check, cnf);
    for (const Lit l : clause) check.add_clause({~l});
    EXPECT_EQ(check.solve(), LBool::kFalse)
        << "shared clause is not a consequence of the formula";
  }
}

TEST(ParallelSolver, CubesAgreeWithSequentialAcrossSeeds) {
  // Cube-and-conquer must return the sequential answer whether the instance
  // is SAT (some cube finds a model) or UNSAT (every cube refuted).
  for (const std::uint64_t seed : {1, 2, 3, 4, 5, 6}) {
    const Cnf cnf = phase_transition_cnf(90, seed);
    Solver seq;
    load(seq, cnf);
    const LBool expected = seq.solve();
    ASSERT_NE(expected, LBool::kUndef);

    ParallelConfig config;
    config.num_workers = 4;
    config.mode = ParMode::kCubes;
    config.cube_depth = 3;
    config.inline_budget = 0;  // force the fan-out path under test
    ParallelSolver par(config);
    load(par, cnf);
    par.set_split_candidates({0, 1, 2, 3, 4, 5});
    const LBool got = par.solve();
    EXPECT_EQ(got, expected) << "seed " << seed;
    EXPECT_EQ(par.parallel_stats().last_num_cubes, 8u);
    if (got == LBool::kTrue) {
      EXPECT_TRUE(satisfies(cnf, par.model())) << "seed " << seed;
    } else {
      // UNSAT requires the whole partition refuted, not an early exit.
      EXPECT_EQ(par.parallel_stats().cubes_unsat, 8u) << "seed " << seed;
    }
  }
}

TEST(ParallelSolver, AdaptiveProbeKeepsEasySolvesInline) {
  // A solve that finishes inside the probe's conflict budget must never pay
  // for a fan-out: the DIP loop issues hundreds of easy solves for every
  // hard one.
  const Cnf cnf = phase_transition_cnf(60, 4);
  Solver seq;
  load(seq, cnf);
  const LBool expected = seq.solve();

  ParallelConfig config;
  config.num_workers = 4;
  config.mode = ParMode::kShare;
  config.inline_budget = 1u << 20;  // comfortably above the instance
  ParallelSolver par(config);
  load(par, cnf);
  EXPECT_EQ(par.solve(), expected);
  EXPECT_EQ(par.parallel_stats().inline_solves, 1u);
  EXPECT_EQ(par.parallel_stats().parallel_solves, 0u);
  EXPECT_EQ(par.parallel_stats().probe_escalations, 0u);
}

TEST(ParallelSolver, AdaptiveProbeEscalatesHardSolves) {
  // A probe budget the instance cannot fit in must escalate to a fan-out —
  // and the escalated solve still returns the sequential answer.
  const Cnf cnf = phase_transition_cnf(90, 2);
  Solver seq;
  load(seq, cnf);
  const LBool expected = seq.solve();
  ASSERT_NE(expected, LBool::kUndef);

  ParallelConfig config;
  config.num_workers = 4;
  config.mode = ParMode::kShare;
  config.inline_budget = 1;  // trips on the first conflict
  ParallelSolver par(config);
  load(par, cnf);
  EXPECT_EQ(par.solve(), expected);
  EXPECT_GE(par.parallel_stats().probe_escalations, 1u);
  EXPECT_EQ(par.parallel_stats().parallel_solves, 1u);
}

TEST(ParallelSolver, CallerConflictBudgetWinsOverProbe) {
  // When the caller's own conflict budget is tighter than the probe's, a
  // trip is the caller's answer (kConflictBudget), not a cue to fan out K
  // workers the caller did not budget for.
  const Cnf cnf = phase_transition_cnf(120, 5);
  ParallelConfig config;
  config.num_workers = 4;
  config.mode = ParMode::kShare;
  ParallelSolver par(config);
  load(par, cnf);
  par.set_conflict_budget(1);
  EXPECT_EQ(par.solve(), LBool::kUndef);
  EXPECT_EQ(par.last_stop_reason(), StopReason::kConflictBudget);
  EXPECT_EQ(par.parallel_stats().parallel_solves, 0u);
  EXPECT_EQ(par.parallel_stats().probe_escalations, 0u);
}

TEST(ParallelSolver, InterruptSurfacesAsStopReason) {
  const Cnf cnf = phase_transition_cnf(120, 2);
  std::atomic<bool> interrupt{true};
  ParallelConfig config;
  config.num_workers = 2;
  ParallelSolver par(config);
  load(par, cnf);
  par.set_interrupts(&interrupt, nullptr);
  EXPECT_EQ(par.solve(), LBool::kUndef);
  EXPECT_TRUE(par.last_solve_interrupted());
  EXPECT_EQ(par.last_stop_reason(), StopReason::kInterrupt);
}

TEST(ParallelSolver, DeadlineSurfacesAsStopReason) {
  const Cnf cnf = phase_transition_cnf(120, 3);
  ParallelConfig config;
  config.num_workers = 2;
  ParallelSolver par(config);
  load(par, cnf);
  par.set_deadline(std::chrono::steady_clock::now() -
                   std::chrono::milliseconds(1));
  EXPECT_EQ(par.solve(), LBool::kUndef);
  EXPECT_EQ(par.last_stop_reason(), StopReason::kDeadline);
}

TEST(ParallelSolver, AggregatesWorkerCounters) {
  const Cnf cnf = phase_transition_cnf(90, 1);
  ParallelConfig config;
  config.num_workers = 3;
  config.mode = ParMode::kShare;
  config.inline_budget = 0;  // force the fan-out path under test
  ParallelSolver par(config);
  load(par, cnf);
  par.solve();
  // Counters must cover every worker's search, not just the winner's.
  const SolverStats& stats = par.stats();
  EXPECT_GT(stats.decisions, 0u);
  EXPECT_GT(stats.propagations, 0u);
  EXPECT_GE(par.parallel_stats().last_winner, 0);
  EXPECT_LT(par.parallel_stats().last_winner, 3);
}

// --- Lazy workers: edit log, catch-up, accounting ------------------------

bool satisfies_under(const Cnf& cnf, const std::vector<bool>& model,
                     const std::vector<Lit>& assumptions) {
  for (const Lit a : assumptions) {
    if (model[a.var()] == a.negated()) return false;
  }
  return satisfies(cnf, model);
}

// A seeded incremental session applied call-for-call to a reference Solver
// and a ParallelSolver: growing variable count, random 3-clauses with the
// odd binary, phase hints, and solves under 0..3 assumption literals.
// `formula` mirrors every clause added, for the model checks.
class Session {
 public:
  Session(Solver& ref, ParallelSolver& par, std::uint64_t seed)
      : ref_(ref), par_(par), rng_(seed) {}

  void add_vars(int n) {
    for (int i = 0; i < n; ++i) {
      const Var a = ref_.new_var();
      const Var b = par_.new_var();
      ASSERT_EQ(a, b);
      formula.num_vars = a + 1;
    }
  }

  // Returns the two add_clause verdicts. They may differ once workers have
  // shared clauses: worker 0 can hold root facts the reference never
  // derived (and the reverse), so only the next solve must agree.
  std::pair<bool, bool> add(const Clause& clause) {
    formula.clauses.push_back(clause);
    return {ref_.add_clause(clause), par_.add_clause(clause)};
  }

  Lit random_lit() {
    return Lit(static_cast<Var>(rng_() % formula.num_vars), (rng_() & 1) != 0);
  }

  void add_random_clauses(int n) {
    for (int i = 0; i < n; ++i) {
      const int width = rng_() % 12 == 0 ? 2 : 3;
      Clause c;
      while (static_cast<int>(c.size()) < width) {
        const Lit l = random_lit();
        bool clash = false;
        for (const Lit x : c) clash = clash || x.var() == l.var();
        if (!clash) c.push_back(l);
      }
      add(c);
    }
  }

  void maybe_set_phase() {
    if (rng_() % 4 != 0) return;
    const Var v = static_cast<Var>(rng_() % formula.num_vars);
    const bool phase = (rng_() & 1) != 0;
    ref_.set_phase(v, phase);
    par_.set_phase(v, phase);
  }

  std::vector<Lit> random_assumptions() {
    std::vector<Lit> out;
    const int n = static_cast<int>(rng_() % 4);
    while (static_cast<int>(out.size()) < n) {
      const Lit l = random_lit();
      bool clash = false;
      for (const Lit x : out) clash = clash || x.var() == l.var();
      if (!clash) out.push_back(l);
    }
    return out;
  }

  // Solves both under the same assumptions and checks the answers agree
  // and every model satisfies the formula plus the assumptions.
  LBool solve_and_compare(const std::vector<Lit>& assumptions) {
    const LBool expected = ref_.solve(assumptions);
    const LBool got = par_.solve(assumptions);
    EXPECT_NE(expected, LBool::kUndef);
    EXPECT_EQ(got, expected);
    if (got == LBool::kTrue) {
      EXPECT_TRUE(satisfies_under(formula, par_.model(), assumptions));
    }
    if (expected == LBool::kTrue) {
      EXPECT_TRUE(satisfies_under(formula, ref_.model(), assumptions));
    }
    return got;
  }

  Cnf formula;

 private:
  Solver& ref_;
  ParallelSolver& par_;
  std::mt19937_64 rng_;
};

// inline_budget = 1 fans out every solve that needs a conflict and keeps
// the conflict-free ones inline, so lagging workers see gaps of every size
// between fan-outs. inline_budget = 0 fans out every solve, and every
// eighth round adds a fan-out nobody can decide (its deadline has passed):
// nothing stops the replays, so every lagging worker applies the whole log
// and the next fan-outs race workers only a few edits behind.
void expect_incremental_agreement(ParMode mode, std::uint64_t inline_budget,
                                  std::uint64_t seed) {
  ParallelConfig config;
  config.num_workers = 4;
  config.mode = mode;
  config.cube_depth = 2;
  config.inline_budget = inline_budget;
  Solver ref;
  ParallelSolver par(config);
  Session session(ref, par, seed);
  session.add_vars(170);
  par.set_split_candidates({0, 1, 2, 3, 4, 5, 6, 7});
  session.add_random_clauses(540);
  for (int round = 0; round < 30; ++round) {
    session.add_vars(1);
    session.add_random_clauses(3);
    session.maybe_set_phase();
    session.solve_and_compare(session.random_assumptions());
    if (inline_budget == 0 && round % 8 == 7) {
      par.set_deadline(std::chrono::steady_clock::now() -
                       std::chrono::milliseconds(1));
      // Nothing can be decisive only while the formula itself is SAT.
      ASSERT_EQ(ref.solve(), LBool::kTrue);
      EXPECT_EQ(par.solve(), LBool::kUndef);
      EXPECT_EQ(par.parallel_stats().pending_edits, 0u);
      par.set_deadline(std::nullopt);
    }
  }
  EXPECT_GT(par.parallel_stats().parallel_solves, 0u);
  if (inline_budget > 0) {
    EXPECT_GT(par.parallel_stats().inline_solves, 0u);
  } else {
    EXPECT_GT(par.parallel_stats().replayed_edits, 0u);
  }

  // A late contradiction while workers 1..K-1 lag: every sign pattern over
  // three variables. No root propagation sees it, so the solve must search
  // (and fan out) to refute it, and no lagging worker has applied it yet.
  const Var a = 3, b = 17, c = 41;
  for (int mask = 0; mask < 8; ++mask) {
    session.add({Lit(a, (mask & 1) != 0), Lit(b, (mask & 2) != 0),
                 Lit(c, (mask & 4) != 0)});
  }
  ASSERT_GE(par.parallel_stats().pending_edits, 8u);
  EXPECT_EQ(session.solve_and_compare({}), LBool::kFalse);
  EXPECT_EQ(session.solve_and_compare(session.random_assumptions()),
            LBool::kFalse);
}

TEST(ParallelSolver, IncrementalShareAgreesWithSequential) {
  for (const std::uint64_t inline_budget : {1, 0}) {
    for (const std::uint64_t seed : {1, 2, 3}) {
      SCOPED_TRACE(testing::Message() << "inline_budget " << inline_budget
                                      << " seed " << seed);
      expect_incremental_agreement(ParMode::kShare, inline_budget, seed);
    }
  }
}

TEST(ParallelSolver, IncrementalCubesAgreesWithSequential) {
  for (const std::uint64_t inline_budget : {1, 0}) {
    for (const std::uint64_t seed : {1, 2, 3}) {
      SCOPED_TRACE(testing::Message() << "inline_budget " << inline_budget
                                      << " seed " << seed);
      expect_incremental_agreement(ParMode::kCubes, inline_budget, seed);
    }
  }
}

TEST(ParallelSolver, NoEscalationMatchesPlainSolverExactly) {
  // With a probe budget no solve can trip, a K-worker solver must be
  // worker 0 alone: same answers, same models and the same aggregated
  // search counters as a plain Solver on the base configuration — so the
  // idle workers do no work at all, not even unit propagation of the
  // clauses they will only apply at a fan-out.
  ParallelConfig config;
  config.num_workers = 4;
  config.mode = ParMode::kShare;
  config.inline_budget = std::uint64_t{1} << 40;
  Solver ref(config.base);
  ParallelSolver par(config);
  Session session(ref, par, 7);
  session.add_vars(80);
  session.add_random_clauses(260);
  std::uint64_t edits = 80 + 260;
  for (int round = 0; round < 30; ++round) {
    session.add_vars(3);
    session.add_random_clauses(9);
    // Units propagate at add time: idle workers must not.
    const auto [ref_ok, par_ok] = session.add({session.random_lit()});
    ASSERT_EQ(par_ok, ref_ok) << "round " << round;
    edits += 3 + 9 + 1;
    const std::vector<Lit> assumptions = session.random_assumptions();
    const LBool expected = ref.solve(assumptions);
    ASSERT_EQ(par.solve(assumptions), expected) << "round " << round;
    if (expected == LBool::kTrue) {
      ASSERT_EQ(par.model(), ref.model()) << "round " << round;
    }
    const CounterSnapshot want = ref.counters();
    const CounterSnapshot got = par.counters();
    ASSERT_EQ(got.decisions, want.decisions) << "round " << round;
    ASSERT_EQ(got.propagations, want.propagations) << "round " << round;
    ASSERT_EQ(got.conflicts, want.conflicts) << "round " << round;
  }
  EXPECT_EQ(par.stats().decisions, ref.stats().decisions);
  EXPECT_EQ(par.parallel_stats().parallel_solves, 0u);
  EXPECT_EQ(par.parallel_stats().replayed_edits, 0u);
  EXPECT_EQ(par.parallel_stats().pending_edits, edits);
}

TEST(ParallelSolver, EditLogIsCountedAndEmptiedOnceEveryWorkerSyncs) {
  const Cnf cnf = phase_transition_cnf(90, 3);
  std::size_t literals = 0;
  for (const Clause& c : cnf.clauses) literals += c.size();
  const std::uint64_t edits = static_cast<std::uint64_t>(cnf.num_vars) +
                              cnf.clauses.size();

  ParallelConfig config;
  config.num_workers = 3;
  config.mode = ParMode::kShare;
  config.inline_budget = 0;
  ParallelSolver par(config);
  load(par, cnf);
  Solver seq;
  load(seq, cnf);
  EXPECT_EQ(par.parallel_stats().pending_edits, edits);
  EXPECT_EQ(par.parallel_stats().replayed_edits, 0u);
  // Worker 0 holds what a plain Solver holds; the log holds at least every
  // clause literal once more.
  EXPECT_GE(par.memory_bytes(), seq.memory_bytes() + literals * sizeof(Lit));

  // A deadline already in the past: no worker can be decisive, so nothing
  // raises the stop flag and every lagging worker replays the whole log.
  par.set_deadline(std::chrono::steady_clock::now() -
                   std::chrono::milliseconds(1));
  EXPECT_EQ(par.solve(), LBool::kUndef);
  EXPECT_EQ(par.parallel_stats().parallel_solves, 1u);
  EXPECT_EQ(par.parallel_stats().replayed_edits, 2 * edits);
  EXPECT_EQ(par.parallel_stats().pending_edits, 0u);

  // New edits are pending again until the next fan-out.
  par.set_deadline(std::nullopt);
  const Var v = par.new_var();
  par.add_clause({pos(v), neg(0)});
  par.set_phase(v, true);
  EXPECT_EQ(par.parallel_stats().pending_edits, 3u);
  EXPECT_EQ(par.solve(), seq.solve());
  EXPECT_LE(par.parallel_stats().pending_edits, 3u);
}

TEST(ParallelSolver, InterruptedCatchUpResumesWhereItStopped) {
  // Easy solves that worker 0 answers at once cut the other workers'
  // replays short, wherever they happen to be. Their cursors must keep
  // the place: once a final fan-out lets everyone finish, every worker has
  // applied every edit exactly once.
  ParallelConfig config;
  config.num_workers = 4;
  config.mode = ParMode::kShare;
  config.inline_budget = 0;
  ParallelSolver par(config);
  Solver seq;
  std::uint64_t edits = 0;
  const auto both_var = [&] {
    seq.new_var();
    ++edits;
    return par.new_var();
  };
  const auto both_clause = [&](const Clause& c) {
    seq.add_clause(c);
    par.add_clause(c);
    ++edits;
  };
  Var prev = both_var();
  for (int round = 0; round < 6; ++round) {
    // An implication chain: satisfiable, decided without a conflict.
    for (int i = 0; i < 4000; ++i) {
      const Var v = both_var();
      both_clause({neg(prev), pos(v)});
      prev = v;
    }
    EXPECT_EQ(par.solve(), LBool::kTrue);
    EXPECT_EQ(seq.solve(), LBool::kTrue);
  }
  par.set_deadline(std::chrono::steady_clock::now() -
                   std::chrono::milliseconds(1));
  EXPECT_EQ(par.solve(), LBool::kUndef);
  EXPECT_EQ(par.parallel_stats().pending_edits, 0u);
  EXPECT_EQ(par.parallel_stats().replayed_edits, 3 * edits);
  par.set_deadline(std::nullopt);
  both_clause({pos(0)});
  both_clause({neg(prev)});
  EXPECT_EQ(par.solve(), LBool::kFalse);
  EXPECT_EQ(seq.solve(), LBool::kFalse);
}

// --- Attack-level integration: share and cubes end to end ----------------

void expect_parallel_attack_breaks(ParMode mode) {
  const netlist::Netlist original = netlist::make_circuit("c432", 90);
  const core::LockedCircuit locked =
      core::full_lock(original, core::FullLockConfig::with_plrs({4}));
  const attacks::Oracle oracle(original);
  attacks::AttackOptions options;
  options.timeout_s = 60.0;
  options.portfolio = 4;
  options.par_mode = mode;
  const attacks::AttackResult result =
      attacks::SatAttack(options).run(locked, oracle);
  ASSERT_EQ(result.status, attacks::AttackStatus::kSuccess)
      << to_string(mode);
  EXPECT_TRUE(core::verify_unlocks(original, locked.netlist, result.key, 16,
                                   1, /*sat=*/true))
      << to_string(mode);
  // No winner index: share/cubes run one cooperating attack, not a race.
  EXPECT_EQ(result.portfolio_winner, -1);
}

TEST(ParallelAttack, ShareModeRecoversKey) {
  expect_parallel_attack_breaks(ParMode::kShare);
}

TEST(ParallelAttack, CubesModeRecoversKey) {
  expect_parallel_attack_breaks(ParMode::kCubes);
}

TEST(ParallelAttack, ShareModeTimeoutReported) {
  const netlist::Netlist original = netlist::make_circuit("c432", 96);
  const core::LockedCircuit locked =
      core::full_lock(original, core::FullLockConfig::with_plrs({16}));
  const attacks::Oracle oracle(original);
  attacks::AttackOptions options;
  options.timeout_s = 0.05;
  options.portfolio = 2;
  options.par_mode = ParMode::kShare;
  const attacks::AttackResult result =
      attacks::SatAttack(options).run(locked, oracle);
  EXPECT_EQ(result.status, attacks::AttackStatus::kTimeout);
  EXPECT_EQ(result.stop_reason, StopReason::kDeadline);
}

}  // namespace
}  // namespace fl::sat
