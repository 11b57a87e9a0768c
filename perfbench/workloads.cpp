#include "workloads.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <random>
#include <sstream>
#include <streambuf>

#include "attacks/oracle.h"
#include "attacks/sat_attack.h"
#include "core/verify.h"
#include "locking/scheme.h"
#include "netlist/bench_io.h"
#include "netlist/profiles.h"
#include "runtime/jsonl.h"
#include "runtime/seed.h"
#include "serve/client.h"
#include "serve/daemon.h"

namespace flbench {
namespace {

namespace fs = std::filesystem;
using fl::attacks::AttackResult;
using fl::attacks::AttackStatus;
using fl::core::LockedCircuit;
using fl::netlist::Netlist;

// Safety cap on one attack; every workload's attacks finish far below it,
// and a timeout fails the op (status is checked, not just simulation).
constexpr double kAttackTimeoutS = 120.0;
// Random-pattern rounds (x64 patterns) of every key verification.
constexpr int kVerifyRounds = 4;

std::uint64_t derive(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0) {
  return fl::runtime::derive_seed(seed, {a, b});
}

std::vector<bool> parse_bits(const std::string& s) {
  std::vector<bool> bits;
  for (const char c : s) bits.push_back(c == '1');
  return bits;
}

// The correctness gate for a recovered key: simulation on random patterns
// plus, where requested, a complete SAT equivalence proof.
bool key_unlocks(const Netlist& original, const Netlist& locked,
                 const std::vector<bool>& key, std::uint64_t seed,
                 bool sat_check) {
  if (key.size() != locked.num_keys()) return false;
  return fl::core::verify_unlocks(original, locked, key, kVerifyRounds, seed,
                                  sat_check && !locked.is_cyclic());
}

// One DIP iteration as observed by the benchmark: the callback's arrival
// time plus the engine's own solve/encode split.
struct DipStamp {
  double t = 0.0;
  double solve_s = 0.0;
  double encode_s = 0.0;
  std::string dip;
};

class StampSink final : public fl::attacks::IterationTraceSink {
 public:
  void record(const fl::attacks::IterationTrace& trace) override {
    std::lock_guard<std::mutex> lock(mu_);
    stamps.push_back({now_s(), trace.solve_s, trace.encode_s, trace.dip});
  }
  std::vector<DipStamp> stamps;

 private:
  std::mutex mu_;
};

// Builds the attack's child spans from the DIP callback stamps: set-up
// (run entry to the first DIP's start, with preprocessing at its end), one
// span per DIP iteration holding its solve and constraint encode, and the
// terminal no-DIP proof plus key extraction (last callback to return).
void add_attack_spans(Tracer& tracer, int parent, long op, double entry,
                      double exit, const std::vector<DipStamp>& stamps,
                      double preprocess_s) {
  if (stamps.empty()) return;
  const double loop_start =
      stamps.front().t - stamps.front().solve_s - stamps.front().encode_s;
  const int setup = tracer.add("attacks.setup", entry, loop_start, parent, op);
  if (preprocess_s > 0.0) {
    tracer.add("sat.pp", loop_start - preprocess_s, loop_start, setup, op);
  }
  double prev = loop_start;
  for (const DipStamp& s : stamps) {
    const int it = tracer.add("attacks.dip", prev, s.t, parent, op);
    tracer.add("sat.dip_solve", prev, std::min(s.t, prev + s.solve_s), it, op);
    tracer.add("cnf.dip_encode", std::max(prev, s.t - s.encode_s), s.t, it,
               op);
    prev = s.t;
  }
  tracer.add("sat.final", prev, exit, parent, op);
}

// The DIPs the traced loop's attacks asked, keyed by the oracle that
// answers them. They are replayed through Oracle::query after the loop, so
// the replay's cost stays out of every op.
class DipLog {
 public:
  void add(std::size_t oracle, const std::vector<DipStamp>& stamps) {
    std::lock_guard<std::mutex> lock(mu_);
    for (const DipStamp& s : stamps) {
      entries_.emplace_back(oracle, parse_bits(s.dip));
    }
  }

  // Times the queries only; oracle(key) may build its oracle on first use.
  template <class OracleFor>
  void replay(Tracer& tracer, OracleFor&& oracle) {
    double total = 0.0;
    for (const auto& [key, dip] : entries_) {
      const fl::attacks::Oracle& o = oracle(key);
      const double t0 = now_s();
      (void)o.query(dip);
      total += now_s() - t0;
    }
    tracer.count("attacks.oracle_query_s", total);
  }

 private:
  std::mutex mu_;
  std::vector<std::pair<std::size_t, std::vector<bool>>> entries_;
};

// SatAttack::run as a traced layer call; its DIPs go to `log` under
// `oracle_key`.
AttackResult traced_attack(Tracer& tracer, int parent, long op,
                           const LockedCircuit& locked,
                           const fl::attacks::Oracle& oracle,
                           fl::attacks::AttackOptions options, DipLog& log,
                           std::size_t oracle_key) {
  StampSink sink;
  if (tracer.on()) options.trace = &sink;
  const double entry = now_s();
  AttackResult r = fl::attacks::SatAttack(options).run(locked, oracle);
  const double exit = now_s();
  if (!tracer.on()) return r;

  const int run = tracer.add("attacks.run", entry, exit, parent, op);
  add_attack_spans(tracer, run, op, entry, exit, sink.stamps,
                   r.preprocess.ran ? r.preprocess.preprocess_s : 0.0);
  const auto& st = r.solver_stats;
  tracer.count("attacks.attacks", 1);
  tracer.count("attacks.iterations", static_cast<double>(r.iterations));
  tracer.count("cnf.base_clauses", static_cast<double>(r.base_clauses));
  tracer.count("cnf.base_vars", static_cast<double>(r.base_vars));
  tracer.count("cnf.clauses_added", static_cast<double>(r.clauses_added));
  tracer.count("cnf.cv_ratio", r.mean_clause_var_ratio);
  tracer.count("sat.pp_eliminated_vars",
               static_cast<double>(r.preprocess.eliminated_vars));
  tracer.count("sat.conflicts", static_cast<double>(st.conflicts));
  tracer.count("sat.decisions", static_cast<double>(st.decisions));
  tracer.count("sat.propagations", static_cast<double>(st.propagations));
  tracer.count("sat.learned_clauses", static_cast<double>(st.learned_clauses));
  tracer.count("sat.exported_clauses",
               static_cast<double>(st.exported_clauses));
  tracer.count("sat.imported_clauses",
               static_cast<double>(st.imported_clauses));
  log.add(oracle_key, sink.stamps);
  return r;
}

std::string attack_failure(const AttackResult& r) {
  return std::string("attack status ") + fl::attacks::to_string(r.status) +
         " after " + std::to_string(r.iterations) + " iterations";
}

Netlist identity_circuit(int n) {
  Netlist net("identity" + std::to_string(n));
  for (int i = 0; i < n; ++i) net.add_input("x" + std::to_string(i));
  for (int i = 0; i < n; ++i) {
    const auto b = net.add_gate(fl::netlist::GateType::kBuf,
                                {static_cast<fl::netlist::GateId>(i)});
    net.mark_output(b, "y" + std::to_string(i));
  }
  return net;
}

// ---- cln-hard / cln-share --------------------------------------------
//
// Table 2 CLN-only Full-Lock locks on identity circuits, attacked one after
// another with the default SAT attack (cln-share: a 4-wide clause-sharing
// portfolio). Each op breaks the blocking (shuffle) and the almost
// non-blocking (banyan) lock of one lock seed; the lock seeds derive from
// the workload seed and none repeats inside a run. The widths are small
// enough for a run to break ~100 locks, so its rate averages over many.
class ClnWorkload final : public Workload {
 public:
  ClnWorkload(const Options& options, bool share)
      : Workload(options, /*counts_exempt=*/share), share_(share) {}

  void setup(const std::string&) override {
    pool_.clear();
    const Netlist blocking = identity_circuit(kBlockingN);
    const Netlist banyan = identity_circuit(kBanyanN);
    for (int i = 0; i < kPoolSize; ++i) {
      const std::uint64_t lock_seed = derive(options_.seed, i);
      pool_.push_back({make_instance(blocking, "shuffle", lock_seed),
                       make_instance(banyan, "banyan", lock_seed)});
    }
  }

  // One op breaks the blocking and the non-blocking lock of one lock seed.
  OpResult op(int, long index, Tracer& tracer) override {
    const Pair& pair = pool_[static_cast<std::size_t>(index) % pool_.size()];
    const int root = tracer.add("op", now_s(), 0.0, -1, index);
    OpResult out = attack(pair.blocking, kBlockingKey, index, root, tracer);
    if (out.ok) {
      const OpResult second =
          attack(pair.banyan, kBanyanKey, index, root, tracer);
      out.ok = second.ok;
      out.error = second.error;
      out.attacks += second.attacks;
      out.oracle_queries += second.oracle_queries;
    }
    tracer.set_end(root, now_s());
    return out;
  }

  void replay_dips(Tracer& tracer) override {
    const fl::attacks::Oracle blocking(pool_.front().blocking.original);
    const fl::attacks::Oracle banyan(pool_.front().banyan.original);
    dips_.replay(tracer, [&](std::size_t key) -> const fl::attacks::Oracle& {
      return key == kBlockingKey ? blocking : banyan;
    });
  }

 private:
  static constexpr std::size_t kBlockingKey = 0;
  static constexpr std::size_t kBanyanKey = 1;
  static constexpr int kBlockingN = 64;
  static constexpr int kBanyanN = 16;
  // Lock seeds per run; more than a run gets through, so none repeats.
  static constexpr int kPoolSize = 128;

  struct Instance {
    std::string id;
    Netlist original;
    LockedCircuit locked;
  };
  struct Pair {
    Instance blocking;
    Instance banyan;
  };

  static Instance make_instance(const Netlist& original,
                                const std::string& topology,
                                std::uint64_t lock_seed) {
    const int n = static_cast<int>(original.num_inputs());
    Instance inst;
    inst.id = topology + std::to_string(n) + "/" + std::to_string(lock_seed);
    inst.original = original;
    inst.locked = fl::lock::lock_with(
        "full-lock", original,
        fl::lock::make_options(
            lock_seed, {n}, "topology=" + topology + ",twist=0,cycle=avoid"));
    return inst;
  }

  OpResult attack(const Instance& inst, std::size_t oracle_key, long index,
                  int root, Tracer& tracer) {
    OpResult out;
    out.attacks = 1;
    const fl::attacks::Oracle oracle(inst.original);
    fl::attacks::AttackOptions options;
    options.timeout_s = kAttackTimeoutS;
    if (share_) {
      options.portfolio = 4;
      options.par_mode = fl::sat::ParMode::kShare;
    }
    const AttackResult r =
        traced_attack(tracer, root, index, inst.locked, oracle, options, dips_,
                      oracle_key);
    out.oracle_queries = r.oracle_queries;
    if (r.status != AttackStatus::kSuccess) {
      out.error = inst.id + ": " + attack_failure(r);
    } else if (!tracer.time("core.verify", root, index, [&] {
                 return key_unlocks(inst.original, inst.locked.netlist, r.key,
                                    options_.seed, /*sat_check=*/true);
               })) {
      out.error = inst.id + ": recovered key does not unlock";
    } else if (!check_.observe(inst.id, r.solver_stats.conflicts,
                               r.iterations, r.oracle_queries)) {
      out.error = inst.id + ": exact counts drifted";
    } else {
      out.ok = true;
    }
    return out;
  }

  bool share_;
  std::vector<Pair> pool_;
  DipLog dips_;
};

// ---- synth-large -----------------------------------------------------
//
// The CLI's lock -> attack flow over a 256k-gate circuit written to disk in
// set-up: read .bench, lock, verify the correct key, write the locked
// .bench + .key, read the locked and the oracle files back, attack, verify
// the recovered key. SARLock's DIP count is fixed by its key width, so the
// op cost is steady across lock seeds.
class SynthWorkload final : public Workload {
 public:
  explicit SynthWorkload(const Options& options)
      : Workload(options, /*counts_exempt=*/false) {}

  void setup(const std::string& dir) override {
    dir_ = dir;
    bench_path_ = dir + "/" + kProfile + ".bench";
    fl::netlist::write_bench_file(fl::netlist::make_circuit(kProfile, 1),
                                  bench_path_);
  }

  OpResult op(int, long index, Tracer& tracer) override {
    OpResult out;
    out.attacks = 1;
    const std::size_t slot = static_cast<std::size_t>(index) % kLockSeeds;
    const std::uint64_t lock_seed = derive(options_.seed, slot);
    const std::string id = "sarlock/" + std::to_string(lock_seed);
    const std::string locked_path =
        dir_ + "/locked" + std::to_string(slot) + ".bench";
    const int root = tracer.add("op", now_s(), 0.0, -1, index);
    const auto parse = [&](auto&& read) {
      return tracer.time("netlist.parse", root, index, read);
    };

    const Netlist original =
        parse([&] { return fl::netlist::read_bench_file(bench_path_); });
    const LockedCircuit locked = tracer.time("locking.lock", root, index, [&] {
      return fl::lock::lock_with(
          kScheme, original, fl::lock::make_options(lock_seed, {}, kParams));
    });
    const bool lock_ok = tracer.time("core.verify", root, index, [&] {
      return key_unlocks(original, locked.netlist, locked.correct_key,
                         options_.seed, /*sat_check=*/false);
    });
    tracer.time("netlist.write", root, index,
                [&] { fl::lock::write_locked_circuit(locked, locked_path); });
    const LockedCircuit attacked =
        parse([&] { return fl::lock::read_locked_circuit(locked_path); });
    Netlist oracle_netlist =
        parse([&] { return fl::netlist::read_bench_file(bench_path_); });
    std::optional<fl::attacks::Oracle> oracle_slot;
    tracer.time("attacks.oracle_init", root, index,
                [&] { oracle_slot.emplace(std::move(oracle_netlist)); });
    const fl::attacks::Oracle& oracle = *oracle_slot;
    fl::attacks::AttackOptions options;
    options.timeout_s = kAttackTimeoutS;
    const AttackResult r =
        traced_attack(tracer, root, index, attacked, oracle, options, dips_, 0);
    out.oracle_queries = r.oracle_queries;
    tracer.count("netlist.gates",
                 3.0 * static_cast<double>(original.num_logic_gates()));
    tracer.count("locking.key_bits", static_cast<double>(locked.key_bits()));

    if (!lock_ok) {
      out.error = id + ": the correct key does not unlock the lock";
    } else if (r.status != AttackStatus::kSuccess) {
      out.error = id + ": " + attack_failure(r);
    } else if (!tracer.time("core.verify", root, index, [&] {
                 return key_unlocks(original, attacked.netlist, r.key,
                                    options_.seed, /*sat_check=*/false);
               }) ||
               r.key != locked.correct_key) {
      // The SAT equivalence proof does not finish on 256k gates; SARLock's
      // correct key is unique (each wrong key errs on its own pattern), so
      // the recovered key must equal it bit for bit.
      out.error = id + ": recovered key does not unlock";
    } else if (!check_.observe(id, r.solver_stats.conflicts, r.iterations,
                               r.oracle_queries)) {
      out.error = id + ": exact counts drifted";
    } else {
      out.ok = true;
    }
    tracer.set_end(root, now_s());
    return out;
  }

  void replay_dips(Tracer& tracer) override {
    const fl::attacks::Oracle oracle(fl::netlist::read_bench_file(bench_path_));
    dips_.replay(tracer, [&](std::size_t) -> const fl::attacks::Oracle& {
      return oracle;
    });
  }

 private:
  static constexpr const char* kProfile = "synth256k";
  static constexpr const char* kScheme = "sarlock";
  static constexpr const char* kParams = "keys=5";
  // Lock seeds cycled by the ops; small, so instances repeat inside a run.
  static constexpr std::size_t kLockSeeds = 2;

  std::string dir_;
  std::string bench_path_;
  DipLog dips_;
};

// ---- served-mix ------------------------------------------------------

// Captures each line the client streams, stamped with its arrival time.
class LineStampBuf final : public std::streambuf {
 public:
  struct Line {
    double t;
    std::string text;
  };
  std::vector<Line> lines;

 protected:
  int overflow(int c) override {
    if (c == traits_type::eof()) return 0;
    if (c == '\n') {
      lines.push_back({now_s(), std::move(current_)});
      current_.clear();
    } else {
      current_.push_back(static_cast<char>(c));
    }
    return c;
  }

 private:
  std::string current_;
};

struct SchemeJob {
  const char* scheme;
  const char* params;
};

// An in-process daemon (2 workers, journal on) serving a closed loop of 4
// client connections. The clients share one job sequence, drawn from the
// seed pass by pass: every (Table-5 ISCAS stand-in, scheme) pair once per
// pass in a shuffled order, plus one small checkpointed sweep. A client that
// takes a pair submits its lock job and then the attack job on that lock.
// Every pass contains the same jobs, so the mix a run sees does not depend
// on how far it got. Every job's output is checked by the client: lock
// outputs unlock with their .key, attack keys unlock the original.
class ServedWorkload final : public Workload {
 public:
  explicit ServedWorkload(const Options& options)
      : Workload(options, /*counts_exempt=*/false) {}

  int clients() const override { return kClients; }

  void setup(const std::string& dir) override {
    dir_ = dir;
    originals_.clear();
    oracles_.clear();
    for (const char* name : kCircuits) {
      Netlist net = fl::netlist::make_circuit(name, 1);
      fl::netlist::write_bench_file(net, bench_path(name));
      oracles_.push_back(std::make_unique<fl::attacks::Oracle>(net));
      originals_.push_back(std::move(net));
    }
    for (int c = 0; c < kClients; ++c) {
      fs::create_directories(dir + "/c" + std::to_string(c));
    }
    fl::serve::ServeArgs args;
    args.socket_path = dir + "/daemon.sock";
    args.journal_path = dir + "/journal.jsonl";
    args.workers = 2;
    args.max_queue = 16;
    daemon_ = std::make_unique<fl::serve::Daemon>(args);
    daemon_->start();
    clients_.clear();
    for (int c = 0; c < kClients; ++c) {
      clients_.push_back(
          std::make_unique<fl::serve::ServeClient>(args.socket_path));
    }
  }

  void teardown() override {
    clients_.clear();
    daemon_.reset();
  }

  ~ServedWorkload() override { teardown(); }

  void rewind() override {
    std::lock_guard<std::mutex> lock(plan_mu_);
    plan_.clear();
    cursor_ = 0;
  }

  void replay_dips(Tracer& tracer) override {
    dips_.replay(tracer,
                 [&](std::size_t circuit) -> const fl::attacks::Oracle& {
                   return *oracles_[circuit];
                 });
  }

  OpResult op(int client, long index, Tracer& tracer) override {
    fl::serve::ServeClient& c = *clients_[static_cast<std::size_t>(client)];
    const Step step = next_step();
    if (step.kind == fl::serve::JobKind::kSweep) {
      return sweep(client, c, step, index, tracer);
    }
    return lock_and_attack(client, c, step, index, tracer);
  }

 private:
  static constexpr int kClients = 4;
  // c5315 and c7552 are left out: their RLL/InterLock attacks run from
  // 0.05 s to 8 s depending on the lock seed, which no short-job mix
  // survives steadily.
  static constexpr const char* kCircuits[] = {
      "c432", "c499", "c880", "c1355", "c1908", "c2670", "c3540"};
  static constexpr SchemeJob kSchemes[] = {
      {"rll", "keys=16"},          {"lut-lock", "luts=4"},
      {"sarlock", "keys=8"},       {"cross-lock", "sources=8"},
      {"interlock", "sizes=4"}};
  static constexpr std::size_t kNumCircuits = std::size(kCircuits);
  // Above this size the equivalence proof of a correct key takes seconds.
  static constexpr std::size_t kSatCheckMaxGates = 1000;
  static constexpr std::size_t kNumSchemes = std::size(kSchemes);

  // Distinct lock seeds per (circuit, scheme), cycled pass by pass: each
  // instance repeats inside a run for the exact-count check, and a run
  // averages over more than one lock of every pair.
  static constexpr std::uint64_t kLockVariants = 7;

  // kLock: a lock job followed by an attack job on its output; kSweep.
  struct Step {
    fl::serve::JobKind kind;
    std::size_t circuit = 0;
    std::size_t scheme = 0;
    std::uint64_t pass = 0;
  };
  struct Events {
    int exit = 0;
    double send = 0.0;
    double accepted = -1.0, started = -1.0, terminal = -1.0;
    std::string terminal_line;
    std::vector<DipStamp> dips;
    std::vector<std::string> cells;
    int retries = 0;
    bool rejected = false;
    std::uint64_t dip_conflicts = 0;
  };

  std::string bench_path(const std::string& name) const {
    return dir_ + "/" + name + ".bench";
  }
  std::string lock_path(int client, const Step& s) const {
    return dir_ + "/c" + std::to_string(client) + "/" +
           kCircuits[s.circuit] + "-" + kSchemes[s.scheme].scheme + ".bench";
  }
  std::uint64_t lock_seed(const Step& s) const {
    return derive(options_.seed, 100 + s.circuit,
                  s.scheme * kLockVariants + s.pass % kLockVariants);
  }
  std::string instance(const Step& s) const {
    return std::string(kCircuits[s.circuit]) + "/" +
           kSchemes[s.scheme].scheme + "/" +
           std::to_string(s.pass % kLockVariants);
  }

  // The next step of the shared sequence, drawing a new pass when it runs
  // out: every (circuit, scheme) pair in a seed-shuffled order, with the
  // pass's sweep at a drawn position.
  Step next_step() {
    std::lock_guard<std::mutex> lock(plan_mu_);
    if (cursor_ == plan_.size()) {
      const std::uint64_t pass = plan_.empty() ? 0 : plan_.back().pass + 1;
      std::mt19937_64 rng(derive(options_.seed, 300, pass));
      std::vector<Step> steps;
      for (std::size_t i = 0; i < kNumCircuits; ++i) {
        for (std::size_t j = 0; j < kNumSchemes; ++j) {
          steps.push_back({fl::serve::JobKind::kLock, i, j, pass});
        }
      }
      std::shuffle(steps.begin(), steps.end(), rng);
      const auto sweep_at =
          static_cast<std::ptrdiff_t>(rng() % (steps.size() + 1));
      steps.insert(steps.begin() + sweep_at,
                   Step{fl::serve::JobKind::kSweep, 0, 0, pass});
      plan_.insert(plan_.end(), steps.begin(), steps.end());
    }
    return plan_[cursor_++];
  }

  // Submits `spec` and stamps every event the daemon streams back.
  static Events submit(fl::serve::ServeClient& c,
                       const fl::serve::JobSpec& spec) {
    LineStampBuf buf;
    std::ostream out(&buf);
    Events ev;
    ev.send = now_s();
    ev.exit = c.submit_and_stream(spec, out);
    for (const auto& line : buf.lines) {
      const auto event = fl::runtime::json_string_field(line.text, "event");
      if (!event.has_value()) continue;
      if (*event == "accepted") {
        ev.accepted = line.t;
      } else if (*event == "started") {
        ev.started = line.t;
      } else if (*event == "terminal") {
        ev.terminal = line.t;
        ev.terminal_line = line.text;
      } else if (*event == "rejected") {
        ev.rejected = true;
      } else if (*event == "retry") {
        ++ev.retries;
      } else if (*event == "cell") {
        ev.cells.push_back(line.text);
      } else if (*event == "trace") {
        DipStamp s;
        s.t = line.t;
        s.solve_s =
            fl::runtime::json_double_field(line.text, "solve_s").value_or(0);
        s.encode_s =
            fl::runtime::json_double_field(line.text, "encode_s").value_or(0);
        s.dip = fl::runtime::json_string_field(line.text, "dip").value_or("");
        ev.dip_conflicts += static_cast<std::uint64_t>(
            fl::runtime::json_int_field(line.text, "conflicts").value_or(0));
        ev.dips.push_back(std::move(s));
      }
    }
    return ev;
  }

  // A job's serve-layer spans under `root`, built from event arrivals;
  // returns the job's run span.
  static int job_spans(Tracer& tracer, int root, long index, const Events& ev) {
    tracer.count("serve.rejected", ev.rejected ? 1 : 0);
    tracer.count("serve.retries", ev.retries);
    if (ev.started < 0.0 || ev.terminal < 0.0) return root;
    const double accepted = ev.accepted >= 0.0 ? ev.accepted : ev.started;
    tracer.add("serve.admit", ev.send, std::min(accepted, ev.started), root,
               index);
    if (ev.started > accepted) {
      tracer.add("serve.queue_wait", accepted, ev.started, root, index);
    }
    const int run =
        tracer.add("serve.run", ev.started, ev.terminal, root, index);
    const double engine = wall_s(ev);
    tracer.count("serve.engine_s", engine);
    tracer.count("serve.overhead_s", (ev.terminal - ev.send) - engine);
    return run;
  }

  static double wall_s(const Events& ev) {
    return fl::runtime::json_double_field(ev.terminal_line, "wall_s")
        .value_or(0.0);
  }

  static std::string state_of(const Events& ev) {
    return fl::runtime::json_string_field(ev.terminal_line, "state")
        .value_or("none");
  }

  fl::serve::JobSpec base_spec(fl::serve::JobKind kind, Tracer& tracer) const {
    fl::serve::JobSpec spec;
    spec.kind = kind;
    spec.trace = tracer.on();
    spec.attack_timeout_s = kAttackTimeoutS;
    return spec;
  }

  // A lock job, then an attack job on the lock's output. The op's latency
  // runs from the lock's submission to the attack's terminal event; the
  // client checks both outputs afterwards, outside it.
  OpResult lock_and_attack(int client, fl::serve::ServeClient& c,
                           const Step& s, long index, Tracer& tracer) {
    OpResult out;
    out.attacks = 1;
    fl::serve::JobSpec lock_spec =
        base_spec(fl::serve::JobKind::kLock, tracer);
    lock_spec.bench_path = bench_path(kCircuits[s.circuit]);
    lock_spec.out_path = lock_path(client, s);
    lock_spec.scheme = kSchemes[s.scheme].scheme;
    lock_spec.scheme_params = kSchemes[s.scheme].params;
    lock_spec.sizes.clear();
    lock_spec.seed = lock_seed(s);
    const Events lock_ev = submit(c, lock_spec);
    Events attack_ev;
    if (lock_ev.exit == fl::serve::ClientExit::kDone) {
      fl::serve::JobSpec spec = base_spec(fl::serve::JobKind::kAttack, tracer);
      spec.locked_path = lock_spec.out_path;
      spec.oracle_path = lock_spec.bench_path;
      spec.attack = "auto";
      attack_ev = submit(c, spec);
    }
    const double end =
        attack_ev.terminal >= 0.0 ? attack_ev.terminal : now_s();
    out.latency_s = end - lock_ev.send;

    const int root = tracer.add("op", lock_ev.send, end, -1, index);
    job_spans(tracer, root, index, lock_ev);
    tracer.count("locking.lock_s", wall_s(lock_ev));
    const int run = job_spans(tracer, root, index, attack_ev);
    const std::string& line = attack_ev.terminal_line;
    const auto iterations = fl::runtime::json_int_field(line, "iterations");
    out.oracle_queries = static_cast<std::uint64_t>(
        fl::runtime::json_int_field(line, "oracle_queries").value_or(0));
    if (tracer.on() && attack_ev.terminal >= 0.0) {
      add_attack_spans(tracer, run, index, attack_ev.started,
                       attack_ev.terminal, attack_ev.dips, 0.0);
      tracer.count("attacks.attacks", 1);
      tracer.count("attacks.iterations",
                   static_cast<double>(iterations.value_or(0)));
      tracer.count("cnf.cv_ratio", fl::runtime::json_double_field(
                                       line, "mean_clause_var_ratio")
                                       .value_or(0));
      tracer.count("sat.conflicts",
                   static_cast<double>(attack_ev.dip_conflicts));
      dips_.add(s.circuit, attack_ev.dips);
    }

    if (lock_ev.exit != fl::serve::ClientExit::kDone) {
      out.error = instance(s) + ": lock job ended " + state_of(lock_ev);
      return out;
    }
    // The lock job's output must unlock with the key it wrote.
    LockedCircuit locked = tracer.time("netlist.parse", -1, index, [&] {
      return fl::lock::read_locked_circuit(lock_spec.out_path);
    });
    locked.correct_key =
        read_key_file(lock_spec.out_path + ".key", locked.netlist);
    tracer.count("netlist.gates",
                 static_cast<double>(locked.netlist.num_logic_gates()));
    tracer.count("locking.key_bits", static_cast<double>(locked.key_bits()));
    const Netlist& original = originals_[s.circuit];
    const std::string status =
        fl::runtime::json_string_field(line, "status").value_or("none");
    const auto key = fl::runtime::json_string_field(line, "key");
    if (!tracer.time("core.verify", -1, index, [&] {
          return key_unlocks(original, locked.netlist, locked.correct_key,
                             options_.seed, /*sat_check=*/false);
        })) {
      out.error = instance(s) + ": the lock's .key does not unlock it";
    } else if (attack_ev.exit != fl::serve::ClientExit::kDone) {
      out.error = instance(s) + ": attack job ended " + state_of(attack_ev);
    } else if (status != "success" || !key.has_value()) {
      out.error = instance(s) + ": attack status " + status;
    } else if (!tracer.time("core.verify", -1, index, [&] {
                 return attack_key_ok(s, locked, parse_bits(*key));
               })) {
      out.error = instance(s) + ": recovered key does not unlock";
    } else if (!check_.observe(
                   // Untraced jobs stream no per-DIP conflicts, so traced
                   // runs of an instance are compared among themselves.
                   instance(s) + (tracer.on() ? "/traced" : ""),
                   attack_ev.dip_conflicts,
                   static_cast<std::uint64_t>(iterations.value_or(0)),
                   out.oracle_queries)) {
      out.error = instance(s) + ": exact counts drifted";
    } else {
      out.ok = true;
    }
    return out;
  }

  OpResult sweep(int client, fl::serve::ServeClient& c, const Step& s,
                 long index, Tracer& tracer) {
    OpResult out;
    fl::serve::JobSpec spec = base_spec(fl::serve::JobKind::kSweep, tracer);
    spec.trace = false;
    spec.bench_path = bench_path(kCircuits[0]);
    spec.jsonl_path = dir_ + "/c" + std::to_string(client) + "/sweep" +
                      std::to_string(index) + ".jsonl";
    spec.scheme = "full-lock";
    spec.sizes = {4};
    spec.replicas = 2;
    spec.seed = derive(options_.seed, 200, s.pass % kLockVariants);
    const Events ev = submit(c, spec);
    const double end = ev.terminal >= 0.0 ? ev.terminal : now_s();
    job_spans(tracer, tracer.add("op", ev.send, end, -1, index), index, ev);
    const auto cells = fl::runtime::json_int_field(ev.terminal_line, "cells");
    const auto cells_ok =
        fl::runtime::json_int_field(ev.terminal_line, "cells_ok");
    bool cells_success = !ev.cells.empty();
    for (const std::string& cell : ev.cells) {
      if (fl::runtime::json_string_field(cell, "status") != "success") {
        cells_success = false;
      }
      tracer.count("runtime.cells", 1);
      tracer.count("runtime.cell_s",
                   fl::runtime::json_double_field(cell, "wall_s").value_or(0));
    }
    if (ev.exit != fl::serve::ClientExit::kDone) {
      out.error = "sweep job ended " + state_of(ev);
    } else if (!cells.has_value() || cells != cells_ok || !cells_success) {
      out.error = "sweep cells did not all break their locks";
    } else {
      out.ok = true;
    }
    return out;
  }

  // A served attack's key must equal its lock's .key, or else pass random
  // simulation plus, on circuits small enough for it to finish quickly, a
  // SAT equivalence proof.
  bool attack_key_ok(const Step& s, const LockedCircuit& lock,
                     const std::vector<bool>& key) const {
    if (key == lock.correct_key) return true;
    const Netlist& original = originals_[s.circuit];
    return key_unlocks(original, lock.netlist, key, options_.seed,
                       original.num_logic_gates() <= kSatCheckMaxGates);
  }

  // Reads a ".key" file ("name bit" lines after '#' headers) in the order
  // of the netlist's key inputs.
  static std::vector<bool> read_key_file(const std::string& path,
                                         const Netlist& netlist) {
    std::ifstream in(path);
    std::map<std::string, bool> bits;
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream fields(line);
      std::string name;
      int bit = 0;
      if (fields >> name >> bit) bits[name] = bit != 0;
    }
    std::vector<bool> key;
    for (const auto id : netlist.keys()) {
      const auto it = bits.find(netlist.gate(id).name);
      if (it == bits.end()) return {};
      key.push_back(it->second);
    }
    return key;
  }

  std::string dir_;
  std::vector<Netlist> originals_;
  std::vector<std::unique_ptr<fl::attacks::Oracle>> oracles_;
  std::unique_ptr<fl::serve::Daemon> daemon_;
  std::vector<std::unique_ptr<fl::serve::ServeClient>> clients_;
  std::mutex plan_mu_;
  std::vector<Step> plan_;
  std::size_t cursor_ = 0;
  DipLog dips_;
};

}  // namespace

bool Workload::ensure_repeat(std::string& error) {
  Tracer off(false);
  rewind();
  // Op 0 reruns the first instance; a workload whose op 0 was a job without
  // counts (served-mix's sweep) gets its next op too.
  for (long index = 0; check_.repeats() == 0 && index < 2; ++index) {
    const OpResult r = op(0, index, off);
    if (!r.ok) {
      error = r.error;
      return false;
    }
  }
  return true;
}

std::unique_ptr<Workload> make_workload(const Options& options) {
  if (options.workload == "cln-hard") {
    return std::make_unique<ClnWorkload>(options, /*share=*/false);
  }
  if (options.workload == "cln-share") {
    return std::make_unique<ClnWorkload>(options, /*share=*/true);
  }
  if (options.workload == "synth-large") {
    return std::make_unique<SynthWorkload>(options);
  }
  if (options.workload == "served-mix") {
    return std::make_unique<ServedWorkload>(options);
  }
  return nullptr;
}

}  // namespace flbench
