// Shared plumbing of the flbench program: run options, the closed-loop op
// runner, the in-memory span tracer with per-layer tallies, and the
// exact-count self-check.
//
// Every layer is measured from outside: spans are recorded here, around
// calls into the library's public functions, never inside src/.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <type_traits>
#include <vector>

namespace flbench {

using Clock = std::chrono::steady_clock;

// Seconds since the first call (one process-wide monotonic origin, so span
// timestamps from every thread share a time base).
double now_s();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  // relative to the working directory
};

// One traced interval. `parent` indexes Tracer's span list (-1 = an op's
// root span); spans of one operation share `op`.
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  long op = -1;
};

// Spans and per-layer counters, kept in memory and written at the end.
// Disabled tracers record nothing and return -1 for every span.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }

  int add(std::string name, double start, double end, int parent, long op);
  void set_end(int span, double end);
  // Sums `value` into the named per-layer counter.
  void count(const std::string& name, double value);

  // Times `fn` as a span named `name` under `parent`.
  template <class F>
  auto time(const char* name, int parent, long op, F&& fn) {
    const double start = now_s();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      add(name, start, now_s(), parent, op);
    } else {
      auto value = fn();
      add(name, start, now_s(), parent, op);
      return value;
    }
  }

  // Self time (duration minus the part its children cover) summed per span
  // name; an op root's self time is the op's unattributed remainder.
  std::map<std::string, double> self_times() const;
  std::map<std::string, double> counters() const;
  void write_jsonl(const std::string& path) const;

 private:
  bool on_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::map<std::string, double> counters_;
};

// Exact-count self-check: the same instance must reproduce the same solver
// conflicts, DIP iterations and oracle queries every time it runs. Exempt
// checks (timing-dependent clause sharing) only record the spread.
class CountCheck {
 public:
  explicit CountCheck(bool exempt) : exempt_(exempt) {}
  // False (and a drift note) when a repeat disagrees with the first run.
  bool observe(const std::string& instance, std::uint64_t conflicts,
               std::uint64_t iterations, std::uint64_t queries);
  std::size_t repeats() const;
  // Largest (max - min) / median of conflicts over repeated instances.
  double conflict_spread() const;
  const std::vector<std::string>& drift() const { return drift_; }

 private:
  struct Seen {
    std::uint64_t conflicts, iterations, queries;
    std::vector<double> all_conflicts;
  };
  bool exempt_;
  mutable std::mutex mu_;
  std::map<std::string, Seen> seen_;
  std::size_t repeats_ = 0;
  std::vector<std::string> drift_;
};

// What one operation reports to the loop runner.
struct OpResult {
  bool ok = false;
  std::string error;            // why a failed op failed
  std::uint64_t oracle_queries = 0;
  int attacks = 0;              // attacks the op ran (oracle_queries base)
  // The op's latency when it is not the op() call's wall time (e.g. it
  // excludes the client's checks after the last reply); < 0 = wall time.
  double latency_s = -1.0;
};

struct LoopResult {
  std::vector<double> op_s;  // latencies of verified ops
  long attempted = 0;
  long failed = 0;
  double wall_s = 0.0;       // loop start to the last op's end
  std::uint64_t oracle_queries = 0;
  long attacks = 0;
  std::vector<std::string> errors;
  double ops_per_s() const {
    return wall_s > 0.0 ? static_cast<double>(op_s.size()) / wall_s : 0.0;
  }
};

// Closed loop: `clients` threads each run op(client, op_index) back to back
// until `seconds` have passed (or, with max_ops > 0, until that many ops
// have started). op_index is global and dense.
using OpFn = std::function<OpResult(int client, long op)>;
LoopResult run_loop(int clients, double seconds, long max_ops, const OpFn& op);

double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);

}  // namespace flbench
