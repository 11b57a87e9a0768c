// flbench: the repository benchmark program. Runs one workload of complete,
// verified attacks for a fixed wall time and prints its metrics as one JSON
// line (the last line of stdout).
//
//   flbench --workload NAME --seed N --seconds S --trace 0|1 --work-dir DIR
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same op
// sequence untraced and then traced, and reports the per-layer breakdown,
// the tracing overhead and the unattributed remainder. The exit code is 0
// only when every op passed its correctness gate and every exact count
// repeated.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "flbench.h"
#include "netlist/simd.h"
#include "workloads.h"

namespace {

using flbench::LoopResult;
using flbench::Options;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "flbench: %s\nusage: flbench --workload "
               "cln-hard|cln-share|synth-large|served-mix --seed N "
               "--seconds S --trace 0|1 --work-dir DIR\n",
               why);
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  bool have_workdir = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = value;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--trace") {
        o.trace = std::stoi(value) != 0;
      } else if (flag == "--work-dir") {
        o.work_dir = value;
        have_workdir = true;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (o.workload.empty() || !have_workdir || !(o.seconds > 0.0)) {
    usage("--workload, --work-dir and a positive --seconds are required");
  }
  return o;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// The run's environment record; results whose records differ must not be
// compared (run.py flags it).
std::string env_line(const Options& o) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"env\": {\"workload\": \"%s\", \"seed\": %llu, "
                "\"nproc\": %u, \"simd_level\": %d, \"compiler\": \"%s\", "
                "\"build_type\": \"%s\"}}",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                std::thread::hardware_concurrency(),
                fl::netlist::simd::kSimdLevel, FLBENCH_COMPILER,
                FLBENCH_BUILD_TYPE);
  return buf;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::vector<Metric> end_to_end(const std::vector<double>& setup_s,
                               const LoopResult& loop) {
  return {
      {"setup_s", flbench::median(setup_s), "s"},
      {"ops_per_s", loop.ops_per_s(), "1/s"},
      {"op_p50_s", flbench::percentile(loop.op_s, 0.5), "s"},
      {"op_p90_s", flbench::percentile(loop.op_s, 0.9), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"oracle_queries",
       ratio(static_cast<double>(loop.oracle_queries),
             static_cast<double>(loop.attacks)),
       "count/attack"},
  };
}

// Per-layer metrics from the traced pass. Times are self times per op;
// counts are per op, or per attack where the layer is the attack's.
std::vector<Metric> per_layer(const flbench::Tracer& tracer,
                              const LoopResult& untraced,
                              const LoopResult& traced,
                              double conflict_spread) {
  auto self = tracer.self_times();
  auto cnt = tracer.counters();
  const double ops = static_cast<double>(traced.attempted);
  const double attacks = cnt["attacks.attacks"];
  const auto per_op = [&](double v) { return ratio(v, ops); };
  const auto per_attack = [&](double v) { return ratio(v, attacks); };
  double op_wall = 0.0;
  for (const double s : traced.op_s) op_wall += s;
  const double search = self["sat.dip_solve"] + self["sat.final"];

  return {
      {"netlist.parse_s", per_op(self["netlist.parse"]), "s/op"},
      {"netlist.write_s", per_op(self["netlist.write"]), "s/op"},
      {"netlist.gates", per_op(cnt["netlist.gates"]), "count/op"},
      {"locking.lock_s",
       per_op(self["locking.lock"] + cnt["locking.lock_s"]), "s/op"},
      {"locking.key_bits", per_op(cnt["locking.key_bits"]), "count/op"},
      {"core.verify_s", per_op(self["core.verify"]), "s/op"},
      {"cnf.base_clauses", per_attack(cnt["cnf.base_clauses"]), "count"},
      {"cnf.base_vars", per_attack(cnt["cnf.base_vars"]), "count"},
      {"cnf.clauses_per_dip",
       ratio(cnt["cnf.clauses_added"], cnt["attacks.iterations"]), "count"},
      {"cnf.cv_ratio", per_attack(cnt["cnf.cv_ratio"]), "ratio"},
      {"cnf.dip_encode_s", per_op(self["cnf.dip_encode"]), "s/op"},
      {"sat.pp_s", per_op(self["sat.pp"]), "s/op"},
      {"sat.pp_eliminated_vars", per_attack(cnt["sat.pp_eliminated_vars"]),
       "count"},
      {"sat.dip_solve_s", per_op(self["sat.dip_solve"]), "s/op"},
      {"sat.final_s", per_op(self["sat.final"]), "s/op"},
      {"sat.conflicts", per_attack(cnt["sat.conflicts"]), "count"},
      {"sat.decisions", per_attack(cnt["sat.decisions"]), "count"},
      {"sat.propagations", per_attack(cnt["sat.propagations"]), "count"},
      {"sat.conflicts_per_s", ratio(cnt["sat.conflicts"], search), "1/s"},
      {"sat.learned_clauses", per_attack(cnt["sat.learned_clauses"]),
       "count"},
      {"sat.exported_clauses", per_attack(cnt["sat.exported_clauses"]),
       "count"},
      {"sat.imported_clauses", per_attack(cnt["sat.imported_clauses"]),
       "count"},
      {"sat.import_ratio",
       ratio(cnt["sat.imported_clauses"], cnt["sat.exported_clauses"]),
       "ratio"},
      {"sat.conflict_spread", conflict_spread, "ratio"},
      {"sat.search_share", ratio(search, op_wall), "ratio"},
      {"attacks.setup_s", per_op(self["attacks.setup"]), "s/op"},
      {"attacks.iterations", per_attack(cnt["attacks.iterations"]), "count"},
      {"attacks.dip_other_s", per_op(self["attacks.dip"]), "s/op"},
      {"attacks.run_other_s", per_op(self["attacks.run"]), "s/op"},
      {"attacks.oracle_init_s", per_op(self["attacks.oracle_init"]), "s/op"},
      {"attacks.oracle_query_s", per_op(cnt["attacks.oracle_query_s"]),
       "s/op"},
      {"serve.admit_s", per_op(self["serve.admit"]), "s/op"},
      {"serve.queue_wait_s", per_op(self["serve.queue_wait"]), "s/op"},
      {"serve.run_s", per_op(self["serve.run"]), "s/op"},
      {"serve.engine_s", per_op(cnt["serve.engine_s"]), "s/op"},
      {"serve.overhead_s", per_op(cnt["serve.overhead_s"]), "s/op"},
      {"serve.rejected", cnt["serve.rejected"], "count"},
      {"serve.retries", cnt["serve.retries"], "count"},
      {"runtime.cells", cnt["runtime.cells"], "count"},
      {"runtime.cell_s", ratio(cnt["runtime.cell_s"], cnt["runtime.cells"]),
       "s/cell"},
      {"trace.op_s", per_op(op_wall), "s/op"},
      {"trace.unattributed_s", per_op(self["op"]), "s/op"},
      {"trace.overhead",
       ratio(untraced.ops_per_s(), traced.ops_per_s()) - 1.0, "ratio"},
      {"trace.ops", ops, "count"},
  };
}

void print_result(bool correct, long attempted, long failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.10g", metrics[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse_args(argc, argv);
  auto workload = flbench::make_workload(options);
  if (workload == nullptr) {
    usage(("unknown workload " + options.workload).c_str());
  }
  namespace fs = std::filesystem;

  try {
    fs::create_directories(options.work_dir);
    // Set-up runs several times; the median is reported and the last pass
    // stays in place for the timed loop.
    constexpr int kSetupPasses = 5;
    std::vector<double> setup_s;
    for (int pass = 0; pass < kSetupPasses; ++pass) {
      if (pass > 0) workload->teardown();
      const std::string dir =
          options.work_dir + "/setup" + std::to_string(pass);
      fs::create_directories(dir);
      const double t0 = flbench::now_s();
      workload->setup(dir);
      setup_s.push_back(flbench::now_s() - t0);
    }

    flbench::Tracer off(false);
    flbench::Tracer tracer(true);
    const auto op_with = [&](flbench::Tracer& t) {
      return [&](int client, long index) {
        return workload->op(client, index, t);
      };
    };
    const int clients = workload->clients();
    workload->rewind();
    LoopResult loop = flbench::run_loop(
        clients, options.trace ? options.seconds / 2 : options.seconds, 0,
        op_with(off));
    LoopResult traced;
    if (options.trace) {
      // The same op sequence again, traced, for the overhead comparison.
      workload->rewind();
      traced = flbench::run_loop(clients, 0.0, loop.attempted, op_with(tracer));
      workload->replay_dips(tracer);
    }

    long attempted = loop.attempted + traced.attempted;
    long failed = loop.failed + traced.failed;
    std::vector<std::string> errors = loop.errors;
    errors.insert(errors.end(), traced.errors.begin(), traced.errors.end());
    std::string repeat_error;
    if (failed == 0 && !workload->ensure_repeat(repeat_error)) {
      ++attempted;
      ++failed;
      errors.push_back("exact-count repeat: " + repeat_error);
    }
    for (const std::string& d : workload->check().drift()) {
      errors.push_back("drift: " + d);
    }
    workload->teardown();
    for (const std::string& e : errors) {
      std::fprintf(stderr, "FAIL %s\n", e.c_str());
    }

    const std::vector<Metric> metrics =
        options.trace ? per_layer(tracer, loop, traced,
                                  workload->check().conflict_spread())
                      : end_to_end(setup_s, loop);
    if (options.trace) {
      tracer.write_jsonl(options.work_dir + "/../spans-" + options.workload +
                         ".jsonl");
    }
    fs::remove_all(options.work_dir);

    const bool correct = failed == 0 && workload->check().drift().empty();
    std::printf("%s: %ld ops attempted, %ld failed (fail_ratio %.4g), %zu "
                "latency samples, %zu exact-count repeats\n",
                options.workload.c_str(), attempted, failed,
                ratio(static_cast<double>(failed),
                      static_cast<double>(attempted)),
                loop.op_s.size(), workload->check().repeats());
    std::printf("%s\n", env_line(options).c_str());
    print_result(correct, attempted, failed, metrics);
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "flbench: %s\n", e.what());
    return 1;
  }
}
