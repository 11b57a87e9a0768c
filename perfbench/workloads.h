// The four benchmark workloads. Each builds its inputs from the workload
// seed in setup(), then answers op(client, index) calls from the closed-loop
// runner; an op counts only when its result passed the correctness gate.
#pragma once

#include <memory>
#include <string>

#include "flbench.h"

namespace flbench {

class Workload {
 public:
  // `counts_exempt`: the exact-count check only records spreads.
  Workload(const Options& options, bool counts_exempt)
      : options_(options), check_(counts_exempt) {}
  virtual ~Workload() = default;

  // One set-up pass into `dir` (timed; main() runs several and keeps the
  // last). teardown() undoes a pass and is not timed.
  virtual void setup(const std::string& dir) = 0;
  virtual void teardown() {}
  virtual int clients() const { return 1; }
  // Called before each loop so a second loop replays the same op sequence.
  virtual void rewind() {}
  virtual OpResult op(int client, long index, Tracer& tracer) = 0;
  // When no instance repeated inside the loop, reruns the first ops so the
  // exact-count check always has a pair to compare. False on failure or
  // drift, with the reason in `error`.
  bool ensure_repeat(std::string& error);
  // Replays the traced loop's DIPs through Oracle::query (timed, after the
  // loop, so the replay stays out of every op).
  virtual void replay_dips(Tracer& /*tracer*/) {}

  CountCheck& check() { return check_; }

 protected:
  Options options_;
  CountCheck check_;
};

// Known names: cln-hard, cln-share, synth-large, served-mix. nullptr for
// anything else.
std::unique_ptr<Workload> make_workload(const Options& options);

}  // namespace flbench
