// Bit-parallel logic simulation: 64 patterns per word, and a wide batch
// engine sweeping simd::kSimdBits (512) patterns per pass.
//
// Engines:
//  * Simulator       — acyclic netlists. Construction compiles the netlist
//    once into a level-major program: every net gets a dense value slot
//    (primary inputs first, then keys, then logic ordered by (level, gate
//    type, arity), id order within a bucket), and consecutive gates of one
//    type and arity form a run evaluated by one fixed-arity loop over a
//    flat fanin-slot array. Gates within a level are independent, so the
//    reordering is legal and every value equals a topological sweep's.
//    All entry points run the same templated sweep over one of two lanes:
//    a 64-bit word (run(), run_full(), and run_batch() below one simd
//    block, i.e. n_words < simd::kSimdWords, one sweep per word) or a
//    simd::Vec block of kSimdWords words (run_batch() from one block up;
//    AVX2 / AVX-512 / portable, see simd.h; a partial last block is
//    zero-filled). Batch values live in a caller-held Scratch, so large
//    oracle batches do not allocate per call.
//    The program is a snapshot of the netlist's structure: after any
//    structural edit (anything that bumps Netlist::generation(), gate
//    appends included) every run* throws std::logic_error instead of
//    answering for the old circuit. Output ports are read live, so
//    mark_output()/clear_outputs() on existing nets are honoured.
//  * simulate_cyclic — structurally cyclic netlists (Full-Lock's cyclic PLR
//    insertion), Gauss-Seidel relaxation to a fixpoint with oscillation
//    detection. Patterns that fail to converge are flagged; callers treat
//    them as corrupted outputs.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.h"
#include "netlist/simd.h"

namespace fl::netlist {

using Word = std::uint64_t;

// Evaluates one gate over bit-parallel fanin words.
Word eval_gate(GateType type, std::span<const Word> fanin);

// Acyclic simulator (see the file comment for the compiled program). Call
// run()/run_batch() many times with different stimuli. Throws
// std::invalid_argument if the netlist is cyclic. The netlist must outlive
// the simulator.
class Simulator {
 public:
  explicit Simulator(const Netlist& netlist);

  // Reusable per-caller storage for run_batch(). One Scratch per thread:
  // the same object may be passed to any Simulator (it resizes to the
  // largest netlist it has served).
  struct Scratch {
    std::vector<Word> value;  // slot-major lane values

    std::size_t capacity_bytes() const {
      return value.capacity() * sizeof(Word);
    }
    // Releases the backing storage if it exceeds `retain_bytes`. Long-lived
    // scratches (thread_local caches) grow to the largest netlist they ever
    // served; callers that only occasionally touch a huge netlist call this
    // after the batch so the worker thread does not pin that high-water
    // allocation forever.
    void trim(std::size_t retain_bytes) {
      if (capacity_bytes() <= retain_bytes) return;
      value.clear();
      value.shrink_to_fit();
    }
  };

  // inputs.size() == num_inputs(), keys.size() == num_keys().
  // Returns one word per output port.
  std::vector<Word> run(std::span<const Word> inputs,
                        std::span<const Word> keys) const;

  // As run(), but also exposes every internal net value (indexed by GateId).
  std::vector<Word> run_full(std::span<const Word> inputs,
                             std::span<const Word> keys) const;

  // Batch run over n_words words (64 patterns each) per net, laid out
  // net-major: inputs[i * n_words + w] is word w of primary input i, and
  // outputs[o * n_words + w] is written likewise (outputs.size() must be
  // num_outputs() * n_words). Keys are either one word per key, broadcast
  // over the batch, or per-word like inputs. All intermediate values live
  // in `scratch`.
  void run_batch(std::span<const Word> inputs, std::span<const Word> keys,
                 std::size_t n_words, Scratch& scratch,
                 std::span<Word> outputs) const;

  const Netlist& netlist() const { return netlist_; }

 private:
  // `count` consecutive slots from `first_slot` holding gates of one type
  // and arity; gate i reads fanin_slots_[fanin_offset + i * arity ...].
  struct Run {
    GateType type;
    std::uint32_t arity;
    std::uint32_t count;
    std::uint32_t first_slot;
    std::uint32_t fanin_offset;
  };

  // Throws std::logic_error once the netlist was structurally edited.
  void check_current() const;
  // One word-lane sweep; returns the slot-indexed values.
  std::vector<Word> run_slots(std::span<const Word> inputs,
                              std::span<const Word> keys) const;
  // Evaluates every run once over slot-major lane values in `val` (slot s
  // at val + s * words-per-lane); source slots must already be filled.
  template <class Lane>
  void sweep(Word* val) const;

  const Netlist& netlist_;
  std::uint64_t generation_;
  std::vector<Run> runs_;
  std::vector<std::uint32_t> fanin_slots_;
  std::vector<std::uint32_t> slot_of_;  // GateId -> slot
};

struct CyclicSimResult {
  std::vector<Word> outputs;  // one word per output port
  Word converged = ~Word{0};  // per-pattern convergence mask (1 = settled)
};

// Relaxation simulation for possibly-cyclic netlists. All nets start at 0
// (or 1 with `init_ones` — comparing both fixpoints detects state-holding
// cycles); gates are re-evaluated in id order until a fixpoint or
// `max_sweeps`.
CyclicSimResult simulate_cyclic(const Netlist& netlist,
                                std::span<const Word> inputs,
                                std::span<const Word> keys,
                                long long max_sweeps = 0 /* 0 = #gates + 8 */,
                                bool init_ones = false);

// Convenience single-pattern evaluation (bools in input order).
std::vector<bool> eval_once(const Netlist& netlist,
                            const std::vector<bool>& inputs,
                            const std::vector<bool>& keys);

}  // namespace fl::netlist
