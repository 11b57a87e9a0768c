#include "netlist/simulator.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace fl::netlist {

Word eval_gate(GateType type, std::span<const Word> fanin) {
  switch (type) {
    case GateType::kConst0: return Word{0};
    case GateType::kConst1: return ~Word{0};
    case GateType::kInput:
    case GateType::kKey:
      throw std::logic_error("source gate evaluated without stimulus");
    case GateType::kBuf: return fanin[0];
    case GateType::kNot: return ~fanin[0];
    case GateType::kAnd: {
      Word v = fanin[0];
      for (std::size_t i = 1; i < fanin.size(); ++i) v &= fanin[i];
      return v;
    }
    case GateType::kNand: {
      Word v = fanin[0];
      for (std::size_t i = 1; i < fanin.size(); ++i) v &= fanin[i];
      return ~v;
    }
    case GateType::kOr: {
      Word v = fanin[0];
      for (std::size_t i = 1; i < fanin.size(); ++i) v |= fanin[i];
      return v;
    }
    case GateType::kNor: {
      Word v = fanin[0];
      for (std::size_t i = 1; i < fanin.size(); ++i) v |= fanin[i];
      return ~v;
    }
    case GateType::kXor: {
      Word v = fanin[0];
      for (std::size_t i = 1; i < fanin.size(); ++i) v ^= fanin[i];
      return v;
    }
    case GateType::kXnor: {
      Word v = fanin[0];
      for (std::size_t i = 1; i < fanin.size(); ++i) v ^= fanin[i];
      return ~v;
    }
    case GateType::kMux:
      // fanin = {sel, a, b}: out = sel ? b : a, bitwise.
      return (fanin[0] & fanin[2]) | (~fanin[0] & fanin[1]);
  }
  throw std::logic_error("unknown gate type");
}

namespace {

// Shared inner loop: fills `value` for every gate given stimulus.
void sweep_sources(const Netlist& netlist, std::span<const Word> inputs,
                   std::span<const Word> keys, std::vector<Word>& value) {
  if (inputs.size() != netlist.num_inputs() ||
      keys.size() != netlist.num_keys()) {
    throw std::invalid_argument("stimulus width mismatch");
  }
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    value[netlist.inputs()[i]] = inputs[i];
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    value[netlist.keys()[i]] = keys[i];
  }
}

// `big` is caller-held scratch reused across gates so wide fanins (arity > 8)
// do not heap-allocate per gate.
Word eval_gate_at(const Netlist& netlist, GateId g,
                  const std::vector<Word>& value, std::vector<Word>& big) {
  const std::span<const GateId> fanin = netlist.fanin(g);
  const GateType type = netlist.gate_type(g);
  Word buf[8];
  if (fanin.size() <= 8) {
    for (std::size_t i = 0; i < fanin.size(); ++i) buf[i] = value[fanin[i]];
    return eval_gate(type, std::span<const Word>(buf, fanin.size()));
  }
  big.resize(fanin.size());
  for (std::size_t i = 0; i < fanin.size(); ++i) big[i] = value[fanin[i]];
  return eval_gate(type, big);
}

// Lane adaptors for Simulator::sweep: one 64-bit word, or one simd block
// of kSimdWords words. Values are slot-major, kWords words per slot.
template <class Lane>
struct LaneOps;

template <>
struct LaneOps<Word> {
  static constexpr std::size_t kWords = 1;
  static Word load(const Word* p) { return *p; }
  static void store(Word* p, Word v) { *p = v; }
  static Word zeros() { return Word{0}; }
  static Word ones() { return ~Word{0}; }
  static Word v_and(Word a, Word b) { return a & b; }
  static Word v_or(Word a, Word b) { return a | b; }
  static Word v_xor(Word a, Word b) { return a ^ b; }
  static Word v_not(Word a) { return ~a; }
  // out = sel ? b : a, bitwise.
  static Word v_mux(Word sel, Word a, Word b) { return (sel & b) | (~sel & a); }
};

template <>
struct LaneOps<simd::Vec> {
  static constexpr std::size_t kWords = simd::kSimdWords;
  static simd::Vec load(const Word* p) { return simd::load(p); }
  static void store(Word* p, simd::Vec v) { simd::store(p, v); }
  static simd::Vec zeros() { return simd::zeros(); }
  static simd::Vec ones() { return simd::ones(); }
  static simd::Vec v_and(simd::Vec a, simd::Vec b) { return simd::v_and(a, b); }
  static simd::Vec v_or(simd::Vec a, simd::Vec b) { return simd::v_or(a, b); }
  static simd::Vec v_xor(simd::Vec a, simd::Vec b) { return simd::v_xor(a, b); }
  static simd::Vec v_not(simd::Vec a) { return simd::v_not(a); }
  static simd::Vec v_mux(simd::Vec sel, simd::Vec a, simd::Vec b) {
    return simd::v_mux(sel, a, b);
  }
};

enum class Combine { kAnd, kOr, kXor };

template <class Lane, Combine Op>
Lane combine(Lane a, Lane b) {
  using L = LaneOps<Lane>;
  if constexpr (Op == Combine::kAnd) {
    return L::v_and(a, b);
  } else if constexpr (Op == Combine::kOr) {
    return L::v_or(a, b);
  } else {
    return L::v_xor(a, b);
  }
}

// One run of `count` AND/OR/XOR-family gates of one arity (Invert gives
// NAND/NOR/XNOR), writing consecutive slots from `out`. Arity 2, by far the
// most common, gets its own fixed loop.
template <class Lane, Combine Op, bool Invert>
void eval_run(const Word* val, Word* out, const std::uint32_t* fan,
              std::uint32_t arity, std::uint32_t count) {
  using L = LaneOps<Lane>;
  constexpr std::size_t kW = L::kWords;
  const auto in = [val](std::uint32_t slot) {
    return L::load(val + std::size_t{slot} * kW);
  };
  const auto finish = [](Lane v) {
    if constexpr (Invert) return L::v_not(v);
    return v;
  };
  if (arity == 2) {
    for (std::uint32_t i = 0; i < count; ++i, fan += 2, out += kW) {
      L::store(out, finish(combine<Lane, Op>(in(fan[0]), in(fan[1]))));
    }
    return;
  }
  for (std::uint32_t i = 0; i < count; ++i, fan += arity, out += kW) {
    Lane v = in(fan[0]);
    for (std::uint32_t j = 1; j < arity; ++j) {
      v = combine<Lane, Op>(v, in(fan[j]));
    }
    L::store(out, finish(v));
  }
}

// Stable counting sort of `ids` by key(id), keys in [0, n_keys).
template <class Key>
std::vector<GateId> counting_sort(const std::vector<GateId>& ids,
                                  std::size_t n_keys, Key key) {
  std::vector<std::uint32_t> start(n_keys + 1, 0);
  for (const GateId g : ids) ++start[key(g) + 1];
  for (std::size_t k = 0; k < n_keys; ++k) start[k + 1] += start[k];
  std::vector<GateId> out(ids.size());
  for (const GateId g : ids) out[start[key(g)]++] = g;
  return out;
}

}  // namespace

Simulator::Simulator(const Netlist& netlist)
    : netlist_(netlist), generation_(netlist.generation()) {
  // is_cyclic() and levels_span() share the netlist's cached graph pass.
  if (netlist.is_cyclic()) {
    throw std::invalid_argument("Simulator requires acyclic netlist");
  }
  const std::size_t n = netlist.num_gates();
  const std::span<const int> level = netlist.levels_span();
  constexpr std::uint32_t kNone = ~std::uint32_t{0};
  slot_of_.assign(n, kNone);
  std::uint32_t next_slot = 0;
  for (const GateId g : netlist.inputs()) slot_of_[g] = next_slot++;
  for (const GateId g : netlist.keys()) slot_of_[g] = next_slot++;

  // Remaining gates in id order, plus a dense rank over the arities present
  // so the (type, arity) key space stays small.
  std::vector<GateId> order;
  order.reserve(n - next_slot);
  std::vector<std::uint32_t> arity_rank;
  std::size_t total_fanin = 0;
  int max_level = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const GateId g = static_cast<GateId>(i);
    if (slot_of_[g] != kNone) continue;
    order.push_back(g);
    const std::size_t arity = netlist.fanin_size(g);
    if (arity >= arity_rank.size()) arity_rank.resize(arity + 1, kNone);
    arity_rank[arity] = 0;
    total_fanin += arity;
    max_level = std::max(max_level, level[g]);
  }
  std::uint32_t n_ranks = 0;
  for (std::uint32_t& r : arity_rank) {
    if (r != kNone) r = n_ranks++;
  }
  // Two stable counting sorts (least significant key first) leave `order`
  // sorted by (level, type, arity, id) in O(n).
  constexpr std::size_t kTypes = static_cast<std::size_t>(GateType::kMux) + 1;
  const auto by_type_arity = [&](GateId g) {
    return static_cast<std::size_t>(netlist.gate_type(g)) * n_ranks +
           arity_rank[netlist.fanin_size(g)];
  };
  const auto by_level = [&](GateId g) {
    return static_cast<std::size_t>(level[g]);
  };
  order = counting_sort(order, kTypes * n_ranks, by_type_arity);
  order = counting_sort(order, static_cast<std::size_t>(max_level) + 1,
                        by_level);

  // Every fanin sits at a lower level (or is a source), so its slot is
  // assigned before the gates that read it.
  fanin_slots_.reserve(total_fanin);
  for (const GateId g : order) {
    const GateType type = netlist.gate_type(g);
    const std::span<const GateId> fanin = netlist.fanin(g);
    const std::uint32_t arity = static_cast<std::uint32_t>(fanin.size());
    const std::uint32_t slot = next_slot++;
    slot_of_[g] = slot;
    if (runs_.empty() || runs_.back().type != type ||
        runs_.back().arity != arity) {
      runs_.push_back(Run{type, arity, 0, slot,
                          static_cast<std::uint32_t>(fanin_slots_.size())});
    }
    ++runs_.back().count;
    for (const GateId f : fanin) fanin_slots_.push_back(slot_of_[f]);
  }
}

void Simulator::check_current() const {
  if (netlist_.generation() != generation_ ||
      netlist_.num_gates() != slot_of_.size()) {
    throw std::logic_error(
        "Simulator: netlist was edited after the simulator was built");
  }
}

template <class Lane>
void Simulator::sweep(Word* val) const {
  using L = LaneOps<Lane>;
  constexpr std::size_t kW = L::kWords;
  const auto in = [val](std::uint32_t slot) {
    return L::load(val + std::size_t{slot} * kW);
  };
  for (const Run& r : runs_) {
    Word* out = val + std::size_t{r.first_slot} * kW;
    const std::uint32_t* fan = fanin_slots_.data() + r.fanin_offset;
    switch (r.type) {
      // A source gate that is not a declared input or key (declared ones
      // hold slots before every run) has no stimulus and reads as 0.
      case GateType::kInput:
      case GateType::kKey:
      case GateType::kConst0:
      case GateType::kConst1: {
        const Lane v = r.type == GateType::kConst1 ? L::ones() : L::zeros();
        for (std::uint32_t i = 0; i < r.count; ++i) L::store(out + i * kW, v);
        break;
      }
      case GateType::kBuf:
        for (std::uint32_t i = 0; i < r.count; ++i) {
          L::store(out + i * kW, in(fan[i]));
        }
        break;
      case GateType::kNot:
        for (std::uint32_t i = 0; i < r.count; ++i) {
          L::store(out + i * kW, L::v_not(in(fan[i])));
        }
        break;
      case GateType::kAnd:
        eval_run<Lane, Combine::kAnd, false>(val, out, fan, r.arity, r.count);
        break;
      case GateType::kNand:
        eval_run<Lane, Combine::kAnd, true>(val, out, fan, r.arity, r.count);
        break;
      case GateType::kOr:
        eval_run<Lane, Combine::kOr, false>(val, out, fan, r.arity, r.count);
        break;
      case GateType::kNor:
        eval_run<Lane, Combine::kOr, true>(val, out, fan, r.arity, r.count);
        break;
      case GateType::kXor:
        eval_run<Lane, Combine::kXor, false>(val, out, fan, r.arity, r.count);
        break;
      case GateType::kXnor:
        eval_run<Lane, Combine::kXor, true>(val, out, fan, r.arity, r.count);
        break;
      case GateType::kMux:
        for (std::uint32_t i = 0; i < r.count; ++i, fan += 3) {
          L::store(out + i * kW, L::v_mux(in(fan[0]), in(fan[1]), in(fan[2])));
        }
        break;
    }
  }
}

std::vector<Word> Simulator::run_slots(std::span<const Word> inputs,
                                       std::span<const Word> keys) const {
  check_current();
  if (inputs.size() != netlist_.num_inputs() ||
      keys.size() != netlist_.num_keys()) {
    throw std::invalid_argument("stimulus width mismatch");
  }
  std::vector<Word> value(slot_of_.size());
  std::copy(inputs.begin(), inputs.end(), value.begin());
  std::copy(keys.begin(), keys.end(), value.begin() + inputs.size());
  sweep<Word>(value.data());
  return value;
}

std::vector<Word> Simulator::run_full(std::span<const Word> inputs,
                                      std::span<const Word> keys) const {
  const std::vector<Word> slots = run_slots(inputs, keys);
  std::vector<Word> value(slots.size());
  for (std::size_t g = 0; g < value.size(); ++g) value[g] = slots[slot_of_[g]];
  return value;
}

std::vector<Word> Simulator::run(std::span<const Word> inputs,
                                 std::span<const Word> keys) const {
  const std::vector<Word> slots = run_slots(inputs, keys);
  std::vector<Word> out;
  out.reserve(netlist_.num_outputs());
  for (const OutputPort& o : netlist_.outputs()) {
    out.push_back(slots[slot_of_[o.gate]]);
  }
  return out;
}

void Simulator::run_batch(std::span<const Word> inputs,
                          std::span<const Word> keys, std::size_t n_words,
                          Scratch& scratch, std::span<Word> outputs) const {
  check_current();
  constexpr std::size_t kW = simd::kSimdWords;
  const std::size_t n_in = netlist_.num_inputs();
  const std::size_t n_key = netlist_.num_keys();
  const std::span<const OutputPort> ports = netlist_.outputs();
  const std::size_t n_out = ports.size();
  if (inputs.size() != n_in * n_words) {
    throw std::invalid_argument("run_batch: input size mismatch");
  }
  // Keys may be given per-word (num_keys * n_words, net-major like inputs)
  // or as one word per key broadcast across the whole batch.
  const bool key_broadcast = (keys.size() == n_key);
  if (!key_broadcast && keys.size() != n_key * n_words) {
    throw std::invalid_argument("run_batch: key size mismatch");
  }
  if (outputs.size() != n_out * n_words) {
    throw std::invalid_argument("run_batch: output size mismatch");
  }
  if (n_words == 0) return;

  // Below one simd block, a word-lane sweep per word touches 1/kW of the
  // memory a zero-padded block sweep would.
  if (n_words < kW) {
    scratch.value.resize(slot_of_.size());
    Word* const val = scratch.value.data();
    for (std::size_t w = 0; w < n_words; ++w) {
      for (std::size_t i = 0; i < n_in; ++i) val[i] = inputs[i * n_words + w];
      for (std::size_t k = 0; k < n_key; ++k) {
        val[n_in + k] = key_broadcast ? keys[k] : keys[k * n_words + w];
      }
      sweep<Word>(val);
      for (std::size_t o = 0; o < n_out; ++o) {
        outputs[o * n_words + w] = val[slot_of_[ports[o].gate]];
      }
    }
    return;
  }

  scratch.value.resize(slot_of_.size() * kW);
  Word* const val = scratch.value.data();
  const std::size_t n_blocks = (n_words + kW - 1) / kW;
  for (std::size_t b = 0; b < n_blocks; ++b) {
    const std::size_t w0 = b * kW;
    const std::size_t wn = std::min(kW, n_words - w0);
    // Sources fill slots 0..n_in+n_key-1: inputs, then keys.
    for (std::size_t i = 0; i < n_in; ++i) {
      Word* dst = val + i * kW;
      const Word* src = inputs.data() + i * n_words + w0;
      std::memcpy(dst, src, wn * sizeof(Word));
      std::fill(dst + wn, dst + kW, Word{0});
    }
    for (std::size_t k = 0; k < n_key; ++k) {
      Word* dst = val + (n_in + k) * kW;
      if (key_broadcast) {
        std::fill(dst, dst + kW, keys[k]);
      } else {
        const Word* src = keys.data() + k * n_words + w0;
        std::memcpy(dst, src, wn * sizeof(Word));
        std::fill(dst + wn, dst + kW, Word{0});
      }
    }
    sweep<simd::Vec>(val);
    for (std::size_t o = 0; o < n_out; ++o) {
      const Word* src = val + std::size_t{slot_of_[ports[o].gate]} * kW;
      std::memcpy(outputs.data() + o * n_words + w0, src, wn * sizeof(Word));
    }
  }
}

CyclicSimResult simulate_cyclic(const Netlist& netlist,
                                std::span<const Word> inputs,
                                std::span<const Word> keys,
                                long long max_sweeps, bool init_ones) {
  if (max_sweeps <= 0) {
    // 64-bit arithmetic: at a million-plus gates the old int expression
    // could overflow.
    max_sweeps = static_cast<long long>(netlist.num_gates()) + 8;
  }
  std::vector<Word> value(netlist.num_gates(), init_ones ? ~Word{0} : Word{0});
  std::vector<Word> big;
  sweep_sources(netlist, inputs, keys, value);
  for (std::size_t g = 0; g < netlist.num_gates(); ++g) {
    const GateType t = netlist.gate_type(static_cast<GateId>(g));
    if (t == GateType::kConst1) value[g] = ~Word{0};
    if (t == GateType::kConst0) value[g] = 0;
  }
  Word changed = ~Word{0};
  for (long long sweep = 0; sweep < max_sweeps && changed != 0; ++sweep) {
    changed = 0;
    for (std::size_t g = 0; g < netlist.num_gates(); ++g) {
      const GateId id = static_cast<GateId>(g);
      if (is_source(netlist.gate_type(id))) continue;
      const Word next = eval_gate_at(netlist, id, value, big);
      changed |= next ^ value[g];
      value[g] = next;
    }
  }
  CyclicSimResult result;
  result.converged = ~changed;  // patterns still flipping did not settle
  result.outputs.reserve(netlist.num_outputs());
  for (const OutputPort& o : netlist.outputs()) {
    result.outputs.push_back(value[o.gate]);
  }
  return result;
}

std::vector<bool> eval_once(const Netlist& netlist,
                            const std::vector<bool>& inputs,
                            const std::vector<bool>& keys) {
  std::vector<Word> in_words(inputs.size());
  std::vector<Word> key_words(keys.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    in_words[i] = inputs[i] ? ~Word{0} : 0;
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    key_words[i] = keys[i] ? ~Word{0} : 0;
  }
  std::vector<Word> out_words;
  // is_cyclic() fills the netlist's graph cache; the Simulator constructor
  // below reuses it, so the acyclic path runs a single Kahn pass.
  if (netlist.is_cyclic()) {
    out_words = simulate_cyclic(netlist, in_words, key_words).outputs;
  } else {
    out_words = Simulator(netlist).run(in_words, key_words);
  }
  std::vector<bool> out(out_words.size());
  for (std::size_t i = 0; i < out_words.size(); ++i) {
    out[i] = (out_words[i] & 1u) != 0;
  }
  return out;
}

}  // namespace fl::netlist
