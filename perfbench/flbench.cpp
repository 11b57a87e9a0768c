#include "flbench.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <thread>

#include "runtime/jsonl.h"

namespace flbench {

double now_s() {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

int Tracer::add(std::string name, double start, double end, int parent,
                long op) {
  if (!on_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({std::move(name), start, end, parent, op});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::set_end(int span, double end) {
  if (span < 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(span)].end = end;
}

void Tracer::count(const std::string& name, double value) {
  if (!on_) return;
  std::lock_guard<std::mutex> lock(mu_);
  counters_[name] += value;
}

std::map<std::string, double> Tracer::self_times() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start, s.end);
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent.
    double covered = 0.0;
    double cursor = s.start;
    for (const auto& [a, b] : kids) {
      const double lo = std::max(a, cursor);
      const double hi = std::min(b, s.end);
      if (hi > lo) covered += hi - lo;
      cursor = std::max(cursor, std::min(b, s.end));
    }
    self[s.name] += std::max(0.0, (s.end - s.start) - covered);
  }
  return self;
}

std::map<std::string, double> Tracer::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    fl::runtime::JsonObject o;
    o.field("span", i)
        .field("name", s.name)
        .field("op", static_cast<long long>(s.op))
        .field("parent", static_cast<long long>(s.parent))
        .field("start_s", s.start)
        .field("end_s", s.end);
    out << o.str() << "\n";
  }
}

bool CountCheck::observe(const std::string& instance, std::uint64_t conflicts,
                         std::uint64_t iterations, std::uint64_t queries) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = seen_.find(instance);
  if (it == seen_.end()) {
    seen_[instance] = {conflicts, iterations, queries,
                       {static_cast<double>(conflicts)}};
    return true;
  }
  ++repeats_;
  Seen& first = it->second;
  first.all_conflicts.push_back(static_cast<double>(conflicts));
  if (exempt_) return true;
  if (first.conflicts == conflicts && first.iterations == iterations &&
      first.queries == queries) {
    return true;
  }
  drift_.push_back(instance + ": conflicts " + std::to_string(first.conflicts) +
                   "->" + std::to_string(conflicts) + ", iterations " +
                   std::to_string(first.iterations) + "->" +
                   std::to_string(iterations) + ", oracle queries " +
                   std::to_string(first.queries) + "->" +
                   std::to_string(queries));
  return false;
}

std::size_t CountCheck::repeats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return repeats_;
}

double CountCheck::conflict_spread() const {
  std::lock_guard<std::mutex> lock(mu_);
  double spread = 0.0;
  for (const auto& [name, seen] : seen_) {
    if (seen.all_conflicts.size() < 2) continue;
    const auto [lo, hi] = std::minmax_element(seen.all_conflicts.begin(),
                                              seen.all_conflicts.end());
    const double mid = median(seen.all_conflicts);
    if (mid > 0.0) spread = std::max(spread, (*hi - *lo) / mid);
  }
  return spread;
}

LoopResult run_loop(int clients, double seconds, long max_ops,
                    const OpFn& op) {
  LoopResult result;
  std::mutex mu;
  std::atomic<long> next{0};
  const double start = now_s();
  const double deadline = start + seconds;
  double last_end = start;

  const auto client_loop = [&](int client) {
    while (true) {
      if (max_ops > 0 ? next.load() >= max_ops : now_s() >= deadline) break;
      const long index = next.fetch_add(1);
      if (max_ops > 0 && index >= max_ops) break;
      const double t0 = now_s();
      OpResult r;
      try {
        r = op(client, index);
      } catch (const std::exception& e) {
        r.ok = false;
        r.error = e.what();
      }
      const double t1 = now_s();
      std::lock_guard<std::mutex> lock(mu);
      ++result.attempted;
      last_end = std::max(last_end, t1);
      result.attacks += r.attacks;
      result.oracle_queries += r.oracle_queries;
      if (r.ok) {
        result.op_s.push_back(r.latency_s >= 0.0 ? r.latency_s : t1 - t0);
      } else {
        ++result.failed;
        result.errors.push_back("op " + std::to_string(index) + ": " + r.error);
      }
    }
  };

  if (clients <= 1) {
    client_loop(0);
  } else {
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) threads.emplace_back(client_loop, c);
    for (std::thread& t : threads) t.join();
  }
  result.wall_s = last_end - start;
  return result;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  // Linear interpolation between closest ranks.
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - std::floor(pos));
}

double median(std::vector<double> values) { return percentile(values, 0.5); }

}  // namespace flbench
