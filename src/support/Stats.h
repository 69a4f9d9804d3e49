//===- support/Stats.h - Compiler statistics and tracing --------*- C++ -*-===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A lightweight observability layer for the whole pipeline: named
/// counters, named phase timers, and an RAII scoped timer, with both
/// human-readable and JSON emission.
///
/// Design constraints, in order:
///
///  1. Hot paths must pay (almost) nothing.  Counters are
///     `std::atomic<uint64_t>` cells registered once; the idiomatic
///     call site is
///
///         static std::atomic<uint64_t> &C =
///             stats::Statistics::global().counter("congruence.queries");
///         ++C;
///
///     so the steady-state cost is one atomic increment — no map
///     lookup, no branch on an enable flag.  Cell addresses are stable
///     for the life of the process (`std::map` nodes never move), and
///     reset() zeroes values without invalidating them.  Atomic cells
///     are what lets the batch driver check modules on a thread pool
///     while every worker counts into the same registry.
///
///  2. Timers call the clock, which is not free, so they *are* gated:
///     a ScopedTimer constructed while the registry is disabled does
///     nothing.  Phase-level granularity (lex, parse, check, verify,
///     optimize, eval) keeps the clock off the per-node paths.
///
///  3. Emission is deterministic: counters and timers print in name
///     order, so two runs of the same workload diff cleanly and the
///     per-PR `BENCH_*.json` trajectories are comparable.
///
/// Derived ratios are computed at emission time: for every counter pair
/// `<prefix>.hits` / `<prefix>.misses` the reports include
/// `<prefix>.hit_rate`.  That is how `--stats` reports the model-cache
/// hit rate without the checker having to do division on the hot path.
///
/// The registry is process-wide, so long-lived processes report too:
/// the `fgcd` daemon counts requests, sessions, protocol errors, and
/// artifact-cache traffic under `server.*` (the `stats` protocol
/// request and `fgcd --stats` both read this registry), with
/// `server.artifact_cache.{hits,misses}` getting the same derived
/// hit_rate treatment as the checker caches.
///
//===----------------------------------------------------------------------===//

#ifndef FG_SUPPORT_STATS_H
#define FG_SUPPORT_STATS_H

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>

namespace fg {
namespace stats {

/// Monotonic clock reading in nanoseconds.
uint64_t nowNanos();

/// The process-wide statistics registry.
///
/// Counters are always live (incrementing a uint64_t is cheaper than
/// checking whether to).  The enabled flag gates timers and is the
/// driver's signal that a report was requested at all.
///
/// Thread-safe: a compilation is single-threaded per Frontend, but the
/// batch driver runs many Frontends concurrently, all counting into
/// this one registry.  Registration and timer recording take a mutex
/// (cold paths); increments on registered cells are lock-free atomics.
class Statistics {
public:
  /// The singleton registry.
  static Statistics &global();

  void enable(bool On) { Enabled.store(On, std::memory_order_relaxed); }
  bool isEnabled() const { return Enabled.load(std::memory_order_relaxed); }

  /// Returns the cell for \p Name, creating it at zero on first use.
  /// The reference stays valid (and keeps counting) forever.
  std::atomic<uint64_t> &counter(const std::string &Name);

  /// Convenience increment for cold call sites.
  void add(const std::string &Name, uint64_t Delta = 1) {
    counter(Name) += Delta;
  }

  /// Accumulated wall-clock per named phase.
  struct TimerRecord {
    uint64_t Nanos = 0;
    uint64_t Calls = 0;
  };

  /// Adds one timed interval to phase \p Name.
  void addTime(const std::string &Name, uint64_t Nanos);

  /// Zeroes every counter and timer; registered cells stay valid.
  void reset();

  /// Point-in-time copies, for tests and custom reporting.
  std::map<std::string, uint64_t> counters() const;
  std::map<std::string, TimerRecord> timers() const;

  /// Human-readable report (aligned columns, ratios, microseconds).
  void print(std::ostream &OS) const;

  /// Machine-readable report:
  ///   {"counters": {...}, "timers": {"p": {"nanos": n, "calls": c}},
  ///    "derived": {"x.hit_rate": 0.93}}
  void printJson(std::ostream &OS) const;

private:
  Statistics() = default;

  std::atomic<bool> Enabled{false};
  mutable std::mutex Mu; ///< Guards the maps, not the counter cells.
  std::map<std::string, std::atomic<uint64_t>> Counters;
  std::map<std::string, TimerRecord> Timers;
};

/// Emits the registry when it goes out of scope, as a driver's
/// `--stats` (human report on stderr) and `--stats-json=<file>` (JSON,
/// `-` for stdout) flags ask.  Declared at the top of `main`, it runs
/// on every exit path, so failed runs still report (that is when the
/// numbers are most interesting).
struct StatsReporter {
  /// \p Tool names the program in the write warning.
  explicit StatsReporter(const char *Tool) : Tool(Tool) {}
  ~StatsReporter();
  StatsReporter(const StatsReporter &) = delete;
  StatsReporter &operator=(const StatsReporter &) = delete;

  const char *Tool;
  bool Human = false;   ///< `--stats`.
  std::string JsonPath; ///< `--stats-json=`; empty when not asked.
};

/// Times one scope into a named phase.  Free when the registry is
/// disabled at construction.
class ScopedTimer {
public:
  explicit ScopedTimer(const char *Name)
      : Name(Name), Start(Statistics::global().isEnabled() ? nowNanos() : 0) {}

  ~ScopedTimer() {
    if (Start)
      Statistics::global().addTime(Name, nowNanos() - Start);
  }

  ScopedTimer(const ScopedTimer &) = delete;
  ScopedTimer &operator=(const ScopedTimer &) = delete;

private:
  const char *Name;
  uint64_t Start;
};

} // namespace stats
} // namespace fg

#endif // FG_SUPPORT_STATS_H
