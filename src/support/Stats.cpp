//===- support/Stats.cpp - Compiler statistics and tracing ----------------===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//

#include "support/Stats.h"
#include <chrono>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <vector>

using namespace fg;
using namespace fg::stats;

uint64_t fg::stats::nowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Statistics &Statistics::global() {
  static Statistics S;
  return S;
}

std::atomic<uint64_t> &Statistics::counter(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(Mu);
  return Counters[Name]; // value-initialized to 0 on first use
}

void Statistics::addTime(const std::string &Name, uint64_t Nanos) {
  std::lock_guard<std::mutex> Lock(Mu);
  TimerRecord &R = Timers[Name];
  R.Nanos += Nanos;
  R.Calls += 1;
}

void Statistics::reset() {
  std::lock_guard<std::mutex> Lock(Mu);
  for (auto &[Name, Value] : Counters)
    Value.store(0, std::memory_order_relaxed);
  for (auto &[Name, R] : Timers)
    R = {};
}

std::map<std::string, uint64_t> Statistics::counters() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::map<std::string, uint64_t> Out;
  for (const auto &[Name, Value] : Counters)
    Out.emplace(Name, Value.load(std::memory_order_relaxed));
  return Out;
}

std::map<std::string, Statistics::TimerRecord> Statistics::timers() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Timers;
}

namespace {

/// The `<prefix>.hits` / `<prefix>.misses` pairs present in \p Counters,
/// as (prefix, rate) with rate = hits / (hits + misses).  Pairs that
/// were never exercised (0 + 0) are skipped.
std::vector<std::pair<std::string, double>>
hitRates(const std::map<std::string, uint64_t> &Counters) {
  std::vector<std::pair<std::string, double>> Rates;
  for (const auto &[Name, Hits] : Counters) {
    const std::string Suffix = ".hits";
    if (Name.size() <= Suffix.size() ||
        Name.compare(Name.size() - Suffix.size(), Suffix.size(), Suffix) != 0)
      continue;
    std::string Prefix = Name.substr(0, Name.size() - Suffix.size());
    auto MissIt = Counters.find(Prefix + ".misses");
    if (MissIt == Counters.end())
      continue;
    uint64_t Total = Hits + MissIt->second;
    if (Total == 0)
      continue;
    Rates.emplace_back(Prefix + ".hit_rate",
                       static_cast<double>(Hits) / Total);
  }
  return Rates;
}

std::string formatNanos(uint64_t Nanos) {
  std::ostringstream OS;
  OS << std::fixed << std::setprecision(3);
  if (Nanos >= 1'000'000'000)
    OS << Nanos / 1e9 << " s";
  else if (Nanos >= 1'000'000)
    OS << Nanos / 1e6 << " ms";
  else
    OS << Nanos / 1e3 << " us";
  return OS.str();
}

} // namespace

void Statistics::print(std::ostream &OS) const {
  const std::map<std::string, uint64_t> Counters = counters();
  const std::map<std::string, TimerRecord> Timers = timers();
  OS << "=== fgc statistics ===\n";
  size_t Width = 0;
  for (const auto &[Name, Value] : Counters)
    Width = std::max(Width, Name.size());
  for (const auto &[Name, R] : Timers)
    Width = std::max(Width, Name.size());

  if (!Counters.empty()) {
    OS << "counters:\n";
    for (const auto &[Name, Value] : Counters)
      OS << "  " << std::left << std::setw(static_cast<int>(Width)) << Name
         << "  " << Value << "\n";
  }
  if (!Timers.empty()) {
    OS << "timers:\n";
    for (const auto &[Name, R] : Timers)
      OS << "  " << std::left << std::setw(static_cast<int>(Width)) << Name
         << "  " << formatNanos(R.Nanos) << "  (" << R.Calls << " calls)\n";
  }
  auto Rates = hitRates(Counters);
  if (!Rates.empty()) {
    OS << "derived:\n";
    for (const auto &[Name, Rate] : Rates)
      OS << "  " << std::left << std::setw(static_cast<int>(Width)) << Name
         << "  " << std::fixed << std::setprecision(1) << Rate * 100.0
         << "%\n";
  }
}

void Statistics::printJson(std::ostream &OS) const {
  const std::map<std::string, uint64_t> Counters = counters();
  const std::map<std::string, TimerRecord> Timers = timers();
  // Names are dotted identifiers (no quotes/backslashes/control
  // characters), so plain quoting is valid JSON.
  OS << "{\n  \"counters\": {";
  bool First = true;
  for (const auto &[Name, Value] : Counters) {
    OS << (First ? "" : ",") << "\n    \"" << Name << "\": " << Value;
    First = false;
  }
  OS << (First ? "" : "\n  ") << "},\n  \"timers\": {";
  First = true;
  for (const auto &[Name, R] : Timers) {
    OS << (First ? "" : ",") << "\n    \"" << Name << "\": {\"nanos\": "
       << R.Nanos << ", \"calls\": " << R.Calls << "}";
    First = false;
  }
  OS << (First ? "" : "\n  ") << "},\n  \"derived\": {";
  First = true;
  for (const auto &[Name, Rate] : hitRates(Counters)) {
    OS << (First ? "" : ",") << "\n    \"" << Name << "\": " << std::fixed
       << std::setprecision(6) << Rate;
    First = false;
  }
  OS << (First ? "" : "\n  ") << "}\n}\n";
}

StatsReporter::~StatsReporter() {
  const Statistics &S = Statistics::global();
  if (Human)
    S.print(std::cerr);
  if (JsonPath.empty())
    return;
  if (JsonPath == "-") {
    S.printJson(std::cout);
    return;
  }
  std::ofstream Out(JsonPath);
  if (!Out)
    std::cerr << Tool << ": warning: cannot write stats to `" << JsonPath
              << "`\n";
  else
    S.printJson(Out);
}
