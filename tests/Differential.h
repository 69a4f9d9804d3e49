//===- tests/Differential.h - Cross-backend differential harness -*- C++ -*-===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The differential-testing contract for execution backends: any
/// compiled program, run through every registered System F engine
/// (support/Backends.h) by fg::execute, must produce the identical
/// outcome: the same printed value on success, or the same error string
/// on failure (including the EvalOptions step/depth abort diagnostics).
///
/// ConformanceTest routes the whole corpus through here and VmTest
/// adds the examples and limit cases, so a future backend gets
/// coverage by being registered.
///
//===----------------------------------------------------------------------===//

#ifndef FG_TESTS_DIFFERENTIAL_H
#define FG_TESTS_DIFFERENTIAL_H

#include "syntax/Frontend.h"
#include <cstdio>
#include <gtest/gtest.h>
#include <string>
#include <vector>

namespace fgtest {

/// Outcome of one backend on one program.
struct BackendOutcome {
  std::string Name;
  bool Ok = false;
  std::string Rendered; ///< Printed value when Ok, error otherwise.
};

/// Runs \p Out through every registered backend at optimization level
/// \p Level (unset: the translation as is) and EXPECTs pairwise-identical
/// outcomes (success flag and rendered value/error).  Returns the
/// outcomes, reference (tree) backend first; \p Context names the
/// program in failure messages.  A backend that cannot run here (AOT
/// without a host C++ compiler) is skipped with a one-time notice
/// rather than failing the suite.
inline std::vector<BackendOutcome>
runAllBackends(fg::Frontend &FE, fg::CompileOutput &Out,
               const fg::sf::EvalOptions &Opts = fg::sf::EvalOptions(),
               const std::string &Context = std::string(),
               std::optional<fg::sf::SpecializeLevel> Level = std::nullopt) {
  std::vector<BackendOutcome> Results;
  for (const fg::BackendInfo &B : fg::backendRegistry()) {
    fg::ExecRequest Req;
    Req.Engine = B.Kind;
    Req.Level = Level;
    Req.Eval = Opts;
    fg::ExecResult R = fg::execute(FE, Out, Req);
    if (R.Unavailable) {
      static bool Noted = false;
      if (!Noted)
        std::fprintf(stderr, "differential: skipping the %s backend: %s\n",
                     B.Name, R.Error.c_str());
      Noted = true;
      continue;
    }
    Results.push_back(
        {B.Name, R.ok(), R.ok() ? fg::sf::valueToString(R.Val) : R.Error});
  }
  const BackendOutcome &Ref = Results.front();
  for (size_t I = 1; I < Results.size(); ++I) {
    EXPECT_EQ(Ref.Ok, Results[I].Ok)
        << Context << ": backend `" << Results[I].Name << "` "
        << (Results[I].Ok ? "succeeded" : "failed") << " but `" << Ref.Name
        << "` " << (Ref.Ok ? "succeeded" : "failed") << " (" << Ref.Rendered
        << " vs " << Results[I].Rendered << ")";
    EXPECT_EQ(Ref.Rendered, Results[I].Rendered)
        << Context << ": backend `" << Results[I].Name
        << "` disagrees with `" << Ref.Name << "`";
  }
  return Results;
}

/// Compiles \p Source and runs the differential check; EXPECTs the
/// compilation to succeed.  Returns the reference outcome's rendering.
inline std::string
runDifferential(const std::string &Source,
                const fg::sf::EvalOptions &Opts = fg::sf::EvalOptions()) {
  fg::Frontend FE;
  fg::CompileOutput Out = FE.compile("differential.fg", Source);
  EXPECT_TRUE(Out.Success) << Out.ErrorMessage << "\nprogram:\n" << Source;
  if (!Out.Success)
    return std::string();
  std::vector<BackendOutcome> R = runAllBackends(FE, Out, Opts, Source);
  return R.front().Rendered;
}

} // namespace fgtest

#endif // FG_TESTS_DIFFERENTIAL_H
