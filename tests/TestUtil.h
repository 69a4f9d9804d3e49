//===- tests/TestUtil.h - Shared test helpers -------------------*- C++ -*-===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//

#ifndef FG_TESTS_TESTUTIL_H
#define FG_TESTS_TESTUTIL_H

#include "syntax/Frontend.h"
#include <gtest/gtest.h>
#include <string>

namespace fgtest {

/// Outcome of compiling and running one F_G source program.
struct RunResult {
  bool CompileOk = false;
  bool RunOk = false;
  std::string Type;    ///< Pretty-printed F_G type.
  std::string SfType;  ///< Type assigned by the independent SF checker.
  std::string Value;   ///< Pretty-printed result value.
  std::string SfTerm;  ///< Pretty-printed translation.
  std::string Error;   ///< First diagnostic or runtime error.
};

/// Compiles (with Theorem-1/2 verification) and runs \p Source on the
/// tree walker.  Also runs the -O1-optimized term (systemf/Optimize.h)
/// and the bytecode VM through fg::execute and asserts both preserve
/// the outcome, so every test routed through this helper exercises the
/// optimizer and the VM as well.
inline RunResult runFg(const std::string &Source) {
  fg::Frontend FE;
  RunResult R;
  fg::CompileOutput Out = FE.compile("test.fg", Source);
  R.CompileOk = Out.Success;
  if (!Out.Success) {
    R.Error = Out.ErrorMessage;
    return R;
  }
  R.Type = fg::typeToString(Out.FgType);
  R.SfType = fg::sf::typeToString(Out.SfType);
  R.SfTerm = fg::sf::termToString(Out.SfTerm);
  fg::sf::EvalResult E = FE.run(Out);
  R.RunOk = E.ok();
  if (E.ok())
    R.Value = fg::sf::valueToString(E.Val);
  else
    R.Error = E.Error;

  fg::ExecRequest Optimized;
  Optimized.Level = fg::sf::SpecializeLevel::Off;
  fg::ExecRequest Vm;
  Vm.Engine = fg::Backend::Vm;
  for (const fg::ExecRequest &Req : {Optimized, Vm}) {
    std::string Leg = Req.Level ? "specializer" : "vm backend";
    fg::ExecResult O = fg::execute(FE, Out, Req);
    EXPECT_EQ(E.ok(), O.ok()) << Leg << " changed success/failure: "
                              << E.Error << " vs " << O.Error
                              << "\nprogram:\n"
                              << Source;
    if (E.ok() && O.ok()) {
      EXPECT_EQ(fg::sf::valueToString(E.Val), fg::sf::valueToString(O.Val))
          << Leg << " changed the value of:\n"
          << Source;
    } else if (!E.ok() && !O.ok() && !Req.Level) {
      EXPECT_EQ(E.Error, O.Error) << Leg << " changed the error of:\n"
                                  << Source;
    }
  }
  return R;
}

/// Compiles only; returns the first diagnostic (empty if it compiled).
inline std::string compileError(const std::string &Source) {
  fg::Frontend FE;
  fg::CompileOutput Out = FE.compile("test.fg", Source);
  return Out.Success ? std::string() : Out.ErrorMessage;
}

} // namespace fgtest

#endif // FG_TESTS_TESTUTIL_H
