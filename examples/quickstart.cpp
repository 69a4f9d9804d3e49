//===- examples/quickstart.cpp - First steps with the fgc library ---------===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's running example (Figure 1): a generic `square` that works
/// for any type modelling a `Number` concept.  This walks through every
/// stage the library exposes, through its two entry points, fg::open
/// and fg::execute:
///
///   source text -> open -> parse -> typecheck/translate
///   -> verify in System F -> evaluate
///
/// ctest runs it (example_quickstart) and checks both values.
///
//===----------------------------------------------------------------------===//

#include "modules/Loader.h"
#include "syntax/Frontend.h"
#include <iostream>

using namespace fg;

namespace {

/// Opens \p Source under the buffer name \p Name and compiles it into
/// \p FE, printing the diagnostics when it does not compile.  A file
/// opens the same way, with OpenRequest::Path set instead.
CompileOutput compileSource(Frontend &FE, const std::string &Name,
                            const std::string &Source) {
  OpenRequest Req;
  Req.Name = Name;
  Req.Source = Source;
  std::string Diagnostics;
  CompileOutput Out =
      fg::open(std::move(Req)).compile(FE, CompileOptions(), Diagnostics);
  if (!Out.Success)
    std::cerr << Diagnostics;
  return Out;
}

/// Runs \p Out on the tree walker at -O0 (ExecRequest's defaults) and
/// prints its value after \p Label; false on a runtime error.
bool run(Frontend &FE, CompileOutput &Out, const std::string &Label) {
  ExecResult R = execute(FE, Out, ExecRequest());
  if (!R.ok()) {
    std::cerr << "runtime error: " << R.Error << "\n";
    return false;
  }
  std::cout << Label << sf::valueToString(R.Val) << "\n";
  return true;
}

} // namespace

int main() {
  // Stage 0: the program.  Compare with the four variants in the
  // paper's Figure 1 — the concept plays the role of Haskell's type
  // class / Java's interface / CLU's type set, and the model makes
  // `int` conform retroactively.
  const std::string Source = R"(
    concept Number<u> { mult : fn(u, u) -> u; } in

    let square = (forall t where Number<t>.
      fun(x : t). Number<t>.mult(x, x)) in

    model Number<int> { mult = imult; } in
    square[int](4)
  )";

  Frontend FE;

  // Stage 1+2: parse and typecheck; the checker simultaneously emits
  // the dictionary-passing System F translation (paper Figure 9).
  CompileOutput Out = compileSource(FE, "quickstart.fg", Source);
  if (!Out.Success)
    return 1;

  std::cout << "F_G type:       " << typeToString(Out.FgType) << "\n";
  std::cout << "System F term:  " << sf::termToString(Out.SfTerm) << "\n";

  // Stage 3: the translation was re-checked by the independent System F
  // typechecker — the dynamic form of the paper's Theorem 1.
  std::cout << "System F type:  " << sf::typeToString(Out.SfType)
            << "   (translation verified: Theorem 1)\n";

  // Stage 4: run it.
  if (!run(FE, Out, "value:          "))
    return 1;

  // The same generic function reused at another type: make bool a
  // Number with conjunction as multiplication.
  const std::string Source2 = R"(
    concept Number<u> { mult : fn(u, u) -> u; } in
    let square = (forall t where Number<t>.
      fun(x : t). Number<t>.mult(x, x)) in
    model Number<bool> { mult = band; } in
    square[bool](true)
  )";
  CompileOutput Out2 = compileSource(FE, "quickstart2.fg", Source2);
  if (!Out2.Success || !run(FE, Out2, "square[bool](true) = "))
    return 1;
  return 0;
}
