//===- tests/ConformanceTest.cpp - Data-driven conformance corpus ---------===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
// Runs every tests/conformance/*.fg file and checks its embedded
// expectations:
//
//   // EXPECT-TYPE: <exact pretty-printed F_G type>
//   // EXPECT-VALUE: <exact printed value>
//   // EXPECT-ERROR: <substring of the first diagnostic>
//
// Programs without EXPECT-ERROR are additionally required to verify in
// System F (Theorems 1/2), to produce the same value under the direct
// interpreter, and to behave identically on every execution backend
// (tree / vm / aot — see Differential.h), whether they produce a
// value or a runtime error.
//
//===----------------------------------------------------------------------===//

#include "Differential.h"
#include "syntax/Frontend.h"
#include "systemf/TypeCheck.h"
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>

using namespace fg;

namespace {

struct Expectations {
  std::string Type;
  std::string Value;
  std::string Error;
  bool HasType = false, HasValue = false, HasError = false;
};

Expectations parseExpectations(const std::string &Source) {
  Expectations E;
  std::istringstream In(Source);
  std::string Line;
  auto After = [](const std::string &L, const std::string &Tag) {
    size_t P = L.find(Tag);
    std::string S = L.substr(P + Tag.size());
    size_t B = S.find_first_not_of(" \t");
    size_t En = S.find_last_not_of(" \t\r");
    return B == std::string::npos ? std::string()
                                  : S.substr(B, En - B + 1);
  };
  while (std::getline(In, Line)) {
    if (Line.find("EXPECT-TYPE:") != std::string::npos) {
      E.Type = After(Line, "EXPECT-TYPE:");
      E.HasType = true;
    } else if (Line.find("EXPECT-VALUE:") != std::string::npos) {
      E.Value = After(Line, "EXPECT-VALUE:");
      E.HasValue = true;
    } else if (Line.find("EXPECT-ERROR:") != std::string::npos) {
      E.Error = After(Line, "EXPECT-ERROR:");
      E.HasError = true;
    }
  }
  return E;
}

std::vector<std::string> conformanceFiles() {
  std::vector<std::string> Files;
  std::filesystem::path Dir =
      std::filesystem::path(FG_CONFORMANCE_DIR);
  for (const auto &Entry : std::filesystem::directory_iterator(Dir))
    if (Entry.path().extension() == ".fg")
      Files.push_back(Entry.path().string());
  std::sort(Files.begin(), Files.end());
  return Files;
}

} // namespace

class Conformance : public ::testing::TestWithParam<std::string> {};

TEST_P(Conformance, MeetsExpectations) {
  std::ifstream In(GetParam());
  ASSERT_TRUE(In.good()) << GetParam();
  std::ostringstream SS;
  SS << In.rdbuf();
  std::string Source = SS.str();
  Expectations E = parseExpectations(Source);
  ASSERT_TRUE(E.HasType || E.HasValue || E.HasError)
      << GetParam() << " has no EXPECT directives";

  Frontend FE;
  CompileOutput Out = FE.compile(GetParam(), Source);

  if (E.HasError) {
    ASSERT_FALSE(Out.Success)
        << GetParam() << " compiled but EXPECT-ERROR was given";
    EXPECT_NE(Out.ErrorMessage.find(E.Error), std::string::npos)
        << "expected error containing `" << E.Error << "`, got: "
        << Out.ErrorMessage;
    return;
  }

  ASSERT_TRUE(Out.Success) << GetParam() << ": " << Out.ErrorMessage;
  if (E.HasType) {
    EXPECT_EQ(typeToString(Out.FgType), E.Type) << GetParam();
  }

  // Every backend must agree on the outcome — a value for EXPECT-VALUE
  // programs, a runtime error for the rest of the corpus.
  std::vector<fgtest::BackendOutcome> Outcomes =
      fgtest::runAllBackends(FE, Out, sf::EvalOptions(), GetParam());
  if (E.HasValue) {
    ASSERT_TRUE(Outcomes.front().Ok)
        << GetParam() << ": " << Outcomes.front().Rendered;
    EXPECT_EQ(Outcomes.front().Rendered, E.Value) << GetParam();
    interp::EvalResult D = FE.runDirect(Out);
    ASSERT_TRUE(D.ok()) << GetParam() << ": " << D.Error;
    EXPECT_EQ(interp::valueToString(D.Val), E.Value)
        << GetParam() << " (direct interpreter)";
  }

  // Whole-program specialization (-O2) must preserve the outcome on
  // every backend — value or runtime error alike — and each of its
  // passes must keep the term well-typed at the program's type.
  sf::OptimizeOptions SOpts;
  SOpts.Specialize = sf::SpecializeLevel::Full;
  SOpts.PassHook = [&](const char *PassName, const sf::Term *,
                       const sf::Term *After) {
    sf::TypeChecker Checker(FE.getSfContext());
    const sf::Type *Ty = Checker.check(After, FE.getPrelude().Types);
    EXPECT_TRUE(Ty && Ty == Out.SfType)
        << GetParam() << ": pass `" << PassName
        << "` broke typing: " << Checker.firstError();
    return Ty && Ty == Out.SfType;
  };
  sf::OptimizeStats SStats;
  const sf::Term *Spec = FE.optimize(Out, &SStats, SOpts);
  ASSERT_NE(Spec, nullptr) << GetParam();
  ASSERT_EQ(SStats.AbortedOnPass, nullptr)
      << GetParam() << ": validator rejected pass "
      << SStats.AbortedOnPass;
  std::vector<fgtest::BackendOutcome> SpecOutcomes = fgtest::runAllBackends(
      FE, Out, sf::EvalOptions(), GetParam() + " (specialized)",
      sf::SpecializeLevel::Full);
  EXPECT_EQ(Outcomes.front().Ok, SpecOutcomes.front().Ok)
      << GetParam() << ": specialization changed the outcome kind ("
      << Outcomes.front().Rendered << " vs "
      << SpecOutcomes.front().Rendered << ")";
  if (Outcomes.front().Ok) {
    EXPECT_EQ(Outcomes.front().Rendered, SpecOutcomes.front().Rendered)
        << GetParam() << ": specialization changed the program's value";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, Conformance, ::testing::ValuesIn(conformanceFiles()),
    [](const ::testing::TestParamInfo<std::string> &Info) {
      std::string Name = std::filesystem::path(Info.param).stem().string();
      for (char &C : Name)
        if (!std::isalnum(static_cast<unsigned char>(C)))
          C = '_';
      return Name;
    });
