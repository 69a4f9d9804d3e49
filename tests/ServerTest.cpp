//===- tests/ServerTest.cpp - fgcd server subsystem -----------------------===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//
//
// The compiler-server subsystem end to end:
//
//   * the self-contained JSON reader/writer (server/Json.h);
//   * the bounded shared artifact cache and its content-hash keys;
//   * the wire protocol over serveStream — every method, the error
//     codes, and the compile-failure-is-a-result rule (docs/PROTOCOL.md
//     is the spec these tests pin);
//   * session isolation: concurrent sessions share artifacts but never
//     declaration scopes;
//   * the real Unix-socket daemon under 16 concurrent client threads,
//     and on a request nested past the default thread stack.
//
//===----------------------------------------------------------------------===//

#include "modules/Loader.h"
#include "server/Json.h"
#include "server/Protocol.h"
#include "server/Server.h"
#include "server/Session.h"
#include "support/Stats.h"
#include "syntax/Frontend.h"
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>

using namespace fg;
using namespace fg::server;

namespace {

//===----------------------------------------------------------------------===//
// Json
//===----------------------------------------------------------------------===//

Json parseOk(const std::string &Text) {
  Json V;
  std::string Error;
  EXPECT_TRUE(Json::parse(Text, V, Error)) << Text << ": " << Error;
  return V;
}

TEST(JsonTest, ScalarsRoundTrip) {
  EXPECT_TRUE(parseOk("null").isNull());
  EXPECT_EQ(parseOk("true").asBool(), true);
  EXPECT_EQ(parseOk("false").asBool(), false);
  EXPECT_EQ(parseOk("42").asInt(), 42);
  EXPECT_EQ(parseOk("-7").asInt(), -7);
  EXPECT_DOUBLE_EQ(parseOk("2.5").asDouble(), 2.5);
  // A double outside int64's range saturates rather than overflowing
  // the conversion.
  EXPECT_EQ(parseOk("-2.5").asInt(), -2);
  EXPECT_EQ(parseOk("1e300").asInt(), INT64_MAX);
  EXPECT_EQ(parseOk("-1e300").asInt(), INT64_MIN);
  EXPECT_EQ(parseOk("\"hi\"").asString(), "hi");
  EXPECT_EQ(Json::number(int64_t(42)).write(), "42");
  EXPECT_EQ(Json::string("hi").write(), "\"hi\"");
}

TEST(JsonTest, StringEscapes) {
  EXPECT_EQ(parseOk("\"a\\n\\t\\\"b\\\\\"").asString(), "a\n\t\"b\\");
  // \u escapes decode to UTF-8.
  EXPECT_EQ(parseOk("\"\\u0041\"").asString(), "A");
  EXPECT_EQ(parseOk("\"\\u00e9\"").asString(), "\xc3\xa9");
  // Control characters are re-escaped on output.
  EXPECT_EQ(Json::string("a\nb").write(), "\"a\\nb\"");
  EXPECT_EQ(Json::string(std::string("\x01", 1)).write(), "\"\\u0001\"");
}

TEST(JsonTest, NestedStructuresRoundTrip) {
  const char *Text =
      "{\"id\":1,\"params\":{\"xs\":[1,2,3],\"flag\":true,\"s\":\"v\"}}";
  Json V = parseOk(Text);
  ASSERT_TRUE(V.isObject());
  EXPECT_EQ(V.find("id")->asInt(), 1);
  const Json *Params = V.find("params");
  ASSERT_NE(Params, nullptr);
  EXPECT_EQ(Params->find("xs")->elements().size(), 3u);
  EXPECT_EQ(Params->find("xs")->elements()[2].asInt(), 3);
  EXPECT_TRUE(Params->find("flag")->asBool());
  // Re-serialize and re-parse: stable.
  Json V2 = parseOk(V.write());
  EXPECT_EQ(V2.write(), V.write());
}

TEST(JsonTest, MalformedInputsAreRejected) {
  Json V;
  std::string Error;
  EXPECT_FALSE(Json::parse("", V, Error));
  EXPECT_FALSE(Json::parse("{", V, Error));
  EXPECT_FALSE(Json::parse("[1,]", V, Error));
  EXPECT_FALSE(Json::parse("{\"a\":}", V, Error));
  EXPECT_FALSE(Json::parse("\"unterminated", V, Error));
  EXPECT_FALSE(Json::parse("nul", V, Error));
  EXPECT_FALSE(Json::parse("1 2", V, Error)) << "trailing garbage";
  EXPECT_FALSE(Json::parse("{\"a\":1} x", V, Error)) << "trailing garbage";
}

TEST(JsonTest, NestingDepthIsBounded) {
  // A deeply nested container from an untrusted client must be
  // rejected gracefully, not recurse until the stack overflows.
  Json V;
  std::string Error;
  std::string Bomb(100000, '[');
  EXPECT_FALSE(Json::parse(Bomb, V, Error));
  EXPECT_EQ(Error, "nesting too deep");

  std::string ObjBomb;
  for (int I = 0; I < 100000; ++I)
    ObjBomb += "{\"a\":";
  EXPECT_FALSE(Json::parse(ObjBomb, V, Error));

  // Reasonable nesting still parses.
  std::string Ok = std::string(64, '[') + "1" + std::string(64, ']');
  EXPECT_TRUE(Json::parse(Ok, V, Error)) << Error;
}

//===----------------------------------------------------------------------===//
// ArtifactCache
//===----------------------------------------------------------------------===//

TEST(ArtifactCacheTest, PutGetAndKinds) {
  ArtifactCache C(16);
  auto A = std::make_shared<Artifact>();
  A->Success = true;
  A->Type = "int";
  CacheKey K1 = ArtifactCache::key("check:v1", "iadd(1,2)");
  CacheKey K2 = ArtifactCache::key("bytecode:v1", "iadd(1,2)");
  EXPECT_NE(K1.Hash, K2.Hash) << "kind tag must separate artifact spaces";
  EXPECT_NE(K1.Hash, ArtifactCache::key("check:v1", "iadd(1,3)").Hash);
  EXPECT_NE(K1.Hash, ArtifactCache::key("check:v1", "iadd(1,2)", 1).Hash)
      << "salt must affect the key";
  EXPECT_EQ(C.get(K1), nullptr);
  C.put(K1, A);
  ASSERT_NE(C.get(K1), nullptr);
  EXPECT_EQ(C.get(K1)->Type, "int");
  EXPECT_EQ(C.get(K2), nullptr);
}

TEST(ArtifactCacheTest, HashCollisionIsAMissNotAWrongAnswer) {
  // FNV-1a is not collision-resistant: simulate two different programs
  // whose keys land on the same 64-bit hash.  The second program must
  // see a miss, never the first program's artifact.
  ArtifactCache C(16);
  CacheKey Real = ArtifactCache::key("check:v1", "iadd(1,2)");
  CacheKey Colliding = ArtifactCache::key("check:v1", "iadd(9,9)");
  Colliding.Hash = Real.Hash;
  auto A = std::make_shared<Artifact>();
  A->Type = "int";
  C.put(Real, A);
  EXPECT_NE(C.get(Real), nullptr);
  EXPECT_EQ(C.get(Colliding), nullptr)
      << "a colliding key must not serve another program's artifact";
  // The colliding program also cannot overwrite the original entry.
  C.put(Colliding, std::make_shared<Artifact>());
  ASSERT_NE(C.get(Real), nullptr);
  EXPECT_EQ(C.get(Real)->Type, "int");
}

TEST(ArtifactCacheTest, BoundedFifoEviction) {
  ArtifactCache C(4);
  auto Key = [](uint64_t I) {
    return ArtifactCache::key("t", std::to_string(I));
  };
  for (uint64_t I = 0; I < 8; ++I)
    C.put(Key(I), std::make_shared<Artifact>());
  EXPECT_EQ(C.size(), 4u);
  // The oldest four are gone, the newest four remain.
  for (uint64_t I = 0; I < 4; ++I)
    EXPECT_EQ(C.get(Key(I)), nullptr) << I;
  for (uint64_t I = 4; I < 8; ++I)
    EXPECT_NE(C.get(Key(I)), nullptr) << I;
}

//===----------------------------------------------------------------------===//
// Protocol over serveStream
//===----------------------------------------------------------------------===//

/// Feeds request lines to a fresh session and parses each reply line.
std::vector<Json> roundTrip(const std::vector<std::string> &Requests,
                            bool *Shutdown = nullptr) {
  auto Cache = std::make_shared<ArtifactCache>();
  Session S(Cache);
  std::stringstream In, Out;
  for (const std::string &R : Requests)
    In << R << "\n";
  bool SD = serveStream(S, In, Out);
  if (Shutdown)
    *Shutdown = SD;
  std::vector<Json> Replies;
  std::string Line;
  while (std::getline(Out, Line))
    Replies.push_back(parseOk(Line));
  EXPECT_EQ(Replies.size(), Requests.size());
  return Replies;
}

const Json &resultOf(const Json &Reply) {
  EXPECT_TRUE(Reply.find("ok") && Reply.find("ok")->asBool())
      << Reply.write();
  const Json *R = Reply.find("result");
  EXPECT_NE(R, nullptr);
  return *R;
}

std::string errorCode(const Json &Reply) {
  EXPECT_TRUE(Reply.find("ok") && !Reply.find("ok")->asBool())
      << Reply.write();
  const Json *E = Reply.find("error");
  if (!E || !E->find("code"))
    return "";
  return E->find("code")->asString();
}

TEST(ProtocolTest, VersionHandshake) {
  std::vector<Json> R = roundTrip({"{\"id\":1,\"method\":\"version\"}"});
  EXPECT_EQ(resultOf(R[0]).find("protocol")->asInt(), ProtocolVersion);
  EXPECT_EQ(ProtocolVersion, 2) << "protocol 2 retired `closure` and made "
                                   "aot honour `optimize`";
  EXPECT_EQ(R[0].find("id")->asInt(), 1);
}

TEST(ProtocolTest, CheckReportsTypeAndCacheHit) {
  std::vector<Json> R = roundTrip({
      "{\"id\":1,\"method\":\"check\",\"params\":{\"source\":\"iadd(1,2)\"}}",
      "{\"id\":2,\"method\":\"check\",\"params\":{\"source\":\"iadd(1,2)\"}}",
  });
  EXPECT_TRUE(resultOf(R[0]).find("success")->asBool());
  EXPECT_EQ(resultOf(R[0]).find("type")->asString(), "int");
  EXPECT_FALSE(resultOf(R[0]).find("cached")->asBool());
  EXPECT_TRUE(resultOf(R[1]).find("cached")->asBool())
      << "byte-identical re-check must hit the artifact cache";
  EXPECT_EQ(resultOf(R[1]).find("type")->asString(), "int");
}

TEST(ProtocolTest, CompileFailureIsAResultNotAProtocolError) {
  std::vector<Json> R = roundTrip({
      "{\"id\":1,\"method\":\"check\",\"params\":"
      "{\"source\":\"iadd(true,2)\"}}",
  });
  const Json &Res = resultOf(R[0]); // ok:true even though it failed.
  EXPECT_FALSE(Res.find("success")->asBool());
  EXPECT_NE(Res.find("diagnostics")->asString().find("error"),
            std::string::npos);
}

TEST(ProtocolTest, OversizedLiteralIsADiagnosticAndTheSessionLives) {
  std::vector<Json> R = roundTrip({
      "{\"id\":1,\"method\":\"check\",\"params\":"
      "{\"source\":\"iadd(99999999999999999999, 1)\"}}",
      "{\"id\":2,\"method\":\"check\",\"params\":"
      "{\"source\":\"iadd(1, 2)\"}}",
  });
  ASSERT_EQ(R.size(), 2u);
  const Json &Bad = resultOf(R[0]);
  EXPECT_FALSE(Bad.find("success")->asBool());
  EXPECT_NE(Bad.find("diagnostics")->asString().find(
                "integer literal out of range"),
            std::string::npos)
      << R[0].write();
  EXPECT_TRUE(resultOf(R[1]).find("success")->asBool());
  EXPECT_EQ(resultOf(R[1]).find("type")->asString(), "int");
}

TEST(ProtocolTest, RunEvaluatesOnEachBackend) {
  std::vector<Json> R = roundTrip({
      "{\"id\":1,\"method\":\"run\",\"params\":{\"source\":\"iadd(1,2)\"}}",
      "{\"id\":2,\"method\":\"run\",\"params\":"
      "{\"source\":\"iadd(1,2)\",\"backend\":\"vm\"}}",
      "{\"id\":3,\"method\":\"run\",\"params\":"
      "{\"source\":\"iadd(1,2)\",\"backend\":\"vm\",\"optimize\":2}}",
      "{\"id\":4,\"method\":\"run\",\"params\":"
      "{\"source\":\"iadd(1,2)\",\"optimize\":2}}",
  });
  for (const Json &Reply : R) {
    EXPECT_TRUE(resultOf(Reply).find("success")->asBool()) << Reply.write();
    EXPECT_EQ(resultOf(Reply).find("value")->asString(), "3")
        << Reply.write();
  }
  // Different backends are distinct cache entries: none of these were
  // served from another backend's artifact.
  EXPECT_FALSE(resultOf(R[1]).find("cached")->asBool());
  EXPECT_FALSE(resultOf(R[2]).find("cached")->asBool());
  EXPECT_FALSE(resultOf(R[3]).find("cached")->asBool());
}

TEST(ProtocolTest, RunAndEvalOnTheAotBackend) {
  if (!fg::aot::toolchainAvailable())
    GTEST_SKIP() << "no host C++ compiler available";
  std::vector<Json> R = roundTrip({
      "{\"id\":1,\"method\":\"run\",\"params\":"
      "{\"source\":\"iadd(1,2)\",\"backend\":\"aot\"}}",
      "{\"id\":2,\"method\":\"run\",\"params\":"
      "{\"source\":\"iadd(1,2)\",\"backend\":\"aot\"}}",
      "{\"id\":3,\"method\":\"eval\",\"params\":"
      "{\"input\":\"imult(6,7)\",\"backend\":\"aot\"}}",
  });
  EXPECT_TRUE(resultOf(R[0]).find("success")->asBool()) << R[0].write();
  EXPECT_EQ(resultOf(R[0]).find("value")->asString(), "3");
  EXPECT_FALSE(resultOf(R[0]).find("cached")->asBool());
  // A byte-identical aot run is served from the artifact cache — the
  // server never even re-hashes the generated C++.
  EXPECT_TRUE(resultOf(R[1]).find("cached")->asBool());
  EXPECT_EQ(resultOf(R[1]).find("value")->asString(), "3");
  EXPECT_EQ(resultOf(R[2]).find("value")->asString(), "42");
}

TEST(ProtocolTest, AotUnavailabilityIsStructuredAndUncached) {
  // Force the discovery ladder to fail: an explicit $FGC_AOT_CXX that
  // does not resolve is an error, not a fall-through.
  ::setenv("FGC_AOT_CXX", "/nonexistent/cxx", 1);
  std::vector<Json> R = roundTrip({
      "{\"id\":1,\"method\":\"run\",\"params\":"
      "{\"source\":\"iadd(20,22)\",\"backend\":\"aot\"}}",
      "{\"id\":2,\"method\":\"eval\",\"params\":"
      "{\"input\":\"iadd(20,22)\",\"backend\":\"aot\"}}",
  });
  ::unsetenv("FGC_AOT_CXX");
  EXPECT_EQ(errorCode(R[0]), "backend_unavailable");
  EXPECT_NE(R[0].find("error")->find("message")->asString().find(
                "/nonexistent/cxx"),
            std::string::npos);
  EXPECT_EQ(errorCode(R[1]), "backend_unavailable");
}

TEST(SessionTest, AotUnavailabilityIsNeverCached) {
  if (!fg::aot::toolchainAvailable())
    GTEST_SKIP() << "no host C++ compiler available";
  // One shared cache across both requests: if the unavailable outcome
  // were cached, the second request would replay the error even after
  // the user installs a compiler.
  auto Cache = std::make_shared<ArtifactCache>();
  Session S(Cache);
  ::setenv("FGC_AOT_CXX", "/nonexistent/cxx", 1);
  Outcome Down = S.run("iadd(20,22)", "<aot>", Backend::Aot);
  ::unsetenv("FGC_AOT_CXX");
  EXPECT_TRUE(Down.BackendUnavailable);
  EXPECT_FALSE(Down.Error.empty());

  Outcome Up = S.run("iadd(20,22)", "<aot>", Backend::Aot);
  EXPECT_FALSE(Up.BackendUnavailable);
  EXPECT_TRUE(Up.Success);
  EXPECT_FALSE(Up.Cached) << "the unavailable outcome must not have "
                             "populated the cache";
  EXPECT_EQ(Up.Value, "42");
}

//===----------------------------------------------------------------------===//
// Which engine ran which term
//===----------------------------------------------------------------------===//

/// Paper Figure 5's accumulate: the dictionary passing -O2 specializes
/// away, so the specialized term runs in fewer steps on every engine.
const char *AccumulateSource =
    "concept Semigroup<t> { binary_op : fn(t,t) -> t; } in "
    "concept Monoid<t> { refines Semigroup<t>; identity_elt : t; } in "
    "let accumulate = (forall t where Monoid<t>. "
    "  fix (fun(accum : fn(list t) -> t). fun(ls : list t). "
    "    if null[t](ls) then Monoid<t>.identity_elt "
    "    else Monoid<t>.binary_op(car[t](ls), accum(cdr[t](ls))))) in "
    "model Semigroup<int> { binary_op = iadd; } in "
    "model Monoid<int> { identity_elt = 0; } in "
    "accumulate[int](cons[int](1, cons[int](2, nil[int])))";

/// How far one request moved the process-global counters that say
/// which engine ran (tree steps, VM instructions, AOT runs) and whether
/// the specializer did (every `specialize.*` counter, summed).
struct Moved {
  uint64_t EvalSteps = 0, VmInstructions = 0, AotRuns = 0, Specialize = 0;
};

Moved counterSnapshot() {
  Moved M;
  for (const auto &[Name, Value] : stats::Statistics::global().counters()) {
    if (Name == "eval.steps")
      M.EvalSteps = Value;
    else if (Name == "vm.instructions")
      M.VmInstructions = Value;
    else if (Name == "aot.runs")
      M.AotRuns = Value;
    else if (Name.rfind("specialize.", 0) == 0)
      M.Specialize += Value;
  }
  return M;
}

/// Runs \p Request and returns its Outcome with the counter deltas.
template <class F> std::pair<Outcome, Moved> movedBy(F &&Request) {
  Moved A = counterSnapshot();
  Outcome O = Request();
  Moved B = counterSnapshot();
  return {O, {B.EvalSteps - A.EvalSteps, B.VmInstructions - A.VmInstructions,
              B.AotRuns - A.AotRuns, B.Specialize - A.Specialize}};
}

TEST(SessionTest, RunExecutesTheRequestedEngineOnTheRequestedTerm) {
  auto Cache = std::make_shared<ArtifactCache>();
  Session S(Cache);
  uint64_t Steps[2][3] = {};
  for (Backend B : {Backend::Tree, Backend::Vm}) {
    bool Vm = B == Backend::Vm;
    for (int Level : {0, 1, 2}) {
      auto [O, D] = movedBy(
          [&] { return S.run(AccumulateSource, "<matrix>", B, Level); });
      std::string Cell = std::string(backendName(B)) + " at optimize " +
                         std::to_string(Level);
      ASSERT_TRUE(O.Success && O.Error.empty()) << Cell << ": " << O.Error;
      EXPECT_EQ(O.Value, "3") << Cell;
      EXPECT_FALSE(O.Cached) << Cell;
      // The requested engine ran, and only it.
      EXPECT_EQ(D.EvalSteps != 0, !Vm) << Cell;
      EXPECT_EQ(D.VmInstructions != 0, Vm) << Cell;
      EXPECT_EQ(D.AotRuns, 0u) << Cell;
      // On the requested term: only -O2 specializes.
      EXPECT_EQ(D.Specialize != 0, Level == 2) << Cell;
      Steps[Vm][Level] = Vm ? D.VmInstructions : D.EvalSteps;
    }
    // The optimized terms are smaller programs than the translation.
    EXPECT_LT(Steps[Vm][1], Steps[Vm][0]) << backendName(B);
    EXPECT_LT(Steps[Vm][2], Steps[Vm][0]) << backendName(B);
  }
}

TEST(SessionTest, EvalExecutesTheRequestedEngine) {
  auto Cache = std::make_shared<ArtifactCache>();
  Session S(Cache);
  auto [Tree, DT] = movedBy([&] { return S.eval(AccumulateSource); });
  EXPECT_EQ(Tree.Value, "3") << Tree.Error;
  EXPECT_NE(DT.EvalSteps, 0u);
  EXPECT_EQ(DT.VmInstructions, 0u);
  auto [Vm, DV] =
      movedBy([&] { return S.eval(AccumulateSource, Backend::Vm); });
  EXPECT_EQ(Vm.Value, "3") << Vm.Error;
  EXPECT_EQ(DV.EvalSteps, 0u);
  EXPECT_NE(DV.VmInstructions, 0u);
  EXPECT_EQ(DT.Specialize + DV.Specialize, 0u) << "eval runs at -O0";
}

TEST(SessionTest, AotHonoursOptimizeAndEvalMatchesRunAtZero) {
  if (!fg::aot::toolchainAvailable())
    GTEST_SKIP() << "no host C++ compiler available";
  auto Cache = std::make_shared<ArtifactCache>();
  Session S(Cache);
  auto [Run0, D0] = movedBy(
      [&] { return S.run(AccumulateSource, "<aot>", Backend::Aot, 0); });
  auto [Run2, D2] = movedBy(
      [&] { return S.run(AccumulateSource, "<aot>", Backend::Aot, 2); });
  auto [Eval, DE] =
      movedBy([&] { return S.eval(AccumulateSource, Backend::Aot); });
  for (const Outcome *O : {&Run0, &Run2, &Eval})
    EXPECT_EQ(O->Value, "3") << O->Error;
  EXPECT_EQ(D0.AotRuns, 1u);
  EXPECT_EQ(D0.Specialize, 0u) << "optimize 0 runs the translation as is";
  EXPECT_EQ(D2.AotRuns, 1u);
  EXPECT_NE(D2.Specialize, 0u) << "optimize 2 runs the specialized term";
  EXPECT_EQ(DE.AotRuns, 1u);
  EXPECT_EQ(DE.Specialize, D0.Specialize) << "eval behaves as run at 0";
  EXPECT_EQ(DE.EvalSteps + DE.VmInstructions, 0u);
}

TEST(ProtocolTest, TypeAndEvalShareTheSessionScope) {
  std::vector<Json> R = roundTrip({
      "{\"id\":1,\"method\":\"eval\",\"params\":{\"input\":\"let x = 7\"}}",
      "{\"id\":2,\"method\":\"eval\",\"params\":{\"input\":\"iadd(x,1)\"}}",
      "{\"id\":3,\"method\":\"type\",\"params\":{\"expr\":\"x\"}}",
      "{\"id\":4,\"method\":\"reset\"}",
      "{\"id\":5,\"method\":\"type\",\"params\":{\"expr\":\"x\"}}",
  });
  EXPECT_TRUE(resultOf(R[0]).find("decl")->asBool());
  EXPECT_EQ(resultOf(R[0]).find("kind")->asString(), "let");
  EXPECT_EQ(resultOf(R[0]).find("name")->asString(), "x");
  EXPECT_EQ(resultOf(R[1]).find("value")->asString(), "8");
  EXPECT_EQ(resultOf(R[2]).find("type")->asString(), "int");
  EXPECT_TRUE(resultOf(R[3]).find("success")->asBool());
  EXPECT_FALSE(resultOf(R[4]).find("success")->asBool())
      << "reset must drop the scope";
}

TEST(ProtocolTest, DumpBytecodeDisassembles) {
  std::vector<Json> R = roundTrip({
      "{\"id\":1,\"method\":\"dump-bytecode\",\"params\":"
      "{\"source\":\"iadd(1,2)\"}}",
  });
  const std::string &BC = resultOf(R[0]).find("bytecode")->asString();
  EXPECT_NE(BC.find("proto 0"), std::string::npos) << BC;
  EXPECT_NE(BC.find("iadd"), std::string::npos) << BC;
}

TEST(ProtocolTest, ErrorCodes) {
  std::vector<Json> R = roundTrip({
      "this is not json",
      "[1,2,3]",
      "{\"id\":1}",
      "{\"id\":2,\"method\":\"frobnicate\"}",
      "{\"id\":3,\"method\":\"check\"}",
      "{\"id\":4,\"method\":\"check\",\"params\":"
      "{\"source\":\"1\",\"path\":\"x.fg\"}}",
      "{\"id\":5,\"method\":\"type\",\"params\":{}}",
      "{\"id\":6,\"method\":\"run\",\"params\":"
      "{\"source\":\"1\",\"backend\":\"jit\"}}",
      "{\"id\":7,\"method\":\"run\",\"params\":"
      "{\"source\":\"1\",\"optimize\":3}}",
      "{\"id\":8,\"method\":\"run\",\"params\":"
      "{\"source\":\"1\",\"backend\":\"closure\"}}",
      "{\"id\":9,\"method\":\"eval\",\"params\":"
      "{\"input\":\"1\",\"backend\":\"closure\"}}",
  });
  EXPECT_EQ(errorCode(R[0]), "parse_error");
  EXPECT_TRUE(R[0].find("id")->isNull());
  EXPECT_EQ(errorCode(R[1]), "invalid_request");
  EXPECT_EQ(errorCode(R[2]), "invalid_request");
  EXPECT_EQ(errorCode(R[3]), "unknown_method");
  EXPECT_EQ(errorCode(R[4]), "invalid_params") << "source xor path";
  EXPECT_EQ(errorCode(R[5]), "invalid_params") << "both source and path";
  EXPECT_EQ(errorCode(R[6]), "invalid_params") << "missing expr";
  EXPECT_EQ(errorCode(R[7]), "invalid_params") << "bad backend";
  EXPECT_EQ(errorCode(R[8]), "invalid_params") << "bad optimize level";
  // Protocol 2 retired the closure engine: the value is unknown now,
  // and the message lists the backends that remain.
  for (size_t I : {9, 10}) {
    EXPECT_EQ(errorCode(R[I]), "invalid_params") << "closure backend";
    EXPECT_NE(R[I].find("error")->find("message")->asString().find(
                  "tree, vm, aot"),
              std::string::npos)
        << R[I].write();
  }
  // Error replies echo the request id.
  EXPECT_EQ(R[3].find("id")->asInt(), 2);
}

TEST(ProtocolTest, IllTypedParamsAreInvalidAndTheSessionLives) {
  // A parameter present with the wrong type is `invalid_params` naming
  // it, never its default: `"optimize": "2"` used to run at -O0, `1.5`
  // at -O1, and `"backend": 3` on the tree walker.  After each
  // rejection the session still answers the next request.
  struct Case {
    const char *Method, *Params, *Named;
  };
  const Case Cases[] = {
      {"run", R"j("source":"iadd(1,2)","optimize":"2")j", "`optimize`"},
      {"run", R"j("source":"iadd(1,2)","optimize":true)j", "`optimize`"},
      {"run", R"j("source":"iadd(1,2)","optimize":1.5)j", "`optimize`"},
      {"run", R"j("source":"iadd(1,2)","optimize":1e300)j", "`optimize`"},
      {"run", R"j("source":"iadd(1,2)","optimize":-1)j", "`optimize`"},
      {"run", R"j("source":"iadd(1,2)","optimize":null)j", "`optimize`"},
      {"run", R"j("source":"iadd(1,2)","backend":3)j", "`backend`"},
      {"run", R"j("source":"iadd(1,2)","backend":true)j", "`backend`"},
      {"run", R"j("source":"iadd(1,2)","backend":["vm"])j", "`backend`"},
      {"eval", R"j("input":"iadd(1,2)","backend":3)j", "`backend`"},
      {"eval", R"j("input":"iadd(1,2)","backend":true)j", "`backend`"},
      {"eval", R"j("input":"iadd(1,2)","backend":["vm"])j", "`backend`"},
      {"run", R"j("source":3,"path":"x.fg")j", "`source`"},
      {"check", R"j("path":true,"source":"1")j", "`path`"},
      {"check", R"j("source":"1","name":3)j", "`name`"},
  };
  std::vector<std::string> Lines;
  for (const Case &C : Cases) {
    Lines.push_back(std::string(R"({"id":1,"method":")") + C.Method +
                    R"(","params":{)" + C.Params + "}}");
    Lines.push_back(
        R"j({"id":2,"method":"run","params":{"source":"iadd(1,2)"}})j");
  }
  std::vector<Json> R = roundTrip(Lines);
  ASSERT_EQ(R.size(), Lines.size());
  for (size_t I = 0; I != std::size(Cases); ++I) {
    const Json &Bad = R[2 * I];
    EXPECT_EQ(errorCode(Bad), "invalid_params") << Lines[2 * I];
    const Json *Error = Bad.find("error");
    ASSERT_NE(Error, nullptr) << Bad.write();
    EXPECT_NE(Error->find("message")->asString().find(Cases[I].Named),
              std::string::npos)
        << Bad.write();
    EXPECT_EQ(resultOf(R[2 * I + 1]).find("value")->asString(), "3")
        << "after " << Lines[2 * I];
  }
}

TEST(ProtocolTest, OptimizeTwoPointZeroIsLevelTwo) {
  // `optimize` is a JSON number, and `2.0` is the number 2: it runs the
  // specialized term, and shares its cache entry with `2`.
  auto Cache = std::make_shared<ArtifactCache>();
  Session S(Cache);
  Protocol P(S);
  auto run = [&](const char *Level) {
    std::string Line = R"({"id":1,"method":"run","params":{"source":")" +
                       jsonEscape(AccumulateSource) + R"(","optimize":)" +
                       Level + "}}";
    return parseOk(P.handleLine(Line).Line);
  };
  Moved A = counterSnapshot();
  Json Double = run("2.0");
  Moved B = counterSnapshot();
  EXPECT_EQ(resultOf(Double).find("value")->asString(), "3");
  EXPECT_NE(B.Specialize - A.Specialize, 0u) << "2.0 runs at -O2";
  Json Int = run("2");
  EXPECT_TRUE(resultOf(Int).find("cached")->asBool()) << Int.write();
}

TEST(ProtocolTest, MethodNamesNeverReachTheStatsRegistry) {
  // A method name is client-chosen text: one with a quote or a newline
  // must not turn the registry's JSON dump (`fgcd --stats-json`) into
  // something no JSON reader accepts.
  std::vector<Json> R = roundTrip({
      "{\"id\":1,\"method\":\"a\\\"b\"}",
      "{\"id\":2,\"method\":\"a\\nb\"}",
  });
  EXPECT_EQ(errorCode(R[0]), "unknown_method");
  EXPECT_EQ(errorCode(R[1]), "unknown_method");
  std::ostringstream Dump;
  stats::Statistics::global().printJson(Dump);
  Json Parsed;
  std::string Error;
  EXPECT_TRUE(Json::parse(Dump.str(), Parsed, Error)) << Error;

  // Nor does each distinct unknown method add a counter that lives as
  // long as the daemon.
  size_t Before = stats::Statistics::global().counters().size();
  std::vector<std::string> Unknown;
  for (int I = 0; I < 1000; ++I)
    Unknown.push_back("{\"id\":" + std::to_string(I) +
                      ",\"method\":\"no-such-method-" + std::to_string(I) +
                      "\"}");
  for (const Json &Reply : roundTrip(Unknown))
    EXPECT_EQ(errorCode(Reply), "unknown_method");
  EXPECT_EQ(stats::Statistics::global().counters().size(), Before);
}

TEST(ProtocolTest, RuntimeFailureIsASuccessfulCompileWithAnError) {
  // `success` is about the compilation: a program that typechecks and
  // then fails at run time answers success:true, its type, an error
  // and no value -- and the outcome is cached like any other.
  const std::string Run = "{\"id\":1,\"method\":\"run\",\"params\":"
                          "{\"source\":\"car[int](nil[int])\"}}";
  std::vector<Json> R = roundTrip({Run, Run});
  for (const Json &Reply : R) {
    const Json &Res = resultOf(Reply);
    EXPECT_TRUE(Res.find("success")->asBool()) << Reply.write();
    EXPECT_EQ(Res.find("type")->asString(), "int");
    EXPECT_EQ(Res.find("value"), nullptr) << Reply.write();
    ASSERT_NE(Res.find("error"), nullptr) << Reply.write();
    EXPECT_EQ(Res.find("error")->asString(), "`car` of the empty list");
  }
  EXPECT_FALSE(resultOf(R[0]).find("cached")->asBool());
  EXPECT_TRUE(resultOf(R[1]).find("cached")->asBool());
}

TEST(ProtocolTest, ShutdownEndsTheStream) {
  bool Shutdown = false;
  std::vector<Json> R = roundTrip(
      {"{\"id\":1,\"method\":\"shutdown\"}"}, &Shutdown);
  EXPECT_TRUE(Shutdown);
  EXPECT_TRUE(resultOf(R[0]).find("success")->asBool());
}

TEST(ProtocolTest, StatsExposesCacheCounters) {
  std::vector<Json> R = roundTrip({
      "{\"id\":1,\"method\":\"check\",\"params\":{\"source\":\"iadd(1,2)\"}}",
      "{\"id\":2,\"method\":\"check\",\"params\":{\"source\":\"iadd(1,2)\"}}",
      "{\"id\":3,\"method\":\"stats\"}",
  });
  const Json &Res = resultOf(R[2]);
  const Json *Counters = Res.find("counters");
  ASSERT_NE(Counters, nullptr);
  ASSERT_NE(Counters->find("server.artifact_cache.hits"), nullptr);
  EXPECT_GE(Counters->find("server.artifact_cache.hits")->asInt(), 1);
  EXPECT_GE(Res.find("cache_entries")->asInt(), 1);
}

TEST(ProtocolTest, StatsExposesVmInlineCacheAndFusionCounters) {
  // A dictionary-heavy generic program on the vm backend: the loop
  // projects `plus` out of the same Addable<int> dictionary every
  // iteration, so after a warm eval cycle the daemon's stats must show
  // inline-cache hits dominating misses, at least one fused
  // superinstruction from emit, and the megamorphic counter (zero
  // here, but registered).
  std::string Program =
      "concept Addable<t> { plus : fn(t,t) -> t; } in "
      "model Addable<int> { plus = iadd; } in "
      "let sum = (forall t where Addable<t>. fun(z : t). "
      "fix (fun(go : fn(int) -> t). fun(n : int). "
      "if ile(n, 0) then z "
      "else Addable<t>.plus(z, go(isub(n, 1))))) in "
      "sum[int](5)(40)";
  std::vector<Json> R = roundTrip({
      "{\"id\":1,\"method\":\"run\",\"params\":{\"source\":\"" + Program +
          "\",\"backend\":\"vm\"}}",
      "{\"id\":2,\"method\":\"run\",\"params\":{\"source\":\"" + Program +
          "\",\"backend\":\"vm\"}}",
      "{\"id\":3,\"method\":\"stats\"}",
  });
  EXPECT_TRUE(resultOf(R[0]).find("success")->asBool()) << R[0].write();
  EXPECT_EQ(resultOf(R[0]).find("value")->asString(), "205");
  EXPECT_TRUE(resultOf(R[1]).find("success")->asBool()) << R[1].write();

  const Json *Counters = resultOf(R[2]).find("counters");
  ASSERT_NE(Counters, nullptr);
  auto counter = [&](const char *Name) -> int64_t {
    const Json *C = Counters->find(Name);
    EXPECT_NE(C, nullptr) << Name;
    return C ? C->asInt() : -1;
  };
  // 40 loop iterations project through one stable dictionary: one
  // cold miss, then hits.  (Counters are process-cumulative, so pin
  // lower bounds, not exact values.)
  EXPECT_GE(counter("vm.ic.hits"), 30);
  EXPECT_GE(counter("vm.ic.misses"), 1);
  EXPECT_GE(counter("vm.ic.megamorphic"), 0);
  EXPECT_GE(counter("vm.superinstructions.fused"), 1);
  EXPECT_GT(counter("vm.ic.hits"), counter("vm.ic.misses"));
}

TEST(ProtocolTest, ResetCyclesReturnArenaGaugesToBaseline) {
  // The long-lived-daemon leak regression: N `reset` cycles, each
  // preceded by an allocation-heavy request (out-of-pool ints, list
  // spines, closures over environment nodes), must return the
  // `server.arena.*` live-heap gauges to exactly their post-first-cycle
  // baseline.  The first cycle pays the one-time costs (lazy
  // singletons); after that, any drift means a stranded value or
  // environment spine.
  auto Cache = std::make_shared<ArtifactCache>();
  Session S(Cache);
  Protocol P(S);

  auto request = [&](const std::string &Line) {
    return parseOk(P.handleLine(Line).Line);
  };
  auto gauge = [&](const char *Name) -> int64_t {
    Json R = request("{\"id\":0,\"method\":\"stats\"}");
    const Json *Counters = resultOf(R).find("counters");
    EXPECT_NE(Counters, nullptr);
    const Json *G = Counters ? Counters->find(Name) : nullptr;
    EXPECT_NE(G, nullptr) << Name;
    return G ? G->asInt() : -1;
  };
  auto cycle = [&](int Round) {
    // A varying declaration defeats any byte-identity shortcuts; the
    // expression allocates a list spine, a tuple, and a closure.
    request("{\"id\":1,\"method\":\"eval\",\"params\":{\"input\":"
            "\"let base = " +
            std::to_string(100000 + Round) + "\"}}");
    Json R = request(
        "{\"id\":2,\"method\":\"eval\",\"params\":{\"input\":"
        "\"(cons[int](base, cons[int](iadd(base, 1), nil[int])),"
        " (fun(x : int). iadd(x, base))(7))\"}}");
    EXPECT_TRUE(resultOf(R).find("success")->asBool()) << R.write();
    Json Reset = request("{\"id\":3,\"method\":\"reset\"}");
    EXPECT_TRUE(resultOf(Reset).find("success")->asBool());
  };

  cycle(0);
  const int64_t Values = gauge("server.arena.live_values");
  const int64_t EnvNodes = gauge("server.arena.live_env_nodes");
  ASSERT_GE(Values, 0);
  ASSERT_GE(EnvNodes, 0);

  const int N = 8;
  for (int I = 1; I <= N; ++I)
    cycle(I);

  EXPECT_EQ(gauge("server.arena.live_values"), Values)
      << "reset cycles strand interpreter values";
  EXPECT_EQ(gauge("server.arena.live_env_nodes"), EnvNodes)
      << "reset cycles strand environment spines";
  EXPECT_GE(gauge("server.arena.resets"), N + 1);
}

//===----------------------------------------------------------------------===//
// Session isolation and sharing
//===----------------------------------------------------------------------===//

TEST(SessionTest, SessionsShareArtifactsButNotScopes) {
  auto Cache = std::make_shared<ArtifactCache>();
  Session A(Cache), B(Cache);
  // A's declarations are invisible to B.
  EXPECT_TRUE(A.eval("let x = 1").Success);
  EXPECT_FALSE(B.typeOf("x").Success);
  EXPECT_TRUE(B.eval("let x = 2").Success);
  EXPECT_EQ(A.eval("x").Value, "1");
  EXPECT_EQ(B.eval("x").Value, "2");
  // But byte-identical checks hit across sessions.
  EXPECT_FALSE(A.check("iadd(3,4)").Cached);
  EXPECT_TRUE(B.check("iadd(3,4)").Cached);
}

TEST(SessionTest, ModelRedefinitionIsInnermostWins) {
  auto Cache = std::make_shared<ArtifactCache>();
  Session S(Cache);
  EXPECT_TRUE(
      S.eval("concept Id<t> { v : t; }").Success);
  EXPECT_TRUE(S.eval("model Id<int> { v = 1; }").Success);
  EXPECT_EQ(S.eval("Id<int>.v").Value, "1");
  // Re-declaring the model nests a new innermost scope.
  EXPECT_TRUE(S.eval("model Id<int> { v = 2; }").Success);
  EXPECT_EQ(S.eval("Id<int>.v").Value, "2");
}

TEST(SessionTest, FailedDeclarationDoesNotPolluteTheScope) {
  auto Cache = std::make_shared<ArtifactCache>();
  Session S(Cache);
  Outcome Bad = S.eval("let y = iadd(true, 1)");
  EXPECT_FALSE(Bad.Success);
  EXPECT_TRUE(S.decls().empty());
  EXPECT_TRUE(S.eval("iadd(1, 1)").Success)
      << "scope must still be usable after a rejected declaration";
}

//===----------------------------------------------------------------------===//
// Module content hashes (cache keys for path requests)
//===----------------------------------------------------------------------===//

struct TempDir {
  std::filesystem::path Path;
  TempDir() {
    Path = std::filesystem::temp_directory_path() /
           ("fgservertest-" + std::to_string(::getpid()));
    std::filesystem::create_directories(Path);
  }
  ~TempDir() { std::filesystem::remove_all(Path); }
  std::string write(const std::string &Name, const std::string &Text) {
    std::string P = (Path / Name).string();
    std::ofstream(P) << Text;
    return P;
  }
};

TEST(ContentHashTest, CoversTheWholeImportCone) {
  TempDir Dir;
  Dir.write("dep.fg", "module dep;\nlet base = 10 in 0\n");
  std::string Main =
      Dir.write("main.fg", "module main;\nimport dep;\niadd(base, 1)\n");

  modules::ModuleLoader::Options LO;
  modules::ModuleLoader L1(LO);
  std::string Root, Error;
  ASSERT_TRUE(L1.loadFile(Main, Root, Error)) << Error;
  uint64_t H1 = L1.contentHash(Root);
  ASSERT_NE(H1, 0u);

  // Reloading identical sources gives the identical hash.
  modules::ModuleLoader L2(LO);
  ASSERT_TRUE(L2.loadFile(Main, Root, Error)) << Error;
  EXPECT_EQ(L2.contentHash(Root), H1);

  // Editing the *dependency* changes the root's hash.
  Dir.write("dep.fg", "module dep;\nlet base = 11 in 0\n");
  modules::ModuleLoader L3(LO);
  ASSERT_TRUE(L3.loadFile(Main, Root, Error)) << Error;
  EXPECT_NE(L3.contentHash(Root), H1);
}

TEST(SessionTest, CheckPathCachesOnTheImportCone) {
  TempDir Dir;
  Dir.write("dep.fg", "module dep;\nlet base = 10 in 0\n");
  std::string Main =
      Dir.write("main.fg", "module main;\nimport dep;\niadd(base, 1)\n");
  auto Cache = std::make_shared<ArtifactCache>();
  Session S(Cache);
  Outcome First = S.check("", Main, Main);
  EXPECT_TRUE(First.Success) << First.Error << First.Diagnostics;
  EXPECT_EQ(First.Type, "int");
  EXPECT_FALSE(First.Cached);
  EXPECT_TRUE(S.check("", Main, Main).Cached);
  // Editing the dependency invalidates the path artifact.
  Dir.write("dep.fg", "module dep;\nlet base = true in 0\n");
  Outcome Third = S.check("", Main, Main);
  EXPECT_FALSE(Third.Cached);
  EXPECT_FALSE(Third.Success);
}

//===----------------------------------------------------------------------===//
// The real daemon: 16 concurrent socket sessions
//===----------------------------------------------------------------------===//

/// A minimal blocking protocol client for one Unix-socket connection.
struct Client {
  int Fd = -1;
  std::string Buffer;

  bool connect(const std::string &Path) {
    Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd < 0)
      return false;
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    std::snprintf(Addr.sun_path, sizeof(Addr.sun_path), "%s", Path.c_str());
    return ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                     sizeof(Addr)) == 0;
  }

  Json request(const std::string &Line) {
    std::string Out = Line + "\n";
    size_t Sent = 0;
    while (Sent < Out.size()) {
      ssize_t W = ::send(Fd, Out.data() + Sent, Out.size() - Sent, 0);
      if (W <= 0)
        return Json::null();
      Sent += static_cast<size_t>(W);
    }
    char Chunk[4096];
    size_t NL;
    while ((NL = Buffer.find('\n')) == std::string::npos) {
      ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
      if (N <= 0)
        return Json::null();
      Buffer.append(Chunk, static_cast<size_t>(N));
    }
    std::string Reply = Buffer.substr(0, NL);
    Buffer.erase(0, NL + 1);
    Json V;
    std::string Error;
    EXPECT_TRUE(Json::parse(Reply, V, Error)) << Reply;
    return V;
  }

  ~Client() {
    if (Fd >= 0)
      ::close(Fd);
  }
};

TEST(ServerTest, SixteenConcurrentIsolatedSessions) {
  ServerOptions Opts;
  Opts.SocketPath = (std::filesystem::temp_directory_path() /
                     ("fgcd-test-" + std::to_string(::getpid()) + ".sock"))
                        .string();
  Opts.Threads = 16;
  Server Srv(Opts);
  std::string Error;
  ASSERT_TRUE(Srv.start(Error)) << Error;

  constexpr int N = 16;
  const std::string Check = "{\"id\":3,\"method\":\"check\",\"params\":"
                            "{\"source\":\"iadd(40,2)\"}}";
  std::vector<std::string> Values(N), Types(N);
  std::vector<std::thread> Threads;
  for (int I = 0; I < N; ++I)
    Threads.emplace_back([&, I] {
      Client C;
      ASSERT_TRUE(C.connect(Srv.socketPath()));
      // Each session declares its own `x`; isolation means each later
      // reads back its *own* value, never a neighbor's.
      Json D = C.request("{\"id\":1,\"method\":\"eval\",\"params\":"
                         "{\"input\":\"let x = " +
                         std::to_string(I) + "\"}}");
      ASSERT_TRUE(D.find("ok") && D.find("ok")->asBool()) << D.write();
      Json E = C.request("{\"id\":2,\"method\":\"eval\",\"params\":"
                         "{\"input\":\"iadd(x, 100)\"}}");
      const Json *R = E.find("result");
      ASSERT_NE(R, nullptr) << E.write();
      Values[I] = R->find("value") ? R->find("value")->asString() : "";
      // Identical source from every session, checked concurrently: the
      // shared cache's gets and puts overlap.  The cache has no
      // single-flight compile, so overlapping checks may each miss;
      // only the answer is pinned here.
      Json K = C.request(Check);
      const Json *KR = K.find("result");
      ASSERT_NE(KR, nullptr) << K.write();
      Types[I] = KR->find("type") ? KR->find("type")->asString() : "";
    });
  for (std::thread &T : Threads)
    T.join();

  for (int I = 0; I < N; ++I) {
    EXPECT_EQ(Values[I], std::to_string(I + 100)) << "session " << I;
    EXPECT_EQ(Types[I], "int") << "session " << I;
  }

  // The artifact is in the cache now: N fresh sessions checking the same
  // source concurrently are all served another session's artifact.
  std::vector<int> CacheHits(N, 0);
  Threads.clear();
  for (int I = 0; I < N; ++I)
    Threads.emplace_back([&, I] {
      Client C;
      ASSERT_TRUE(C.connect(Srv.socketPath()));
      Json K = C.request(Check);
      const Json *KR = K.find("result");
      ASSERT_NE(KR, nullptr) << K.write();
      CacheHits[I] = KR->find("cached")->asBool() ? 1 : 0;
    });
  for (std::thread &T : Threads)
    T.join();
  for (int I = 0; I < N; ++I)
    EXPECT_EQ(CacheHits[I], 1)
        << "session " << I << " must hit the shared cache";

  // A shutdown request stops the daemon; wait() returns.
  Client C;
  ASSERT_TRUE(C.connect(Srv.socketPath()));
  Json R = C.request("{\"id\":9,\"method\":\"shutdown\"}");
  EXPECT_TRUE(R.find("ok") && R.find("ok")->asBool()) << R.write();
  Srv.wait();
  Srv.stop();
}

// A check nested past the default thread stack is answered on a worker,
// and the daemon stays up: the same connection and a new one are served.
TEST(ServerTest, DeeplyNestedCheckLeavesTheDaemonUp) {
  ServerOptions Opts;
  Opts.SocketPath = (std::filesystem::temp_directory_path() /
                     ("fgcd-deep-" + std::to_string(::getpid()) + ".sock"))
                        .string();
  Opts.Threads = 2;
  Server Srv(Opts);
  std::string Error;
  ASSERT_TRUE(Srv.start(Error)) << Error;

  {
    const std::string Deep =
        std::string(20000, '(') + "1" + std::string(20000, ')');
    Client C;
    ASSERT_TRUE(C.connect(Srv.socketPath()));
    Json K = C.request("{\"id\":1,\"method\":\"check\",\"params\":"
                       "{\"source\":\"" + Deep + "\"}}");
    const Json *KR = K.find("result");
    ASSERT_NE(KR, nullptr) << K.write();
    EXPECT_TRUE(KR->find("success")->asBool()) << K.write();
    EXPECT_EQ(KR->find("type")->asString(), "int");
    Json V = C.request("{\"id\":2,\"method\":\"version\"}");
    EXPECT_TRUE(V.find("ok") && V.find("ok")->asBool()) << V.write();
  } // Closed: stop() waits for every open connection to end.

  Client Next;
  ASSERT_TRUE(Next.connect(Srv.socketPath()));
  Json R = Next.request("{\"id\":3,\"method\":\"shutdown\"}");
  EXPECT_TRUE(R.find("ok") && R.find("ok")->asBool()) << R.write();
  Srv.wait();
  Srv.stop();
}

} // namespace
