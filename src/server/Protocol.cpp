//===- server/Protocol.cpp - The fgcd wire protocol -----------------------===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//

#include "server/Protocol.h"
#include "server/Json.h"
#include "support/Backends.h"
#include "support/Stats.h"
#include "systemf/Value.h"
#include <set>

using namespace fg;
using namespace fg::server;

namespace {

Json errorReply(const Json &Id, const std::string &Code,
                const std::string &Message) {
  stats::Statistics::global().add("server.errors." + Code);
  Json Error = Json::object();
  Error.set("code", Json::string(Code));
  Error.set("message", Json::string(Message));
  Json Reply = Json::object();
  Reply.set("id", Id);
  Reply.set("ok", Json::boolean(false));
  Reply.set("error", std::move(Error));
  return Reply;
}

Json okReply(const Json &Id, Json Result) {
  Json Reply = Json::object();
  Reply.set("id", Id);
  Reply.set("ok", Json::boolean(true));
  Reply.set("result", std::move(Result));
  return Reply;
}

/// The requested backend exists but cannot run here (AOT without a
/// host compiler): a structured error, distinct from `invalid_params`
/// (an unknown backend name), so clients can tell "fix your request"
/// from "fix your environment".  See docs/PROTOCOL.md.
Json backendUnavailableReply(const Json &Id, Backend Engine,
                             const Outcome &O) {
  return errorReply(Id, "backend_unavailable",
                    std::string("backend `") + backendName(Engine) +
                        "` is unavailable: " + O.Error);
}

/// Renders a session Outcome as a result object.  Fields are omitted
/// when empty; `success`/`cached` are always present.
Json resultOf(const Outcome &O) {
  Json R = Json::object();
  R.set("success", Json::boolean(O.Success));
  R.set("cached", Json::boolean(O.Cached));
  if (!O.Type.empty())
    R.set("type", Json::string(O.Type));
  if (!O.Value.empty())
    R.set("value", Json::string(O.Value));
  if (!O.Bytecode.empty())
    R.set("bytecode", Json::string(O.Bytecode));
  if (!O.Diagnostics.empty())
    R.set("diagnostics", Json::string(O.Diagnostics));
  if (!O.Error.empty())
    R.set("error", Json::string(O.Error));
  if (O.IsDecl) {
    R.set("decl", Json::boolean(true));
    R.set("kind", Json::string(O.DeclKind));
    if (!O.DeclName.empty())
      R.set("name", Json::string(O.DeclName));
  }
  return R;
}

} // namespace

Protocol::Reply Protocol::handleLine(const std::string &Line) {
  static std::atomic<uint64_t> &Requests =
      stats::Statistics::global().counter("server.requests");
  ++Requests;
  stats::ScopedTimer Timer("server.request");

  Reply Out;
  Json Request;
  std::string ParseError;
  if (!Json::parse(Line, Request, ParseError)) {
    Out.Line = errorReply(Json::null(), "parse_error",
                          "request is not valid JSON: " + ParseError)
                   .write();
    return Out;
  }
  if (!Request.isObject()) {
    Out.Line =
        errorReply(Json::null(), "invalid_request", "request must be a "
                                                    "JSON object")
            .write();
    return Out;
  }
  Json Id = Request.find("id") ? *Request.find("id") : Json::null();
  const Json *Method = Request.find("method");
  if (!Method || !Method->isString()) {
    Out.Line = errorReply(Id, "invalid_request",
                          "request needs a string `method` member")
                   .write();
    return Out;
  }
  const std::string &M = Method->asString();
  // Only the protocol's own methods get a counter: a client-chosen name
  // would otherwise become a registry entry for the daemon's lifetime
  // (unknown methods are counted as server.errors.unknown_method).
  static const std::set<std::string> Methods = {
      "version", "check", "run",   "dump-bytecode", "type",
      "eval",    "load",  "reset", "stats",         "shutdown"};
  if (Methods.count(M))
    stats::Statistics::global().add("server.requests." + M);
  Json Empty = Json::object();
  const Json *ParamsPtr = Request.find("params");
  if (ParamsPtr && !ParamsPtr->isObject()) {
    Out.Line =
        errorReply(Id, "invalid_request", "`params` must be an object")
            .write();
    return Out;
  }
  const Json &Params = ParamsPtr ? *ParamsPtr : Empty;

  auto invalidParams = [&](const std::string &Message) {
    Out.Line = errorReply(Id, "invalid_params", Message).write();
    return Out;
  };
  auto requireString = [&](const char *Key, std::string &Value) {
    const Json *V = Params.find(Key);
    if (!V || !V->isString())
      return false;
    Value = V->asString();
    return true;
  };
  // Optional parameters take their default only when absent: one that
  // is present with the wrong type is `invalid_params`, so a default
  // never runs in place of what the client asked for.
  auto readBackend = [&](Backend &Engine) {
    const Json *V = Params.find("backend");
    if (!V) {
      Engine = Backend::Tree;
      return true;
    }
    return V->isString() && parseBackend(V->asString(), Engine);
  };

  if (M == "version") {
    Json R = Json::object();
    R.set("protocol", Json::number(static_cast<int64_t>(ProtocolVersion)));
    R.set("server", Json::string("fgcd"));
    Out.Line = okReply(Id, std::move(R)).write();
    return Out;
  }

  if (M == "check" || M == "run" || M == "dump-bytecode") {
    for (const char *Key : {"source", "path", "name"})
      if (const Json *V = Params.find(Key); V && !V->isString())
        return invalidParams(std::string("`") + Key + "` must be a string");
    std::string Source, Path;
    bool HasSource = requireString("source", Source);
    bool HasPath = requireString("path", Path);
    if (HasSource == HasPath) // Neither or both.
      return invalidParams("`" + M + "` needs exactly one of `source` or "
                                     "`path`");
    std::string Name = Params.stringOr("name", HasPath ? Path : "<" + M + ">");
    if (M == "check") {
      Out.Line = okReply(Id, resultOf(S.check(Source, Name, Path))).write();
      return Out;
    }
    if (M == "dump-bytecode") {
      if (HasPath)
        return invalidParams("`dump-bytecode` takes `source` only");
      Out.Line = okReply(Id, resultOf(S.dumpBytecode(Source, Name))).write();
      return Out;
    }
    // run
    Backend Engine;
    if (!readBackend(Engine))
      return invalidParams("`backend` must be one of: " + backendNameList());
    // An integral number from 0 to 2 (`2.0` is 2).  It is compared as a
    // double, so no out-of-range number is ever converted to an integer.
    int OptLevel = 0;
    if (const Json *V = Params.find("optimize")) {
      double D = V->isNumber() ? V->asDouble() : -1;
      if (D != 0 && D != 1 && D != 2)
        return invalidParams("`optimize` must be 0, 1, or 2");
      OptLevel = static_cast<int>(D);
    }
    Outcome O = S.run(Source, Name, Engine, OptLevel, Path);
    Out.Line = O.BackendUnavailable
                   ? backendUnavailableReply(Id, Engine, O).write()
                   : okReply(Id, resultOf(O)).write();
    return Out;
  }

  if (M == "type") {
    std::string Expr;
    if (!requireString("expr", Expr))
      return invalidParams("`type` needs a string `expr` parameter");
    Out.Line = okReply(Id, resultOf(S.typeOf(Expr))).write();
    return Out;
  }

  if (M == "eval") {
    std::string Input;
    if (!requireString("input", Input))
      return invalidParams("`eval` needs a string `input` parameter");
    Backend Engine;
    if (!readBackend(Engine))
      return invalidParams("`backend` must be one of: " + backendNameList());
    Outcome O = S.eval(Input, Engine);
    Out.Line = O.BackendUnavailable
                   ? backendUnavailableReply(Id, Engine, O).write()
                   : okReply(Id, resultOf(O)).write();
    return Out;
  }

  if (M == "load") {
    std::string Path;
    if (!requireString("path", Path))
      return invalidParams("`load` needs a string `path` parameter");
    Out.Line = okReply(Id, resultOf(S.load(Path))).write();
    return Out;
  }

  if (M == "reset") {
    S.reset();
    stats::Statistics::global().add("server.arena.resets");
    Json R = Json::object();
    R.set("success", Json::boolean(true));
    Out.Line = okReply(Id, std::move(R)).write();
    return Out;
  }

  if (M == "stats") {
    Json Counters = Json::object();
    for (const auto &[Name, Value] : stats::Statistics::global().counters())
      Counters.set(Name, Json::number(static_cast<int64_t>(Value)));
    // Live-heap gauges, not monotonic counters: the interpreter value and
    // environment-node populations right now.  A healthy daemon returns
    // to the same figures after every `reset`; ServerTest pins that
    // invariant.  Interned immediates (pooled ints, booleans, nil) are
    // immortal and never counted, so they are not in the figures.
    Counters.set("server.arena.live_values",
                 Json::number(sf::liveValueGauge().load(
                     std::memory_order_relaxed)));
    Counters.set("server.arena.live_env_nodes",
                 Json::number(sf::liveEnvNodeGauge().load(
                     std::memory_order_relaxed)));
    Json R = Json::object();
    R.set("counters", std::move(Counters));
    R.set("cache_entries",
          Json::number(static_cast<int64_t>(S.cache().size())));
    Out.Line = okReply(Id, std::move(R)).write();
    return Out;
  }

  if (M == "shutdown") {
    Json R = Json::object();
    R.set("success", Json::boolean(true));
    Out.Line = okReply(Id, std::move(R)).write();
    Out.Shutdown = true;
    return Out;
  }

  Out.Line =
      errorReply(Id, "unknown_method", "unknown method `" + M + "`").write();
  return Out;
}
