//===- driver/Fgcd.cpp - The fgcd compiler server -------------------------===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fgcd compiler daemon and REPL: serves the JSON protocol
/// (docs/PROTOCOL.md) on a Unix socket or over stdin/stdout, or runs the
/// interactive REPL (docs/REPL.md); `fgcd --help` lists the options.
/// Typechecker artifacts stay warm across requests in a shared
/// content-hash cache, so clients re-checking mostly-unchanged programs
/// pay the compile cost once.
///
//===----------------------------------------------------------------------===//

#include "driver/CommandLine.h"
#include "server/Repl.h"
#include "server/Server.h"
#include "support/Backends.h"
#include "support/DeepStack.h"
#include "support/Stats.h"
#include <csignal>
#include <iostream>
#include <string>

using namespace fg;

namespace {

void printUsage(std::ostream &OS) {
  OS << "usage: fgcd --socket <path> [options]\n"
        "       fgcd --stdio [options]\n"
        "       fgcd --repl [options]\n"
        "\n"
        "modes (exactly one):\n"
        "  --socket <path>        serve the line-delimited JSON protocol\n"
        "                         (docs/PROTOCOL.md) on a Unix socket;\n"
        "                         runs until a `shutdown` request\n"
        "  --stdio                serve one protocol session over\n"
        "                         stdin/stdout (for editors and tests)\n"
        "  --repl                 interactive read-eval-print loop with\n"
        "                         incremental declarations (docs/REPL.md)\n"
        "\n"
        "backends (the protocol's `backend` parameter; each runs the\n"
        "term the request's `optimize` level selects, as in fgc\n"
        "--backend=):\n"
     << backendHelpTable("  ")
     << "\n"
        "options:\n"
        "  --threads <n>          socket worker pool size; up to <n>\n"
        "                         sessions compile concurrently\n"
        "                         (0 = all hardware threads, the default)\n"
        "  --cache-entries <n>    shared artifact-cache capacity\n"
        "                         (default 4096 entries)\n"
        "  -I <dir>               add a module search path (repeatable);\n"
        "                         used by path requests and :load\n"
        "  --stats                print compiler statistics to stderr on\n"
        "                         exit\n"
        "  --stats-json=<file>    also write the statistics as JSON to\n"
        "                         <file> (- for stdout)\n"
        "  --help, -h             print this help\n";
}

/// Prints \p Message, if any, and the usage text to stderr; returns the
/// exit code of a bad invocation.
int usageError(const std::string &Message = "") {
  if (!Message.empty())
    std::cerr << "fgcd: error: " << Message << "\n";
  printUsage(std::cerr);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string SocketPath;
  bool Stdio = false, Repl = false;
  unsigned Threads = 0;
  size_t CacheEntries = 4096;
  std::vector<std::string> SearchPaths;
  stats::StatsReporter Reporter("fgcd");

  driver::ArgReader Args(Argc, Argv);
  std::string Value;
  while (Args.next()) {
    const std::string &Arg = Args.arg();
    if (Args.value("--socket", Value)) {
      if (Value.empty())
        return usageError("--socket requires a path");
      SocketPath = Value;
    } else if (Arg == "--stdio")
      Stdio = true;
    else if (Arg == "--repl")
      Repl = true;
    else if (Args.value("--threads", Value)) {
      if (!driver::parseNumber(Value, Threads))
        return usageError("--threads requires a number");
    } else if (Args.value("--cache-entries", Value)) {
      if (!driver::parseNumber(Value, CacheEntries, 1))
        return usageError("--cache-entries requires a positive number");
    } else if (Args.value("-I", Value)) {
      if (Value.empty())
        return usageError("-I requires a directory");
      SearchPaths.push_back(Value);
    } else if (Arg == "--stats")
      Reporter.Human = true;
    else if (Args.value("--stats-json", Value, /*Spaced=*/false)) {
      if (Value.empty())
        return usageError("--stats-json= requires a file name");
      Reporter.JsonPath = Value;
    } else if (Arg == "--help" || Arg == "-h") {
      printUsage(std::cout);
      return 0;
    } else
      return usageError();
  }

  int Modes = (SocketPath.empty() ? 0 : 1) + (Stdio ? 1 : 0) + (Repl ? 1 : 0);
  if (Modes != 1)
    return usageError();
  if (Reporter.Human || !Reporter.JsonPath.empty())
    stats::Statistics::global().enable(true);

  // A client vanishing mid-response must not kill the daemon.
  std::signal(SIGPIPE, SIG_IGN);

  server::Session::Options SO;
  SO.SearchPaths = SearchPaths;

  if (Stdio || Repl) {
    auto Cache = std::make_shared<server::ArtifactCache>(CacheEntries);
    server::Session S(Cache, SO);
    // Requests compile on this thread, so it gets the deep stack the
    // socket mode's workers have.
    int Ret = 0;
    runOnDeepStack([&] {
      if (Repl)
        Ret = server::runRepl(S, std::cin, std::cout);
      else
        server::serveStream(S, std::cin, std::cout);
    });
    return Ret;
  }

  server::ServerOptions Opts;
  Opts.SocketPath = SocketPath;
  Opts.Threads = Threads;
  Opts.CacheEntries = CacheEntries;
  Opts.SessionOpts = SO;
  server::Server Srv(std::move(Opts));
  std::string Error;
  if (!Srv.start(Error)) {
    std::cerr << "fgcd: error: " << Error << "\n";
    return 1;
  }
  std::cerr << "fgcd: listening on " << Srv.socketPath() << "\n";
  Srv.wait();
  Srv.stop();
  return 0;
}
