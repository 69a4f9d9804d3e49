//===- driver/Fgcd.cpp - The fgcd compiler server -------------------------===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The persistent compiler daemon and interactive REPL:
///
///   fgcd --socket PATH [options]   serve the JSON protocol on a Unix
///                                  socket (docs/PROTOCOL.md)
///   fgcd --stdio [options]         serve one protocol session over
///                                  stdin/stdout
///   fgcd --repl [options]          interactive REPL (docs/REPL.md)
///
/// One of the three modes is required.  The daemon keeps typechecker
/// artifacts warm across requests in a shared content-hash cache, so a
/// fleet of editors or CI jobs re-checking mostly-unchanged programs
/// pays the compile cost once.
///
//===----------------------------------------------------------------------===//

#include "server/Repl.h"
#include "server/Server.h"
#include "support/Backends.h"
#include "support/Stats.h"
#include <csignal>
#include <cstdlib>
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

int usageError() {
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

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--socket" || Arg.rfind("--socket=", 0) == 0) {
      std::string Value = Arg == "--socket"
                              ? (I + 1 < Argc ? Argv[++I] : "")
                              : Arg.substr(std::string("--socket=").size());
      if (Value.empty()) {
        std::cerr << "fgcd: error: --socket requires a path\n";
        return usageError();
      }
      SocketPath = Value;
    } else if (Arg == "--stdio")
      Stdio = true;
    else if (Arg == "--repl")
      Repl = true;
    else if (Arg == "--threads" || Arg.rfind("--threads=", 0) == 0) {
      std::string Value = Arg == "--threads"
                              ? (I + 1 < Argc ? Argv[++I] : "")
                              : Arg.substr(std::string("--threads=").size());
      char *End = nullptr;
      unsigned long N = std::strtoul(Value.c_str(), &End, 10);
      if (Value.empty() || !End || *End != '\0') {
        std::cerr << "fgcd: error: --threads requires a number\n";
        return usageError();
      }
      Threads = static_cast<unsigned>(N);
    } else if (Arg == "--cache-entries" ||
               Arg.rfind("--cache-entries=", 0) == 0) {
      std::string Value =
          Arg == "--cache-entries"
              ? (I + 1 < Argc ? Argv[++I] : "")
              : Arg.substr(std::string("--cache-entries=").size());
      char *End = nullptr;
      unsigned long N = std::strtoul(Value.c_str(), &End, 10);
      if (Value.empty() || !End || *End != '\0' || N == 0) {
        std::cerr << "fgcd: error: --cache-entries requires a positive "
                     "number\n";
        return usageError();
      }
      CacheEntries = static_cast<size_t>(N);
    } else if (Arg == "-I" || Arg.rfind("-I", 0) == 0) {
      std::string Value = Arg == "-I" ? (I + 1 < Argc ? Argv[++I] : "")
                                      : Arg.substr(2);
      if (Value.empty()) {
        std::cerr << "fgcd: error: -I requires a directory\n";
        return usageError();
      }
      SearchPaths.push_back(Value);
    } else if (Arg == "--stats")
      Reporter.Human = true;
    else if (Arg.rfind("--stats-json=", 0) == 0) {
      Reporter.JsonPath = Arg.substr(std::string("--stats-json=").size());
      if (Reporter.JsonPath.empty()) {
        std::cerr << "fgcd: error: --stats-json= requires a file name\n";
        return usageError();
      }
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
    if (Repl) {
      server::ReplOptions RO;
      return server::runRepl(S, std::cin, std::cout, RO);
    }
    server::serveStream(S, std::cin, std::cout);
    return 0;
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
