//===- aot/Toolchain.cpp - Host C++ toolchain driver ----------------------===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//

#include "aot/Toolchain.h"
#include "aot/CppEmitter.h"
#include "support/Hash.h"
#include "support/Stats.h"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace fg;
using namespace fg::aot;

namespace {

std::string envOr(const char *Name, const std::string &Fallback) {
  const char *V = std::getenv(Name);
  return V && *V ? std::string(V) : Fallback;
}

bool isExecutableFile(const std::string &Path) {
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0 && S_ISREG(St.st_mode) &&
         ::access(Path.c_str(), X_OK) == 0;
}

/// Resolves \p Name like the shell would: paths with a '/' are checked
/// directly, bare names are searched on $PATH.
std::string resolveExecutable(const std::string &Name) {
  if (Name.empty())
    return std::string();
  if (Name.find('/') != std::string::npos)
    return isExecutableFile(Name) ? Name : std::string();
  std::string Path = envOr("PATH", "/usr/local/bin:/usr/bin:/bin");
  size_t Pos = 0;
  while (Pos <= Path.size()) {
    size_t End = Path.find(':', Pos);
    if (End == std::string::npos)
      End = Path.size();
    std::string Dir = Path.substr(Pos, End - Pos);
    if (!Dir.empty()) {
      std::string Candidate = Dir + "/" + Name;
      if (isExecutableFile(Candidate))
        return Candidate;
    }
    Pos = End + 1;
  }
  return std::string();
}

std::string shellQuote(const std::string &S) {
  std::string Out = "'";
  for (char C : S)
    Out += C == '\'' ? std::string("'\\''") : std::string(1, C);
  return Out + "'";
}

/// mkdir -p.
bool makeDirs(const std::string &Path) {
  std::string Partial;
  size_t Pos = 0;
  while (Pos <= Path.size()) {
    size_t End = Path.find('/', Pos);
    if (End == std::string::npos)
      End = Path.size();
    Partial = Path.substr(0, End);
    if (!Partial.empty() && ::mkdir(Partial.c_str(), 0755) != 0 &&
        errno != EEXIST)
      return false;
    Pos = End + 1;
  }
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0 && S_ISDIR(St.st_mode);
}

/// Runs \p Cmd via the shell, capturing stdout (stderr is folded in by
/// the caller when wanted).  Returns the exit code, -1 on spawn failure.
int runCommand(const std::string &Cmd, std::string &Stdout) {
  Stdout.clear();
  FILE *P = ::popen(Cmd.c_str(), "r");
  if (!P)
    return -1;
  char Buf[4096];
  size_t N;
  while ((N = ::fread(Buf, 1, sizeof(Buf), P)) > 0)
    Stdout.append(Buf, N);
  int Status = ::pclose(P);
  if (Status == -1)
    return -1;
  if (WIFEXITED(Status))
    return WEXITSTATUS(Status);
  return 128; // Killed by a signal.
}

/// A file-name stem under \p Dir that no other compileProgram call
/// uses: the pid tells processes apart, the counter tells apart the
/// calls of one process, whose threads share the pid.
std::string uniqueTemp(const std::string &Dir, const std::string &Key) {
  static std::atomic<uint64_t> Calls{0};
  return Dir + "/" + Key + ".tmp." + std::to_string(::getpid()) + "." +
         std::to_string(Calls++);
}

bool writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream OS(Path, std::ios::trunc);
  OS << Text;
  OS.close();
  return !OS.fail();
}

/// Moves this call's \p Tmp to the shared name \p Final in one step, so
/// readers of \p Final never see a partly written file.
bool publish(const std::string &Tmp, const std::string &Final) {
  if (::rename(Tmp.c_str(), Final.c_str()) == 0)
    return true;
  ::unlink(Tmp.c_str());
  return false;
}

std::string resolveCacheDir(const ToolchainOptions &Opts) {
  if (!Opts.CacheDir.empty())
    return Opts.CacheDir;
  return envOr("FGC_AOT_CACHE", ".fgc.aot-cache");
}

std::string resolveFlags() {
  std::string Flags = "-std=c++17 -O2 -pthread";
  std::string Extra = envOr("FGC_AOT_CXXFLAGS", "");
  if (!Extra.empty())
    Flags += " " + Extra;
  return Flags;
}

} // namespace

std::string fg::aot::findCompiler(const ToolchainOptions &Opts,
                                  std::string *WhyNot) {
  if (!Opts.Cxx.empty()) {
    std::string Found = resolveExecutable(Opts.Cxx);
    if (Found.empty() && WhyNot)
      *WhyNot = "C++ compiler `" + Opts.Cxx + "` not found or not executable";
    return Found;
  }
  std::string FromEnv = envOr("FGC_AOT_CXX", "");
  if (!FromEnv.empty()) {
    std::string Found = resolveExecutable(FromEnv);
    if (Found.empty() && WhyNot)
      *WhyNot = "C++ compiler `" + FromEnv +
                "` ($FGC_AOT_CXX) not found or not executable";
    return Found;
  }
#ifdef FGC_HOST_CXX
  {
    std::string Found = resolveExecutable(FGC_HOST_CXX);
    if (!Found.empty())
      return Found;
  }
#endif
  const char *Candidates[] = {std::getenv("CXX"), "c++", "g++", "clang++"};
  for (const char *Candidate : Candidates) {
    if (!Candidate || !*Candidate)
      continue;
    std::string Found = resolveExecutable(Candidate);
    if (!Found.empty())
      return Found;
  }
  if (WhyNot)
    *WhyNot = "no host C++ compiler found (tried --aot-cxx, $FGC_AOT_CXX, "
              "$CXX, and c++/g++/clang++ on $PATH); install g++ or pass "
              "--aot-cxx=<path>";
  return std::string();
}

bool fg::aot::toolchainAvailable(const ToolchainOptions &Opts,
                                 std::string *WhyNot) {
  return !findCompiler(Opts, WhyNot).empty();
}

std::string fg::aot::artifactKey(const std::string &Cpp,
                                 const std::string &Cxx,
                                 const std::string &Flags, unsigned Version) {
  // The seed is not FNV's offset basis (it is one digit short), but
  // every AOT cache key in existence was made with it.
  uint64_t H = fnv1a64("aot:v" + std::to_string(Version),
                       1469598103934665603ULL);
  H = fnv1a64(Cxx, H);
  H = fnv1a64(Flags, H);
  H = fnv1a64(Cpp, H);
  return hashToHex(H);
}

CompiledProgram fg::aot::compileProgram(const std::string &Cpp,
                                        const ToolchainOptions &Opts) {
  CompiledProgram Out;
  std::string WhyNot;
  std::string Cxx = findCompiler(Opts, &WhyNot);
  if (Cxx.empty()) {
    Out.Error = "aot: " + WhyNot;
    return Out;
  }
  std::string Flags = resolveFlags();
  std::string Dir = resolveCacheDir(Opts);
  if (!makeDirs(Dir)) {
    Out.Error = "aot: cannot create build cache dir `" + Dir + "`";
    return Out;
  }
  std::string Key = artifactKey(Cpp, Cxx, Flags, EmitterVersion);
  std::string Exe = Dir + "/" + Key + ".bin";
  std::string CppPath = Dir + "/" + Key + ".cpp";
  // Each call writes and compiles under names of its own and publishes
  // with rename, so concurrent calls sharing the cache dir, from other
  // processes or other threads, never read a half-written file.
  std::string Tmp = uniqueTemp(Dir, Key);
  std::string TmpCpp = Tmp + ".cpp", TmpExe = Tmp + ".bin";

  static std::atomic<uint64_t> &Hits =
      stats::Statistics::global().counter("aot.cache.hits");
  static std::atomic<uint64_t> &Misses =
      stats::Statistics::global().counter("aot.cache.misses");

  if (isExecutableFile(Exe)) {
    ++Hits;
    Out.ExePath = Exe;
    Out.CacheHit = true;
    if (Opts.KeepCpp && writeFile(TmpCpp, Cpp) && publish(TmpCpp, CppPath))
      Out.CppPath = CppPath;
    return Out;
  }
  ++Misses;

  stats::ScopedTimer Timer("aot.compile");
  if (!writeFile(TmpCpp, Cpp)) {
    ::unlink(TmpCpp.c_str());
    Out.Error = "aot: cannot write `" + TmpCpp + "`";
    return Out;
  }
  std::string Cmd = shellQuote(Cxx) + " " + Flags + " -o " +
                    shellQuote(TmpExe) + " " + shellQuote(TmpCpp) + " 2>&1";
  std::string CompilerOutput;
  int Exit = runCommand(Cmd, CompilerOutput);
  if (Exit != 0) {
    ::unlink(TmpExe.c_str());
    if (CompilerOutput.size() > 2000)
      CompilerOutput = CompilerOutput.substr(0, 2000) + "...";
    std::string Kept =
        ::rename(TmpCpp.c_str(), CppPath.c_str()) == 0 ? CppPath : TmpCpp;
    Out.Error = "aot: host compiler failed (exit " + std::to_string(Exit) +
                "): " + CompilerOutput + " (generated C++ kept at " + Kept +
                ")";
    return Out;
  }
  if (!publish(TmpExe, Exe)) {
    ::unlink(TmpCpp.c_str());
    Out.Error = "aot: cannot publish artifact `" + Exe + "`";
    return Out;
  }
  if (Opts.KeepCpp && publish(TmpCpp, CppPath))
    Out.CppPath = CppPath;
  else
    ::unlink(TmpCpp.c_str());
  Out.ExePath = Exe;
  return Out;
}

RunOutput fg::aot::runProgram(const std::string &ExePath,
                              const sf::EvalOptions &Opts, long long Repeat) {
  stats::ScopedTimer Timer("aot.run");
  RunOutput Out;
  std::string Cmd = shellQuote(ExePath) +
                    " --max-steps=" + std::to_string(Opts.MaxSteps) +
                    " --max-depth=" + std::to_string(Opts.MaxDepth);
  if (Repeat > 1)
    Cmd += " --repeat=" + std::to_string(Repeat);
  std::string Stdout;
  int Exit = runCommand(Cmd, Stdout);
  Out.ExitCode = Exit;
  if (Exit < 0) {
    Out.Error = "aot: failed to spawn `" + ExePath + "`";
    return Out;
  }
  size_t Eol = Stdout.find('\n');
  Out.Payload = Eol == std::string::npos ? Stdout : Stdout.substr(0, Eol);
  if (Exit == 0) {
    size_t Bench = Stdout.find("bench_ns_per_run=");
    if (Bench != std::string::npos)
      Out.BenchNsPerRun =
          std::strtoll(Stdout.c_str() + Bench + strlen("bench_ns_per_run="),
                       nullptr, 10);
    return Out;
  }
  if (Exit == 3)
    return Out; // Runtime error; Payload carries the diagnostic.
  Out.Error = "aot: compiled program exited with code " + std::to_string(Exit);
  return Out;
}
