//===- support/Backends.cpp - Execution backend registry ------------------===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//

#include "support/Backends.h"

#include <algorithm>

namespace fg {

const std::vector<BackendInfo> &backendRegistry() {
  static const std::vector<BackendInfo> Registry = {
      {Backend::Tree, "tree", "reference tree-walking evaluator (default)"},
      {Backend::Vm, "vm", "bytecode virtual machine"},
      {Backend::Aot, "aot",
       "ahead-of-time C++ transpiler (host toolchain required)"},
  };
  return Registry;
}

bool parseBackend(const std::string &Name, Backend &B) {
  for (const BackendInfo &Info : backendRegistry())
    if (Name == Info.Name) {
      B = Info.Kind;
      return true;
    }
  return false;
}

const char *backendName(Backend B) {
  for (const BackendInfo &Info : backendRegistry())
    if (Info.Kind == B)
      return Info.Name;
  return "?";
}

std::string backendNameList() {
  std::string Out;
  for (const BackendInfo &B : backendRegistry()) {
    if (!Out.empty())
      Out += ", ";
    Out += B.Name;
  }
  return Out;
}

std::string backendHelpTable(const std::string &Indent) {
  size_t Width = 0;
  for (const BackendInfo &B : backendRegistry())
    Width = std::max(Width, std::string(B.Name).size());
  std::string Out;
  for (const BackendInfo &B : backendRegistry()) {
    std::string Name = B.Name;
    Out += Indent + Name + std::string(Width - Name.size() + 2, ' ') +
           B.Description + "\n";
  }
  return Out;
}

} // namespace fg
