//===- modules/Interface.cpp - Serialized module interfaces ---------------===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//

#include "modules/Interface.h"
#include "support/Hash.h"
#include "support/Stats.h"
#include "syntax/Frontend.h"
#include <cassert>
#include <cctype>
#include <charconv>
#include <set>
#include <sstream>
#include <unordered_map>

using namespace fg;
using namespace fg::modules;

//===----------------------------------------------------------------------===//
// Declaration-spine helpers
//===----------------------------------------------------------------------===//

static bool isSpineNode(const Term *T) {
  switch (T->getKind()) {
  case TermKind::Let:
  case TermKind::ConceptDecl:
  case TermKind::ModelDecl:
  case TermKind::TypeAlias:
  case TermKind::UseModel:
    return true;
  default:
    return false;
  }
}

static const Term *spineBody(const Term *T) {
  switch (T->getKind()) {
  case TermKind::Let:
    return cast<LetTerm>(T)->getBody();
  case TermKind::ConceptDecl:
    return cast<ConceptDeclTerm>(T)->getBody();
  case TermKind::ModelDecl:
    return cast<ModelDeclTerm>(T)->getBody();
  case TermKind::TypeAlias:
    return cast<TypeAliasTerm>(T)->getBody();
  case TermKind::UseModel:
    return cast<UseModelTerm>(T)->getBody();
  default:
    assert(false && "not a spine node");
    return nullptr;
  }
}

SpineScan fg::modules::scanSpine(const Term *ModuleBody) {
  SpineScan S;
  const Term *T = ModuleBody;
  while (isSpineNode(T)) {
    S.Nodes.push_back(T);
    T = spineBody(T);
  }
  S.Tail = T;
  return S;
}

const Term *fg::modules::rebuildSpine(TermArena &Arena, const Term *ModuleBody,
                                      const Term *NewTail) {
  if (!isSpineNode(ModuleBody))
    return NewTail;
  const Term *Body = rebuildSpine(Arena, spineBody(ModuleBody), NewTail);
  switch (ModuleBody->getKind()) {
  case TermKind::Let: {
    const auto *L = cast<LetTerm>(ModuleBody);
    return Arena.makeLet(L->getName(), L->getInit(), Body, L->getLoc());
  }
  case TermKind::ConceptDecl: {
    const auto *C = cast<ConceptDeclTerm>(ModuleBody);
    return Arena.makeConceptDecl(C->getConceptId(), C->getName(),
                                 C->getParams(), C->getAssocTypes(),
                                 C->getRefines(), C->getMembers(),
                                 C->getEquations(), Body, C->getLoc());
  }
  case TermKind::ModelDecl: {
    const auto *M = cast<ModelDeclTerm>(ModuleBody);
    return Arena.makeModelDecl(M->getConceptId(), M->getConceptName(),
                               M->getArgs(), M->getAssocBindings(),
                               M->getMembers(), M->getModelName(), Body,
                               M->getLoc(), M->getParams(),
                               M->getRequirements(), M->getEquations());
  }
  case TermKind::TypeAlias: {
    const auto *A = cast<TypeAliasTerm>(ModuleBody);
    return Arena.makeTypeAlias(A->getParamId(), A->getName(),
                               A->getAliased(), Body, A->getLoc());
  }
  case TermKind::UseModel: {
    const auto *U = cast<UseModelTerm>(ModuleBody);
    return Arena.makeUseModel(U->getModelName(), Body, U->getLoc());
  }
  default:
    return NewTail;
  }
}

const Term *fg::modules::buildExportProbe(TermArena &Arena,
                                          const Term *ModuleBody,
                                          std::vector<std::string>
                                              &ExportNames) {
  SpineScan S = scanSpine(ModuleBody);
  ExportNames.clear();
  std::set<std::string> Seen;
  for (const Term *N : S.Nodes)
    if (const auto *L = dyn_cast<LetTerm>(N))
      if (Seen.insert(L->getName()).second)
        ExportNames.push_back(L->getName());
  if (ExportNames.empty())
    return ModuleBody;
  std::vector<const Term *> Elems;
  Elems.reserve(ExportNames.size() + 1);
  for (const std::string &Name : ExportNames)
    Elems.push_back(Arena.makeVar(Name));
  Elems.push_back(S.Tail);
  return rebuildSpine(Arena, ModuleBody, Arena.makeTuple(std::move(Elems)));
}

//===----------------------------------------------------------------------===//
// Hashing
//===----------------------------------------------------------------------===//

/// `fgi <version>`: the head of every interface and the salt of every
/// interface hash.
static const std::string &formatTag() {
  static const std::string Tag =
      "fgi " + std::to_string(InterfaceFormatVersion);
  return Tag;
}

uint64_t fg::modules::interfaceHash(
    const std::string &Source,
    const std::vector<std::pair<std::string, uint64_t>> &Deps) {
  uint64_t H = fnv1a64(formatTag());
  H = fnv1a64(Source, H);
  for (const auto &[Name, DepHash] : Deps) {
    H = fnv1a64(Name, H);
    H = fnv1a64(hashToHex(DepHash), H);
  }
  return H;
}

//===----------------------------------------------------------------------===//
// Wire writer
//===----------------------------------------------------------------------===//

namespace {

/// Writes types and concept references.  Concept and type-parameter ids
/// are local to the compiler that checked the module, so each is written
/// as a key numbered densely in order of first appearance, one numbering
/// for concepts and one for parameters: a body edit that mints one more
/// id leaves the interface's bytes alone.  The key maps also give the
/// reference table exactly the imported concepts and aliases an
/// interface mentions.
struct Writer {
  std::ostream &OS;
  std::unordered_map<unsigned, unsigned> ConceptKeys;
  std::unordered_map<unsigned, unsigned> ParamKeys;

  static unsigned key(std::unordered_map<unsigned, unsigned> &Keys,
                      unsigned Id) {
    return Keys.try_emplace(Id, static_cast<unsigned>(Keys.size()))
        .first->second;
  }
  unsigned conceptKey(unsigned Id) { return key(ConceptKeys, Id); }
  unsigned paramKey(unsigned Id) { return key(ParamKeys, Id); }

  void ref(const ConceptRef &R) {
    OS << "(ref " << conceptKey(R.ConceptId);
    for (const Type *A : R.Args) {
      OS << " ";
      type(A);
    }
    OS << ")";
  }

  void eq(const TypeEquation &E) {
    OS << "(";
    type(E.Lhs);
    OS << " ";
    type(E.Rhs);
    OS << ")";
  }

  void type(const Type *T);

  void paramList(const char *Head, const std::vector<TypeParamDecl> &Ps) {
    OS << "(" << Head;
    for (const TypeParamDecl &P : Ps)
      OS << " (" << paramKey(P.Id) << " " << P.Name << ")";
    OS << ")";
  }
};

void Writer::type(const Type *T) {
  switch (T->getKind()) {
  case TypeKind::Int:
    OS << "int";
    return;
  case TypeKind::Bool:
    OS << "bool";
    return;
  case TypeKind::Param: {
    const auto *P = cast<ParamType>(T);
    OS << "(p " << paramKey(P->getId()) << " " << P->getName() << ")";
    return;
  }
  case TypeKind::Bound:
    OS << '#' << cast<BoundType>(T)->getIndex();
    return;
  case TypeKind::Arrow: {
    const auto *A = cast<ArrowType>(T);
    OS << "(-> (";
    bool First = true;
    for (const Type *P : A->getParams()) {
      OS << (First ? "" : " ");
      type(P);
      First = false;
    }
    OS << ") ";
    type(A->getResult());
    OS << ")";
    return;
  }
  case TypeKind::Tuple: {
    OS << "(tup";
    for (const Type *E : cast<TupleType>(T)->getElements()) {
      OS << " ";
      type(E);
    }
    OS << ")";
    return;
  }
  case TypeKind::List:
    OS << "(list ";
    type(cast<ListType>(T)->getElement());
    OS << ")";
    return;
  case TypeKind::ForAll: {
    const auto *F = cast<ForAllType>(T);
    OS << "(all (";
    bool First = true;
    for (const std::string &Name : F->getParamNames()) {
      OS << (First ? "" : " ") << Name;
      First = false;
    }
    OS << ") (reqs";
    for (const ConceptRef &R : F->getParts().Requirements) {
      OS << " ";
      ref(R);
    }
    OS << ") (eqs";
    for (const TypeEquation &E : F->getParts().Equations) {
      OS << " ";
      eq(E);
    }
    OS << ") ";
    type(F->getParts().Body);
    OS << ")";
    return;
  }
  case TypeKind::Assoc: {
    const auto *A = cast<AssocType>(T);
    OS << "(assoc " << conceptKey(A->getConceptId()) << " "
       << A->getMember();
    for (const Type *Arg : A->getArgs()) {
      OS << " ";
      type(Arg);
    }
    OS << ")";
    return;
  }
  }
  assert(false && "unknown type kind");
}

} // namespace

std::string fg::modules::serializeInterface(const ModuleInterface &I,
                                            const ImportEnv &Env) {
  // The body is written first: the reference table that precedes it
  // lists only the imported entities the body mentions.
  std::ostringstream Body;
  Writer W{Body, {}, {}};
  // Own declarations in spine order: each references only earlier ones.
  for (const auto &D : I.Decls) {
    if (const auto *CI = std::get_if<ConceptInfo>(&D)) {
      Body << " (cdecl " << W.conceptKey(CI->Id) << " " << CI->Name << " ";
      W.paramList("params", CI->Params);
      Body << " (assocs";
      for (const AssocTypeDecl &A : CI->Assocs)
        Body << " (" << W.paramKey(A.ParamId) << " " << A.Name << ")";
      Body << ") (refines";
      for (const ConceptRef &R : CI->Refines) {
        Body << " ";
        W.ref(R);
      }
      Body << ") (members";
      for (const ConceptMember &M : CI->Members) {
        Body << " (" << M.Name << " ";
        W.type(M.Ty);
        Body << " " << (M.Default ? 1 : 0) << ")";
      }
      Body << ") (eqs";
      for (const TypeEquation &E : CI->Equations) {
        Body << " ";
        W.eq(E);
      }
      Body << "))\n";
    } else {
      const auto &A = std::get<AliasExport>(D);
      Body << " (adecl " << W.paramKey(A.ParamId) << " " << A.Name << " ";
      W.type(A.Target);
      Body << ")\n";
    }
  }
  Body << ")\n";

  Body << "(models\n";
  for (const ModelExport &M : I.Models) {
    Body << " (mdl " << (M.Name ? *M.Name : std::string("_")) << " "
         << M.DictVar << " " << W.conceptKey(M.ConceptId) << " ";
    W.paramList("params", M.Params);
    Body << " (reqs";
    for (const ConceptRef &R : M.Requirements) {
      Body << " ";
      W.ref(R);
    }
    Body << ") (eqs";
    for (const TypeEquation &E : M.Equations) {
      Body << " ";
      W.eq(E);
    }
    Body << ") (args";
    for (const Type *A : M.Args) {
      Body << " ";
      W.type(A);
    }
    Body << ") (assocs";
    for (const auto &[Name, Ty] : M.AssocBindings) {
      Body << " (" << Name << " ";
      W.type(Ty);
      Body << ")";
    }
    Body << "))\n";
  }
  Body << ")\n";

  Body << "(values\n";
  for (const ValueExport &V : I.Values) {
    Body << " (val " << V.Name << " ";
    W.type(V.Ty);
    Body << ")\n";
  }
  Body << ")\n";

  Body << "(result ";
  if (I.ResultType)
    W.type(I.ResultType);
  else
    Body << "int";
  Body << ")\n)\n";

  std::ostringstream OS;
  OS << "(" << formatTag() << "\n";
  OS << "(module " << I.ModuleName << ")\n";
  OS << "(hash " << hashToHex(I.Hash) << ")\n";
  OS << "(deps";
  for (const auto &[Name, H] : I.Deps)
    OS << " (" << Name << " " << hashToHex(H) << ")";
  OS << ")\n";

  OS << "(decls\n";
  // Imported entities first (no dependencies among references), in the
  // deterministic map order.
  for (const auto &[Origin, Id] : Env.ConceptIds)
    if (auto It = W.ConceptKeys.find(Id); It != W.ConceptKeys.end())
      OS << " (cref " << It->second << " " << Origin.first << " "
         << Origin.second << ")\n";
  for (const auto &[Origin, Id] : Env.AliasParams)
    if (auto It = W.ParamKeys.find(Id); It != W.ParamKeys.end())
      OS << " (aref " << It->second << " " << Origin.first << " "
         << Origin.second << ")\n";
  OS << Body.str();
  return OS.str();
}

//===----------------------------------------------------------------------===//
// Building an interface from a checked module
//===----------------------------------------------------------------------===//

bool fg::modules::buildInterface(Frontend &FE, const ImportEnv &Env,
                                 const std::string &ModuleName,
                                 const Term *ModuleBody,
                                 const std::vector<std::string> &ExportNames,
                                 const Type *ProbeType, ModuleInterface &Out,
                                 std::string &Error) {
  Out = ModuleInterface();
  Out.ModuleName = ModuleName;
  Checker &C = FE.getChecker();
  SpineScan S = scanSpine(ModuleBody);
  unsigned NextModel = 0;
  auto freshDictVar = [&]() {
    return "$" + ModuleName + "$model" + std::to_string(NextModel++);
  };

  for (const Term *N : S.Nodes) {
    switch (N->getKind()) {
    case TermKind::Let:
      break; // Values are read off the probe type below.
    case TermKind::ConceptDecl: {
      const auto *CD = cast<ConceptDeclTerm>(N);
      const ConceptInfo *Info = C.findConcept(CD->getConceptId());
      if (!Info) {
        Error = "internal error: spine concept `" + CD->getName() +
                "` was not registered by the checker";
        return false;
      }
      Out.Decls.emplace_back(*Info);
      break;
    }
    case TermKind::TypeAlias: {
      const auto *A = cast<TypeAliasTerm>(N);
      Out.Decls.emplace_back(
          AliasExport{A->getParamId(), A->getName(), A->getAliased()});
      break;
    }
    case TermKind::ModelDecl: {
      const auto *MD = cast<ModelDeclTerm>(N);
      ModelExport M;
      M.ConceptId = MD->getConceptId();
      M.Args = MD->getArgs();
      M.Params = MD->getParams();
      M.Requirements = MD->getRequirements();
      M.Equations = MD->getEquations();
      for (const AssocBinding &B : MD->getAssocBindings())
        M.AssocBindings.emplace_back(B.Name, B.Ty);
      M.Name = MD->getModelName();
      M.DictVar = freshDictVar();
      Out.Models.push_back(std::move(M));
      break;
    }
    case TermKind::UseModel: {
      // A spine-level `use` makes a named model ambient for the rest of
      // the module, and thus for importers: re-export it unnamed.
      const auto *U = cast<UseModelTerm>(N);
      const ModelExport *Found = nullptr;
      for (size_t I = Out.Models.size(); I != 0; --I)
        if (Out.Models[I - 1].Name &&
            *Out.Models[I - 1].Name == U->getModelName()) {
          Found = &Out.Models[I - 1];
          break;
        }
      if (!Found) {
        auto It = Env.NamedModels.find(U->getModelName());
        if (It != Env.NamedModels.end())
          Found = &It->second;
      }
      if (!Found) {
        Error = "internal error: `use " + U->getModelName() +
                "` in the module spine resolves to no exported model";
        return false;
      }
      ModelExport M = *Found;
      M.Name = std::nullopt;
      M.DictVar = freshDictVar();
      Out.Models.push_back(std::move(M));
      break;
    }
    default:
      break;
    }
  }

  if (ExportNames.empty()) {
    Out.ResultType = ProbeType;
    return true;
  }
  const auto *Tup = dyn_cast<TupleType>(ProbeType);
  if (!Tup || Tup->getNumElements() != ExportNames.size() + 1) {
    Error = "internal error: export probe did not produce a tuple of " +
            std::to_string(ExportNames.size() + 1) + " types";
    return false;
  }
  for (size_t I = 0; I != ExportNames.size(); ++I)
    Out.Values.push_back({ExportNames[I], Tup->getElement(I)});
  Out.ResultType = Tup->getElement(ExportNames.size());
  return true;
}

//===----------------------------------------------------------------------===//
// Wire reader
//===----------------------------------------------------------------------===//

namespace {

using Node = ParsedInterface::Node;

/// A view of one node of a ParsedInterface's flat S-expression.
class Sexp {
  const ParsedInterface *P;
  Node N;

public:
  Sexp(const ParsedInterface &Owner, Node N) : P(&Owner), N(N) {}

  bool isAtom() const { return !(N.Size & ParsedInterface::ListBit); }
  std::string_view atom() const {
    return isAtom() ? std::string_view(P->Text).substr(N.Begin, N.Size)
                    : std::string_view();
  }
  size_t size() const {
    return isAtom() ? 0 : N.Size & ~ParsedInterface::ListBit;
  }
  Sexp operator[](size_t I) const { return {*P, P->Nodes[N.Begin + I]}; }
  bool isList(std::string_view Head) const {
    return size() != 0 && (*this)[0].isAtom() && (*this)[0].atom() == Head;
  }
};

Sexp rootOf(const ParsedInterface &P) { return {P, P.Nodes.back()}; }

bool isSpace(char C) { return std::isspace(static_cast<unsigned char>(C)); }

/// Parses the one S-expression of \p Text into \p Nodes, iteratively so
/// nesting depth costs heap, not native stack.  Each list's items are
/// finished before the list closes, so they are appended contiguously
/// just ahead of it.
bool parseFlat(std::string_view Text, std::vector<Node> &Nodes,
               std::string &Error) {
  if (Text.size() >= ParsedInterface::ListBit) {
    Error = "interface text too large";
    return false;
  }
  std::vector<Node> Pending; // Finished items of the open lists.
  std::vector<size_t> Opens; // Pending.size() at each open `(`.
  Nodes.reserve(Text.size() / 3);
  size_t Pos = 0;
  do {
    while (Pos < Text.size() && isSpace(Text[Pos]))
      ++Pos;
    if (Pos >= Text.size()) {
      Error = Opens.empty() ? "unexpected end of interface text"
                            : "unterminated list in interface text";
      return false;
    }
    if (Text[Pos] == '(') {
      Opens.push_back(Pending.size());
      ++Pos;
      continue;
    }
    if (Text[Pos] == ')') {
      if (Opens.empty()) {
        Error = "unbalanced `)` in interface text";
        return false;
      }
      size_t First = Opens.back();
      Opens.pop_back();
      Node List{static_cast<uint32_t>(Nodes.size()),
                static_cast<uint32_t>(Pending.size() - First) |
                    ParsedInterface::ListBit};
      Nodes.insert(Nodes.end(), Pending.begin() + First, Pending.end());
      Pending.resize(First);
      Pending.push_back(List);
      ++Pos;
      continue;
    }
    size_t Begin = Pos;
    while (Pos < Text.size() && Text[Pos] != '(' && Text[Pos] != ')' &&
           !isSpace(Text[Pos]))
      ++Pos;
    Pending.push_back(Node{static_cast<uint32_t>(Begin),
                           static_cast<uint32_t>(Pos - Begin)});
  } while (!Opens.empty());
  while (Pos < Text.size() && isSpace(Text[Pos]))
    ++Pos;
  if (Pos != Text.size()) {
    Error = "trailing text after the interface";
    return false;
  }
  Nodes.push_back(Pending.back());
  Nodes.shrink_to_fit();
  return true;
}

bool parseHex(std::string_view S, uint64_t &Out) {
  if (S.empty())
    return false;
  Out = 0;
  for (char C : S) {
    Out <<= 4;
    if (C >= '0' && C <= '9')
      Out |= static_cast<uint64_t>(C - '0');
    else if (C >= 'a' && C <= 'f')
      Out |= static_cast<uint64_t>(C - 'a' + 10);
    else
      return false;
  }
  return true;
}

bool parseKey(Sexp S, unsigned &Out) {
  std::string_view A = S.atom();
  if (A.empty())
    return false;
  auto [End, Ec] = std::from_chars(A.data(), A.data() + A.size(), Out);
  return Ec == std::errc() && End == A.data() + A.size();
}

/// The index an atom `#N` names.
std::optional<unsigned> boundIndex(std::string_view A) {
  unsigned N = 0;
  if (A.size() < 2 || A[0] != '#' ||
      std::from_chars(A.data() + 1, A.data() + A.size(), N).ptr !=
          A.data() + A.size())
    return std::nullopt;
  return N;
}

/// True when every atom in \p S that starts with `#` is an index below
/// \p Depth, the parameter count of the foralls around it,
/// `(all (names...) (reqs ...) (eqs ...) body)`.
bool indicesBound(Sexp S, unsigned Depth) {
  if (S.isAtom()) {
    std::optional<unsigned> I = boundIndex(S.atom());
    return S.atom().empty() || S.atom()[0] != '#' || (I && *I < Depth);
  }
  bool ForAll = S.isList("all") && S.size() == 5 && !S[1].isAtom();
  for (size_t I = ForAll ? 2 : 0; I != S.size(); ++I)
    if (!indicesBound(S[I], Depth + (ForAll ? S[1].size() : 0)))
      return false;
  return true;
}

/// State for deserializing one interface's types into a Frontend.
struct ReadContext {
  Frontend &FE;
  ImportEnv &Env;
  std::string File; ///< For diagnostics: the module being instantiated.
  std::unordered_map<unsigned, unsigned> ParamMap;
  std::unordered_map<unsigned, unsigned> ConceptMap;
  std::string Error;

  bool fail(const std::string &Msg) {
    Error = "interface of module `" + File + "`: " + Msg;
    return false;
  }
};

const Type *readType(ReadContext &RC, Sexp S);

bool readRefs(ReadContext &RC, Sexp RefsList, std::vector<ConceptRef> &Out);

bool readEqs(ReadContext &RC, Sexp EqsList, std::vector<TypeEquation> &Out);

bool mapConcept(ReadContext &RC, Sexp KeyS, unsigned &LocalId) {
  unsigned Key;
  if (!parseKey(KeyS, Key))
    return RC.fail("malformed concept key");
  auto It = RC.ConceptMap.find(Key);
  if (It == RC.ConceptMap.end())
    return RC.fail("reference to concept key " + std::string(KeyS.atom()) +
                   " before its declaration");
  LocalId = It->second;
  return true;
}

const Type *readType(ReadContext &RC, Sexp S) {
  TypeContext &Ctx = RC.FE.getFgContext();
  if (S.isAtom()) {
    if (S.atom() == "int")
      return Ctx.getIntType();
    if (S.atom() == "bool")
      return Ctx.getBoolType();
    // parseInterface has checked that each index lies in its binders.
    if (std::optional<unsigned> I = boundIndex(S.atom()))
      return Ctx.getBoundType(*I);
    RC.fail("unknown type atom `" + std::string(S.atom()) + "`");
    return nullptr;
  }
  if (S.size() == 0 || !S[0].isAtom()) {
    RC.fail("malformed type expression");
    return nullptr;
  }
  std::string_view Head = S[0].atom();
  if (Head == "p") {
    unsigned Key;
    if (S.size() != 3 || !parseKey(S[1], Key) || !S[2].isAtom()) {
      RC.fail("malformed parameter reference");
      return nullptr;
    }
    std::string Name(S[2].atom());
    auto It = RC.ParamMap.find(Key);
    if (It == RC.ParamMap.end()) {
      RC.fail("unbound type parameter `" + Name + "`");
      return nullptr;
    }
    return Ctx.getParamType(It->second, Name);
  }
  if (Head == "->") {
    if (S.size() != 3 || S[1].isAtom()) {
      RC.fail("malformed function type");
      return nullptr;
    }
    std::vector<const Type *> Params;
    Sexp Ps = S[1];
    for (size_t I = 0; I != Ps.size(); ++I) {
      const Type *T = readType(RC, Ps[I]);
      if (!T)
        return nullptr;
      Params.push_back(T);
    }
    const Type *Res = readType(RC, S[2]);
    return Res ? Ctx.getArrowType(std::move(Params), Res) : nullptr;
  }
  if (Head == "tup") {
    std::vector<const Type *> Elems;
    for (size_t I = 1; I != S.size(); ++I) {
      const Type *T = readType(RC, S[I]);
      if (!T)
        return nullptr;
      Elems.push_back(T);
    }
    return Ctx.getTupleType(std::move(Elems));
  }
  if (Head == "list") {
    if (S.size() != 2) {
      RC.fail("malformed list type");
      return nullptr;
    }
    const Type *E = readType(RC, S[1]);
    return E ? Ctx.getListType(E) : nullptr;
  }
  if (Head == "all") {
    if (S.size() != 5 || S[1].isAtom() || S[1].size() == 0 ||
        !S[2].isList("reqs") || !S[3].isList("eqs")) {
      RC.fail("malformed forall type");
      return nullptr;
    }
    std::vector<std::string> Names;
    for (size_t I = 0; I != S[1].size(); ++I) {
      if (!S[1][I].isAtom()) {
        RC.fail("malformed forall binder");
        return nullptr;
      }
      Names.push_back(std::string(S[1][I].atom()));
    }
    // The where clause and body are stored with indices, read as such.
    ForAllParts Parts;
    bool Ok = readRefs(RC, S[2], Parts.Requirements) &&
              readEqs(RC, S[3], Parts.Equations) &&
              (Parts.Body = readType(RC, S[4]));
    return Ok ? Ctx.getNamelessForAllType(std::move(Names), std::move(Parts))
              : nullptr;
  }
  if (Head == "assoc") {
    if (S.size() < 3 || !S[2].isAtom()) {
      RC.fail("malformed associated type");
      return nullptr;
    }
    unsigned Cid;
    if (!mapConcept(RC, S[1], Cid))
      return nullptr;
    const ConceptInfo *Info = RC.FE.getChecker().findConcept(Cid);
    if (!Info) {
      RC.fail("associated type of an unknown concept");
      return nullptr;
    }
    std::vector<const Type *> Args;
    for (size_t I = 3; I != S.size(); ++I) {
      const Type *T = readType(RC, S[I]);
      if (!T)
        return nullptr;
      Args.push_back(T);
    }
    return Ctx.getAssocType(Cid, Info->Name, std::move(Args),
                            std::string(S[2].atom()));
  }
  RC.fail("unknown type form `" + std::string(Head) + "`");
  return nullptr;
}

bool readRef(ReadContext &RC, Sexp S, ConceptRef &Out) {
  if (S.size() < 2 || !S.isList("ref"))
    return RC.fail("malformed concept reference");
  unsigned Cid;
  if (!mapConcept(RC, S[1], Cid))
    return false;
  const ConceptInfo *Info = RC.FE.getChecker().findConcept(Cid);
  if (!Info)
    return RC.fail("reference to an unknown concept");
  Out.ConceptId = Cid;
  Out.ConceptName = Info->Name;
  Out.Args.clear();
  for (size_t I = 2; I != S.size(); ++I) {
    const Type *T = readType(RC, S[I]);
    if (!T)
      return false;
    Out.Args.push_back(T);
  }
  return true;
}

bool readEqs(ReadContext &RC, Sexp EqsList, std::vector<TypeEquation> &Out) {
  for (size_t I = 1; I != EqsList.size(); ++I) {
    Sexp E = EqsList[I];
    if (E.size() != 2)
      return RC.fail("malformed type equation");
    const Type *L = readType(RC, E[0]);
    const Type *R = readType(RC, E[1]);
    if (!L || !R)
      return false;
    Out.push_back({L, R});
  }
  return true;
}

bool readRefs(ReadContext &RC, Sexp RefsList, std::vector<ConceptRef> &Out) {
  for (size_t I = 1; I != RefsList.size(); ++I) {
    ConceptRef R;
    if (!readRef(RC, RefsList[I], R))
      return false;
    Out.push_back(std::move(R));
  }
  return true;
}

/// Reads a `(params (key name)...)`-shaped list, minting fresh local
/// parameter ids and recording them in the ParamMap.
bool readBinders(ReadContext &RC, Sexp List, std::vector<TypeParamDecl> &Out) {
  for (size_t I = 1; I != List.size(); ++I) {
    Sexp P = List[I];
    unsigned Key;
    if (P.size() != 2 || !parseKey(P[0], Key) || !P[1].isAtom())
      return RC.fail("malformed parameter binder");
    unsigned Fresh = RC.FE.getFgContext().freshParamId();
    RC.ParamMap[Key] = Fresh;
    Out.push_back({Fresh, std::string(P[1].atom())});
  }
  return true;
}

std::optional<Sexp> findField(Sexp Root, std::string_view Head) {
  for (size_t I = 0; I != Root.size(); ++I)
    if (Root[I].isList(Head))
      return Root[I];
  return std::nullopt;
}

} // namespace

bool fg::modules::parseInterface(std::string Text, ParsedInterface &Out,
                                 std::string &Error) {
  Out = ParsedInterface();
  Out.Text = std::move(Text);
  if (!parseFlat(Out.Text, Out.Nodes, Error))
    return false;
  Sexp Root = rootOf(Out);
  if (!Root.isList("fgi") || Root.size() < 2) {
    Error = "not an fgc interface file";
    return false;
  }
  unsigned Version = 0;
  if (!parseKey(Root[1], Version) || Version != InterfaceFormatVersion) {
    Error = "unsupported interface format version";
    return false;
  }
  std::optional<Sexp> ModuleS = findField(Root, "module");
  if (!ModuleS || ModuleS->size() != 2 || !(*ModuleS)[1].isAtom()) {
    Error = "interface is missing its module name";
    return false;
  }
  Out.ModuleName = (*ModuleS)[1].atom();
  auto fail = [&](const char *Msg) {
    Error = "interface of module `" + Out.ModuleName + "`: " + Msg;
    return false;
  };
  std::optional<Sexp> HashS = findField(Root, "hash");
  if (!HashS || HashS->size() != 2 || !(*HashS)[1].isAtom() ||
      !parseHex((*HashS)[1].atom(), Out.Hash))
    return fail("missing or malformed hash");
  // The digest is of everything a dependent observes: the whole text
  // but the `(hash ...)` field, which keys this module's own source.
  // Only blanks separate the field's parentheses from its two atoms.
  std::string_view T = Out.Text, Hex = (*HashS)[1].atom();
  size_t Open = T.rfind('(', (*HashS)[0].atom().data() - T.data());
  size_t Close = T.find(')', Hex.data() + Hex.size() - T.data()) + 1;
  Out.Digest = fnv1a64(T.substr(Close), fnv1a64(T.substr(0, Open)));
  // A leaf module legitimately records no deps.
  if (std::optional<Sexp> DepsS = findField(Root, "deps"))
    for (size_t I = 1; I != DepsS->size(); ++I) {
      Sexp D = (*DepsS)[I];
      uint64_t H;
      if (D.size() != 2 || !D[0].isAtom() || !D[1].isAtom() ||
          !parseHex(D[1].atom(), H))
        return fail("malformed dependency entry");
      Out.Deps.emplace_back(D[0].atom(), H);
    }
  // A dependent reads the types only when it instantiates the file, so
  // an index outside its binders is caught here, where it is a miss.
  if (!indicesBound(Root, 0))
    return fail("an index lies outside its binders");
  return true;
}

bool fg::modules::instantiateInterface(const ParsedInterface &P, Frontend &FE,
                                       ImportEnv &Env, ModuleInterface &Out,
                                       std::string &Error) {
  assert(!P.Nodes.empty() && "instantiating an unparsed interface");
  stats::ScopedTimer Timer("modules.instantiate");
  Out = ModuleInterface();
  Out.ModuleName = P.ModuleName;
  Out.Hash = P.Hash;
  Out.Deps = P.Deps;
  Sexp Root = rootOf(P);

  ReadContext RC{FE, Env, Out.ModuleName, {}, {}, {}};
  Checker &C = FE.getChecker();
  auto fail = [&](const std::string &Msg) {
    Error = RC.Error.empty()
                ? "interface of module `" + Out.ModuleName + "`: " + Msg
                : RC.Error;
    return false;
  };

  // Declarations, in dependency order.
  if (std::optional<Sexp> Decls = findField(Root, "decls")) {
    for (size_t I = 1; I != Decls->size(); ++I) {
      Sexp D = (*Decls)[I];
      if (D.size() == 0 || !D[0].isAtom())
        return fail("malformed declaration entry");
      std::string_view Kind = D[0].atom();
      if (Kind == "cref" || Kind == "aref") {
        unsigned Key;
        if (D.size() != 4 || !parseKey(D[1], Key) || !D[2].isAtom() ||
            !D[3].isAtom())
          return fail("malformed import reference");
        std::pair<std::string, std::string> Origin{D[2].atom(), D[3].atom()};
        if (Kind == "cref") {
          auto It = Env.ConceptIds.find(Origin);
          if (It == Env.ConceptIds.end())
            return fail("references concept `" + Origin.second +
                        "` of module `" + Origin.first +
                        "`, whose interface is not loaded");
          RC.ConceptMap[Key] = It->second;
        } else {
          auto It = Env.AliasParams.find(Origin);
          if (It == Env.AliasParams.end())
            return fail("references type alias `" + Origin.second +
                        "` of module `" + Origin.first +
                        "`, whose interface is not loaded");
          RC.ParamMap[Key] = It->second;
        }
      } else if (Kind == "cdecl") {
        unsigned Key;
        if (D.size() != 8 || !parseKey(D[1], Key) || !D[2].isAtom() ||
            !D[3].isList("params") || !D[4].isList("assocs") ||
            !D[5].isList("refines") || !D[6].isList("members") ||
            !D[7].isList("eqs"))
          return fail("malformed concept declaration");
        ConceptInfo Info;
        Info.Id = FE.getFgContext().freshConceptId();
        Info.Name = D[2].atom();
        if (!readBinders(RC, D[3], Info.Params))
          return fail(RC.Error);
        std::vector<TypeParamDecl> AssocParams;
        if (!readBinders(RC, D[4], AssocParams))
          return fail(RC.Error);
        for (const TypeParamDecl &A : AssocParams)
          Info.Assocs.push_back({A.Id, A.Name});
        // The concept must be visible to its own member types' assoc
        // references before they are read.
        RC.ConceptMap[Key] = Info.Id;
        if (!readRefs(RC, D[5], Info.Refines))
          return fail(RC.Error);
        Sexp Members = D[6];
        for (size_t J = 1; J != Members.size(); ++J) {
          Sexp M = Members[J];
          if (M.size() != 3 || !M[0].isAtom() || !M[2].isAtom())
            return fail("malformed concept member");
          ConceptMember CM;
          CM.Name = M[0].atom();
          CM.Ty = readType(RC, M[1]);
          if (!CM.Ty)
            return fail(RC.Error);
          // Default bodies are terms and do not serialize; the member
          // must be given explicitly by cross-module models.
          CM.Default = nullptr;
          Info.Members.push_back(std::move(CM));
        }
        if (!readEqs(RC, D[7], Info.Equations))
          return fail(RC.Error);
        Env.ConceptIds[{Out.ModuleName, Info.Name}] = Info.Id;
        Out.Decls.emplace_back(Info);
        C.declareConcept(std::move(Info));
      } else if (Kind == "adecl") {
        unsigned Key;
        if (D.size() != 4 || !parseKey(D[1], Key) || !D[2].isAtom())
          return fail("malformed alias declaration");
        const Type *Target = readType(RC, D[3]);
        if (!Target)
          return fail(RC.Error);
        unsigned Fresh = FE.getFgContext().freshParamId();
        RC.ParamMap[Key] = Fresh;
        std::string Name(D[2].atom());
        C.bindImportedAlias(Fresh, Name, Target);
        Env.AliasParams[{Out.ModuleName, Name}] = Fresh;
        Out.Decls.emplace_back(AliasExport{Fresh, Name, Target});
      } else {
        return fail("unknown declaration kind `" + std::string(Kind) + "`");
      }
    }
  }

  // Models.
  if (std::optional<Sexp> Models = findField(Root, "models")) {
    for (size_t I = 1; I != Models->size(); ++I) {
      Sexp M = (*Models)[I];
      if (M.size() != 9 || !M.isList("mdl") || !M[1].isAtom() ||
          !M[2].isAtom() || !M[4].isList("params") || !M[5].isList("reqs") ||
          !M[6].isList("eqs") || !M[7].isList("args") ||
          !M[8].isList("assocs"))
        return fail("malformed model entry");
      ModelExport E;
      if (M[1].atom() != "_")
        E.Name = std::string(M[1].atom());
      E.DictVar = M[2].atom();
      if (!mapConcept(RC, M[3], E.ConceptId))
        return fail(RC.Error);
      if (!readBinders(RC, M[4], E.Params))
        return fail(RC.Error);
      if (!readRefs(RC, M[5], E.Requirements))
        return fail(RC.Error);
      if (!readEqs(RC, M[6], E.Equations))
        return fail(RC.Error);
      Sexp Args = M[7];
      for (size_t J = 1; J != Args.size(); ++J) {
        const Type *T = readType(RC, Args[J]);
        if (!T)
          return fail(RC.Error);
        E.Args.push_back(T);
      }
      Sexp Assocs = M[8];
      for (size_t J = 1; J != Assocs.size(); ++J) {
        Sexp B = Assocs[J];
        if (B.size() != 2 || !B[0].isAtom())
          return fail("malformed associated type binding");
        const Type *T = readType(RC, B[1]);
        if (!T)
          return fail(RC.Error);
        E.AssocBindings.emplace_back(B[0].atom(), T);
      }

      Checker::ImportedModel IM;
      IM.Record.ConceptId = E.ConceptId;
      IM.Record.Args = E.Args;
      IM.Record.DictVar = E.DictVar;
      IM.Record.Params = E.Params;
      IM.Record.Requirements = E.Requirements;
      IM.Record.Equations = E.Equations;
      IM.Record.AssocBindings = E.AssocBindings;
      IM.Name = E.Name;
      const sf::Type *DictTy = C.bindImportedModel(IM);
      if (!DictTy)
        return fail("model of `" +
                    (C.findConcept(E.ConceptId)
                         ? C.findConcept(E.ConceptId)->Name
                         : std::string("?")) +
                    "` could not be instantiated: " +
                    FE.getDiags().firstError());
      Env.ImportTypes.bind(E.DictVar, DictTy);
      if (E.Name)
        Env.NamedModels[*E.Name] = E;
      Out.Models.push_back(std::move(E));
    }
  }

  // Values and result type.
  if (std::optional<Sexp> Values = findField(Root, "values")) {
    for (size_t I = 1; I != Values->size(); ++I) {
      Sexp V = (*Values)[I];
      if (V.size() != 3 || !V.isList("val") || !V[1].isAtom())
        return fail("malformed value entry");
      const Type *T = readType(RC, V[2]);
      if (!T)
        return fail(RC.Error);
      Out.Values.push_back({std::string(V[1].atom()), T});
    }
  }
  if (std::optional<Sexp> Result = findField(Root, "result")) {
    if (Result->size() != 2)
      return fail("malformed result type");
    Out.ResultType = readType(RC, (*Result)[1]);
    if (!Out.ResultType)
      return fail(RC.Error);
  }

  return true;
}

bool fg::modules::bindImportedValues(Frontend &FE, ImportEnv &Env,
                                     const ModuleInterface &I,
                                     std::string &Error) {
  Checker &C = FE.getChecker();
  for (const ValueExport &V : I.Values) {
    C.bindGlobal(V.Name, V.Ty);
    const sf::Type *SfTy = C.sfTypeOf(V.Ty, SourceLocation());
    if (!SfTy) {
      Error = "imported value `" + V.Name + "` of module `" + I.ModuleName +
              "` has no System F type: " + FE.getDiags().firstError();
      return false;
    }
    Env.ImportTypes.bind(V.Name, SfTy);
  }
  return true;
}
