//===- syntax/Parser.cpp - F_G parser -------------------------------------===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//

#include "syntax/Parser.h"
#include "support/Stats.h"
#include <cassert>

using namespace fg;

std::nullptr_t Parser::errorAtToken(const std::string &Message) {
  Diags.error(tok().Loc, Message);
  return nullptr;
}

bool Parser::expect(TokenKind K, const char *Context) {
  if (consumeIf(K))
    return true;
  Diags.error(tok().Loc, std::string("expected ") + tokenKindName(K) +
                             " in " + Context + ", found " +
                             tokenKindName(tok().Kind));
  return false;
}

int Parser::lookupTypeVar(const std::string &Name) const {
  for (size_t I = TypeVarScope.size(); I != 0; --I)
    if (TypeVarScope[I - 1].first == Name)
      return static_cast<int>(TypeVarScope[I - 1].second);
  return -1;
}

int Parser::lookupConcept(const std::string &Name) const {
  for (size_t I = ConceptScope.size(); I != 0; --I)
    if (ConceptScope[I - 1].first == Name)
      return static_cast<int>(ConceptScope[I - 1].second);
  return -1;
}

const Term *Parser::parseProgram(uint32_t BufferId) {
  ModuleHeader Header;
  const Term *E = parseModule(BufferId, Header);
  if (E && !Header.empty()) {
    Diags.error(Header.Loc, ModuleHeader::InSourceText);
    return nullptr;
  }
  return E;
}

const Term *Parser::parseModule(uint32_t BufferId, ModuleHeader &Header,
                                const ParserSeeds &Seeds) {
  stats::ScopedTimer Timer("parser.parse");
  // Only *new* lexical errors abort this parse; the engine may carry
  // diagnostics from earlier compilations of other buffers.
  unsigned ErrorsBefore = Diags.getNumErrors();
  Tokens = lexBuffer(SM, BufferId, Diags);
  static std::atomic<uint64_t> &TokenCount =
      stats::Statistics::global().counter("lexer.tokens");
  TokenCount += Tokens.size();
  Pos = 0;
  TypeVarScope.clear();
  ConceptScope.clear();
  if (Diags.getNumErrors() > ErrorsBefore)
    return nullptr;

  // Header: `module <name>;` then `import <name>;`*.
  Header = ModuleHeader();
  Header.Loc = tok().Loc;
  if (consumeIf(TokenKind::KwModule)) {
    if (!at(TokenKind::Ident)) {
      errorAtToken("expected a module name after `module`");
      return nullptr;
    }
    Header.HasModuleDecl = true;
    Header.Name = tok().Text;
    advance();
    if (!expect(TokenKind::Semi, "module declaration"))
      return nullptr;
  }
  while (at(TokenKind::KwImport)) {
    SourceLocation Loc = tok().Loc;
    advance();
    if (!at(TokenKind::Ident)) {
      errorAtToken("expected a module name after `import`");
      return nullptr;
    }
    Header.Imports.push_back({tok().Text, Loc});
    advance();
    if (!expect(TokenKind::Semi, "import declaration"))
      return nullptr;
  }

  // Imported names: installed as the outermost lexical scope, in
  // import order, so the innermost-wins lookup matches the
  // declaration-spine nesting produced at link time.
  for (const auto &[Name, Id] : Seeds.Concepts)
    ConceptScope.emplace_back(Name, Id);
  for (const auto &[Name, Id] : Seeds.TypeVars)
    TypeVarScope.emplace_back(Name, Id);

  const Term *E = parseExpr();
  if (!E)
    return nullptr;
  if (!at(TokenKind::Eof)) {
    errorAtToken("unexpected trailing input after program expression");
    return nullptr;
  }
  return E;
}

//===----------------------------------------------------------------------===//
// Types
//===----------------------------------------------------------------------===//

bool Parser::parseTypeArgs(std::vector<const Type *> &Out) {
  if (!expect(TokenKind::Less, "concept type arguments"))
    return false;
  do {
    const Type *T = parseType();
    if (!T)
      return false;
    Out.push_back(T);
  } while (consumeIf(TokenKind::Comma));
  return expect(TokenKind::Greater, "concept type arguments");
}

bool Parser::parseTypeParams(std::vector<TypeParamDecl> &Out) {
  do {
    if (!at(TokenKind::Ident)) {
      errorAtToken("expected a type variable name");
      return false;
    }
    unsigned Id = Ctx.freshParamId();
    Out.push_back({Id, tok().Text});
    TypeVarScope.emplace_back(tok().Text, Id);
    advance();
  } while (consumeIf(TokenKind::Comma));
  return true;
}

bool Parser::parseConceptRef(ConceptRef &Out) {
  assert(at(TokenKind::Ident) && "caller checks for an identifier");
  int Id = lookupConcept(tok().Text);
  if (Id < 0) {
    errorAtToken("unknown concept `" + tok().Text + "`");
    return false;
  }
  Out.ConceptId = static_cast<unsigned>(Id);
  Out.ConceptName = tok().Text;
  advance();
  return parseTypeArgs(Out.Args);
}

bool Parser::parseWhereClause(std::vector<ConceptRef> &Reqs,
                              std::vector<TypeEquation> &Eqs) {
  do {
    // An identifier followed by `<` must name a concept here — either a
    // requirement or the head of an associated type.
    if (at(TokenKind::Ident) && peek().is(TokenKind::Less) &&
        lookupConcept(tok().Text) < 0 && lookupTypeVar(tok().Text) < 0) {
      errorAtToken("unknown concept `" + tok().Text + "` in where clause");
      return false;
    }
    // A requirement starts with a concept name; but `C<...>.s == tau` is
    // an equation whose left side is an associated type.
    if (at(TokenKind::Ident) && lookupConcept(tok().Text) >= 0 &&
        peek().is(TokenKind::Less)) {
      ConceptRef Ref;
      if (!parseConceptRef(Ref))
        return false;
      // `C<...>.s == tau` is an equation; a bare `.` instead terminates
      // the where clause (it belongs to the enclosing forall).
      if (at(TokenKind::Dot) && peek(1).is(TokenKind::Ident) &&
          peek(2).is(TokenKind::EqualEqual)) {
        advance(); // '.'
        if (!at(TokenKind::Ident)) {
          errorAtToken("expected an associated type name after `.`");
          return false;
        }
        const Type *Lhs = Ctx.getAssocType(Ref.ConceptId, Ref.ConceptName,
                                           std::move(Ref.Args), tok().Text);
        advance();
        if (!expect(TokenKind::EqualEqual, "same-type constraint"))
          return false;
        const Type *Rhs = parseType();
        if (!Rhs)
          return false;
        Eqs.push_back({Lhs, Rhs});
      } else {
        Reqs.push_back(std::move(Ref));
      }
      continue;
    }
    const Type *Lhs = parseType();
    if (!Lhs)
      return false;
    if (!expect(TokenKind::EqualEqual, "same-type constraint"))
      return false;
    const Type *Rhs = parseType();
    if (!Rhs)
      return false;
    Eqs.push_back({Lhs, Rhs});
  } while (consumeIf(TokenKind::Comma));
  return true;
}

const Type *Parser::parseType() {
  switch (tok().Kind) {
  case TokenKind::KwFn: {
    advance();
    if (!expect(TokenKind::LParen, "function type"))
      return nullptr;
    std::vector<const Type *> Params;
    if (!at(TokenKind::RParen)) {
      do {
        const Type *P = parseType();
        if (!P)
          return nullptr;
        Params.push_back(P);
      } while (consumeIf(TokenKind::Comma));
    }
    if (!expect(TokenKind::RParen, "function type") ||
        !expect(TokenKind::Arrow, "function type"))
      return nullptr;
    const Type *Result = parseType();
    if (!Result)
      return nullptr;
    return Ctx.getArrowType(std::move(Params), Result);
  }
  case TokenKind::KwForall: {
    advance();
    size_t Saved = TypeVarScope.size();
    std::vector<TypeParamDecl> Params;
    if (!parseTypeParams(Params))
      return nullptr;
    std::vector<ConceptRef> Reqs;
    std::vector<TypeEquation> Eqs;
    if (consumeIf(TokenKind::KwWhere) && !parseWhereClause(Reqs, Eqs)) {
      TypeVarScope.resize(Saved);
      return nullptr;
    }
    if (!expect(TokenKind::Dot, "forall type")) {
      TypeVarScope.resize(Saved);
      return nullptr;
    }
    const Type *Body = parseType();
    TypeVarScope.resize(Saved);
    if (!Body)
      return nullptr;
    return Ctx.getForAllType(std::move(Params), std::move(Reqs),
                             std::move(Eqs), Body);
  }
  default:
    return parseTypeAtom();
  }
}

const Type *Parser::parseTypeAtom() {
  switch (tok().Kind) {
  case TokenKind::KwInt:
    advance();
    return Ctx.getIntType();
  case TokenKind::KwBool:
    advance();
    return Ctx.getBoolType();
  case TokenKind::KwList: {
    advance();
    const Type *E = parseTypeAtom();
    return E ? Ctx.getListType(E) : nullptr;
  }
  case TokenKind::LParen: {
    advance();
    const Type *First = parseType();
    if (!First)
      return nullptr;
    if (at(TokenKind::Star)) {
      std::vector<const Type *> Elems{First};
      while (consumeIf(TokenKind::Star)) {
        const Type *E = parseType();
        if (!E)
          return nullptr;
        Elems.push_back(E);
      }
      if (!expect(TokenKind::RParen, "tuple type"))
        return nullptr;
      return Ctx.getTupleType(std::move(Elems));
    }
    if (!expect(TokenKind::RParen, "parenthesized type"))
      return nullptr;
    return First;
  }
  case TokenKind::Ident: {
    std::string Name = tok().Text;
    int Var = lookupTypeVar(Name);
    if (Var >= 0) {
      advance();
      return Ctx.getParamType(static_cast<unsigned>(Var), Name);
    }
    int Concept = lookupConcept(Name);
    if (Concept >= 0) {
      ConceptRef Ref;
      if (!parseConceptRef(Ref))
        return nullptr;
      if (!expect(TokenKind::Dot, "associated type"))
        return nullptr;
      if (!at(TokenKind::Ident)) {
        errorAtToken("expected an associated type name after `.`");
        return nullptr;
      }
      std::string Member = tok().Text;
      advance();
      return Ctx.getAssocType(Ref.ConceptId, Ref.ConceptName,
                              std::move(Ref.Args), Member);
    }
    errorAtToken("unknown type name `" + Name + "`");
    return nullptr;
  }
  default:
    errorAtToken(std::string("expected a type, found ") +
                 tokenKindName(tok().Kind));
    return nullptr;
  }
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

const Term *Parser::parseExpr() {
  SourceLocation Loc = tok().Loc;
  switch (tok().Kind) {
  case TokenKind::KwLet: {
    advance();
    if (!at(TokenKind::Ident))
      return errorAtToken("expected a variable name after `let`");
    std::string Name = tok().Text;
    advance();
    if (!expect(TokenKind::Equal, "let binding"))
      return nullptr;
    const Term *Init = parseExpr();
    if (!Init || !expect(TokenKind::KwIn, "let binding"))
      return nullptr;
    const Term *Body = parseExpr();
    if (!Body)
      return nullptr;
    return Arena.makeLet(std::move(Name), Init, Body, Loc);
  }

  case TokenKind::KwFun: {
    advance();
    if (!expect(TokenKind::LParen, "function literal"))
      return nullptr;
    std::vector<ParamBinding> Params;
    if (!at(TokenKind::RParen)) {
      do {
        if (!at(TokenKind::Ident))
          return errorAtToken("expected a parameter name");
        std::string PName = tok().Text;
        advance();
        if (!expect(TokenKind::Colon, "parameter type annotation"))
          return nullptr;
        const Type *PTy = parseType();
        if (!PTy)
          return nullptr;
        Params.push_back({std::move(PName), PTy});
      } while (consumeIf(TokenKind::Comma));
    }
    if (!expect(TokenKind::RParen, "function literal") ||
        !expect(TokenKind::Dot, "function literal"))
      return nullptr;
    const Term *Body = parseExpr();
    if (!Body)
      return nullptr;
    return Arena.makeAbs(std::move(Params), Body, Loc);
  }

  case TokenKind::KwForall: {
    advance();
    size_t Saved = TypeVarScope.size();
    std::vector<TypeParamDecl> Params;
    if (!parseTypeParams(Params))
      return nullptr;
    std::vector<ConceptRef> Reqs;
    std::vector<TypeEquation> Eqs;
    if (consumeIf(TokenKind::KwWhere) && !parseWhereClause(Reqs, Eqs)) {
      TypeVarScope.resize(Saved);
      return nullptr;
    }
    if (!expect(TokenKind::Dot, "generic function")) {
      TypeVarScope.resize(Saved);
      return nullptr;
    }
    const Term *Body = parseExpr();
    TypeVarScope.resize(Saved);
    if (!Body)
      return nullptr;
    return Arena.makeTyAbs(std::move(Params), std::move(Reqs),
                           std::move(Eqs), Body, Loc);
  }

  case TokenKind::KwIf: {
    advance();
    const Term *Cond = parseExpr();
    if (!Cond || !expect(TokenKind::KwThen, "conditional"))
      return nullptr;
    const Term *Then = parseExpr();
    if (!Then || !expect(TokenKind::KwElse, "conditional"))
      return nullptr;
    const Term *Else = parseExpr();
    if (!Else)
      return nullptr;
    return Arena.makeIf(Cond, Then, Else, Loc);
  }

  case TokenKind::KwFix: {
    advance();
    const Term *Op = parseAppExpr();
    if (!Op)
      return nullptr;
    return Arena.makeFix(Op, Loc);
  }

  case TokenKind::KwNth: {
    advance();
    const Term *Tuple = parseAppExpr();
    if (!Tuple)
      return nullptr;
    if (!at(TokenKind::IntLiteral))
      return errorAtToken("expected a constant index after `nth`");
    int64_t Index = tok().IntValue;
    advance();
    if (Index < 0)
      return errorAtToken("tuple index must be non-negative");
    return Arena.makeNth(Tuple, static_cast<unsigned>(Index), Loc);
  }

  case TokenKind::KwConcept:
    advance();
    return parseConceptDecl(Loc);
  case TokenKind::KwModel:
    advance();
    return parseModelDecl(Loc);

  case TokenKind::KwType: {
    advance();
    if (!at(TokenKind::Ident))
      return errorAtToken("expected an alias name after `type`");
    std::string Name = tok().Text;
    advance();
    if (!expect(TokenKind::Equal, "type alias"))
      return nullptr;
    const Type *Aliased = parseType();
    if (!Aliased || !expect(TokenKind::KwIn, "type alias"))
      return nullptr;
    unsigned Id = Ctx.freshParamId();
    TypeVarScope.emplace_back(Name, Id);
    const Term *Body = parseExpr();
    TypeVarScope.pop_back();
    if (!Body)
      return nullptr;
    return Arena.makeTypeAlias(Id, std::move(Name), Aliased, Body, Loc);
  }

  case TokenKind::KwUse: {
    advance();
    if (!at(TokenKind::Ident))
      return errorAtToken("expected a model name after `use`");
    std::string Name = tok().Text;
    advance();
    if (!expect(TokenKind::KwIn, "use declaration"))
      return nullptr;
    const Term *Body = parseExpr();
    if (!Body)
      return nullptr;
    return Arena.makeUseModel(std::move(Name), Body, Loc);
  }

  default:
    return parseAppExpr();
  }
}

const Term *Parser::parseAppExpr() {
  const Term *E = parsePrimary();
  if (!E)
    return nullptr;
  for (;;) {
    SourceLocation Loc = tok().Loc;
    if (consumeIf(TokenKind::LParen)) {
      std::vector<const Term *> Args;
      if (!at(TokenKind::RParen)) {
        do {
          const Term *A = parseExpr();
          if (!A)
            return nullptr;
          Args.push_back(A);
        } while (consumeIf(TokenKind::Comma));
      }
      if (!expect(TokenKind::RParen, "call arguments"))
        return nullptr;
      E = Arena.makeApp(E, std::move(Args), Loc);
      continue;
    }
    if (consumeIf(TokenKind::LBracket)) {
      std::vector<const Type *> TypeArgs;
      do {
        const Type *T = parseType();
        if (!T)
          return nullptr;
        TypeArgs.push_back(T);
      } while (consumeIf(TokenKind::Comma));
      if (!expect(TokenKind::RBracket, "type arguments"))
        return nullptr;
      E = Arena.makeTyApp(E, std::move(TypeArgs), Loc);
      continue;
    }
    return E;
  }
}

const Term *Parser::parsePrimary() {
  SourceLocation Loc = tok().Loc;
  switch (tok().Kind) {
  case TokenKind::IntLiteral: {
    int64_t V = tok().IntValue;
    advance();
    return Arena.makeIntLit(V, Loc);
  }
  case TokenKind::KwTrue:
    advance();
    return Arena.makeBoolLit(true, Loc);
  case TokenKind::KwFalse:
    advance();
    return Arena.makeBoolLit(false, Loc);

  case TokenKind::Ident: {
    std::string Name = tok().Text;
    // `C<tau, ...>.x` is model member access when C names a concept.
    if (peek().is(TokenKind::Less) && lookupConcept(Name) >= 0) {
      ConceptRef Ref;
      if (!parseConceptRef(Ref))
        return nullptr;
      if (!expect(TokenKind::Dot, "model member access"))
        return nullptr;
      if (!at(TokenKind::Ident))
        return errorAtToken("expected a member name after `.`");
      std::string Member = tok().Text;
      advance();
      return Arena.makeMemberAccess(Ref.ConceptId, Ref.ConceptName,
                                    std::move(Ref.Args), std::move(Member),
                                    Loc);
    }
    advance();
    return Arena.makeVar(std::move(Name), Loc);
  }

  case TokenKind::LParen: {
    advance();
    const Term *First = parseExpr();
    if (!First)
      return nullptr;
    if (at(TokenKind::Comma)) {
      std::vector<const Term *> Elems{First};
      while (consumeIf(TokenKind::Comma)) {
        const Term *E = parseExpr();
        if (!E)
          return nullptr;
        Elems.push_back(E);
      }
      if (!expect(TokenKind::RParen, "tuple expression"))
        return nullptr;
      return Arena.makeTuple(std::move(Elems), Loc);
    }
    if (!expect(TokenKind::RParen, "parenthesized expression"))
      return nullptr;
    return First;
  }

  default:
    return errorAtToken(std::string("expected an expression, found ") +
                        tokenKindName(tok().Kind));
  }
}

//===----------------------------------------------------------------------===//
// Declarations
//===----------------------------------------------------------------------===//

const Term *Parser::parseConceptDecl(SourceLocation Loc) {
  if (!at(TokenKind::Ident))
    return errorAtToken("expected a concept name");
  std::string Name = tok().Text;
  advance();
  unsigned ConceptId = Ctx.freshConceptId();

  size_t SavedVars = TypeVarScope.size();
  if (!expect(TokenKind::Less, "concept declaration"))
    return nullptr;
  std::vector<TypeParamDecl> Params;
  if (!parseTypeParams(Params)) {
    TypeVarScope.resize(SavedVars);
    return nullptr;
  }
  if (!expect(TokenKind::Greater, "concept declaration") ||
      !expect(TokenKind::LBrace, "concept declaration")) {
    TypeVarScope.resize(SavedVars);
    return nullptr;
  }

  // The concept's own name is visible inside the body so that member
  // defaults can access sibling members via C<t>.x.
  ConceptScope.emplace_back(Name, ConceptId);

  std::vector<AssocTypeDecl> Assocs;
  std::vector<ConceptRef> Refines;
  std::vector<ConceptMember> Members;
  std::vector<TypeEquation> Equations;

  auto Cleanup = [&]() {
    TypeVarScope.resize(SavedVars);
    ConceptScope.pop_back();
  };

  while (!at(TokenKind::RBrace)) {
    SourceLocation ItemLoc = tok().Loc;
    if (consumeIf(TokenKind::KwTypes)) {
      do {
        if (!at(TokenKind::Ident)) {
          Cleanup();
          return errorAtToken("expected an associated type name");
        }
        unsigned Id = Ctx.freshParamId();
        Assocs.push_back({Id, tok().Text});
        TypeVarScope.emplace_back(tok().Text, Id);
        advance();
      } while (consumeIf(TokenKind::Comma));
      if (!expect(TokenKind::Semi, "associated type declaration")) {
        Cleanup();
        return nullptr;
      }
      continue;
    }
    if (at(TokenKind::KwRefines) || at(TokenKind::KwRequires)) {
      advance();
      if (!at(TokenKind::Ident)) {
        Cleanup();
        return errorAtToken("expected a concept name after `refines`");
      }
      ConceptRef Ref;
      if (!parseConceptRef(Ref) ||
          !expect(TokenKind::Semi, "refinement declaration")) {
        Cleanup();
        return nullptr;
      }
      Refines.push_back(std::move(Ref));
      continue;
    }
    // Member: `x : tau [= default];`  (lookahead ident ':').
    if (at(TokenKind::Ident) && peek().is(TokenKind::Colon)) {
      ConceptMember M;
      M.Name = tok().Text;
      M.Loc = ItemLoc;
      advance();
      advance(); // ':'
      M.Ty = parseType();
      if (!M.Ty) {
        Cleanup();
        return nullptr;
      }
      if (consumeIf(TokenKind::Equal)) {
        M.Default = parseExpr();
        if (!M.Default) {
          Cleanup();
          return nullptr;
        }
      }
      if (!expect(TokenKind::Semi, "concept member")) {
        Cleanup();
        return nullptr;
      }
      Members.push_back(std::move(M));
      continue;
    }
    // Otherwise: a same-type requirement `tau == tau;`.
    const Type *Lhs = parseType();
    if (!Lhs || !expect(TokenKind::EqualEqual, "same-type requirement")) {
      Cleanup();
      return nullptr;
    }
    const Type *Rhs = parseType();
    if (!Rhs || !expect(TokenKind::Semi, "same-type requirement")) {
      Cleanup();
      return nullptr;
    }
    Equations.push_back({Lhs, Rhs});
  }
  advance(); // '}'
  TypeVarScope.resize(SavedVars);

  if (!expect(TokenKind::KwIn, "concept declaration")) {
    ConceptScope.pop_back();
    return nullptr;
  }
  const Term *Body = parseExpr();
  ConceptScope.pop_back();
  if (!Body)
    return nullptr;
  return Arena.makeConceptDecl(ConceptId, std::move(Name), std::move(Params),
                               std::move(Assocs), std::move(Refines),
                               std::move(Members), std::move(Equations), Body,
                               Loc);
}

const Term *Parser::parseModelDecl(SourceLocation Loc) {
  std::optional<std::string> ModelName;
  if (consumeIf(TokenKind::LBracket)) {
    if (!at(TokenKind::Ident))
      return errorAtToken("expected a model name");
    ModelName = tok().Text;
    advance();
    if (!expect(TokenKind::RBracket, "named model declaration"))
      return nullptr;
  }
  // Parameterized model: `model forall t, ... [where reqs]. C<...>`.
  size_t SavedVars = TypeVarScope.size();
  std::vector<TypeParamDecl> Params;
  std::vector<ConceptRef> Requirements;
  std::vector<TypeEquation> Equations;
  if (consumeIf(TokenKind::KwForall)) {
    if (!parseTypeParams(Params)) {
      TypeVarScope.resize(SavedVars);
      return nullptr;
    }
    if (consumeIf(TokenKind::KwWhere) &&
        !parseWhereClause(Requirements, Equations)) {
      TypeVarScope.resize(SavedVars);
      return nullptr;
    }
    if (!expect(TokenKind::Dot, "parameterized model head")) {
      TypeVarScope.resize(SavedVars);
      return nullptr;
    }
  }
  if (!at(TokenKind::Ident)) {
    TypeVarScope.resize(SavedVars);
    return errorAtToken("expected a concept name after `model`");
  }
  ConceptRef Ref;
  if (!parseConceptRef(Ref)) {
    TypeVarScope.resize(SavedVars);
    return nullptr;
  }
  if (!expect(TokenKind::LBrace, "model declaration")) {
    TypeVarScope.resize(SavedVars);
    return nullptr;
  }

  // Pattern variables stay in scope through the member definitions.
  auto Cleanup = [&]() { TypeVarScope.resize(SavedVars); };

  std::vector<AssocBinding> AssocBindings;
  std::vector<ModelMember> Members;
  while (!at(TokenKind::RBrace)) {
    SourceLocation ItemLoc = tok().Loc;
    if (consumeIf(TokenKind::KwTypes)) {
      do {
        if (!at(TokenKind::Ident)) {
          Cleanup();
          return errorAtToken("expected an associated type name");
        }
        AssocBinding B;
        B.Name = tok().Text;
        advance();
        if (!expect(TokenKind::Equal, "associated type assignment")) {
          Cleanup();
          return nullptr;
        }
        B.Ty = parseType();
        if (!B.Ty) {
          Cleanup();
          return nullptr;
        }
        AssocBindings.push_back(std::move(B));
      } while (consumeIf(TokenKind::Comma));
      if (!expect(TokenKind::Semi, "associated type assignment")) {
        Cleanup();
        return nullptr;
      }
      continue;
    }
    if (!at(TokenKind::Ident)) {
      Cleanup();
      return errorAtToken("expected a member definition");
    }
    ModelMember M;
    M.Name = tok().Text;
    M.Loc = ItemLoc;
    advance();
    if (!expect(TokenKind::Equal, "model member definition")) {
      Cleanup();
      return nullptr;
    }
    M.Init = parseExpr();
    if (!M.Init || !expect(TokenKind::Semi, "model member definition")) {
      Cleanup();
      return nullptr;
    }
    Members.push_back(std::move(M));
  }
  advance(); // '}'
  Cleanup();
  if (!expect(TokenKind::KwIn, "model declaration"))
    return nullptr;
  const Term *Body = parseExpr();
  if (!Body)
    return nullptr;
  return Arena.makeModelDecl(Ref.ConceptId, std::move(Ref.ConceptName),
                             std::move(Ref.Args), std::move(AssocBindings),
                             std::move(Members), std::move(ModelName), Body,
                             Loc, std::move(Params), std::move(Requirements),
                             std::move(Equations));
}
