//===- syntax/Parser.h - F_G parser -----------------------------*- C++ -*-===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser for the F_G concrete syntax (Figures 4 and
/// 11, ASCII spelling).  A compilation unit is an optional module
/// header followed by one expression:
///
///   unit ::= [module m;] [import m; ...] e
///
///   e ::= let x = e in e
///       | fun(x : tau, ...). e
///       | forall t, ... [where req, ...]. e
///       | if e then e else e
///       | fix e | nth e i
///       | concept C<t, ...> { items } in e
///       | model [name] C<tau, ...> { items } in e
///       | type t = tau in e
///       | use name in e
///       | e(e, ...) | e[tau, ...] | C<tau, ...>.x
///       | x | literal | (e, ..., e)
///
///   tau ::= int | bool | list tau | fn(tau, ...) -> tau
///         | forall t, ... [where req, ...]. tau
///         | t | C<tau, ...>.s | (tau * ... * tau) | (tau)
///
///   req ::= C<tau, ...> | tau == tau
///
/// The parser resolves type-variable names to fresh parameter ids and
/// concept names to fresh concept ids, both lexically scoped, so the AST
/// it produces is fully resolved except for term variables.
///
//===----------------------------------------------------------------------===//

#ifndef FG_SYNTAX_PARSER_H
#define FG_SYNTAX_PARSER_H

#include "core/AST.h"
#include "core/Type.h"
#include "support/Diagnostics.h"
#include "support/SourceManager.h"
#include "syntax/Lexer.h"
#include <string>
#include <vector>

namespace fg {

/// The `module`/`import` header of a module file (both parts optional;
/// a plain program is a module with no header):
///
///   module <name>;
///   import <name>; ...
///   <expr>
struct ModuleHeader {
  /// True when the file opened with a `module <name>;` declaration.
  bool HasModuleDecl = false;
  std::string Name;
  /// The text's first token: where the header starts (the `module`
  /// keyword, else the first `import`) when there is one.  A malformed
  /// header has it too.
  SourceLocation Loc;

  struct Import {
    std::string Name;
    SourceLocation Loc;
  };
  std::vector<Import> Imports;

  /// True when the text has neither a `module` line nor an import.
  bool empty() const { return !HasModuleDecl && Imports.empty(); }

  /// Why source text may not have a header, whose imports resolve
  /// against the directory of the file that declares them.
  static constexpr const char *InSourceText =
      "source text cannot have a module header; compile it from a file "
      "so its imports resolve";
};

/// Names resolved at parse time that a module inherits from its
/// imports: concepts (name -> concept id) and type aliases (name ->
/// parameter id).  Entries are installed innermost-last, so later
/// imports shadow earlier ones, mirroring the declaration-spine
/// nesting the module loader produces at link time.
struct ParserSeeds {
  std::vector<std::pair<std::string, unsigned>> Concepts;
  std::vector<std::pair<std::string, unsigned>> TypeVars;
};

/// Parses F_G source text into core AST.
class Parser {
public:
  Parser(const SourceManager &SM, DiagnosticEngine &Diags, TypeContext &Ctx,
         TermArena &Arena)
      : SM(SM), Diags(Diags), Ctx(Ctx), Arena(Arena) {}

  /// Parses the registered buffer \p BufferId as one program expression.
  /// Returns null after reporting diagnostics on error.  A module header
  /// is an error at the header (ModuleHeader::InSourceText): files that
  /// declare or import modules go through the module loader
  /// (src/modules), which calls parseModule.
  const Term *parseProgram(uint32_t BufferId);

  /// Parses the registered buffer \p BufferId as one module: an
  /// optional `module <name>;` declaration, any number of
  /// `import <name>;` declarations, then the body expression.  The
  /// header lands in \p Header; \p Seeds pre-populates the lexical
  /// scopes with the names exported by the imports so that the body can
  /// reference imported concepts and type aliases.
  const Term *parseModule(uint32_t BufferId, ModuleHeader &Header,
                          const ParserSeeds &Seeds = ParserSeeds());

private:
  //===--------------------------------------------------------------===//
  // Token stream
  //===--------------------------------------------------------------===//

  const Token &tok() const { return Tokens[Pos]; }
  const Token &peek(size_t N = 1) const {
    size_t I = Pos + N;
    return Tokens[I < Tokens.size() ? I : Tokens.size() - 1];
  }
  void advance() {
    if (Pos + 1 < Tokens.size())
      ++Pos;
  }
  bool at(TokenKind K) const { return tok().Kind == K; }
  bool consumeIf(TokenKind K) {
    if (!at(K))
      return false;
    advance();
    return true;
  }
  bool expect(TokenKind K, const char *Context);

  //===--------------------------------------------------------------===//
  // Lexical scopes resolved at parse time
  //===--------------------------------------------------------------===//

  /// Returns the parameter id of type variable \p Name, or -1.
  int lookupTypeVar(const std::string &Name) const;
  /// Returns the concept id of \p Name, or -1.
  int lookupConcept(const std::string &Name) const;

  //===--------------------------------------------------------------===//
  // Grammar productions
  //===--------------------------------------------------------------===//

  const Term *parseExpr();
  const Term *parseAppExpr();
  const Term *parsePrimary();
  const Term *parseConceptDecl(SourceLocation Loc);
  const Term *parseModelDecl(SourceLocation Loc);

  const Type *parseType();
  const Type *parseTypeAtom();

  /// Parses `<tau, ...>` including the angle brackets.
  bool parseTypeArgs(std::vector<const Type *> &Out);
  /// Parses a comma-separated list of fresh type-variable binders and
  /// registers them in the type-variable scope.
  bool parseTypeParams(std::vector<TypeParamDecl> &Out);
  /// Parses `where req, ...` (the keyword must already be consumed).
  bool parseWhereClause(std::vector<ConceptRef> &Reqs,
                        std::vector<TypeEquation> &Eqs);
  /// Parses `C<tau, ...>` where the current token names a concept.
  bool parseConceptRef(ConceptRef &Out);

  std::nullptr_t errorAtToken(const std::string &Message);

  //===--------------------------------------------------------------===//
  // State
  //===--------------------------------------------------------------===//

  const SourceManager &SM;
  DiagnosticEngine &Diags;
  TypeContext &Ctx;
  TermArena &Arena;

  std::vector<Token> Tokens;
  size_t Pos = 0;

  std::vector<std::pair<std::string, unsigned>> TypeVarScope;
  std::vector<std::pair<std::string, unsigned>> ConceptScope;
};

} // namespace fg

#endif // FG_SYNTAX_PARSER_H
