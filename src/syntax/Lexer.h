//===- syntax/Lexer.h - F_G lexer -------------------------------*- C++ -*-===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tokenizer for the F_G concrete syntax.  The syntax follows the
/// paper's figures with ASCII spellings: `forall` for the capital
/// lambda, `fun` for lambda, `->` in function types, `==` for same-type
/// constraints, and `//` line comments plus `/* */` block comments.
///
//===----------------------------------------------------------------------===//

#ifndef FG_SYNTAX_LEXER_H
#define FG_SYNTAX_LEXER_H

#include "support/Diagnostics.h"
#include "support/SourceLocation.h"
#include "support/SourceManager.h"
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace fg {

/// Token kinds of the F_G surface syntax.
enum class TokenKind : uint8_t {
  Eof,
  Error,
  Ident,
  IntLiteral,
  // Keywords.
  KwLet,
  KwIn,
  KwFun,
  KwForall,
  KwWhere,
  KwIf,
  KwThen,
  KwElse,
  KwFix,
  KwNth,
  KwTrue,
  KwFalse,
  KwConcept,
  KwModel,
  KwRefines,
  KwRequires,
  KwTypes,
  KwType,
  KwUse,
  KwModule,
  KwImport,
  KwInt,
  KwBool,
  KwList,
  KwFn,
  // Punctuation.
  LParen,
  RParen,
  LBrace,
  RBrace,
  LBracket,
  RBracket,
  Less,
  Greater,
  Comma,
  Semi,
  Colon,
  Dot,
  Star,
  Equal,
  EqualEqual,
  Arrow,
};

/// Returns a human-readable spelling for diagnostics.
const char *tokenKindName(TokenKind K);

/// One lexed token.
struct Token {
  TokenKind Kind = TokenKind::Eof;
  std::string Text;
  int64_t IntValue = 0;
  SourceLocation Loc;

  bool is(TokenKind K) const { return Kind == K; }
};

/// A resumable tokenizer over one registered source buffer: each next()
/// lexes one more token, so a caller that needs only a prefix of the
/// buffer (the module header scan) stops early and never reads the
/// rest.  Errors are reported to the DiagnosticEngine and yield Error
/// tokens; once the buffer is exhausted every call returns Eof.  The
/// lexer views the buffer's text, so no buffer may be added to \p SM
/// while it is in use.
class Lexer {
public:
  Lexer(const SourceManager &SM, uint32_t BufferId, DiagnosticEngine &Diags)
      : SM(SM), BufferId(BufferId), Diags(Diags),
        Text(SM.getBufferText(BufferId)) {}

  Token next();

private:
  SourceLocation locAt(size_t Offset) const {
    return SM.getLocation(BufferId, Offset);
  }
  Token make(TokenKind K, size_t Begin) const;

  const SourceManager &SM;
  uint32_t BufferId;
  DiagnosticEngine &Diags;
  std::string_view Text;
  size_t Pos = 0;
};

/// Lexes a registered source buffer into a token vector (plus a final
/// Eof token) by draining a Lexer.
std::vector<Token> lexBuffer(const SourceManager &SM, uint32_t BufferId,
                             DiagnosticEngine &Diags);

} // namespace fg

#endif // FG_SYNTAX_LEXER_H
