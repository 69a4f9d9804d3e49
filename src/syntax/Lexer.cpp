//===- syntax/Lexer.cpp - F_G lexer ---------------------------------------===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//

#include "syntax/Lexer.h"
#include "support/Stats.h"
#include <cctype>
#include <charconv>
#include <unordered_map>

using namespace fg;

const char *fg::tokenKindName(TokenKind K) {
  switch (K) {
  case TokenKind::Eof:
    return "end of input";
  case TokenKind::Error:
    return "invalid token";
  case TokenKind::Ident:
    return "identifier";
  case TokenKind::IntLiteral:
    return "integer literal";
  case TokenKind::KwLet:
    return "'let'";
  case TokenKind::KwIn:
    return "'in'";
  case TokenKind::KwFun:
    return "'fun'";
  case TokenKind::KwForall:
    return "'forall'";
  case TokenKind::KwWhere:
    return "'where'";
  case TokenKind::KwIf:
    return "'if'";
  case TokenKind::KwThen:
    return "'then'";
  case TokenKind::KwElse:
    return "'else'";
  case TokenKind::KwFix:
    return "'fix'";
  case TokenKind::KwNth:
    return "'nth'";
  case TokenKind::KwTrue:
    return "'true'";
  case TokenKind::KwFalse:
    return "'false'";
  case TokenKind::KwConcept:
    return "'concept'";
  case TokenKind::KwModel:
    return "'model'";
  case TokenKind::KwRefines:
    return "'refines'";
  case TokenKind::KwRequires:
    return "'requires'";
  case TokenKind::KwTypes:
    return "'types'";
  case TokenKind::KwType:
    return "'type'";
  case TokenKind::KwUse:
    return "'use'";
  case TokenKind::KwModule:
    return "'module'";
  case TokenKind::KwImport:
    return "'import'";
  case TokenKind::KwInt:
    return "'int'";
  case TokenKind::KwBool:
    return "'bool'";
  case TokenKind::KwList:
    return "'list'";
  case TokenKind::KwFn:
    return "'fn'";
  case TokenKind::LParen:
    return "'('";
  case TokenKind::RParen:
    return "')'";
  case TokenKind::LBrace:
    return "'{'";
  case TokenKind::RBrace:
    return "'}'";
  case TokenKind::LBracket:
    return "'['";
  case TokenKind::RBracket:
    return "']'";
  case TokenKind::Less:
    return "'<'";
  case TokenKind::Greater:
    return "'>'";
  case TokenKind::Comma:
    return "','";
  case TokenKind::Semi:
    return "';'";
  case TokenKind::Colon:
    return "':'";
  case TokenKind::Dot:
    return "'.'";
  case TokenKind::Star:
    return "'*'";
  case TokenKind::Equal:
    return "'='";
  case TokenKind::EqualEqual:
    return "'=='";
  case TokenKind::Arrow:
    return "'->'";
  }
  return "token";
}

static const std::unordered_map<std::string, TokenKind> &keywordTable() {
  static const std::unordered_map<std::string, TokenKind> Table = {
      {"let", TokenKind::KwLet},         {"in", TokenKind::KwIn},
      {"fun", TokenKind::KwFun},         {"forall", TokenKind::KwForall},
      {"generic", TokenKind::KwForall},  {"where", TokenKind::KwWhere},
      {"if", TokenKind::KwIf},           {"then", TokenKind::KwThen},
      {"else", TokenKind::KwElse},       {"fix", TokenKind::KwFix},
      {"nth", TokenKind::KwNth},         {"true", TokenKind::KwTrue},
      {"false", TokenKind::KwFalse},     {"concept", TokenKind::KwConcept},
      {"model", TokenKind::KwModel},     {"refines", TokenKind::KwRefines},
      {"requires", TokenKind::KwRequires}, {"types", TokenKind::KwTypes},
      {"type", TokenKind::KwType},       {"use", TokenKind::KwUse},
      {"module", TokenKind::KwModule},   {"import", TokenKind::KwImport},
      {"int", TokenKind::KwInt},         {"bool", TokenKind::KwBool},
      {"list", TokenKind::KwList},       {"fn", TokenKind::KwFn},
  };
  return Table;
}

Token Lexer::make(TokenKind K, size_t Begin) const {
  Token T;
  T.Kind = K;
  T.Text = std::string(Text.substr(Begin, Pos - Begin));
  T.Loc = locAt(Begin);
  return T;
}

Token Lexer::next() {
  size_t &I = Pos;
  size_t E = Text.size();
  while (I < E) {
    char C = Text[I];
    if (std::isspace(static_cast<unsigned char>(C))) {
      ++I;
      continue;
    }
    // Comments.
    if (C == '/' && I + 1 < E && Text[I + 1] == '/') {
      while (I < E && Text[I] != '\n')
        ++I;
      continue;
    }
    if (C == '/' && I + 1 < E && Text[I + 1] == '*') {
      size_t Begin = I;
      I += 2;
      unsigned Depth = 1;
      while (I < E && Depth) {
        if (Text[I] == '*' && I + 1 < E && Text[I + 1] == '/') {
          --Depth;
          I += 2;
        } else if (Text[I] == '/' && I + 1 < E && Text[I + 1] == '*') {
          ++Depth;
          I += 2;
        } else {
          ++I;
        }
      }
      if (Depth)
        Diags.error(SourceRange(locAt(Begin), locAt(I)),
                    "unterminated block comment");
      continue;
    }
    size_t Begin = I;
    // Identifiers and keywords.
    if (std::isalpha(static_cast<unsigned char>(C)) || C == '_') {
      while (I < E && (std::isalnum(static_cast<unsigned char>(Text[I])) ||
                       Text[I] == '_'))
        ++I;
      Token T = make(TokenKind::Ident, Begin);
      auto It = keywordTable().find(T.Text);
      if (It != keywordTable().end())
        T.Kind = It->second;
      return T;
    }
    // Integer literals (optionally negative), checked for overflow.
    bool NegativeLiteral =
        C == '-' && I + 1 < E &&
        std::isdigit(static_cast<unsigned char>(Text[I + 1]));
    if (std::isdigit(static_cast<unsigned char>(C)) || NegativeLiteral) {
      if (NegativeLiteral)
        ++I;
      while (I < E && std::isdigit(static_cast<unsigned char>(Text[I])))
        ++I;
      Token T = make(TokenKind::IntLiteral, Begin);
      if (std::from_chars(Text.data() + Begin, Text.data() + I, T.IntValue)
              .ec != std::errc()) {
        Diags.error(T.Loc, "integer literal out of range");
        T.Kind = TokenKind::Error;
      }
      return T;
    }
    // Punctuation.
    auto single = [&](TokenKind K) {
      ++I;
      return make(K, Begin);
    };
    switch (C) {
    case '(':
      return single(TokenKind::LParen);
    case ')':
      return single(TokenKind::RParen);
    case '{':
      return single(TokenKind::LBrace);
    case '}':
      return single(TokenKind::RBrace);
    case '[':
      return single(TokenKind::LBracket);
    case ']':
      return single(TokenKind::RBracket);
    case '<':
      return single(TokenKind::Less);
    case '>':
      return single(TokenKind::Greater);
    case ',':
      return single(TokenKind::Comma);
    case ';':
      return single(TokenKind::Semi);
    case ':':
      return single(TokenKind::Colon);
    case '.':
      return single(TokenKind::Dot);
    case '*':
      return single(TokenKind::Star);
    case '=':
      if (I + 1 < E && Text[I + 1] == '=') {
        I += 2;
        return make(TokenKind::EqualEqual, Begin);
      }
      return single(TokenKind::Equal);
    case '-':
      if (I + 1 < E && Text[I + 1] == '>') {
        I += 2;
        return make(TokenKind::Arrow, Begin);
      }
      [[fallthrough]];
    default:
      Diags.error(locAt(Begin), std::string("unexpected character `") + C +
                                    "`");
      return single(TokenKind::Error);
    }
  }

  Token Eof;
  Eof.Kind = TokenKind::Eof;
  Eof.Loc = locAt(E);
  return Eof;
}

std::vector<Token> fg::lexBuffer(const SourceManager &SM, uint32_t BufferId,
                                 DiagnosticEngine &Diags) {
  stats::ScopedTimer Timer("lexer.lex");
  Lexer L(SM, BufferId, Diags);
  std::vector<Token> Tokens;
  do
    Tokens.push_back(L.next());
  while (!Tokens.back().is(TokenKind::Eof));
  return Tokens;
}
