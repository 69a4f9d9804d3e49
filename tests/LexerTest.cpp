//===- tests/LexerTest.cpp - Lexer tests ----------------------------------===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//

#include "syntax/Lexer.h"
#include <gtest/gtest.h>

using namespace fg;

namespace {

std::vector<Token> lex(const std::string &Text, bool ExpectErrors = false) {
  SourceManager SM;
  DiagnosticEngine Diags(&SM);
  uint32_t Id = SM.addBuffer("test", Text);
  std::vector<Token> Toks = lexBuffer(SM, Id, Diags);
  EXPECT_EQ(Diags.hasErrors(), ExpectErrors) << Diags.render();
  return Toks;
}

std::vector<TokenKind> kinds(const std::string &Text) {
  std::vector<TokenKind> Out;
  for (const Token &T : lex(Text))
    Out.push_back(T.Kind);
  return Out;
}

} // namespace

TEST(LexerTest, EmptyInputYieldsEof) {
  auto K = kinds("");
  ASSERT_EQ(K.size(), 1u);
  EXPECT_EQ(K[0], TokenKind::Eof);
}

TEST(LexerTest, KeywordsAndIdentifiers) {
  auto K = kinds("let foo in concept Monoid");
  std::vector<TokenKind> Expected = {TokenKind::KwLet, TokenKind::Ident,
                                     TokenKind::KwIn, TokenKind::KwConcept,
                                     TokenKind::Ident, TokenKind::Eof};
  EXPECT_EQ(K, Expected);
}

TEST(LexerTest, GenericIsAnAliasForForall) {
  auto K = kinds("generic forall");
  EXPECT_EQ(K[0], TokenKind::KwForall);
  EXPECT_EQ(K[1], TokenKind::KwForall);
}

TEST(LexerTest, IntegerLiterals) {
  auto Toks = lex("0 42 -17 -9223372036854775808 9223372036854775807");
  ASSERT_GE(Toks.size(), 5u);
  EXPECT_EQ(Toks[0].IntValue, 0);
  EXPECT_EQ(Toks[1].IntValue, 42);
  EXPECT_EQ(Toks[2].IntValue, -17);
  EXPECT_EQ(Toks[3].IntValue, INT64_MIN);
  EXPECT_EQ(Toks[4].IntValue, INT64_MAX);
}

// The lexer is pulled one token at a time, so a caller that stops early
// (the module header scan) never reaches, or reports, what lies beyond.
TEST(LexerTest, LexesOnlyAsFarAsPulled) {
  SourceManager SM;
  DiagnosticEngine Diags(&SM);
  Lexer L(SM, SM.addBuffer("t", "module m; @ /* never closed"), Diags);
  EXPECT_EQ(L.next().Kind, TokenKind::KwModule);
  EXPECT_EQ(L.next().Text, "m");
  EXPECT_EQ(L.next().Kind, TokenKind::Semi);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.render();
  EXPECT_EQ(L.next().Kind, TokenKind::Error);
  EXPECT_EQ(Diags.getNumErrors(), 1u) << Diags.render();
  EXPECT_EQ(L.next().Kind, TokenKind::Eof);
  EXPECT_EQ(L.next().Kind, TokenKind::Eof);
  EXPECT_EQ(Diags.getNumErrors(), 2u) << Diags.render();
}

TEST(LexerTest, OversizedIntegerLiteralIsAnError) {
  for (const char *Text : {"9223372036854775808", "-9223372036854775809",
                           "99999999999999999999"}) {
    SourceManager SM;
    DiagnosticEngine Diags(&SM);
    std::vector<Token> Out = lexBuffer(SM, SM.addBuffer("t", Text), Diags);
    ASSERT_EQ(Out.size(), 2u) << Text;
    EXPECT_EQ(Out[0].Kind, TokenKind::Error) << Text;
    EXPECT_EQ(Out[0].Text, Text);
    EXPECT_NE(Diags.render().find("integer literal out of range"),
              std::string::npos)
        << Diags.render();
  }
}

TEST(LexerTest, PunctuationIncludingCompound) {
  auto K = kinds("( ) { } [ ] < > , ; : . * = == ->");
  std::vector<TokenKind> Expected = {
      TokenKind::LParen,  TokenKind::RParen,  TokenKind::LBrace,
      TokenKind::RBrace,  TokenKind::LBracket, TokenKind::RBracket,
      TokenKind::Less,    TokenKind::Greater, TokenKind::Comma,
      TokenKind::Semi,    TokenKind::Colon,   TokenKind::Dot,
      TokenKind::Star,    TokenKind::Equal,   TokenKind::EqualEqual,
      TokenKind::Arrow,   TokenKind::Eof};
  EXPECT_EQ(K, Expected);
}

TEST(LexerTest, ArrowVsMinusDigit) {
  // `->` is an arrow; `-3` is a literal.
  auto Toks = lex("-> -3");
  EXPECT_EQ(Toks[0].Kind, TokenKind::Arrow);
  EXPECT_EQ(Toks[1].Kind, TokenKind::IntLiteral);
  EXPECT_EQ(Toks[1].IntValue, -3);
}

TEST(LexerTest, EqualEqualNotSplit) {
  auto Toks = lex("a==b");
  EXPECT_EQ(Toks[1].Kind, TokenKind::EqualEqual);
}

TEST(LexerTest, LineComments) {
  auto K = kinds("a // comment with let in fix\nb");
  std::vector<TokenKind> Expected = {TokenKind::Ident, TokenKind::Ident,
                                     TokenKind::Eof};
  EXPECT_EQ(K, Expected);
}

TEST(LexerTest, NestedBlockComments) {
  auto K = kinds("a /* outer /* inner */ still out */ b");
  std::vector<TokenKind> Expected = {TokenKind::Ident, TokenKind::Ident,
                                     TokenKind::Eof};
  EXPECT_EQ(K, Expected);
}

TEST(LexerTest, UnterminatedBlockCommentReports) {
  lex("a /* never closed", /*ExpectErrors=*/true);
}

TEST(LexerTest, UnexpectedCharacterReports) {
  auto Toks = lex("a # b", /*ExpectErrors=*/true);
  EXPECT_EQ(Toks[1].Kind, TokenKind::Error);
}

TEST(LexerTest, LocationsAreAccurate) {
  auto Toks = lex("let x\n  = 1");
  EXPECT_EQ(Toks[0].Loc.Line, 1u);
  EXPECT_EQ(Toks[0].Loc.Column, 1u);
  EXPECT_EQ(Toks[1].Loc.Column, 5u);
  EXPECT_EQ(Toks[2].Loc.Line, 2u); // '='
  EXPECT_EQ(Toks[2].Loc.Column, 3u);
}

TEST(LexerTest, UnderscoreIdentifiers) {
  auto Toks = lex("binary_op _private x1");
  EXPECT_EQ(Toks[0].Kind, TokenKind::Ident);
  EXPECT_EQ(Toks[0].Text, "binary_op");
  EXPECT_EQ(Toks[1].Text, "_private");
  EXPECT_EQ(Toks[2].Text, "x1");
}

TEST(LexerTest, KeywordPrefixIsIdentifier) {
  auto Toks = lex("lettuce inn types_of");
  EXPECT_EQ(Toks[0].Kind, TokenKind::Ident);
  EXPECT_EQ(Toks[1].Kind, TokenKind::Ident);
  EXPECT_EQ(Toks[2].Kind, TokenKind::Ident);
}
