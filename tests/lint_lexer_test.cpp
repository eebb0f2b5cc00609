// Lexer fixtures for dcs-lint: the lexical edge cases of real C++ that a
// token-level analyzer must get right or drown in false positives — raw
// strings with custom delimiters, block comments that look nested but are
// not, preprocessor line continuations, digraphs (including the `<::`
// disambiguation), pp-numbers with separators, and UDL suffixes.
#include "lint/lexer.hpp"

#include <gtest/gtest.h>

#include "lint/include_graph.hpp"

namespace dcs::lint {
namespace {

std::vector<std::string> texts(const LexedFile& f) {
  std::vector<std::string> out;
  out.reserve(f.tokens.size());
  for (const auto& t : f.tokens) out.push_back(t.text);
  return out;
}

TEST(LintLexer, BasicTokens) {
  auto f = lex("int x = 42; foo(x);");
  EXPECT_EQ(texts(f), (std::vector<std::string>{"int", "x", "=", "42", ";",
                                                "foo", "(", "x", ")", ";"}));
  EXPECT_EQ(f.tokens[0].line, 1);
  EXPECT_EQ(f.tokens[0].col, 1);
  EXPECT_EQ(f.tokens[3].kind, TokKind::kNumber);
}

TEST(LintLexer, RawStringWithDelimiter) {
  // The `)x"` inside the body must not terminate an `x`-delimited raw
  // string prematurely; only `)xy"` does.
  auto f = lex(R"src(auto s = R"xy(contains )x" and "quotes")xy"; next)src");
  ASSERT_GE(f.tokens.size(), 5u);
  EXPECT_EQ(f.tokens[3].kind, TokKind::kString);
  EXPECT_EQ(f.tokens[3].text,
            "R\"xy(contains )x\" and \"quotes\")xy\"");
  EXPECT_EQ(f.tokens[5].text, "next");
}

TEST(LintLexer, RawStringSpansLinesWithoutEscapes) {
  auto f = lex("auto s = R\"(line1\nline2 \\n not-an-escape\n)\";\nafter");
  EXPECT_EQ(f.tokens[3].kind, TokKind::kString);
  // `after` sits on physical line 4: raw-string newlines are counted.
  EXPECT_EQ(f.tokens.back().text, "after");
  EXPECT_EQ(f.tokens.back().line, 4);
}

TEST(LintLexer, RawStringBodyIsOpaqueToRules) {
  // Words like `rand` inside a raw string are literal text, not
  // identifiers — one token, kind kString.
  auto f = lex("auto s = R\"(rand() steady_clock)\";");
  int idents = 0;
  for (const auto& t : f.tokens) {
    if (t.kind == TokKind::kIdent &&
        (t.text == "rand" || t.text == "steady_clock")) {
      ++idents;
    }
  }
  EXPECT_EQ(idents, 0);
}

TEST(LintLexer, BlockCommentsDoNotNest) {
  // C++ block comments end at the FIRST `*/`: the tail of a
  // "nested-looking" comment is live code and must be lexed.
  auto f = lex("int a; /* outer /* inner */ int b; /* again */ int c;");
  EXPECT_EQ(texts(f), (std::vector<std::string>{"int", "a", ";", "int", "b",
                                                ";", "int", "c", ";"}));
  ASSERT_EQ(f.comments.size(), 2u);
  EXPECT_EQ(f.comments[0].text, "/* outer /* inner */");
}

TEST(LintLexer, BlockCommentSpansLines) {
  auto f = lex("/* one\n two\n three */ int x;");
  ASSERT_EQ(f.comments.size(), 1u);
  EXPECT_EQ(f.comments[0].line, 1);
  EXPECT_EQ(f.comments[0].end_line, 3);
  EXPECT_EQ(f.tokens[0].line, 3);
}

TEST(LintLexer, LineContinuationInDirective) {
  // A spliced #define is ONE logical directive: tokens on the continued
  // physical line still carry in_directive and the directive name.
  auto f = lex("#define FOO(x) \\\n  bar(x)\nint after;");
  bool saw_bar_in_directive = false;
  for (const auto& t : f.tokens) {
    if (t.text == "bar") {
      saw_bar_in_directive = t.in_directive && t.directive == "define";
    }
  }
  EXPECT_TRUE(saw_bar_in_directive);
  // `after` is past the directive.
  EXPECT_FALSE(f.tokens.back().in_directive);
  const auto& intTok = f.tokens[f.tokens.size() - 3];
  EXPECT_EQ(intTok.text, "int");
  EXPECT_EQ(intTok.line, 3);
}

TEST(LintLexer, LineContinuationInsideIdentifierAndComment) {
  // Phase-2 splices happen before tokenization: `ste\<newline>ady` is one
  // identifier, and a spliced `//` comment swallows the next line.
  auto f = lex("ste\\\nady_clock;\n// comment continues \\\nstill comment\nx");
  EXPECT_EQ(f.tokens[0].text, "steady_clock");
  EXPECT_EQ(f.tokens.back().text, "x");
  ASSERT_EQ(f.comments.size(), 1u);
  EXPECT_EQ(f.comments[0].end_line, 4);
}

TEST(LintLexer, DigraphsNormalize) {
  auto f = lex("%: define X <% %> <: :>");
  auto t = texts(f);
  ASSERT_EQ(t.size(), 7u);  // # define X { } [ ]
  EXPECT_EQ(t[0], "#");
  EXPECT_TRUE(f.tokens[0].in_directive);  // %: at line start opens a directive
  EXPECT_EQ(t[3], "{");
  EXPECT_EQ(t[4], "}");
  EXPECT_EQ(t[5], "[");
  EXPECT_EQ(t[6], "]");
}

TEST(LintLexer, DigraphLessColonColonDisambiguation) {
  // `<::` followed by neither `:` nor `>` lexes as `<` then `::`, so
  // `std::vector<::Foo>` keeps its template bracket.
  auto f = lex("std::vector<::Foo> v;");
  auto t = texts(f);
  EXPECT_EQ(t, (std::vector<std::string>{"std", "::", "vector", "<", "::",
                                         "Foo", ">", "v", ";"}));
}

TEST(LintLexer, PpNumbersWithSeparatorsExponentsAndUdl) {
  auto f = lex("auto a = 1'000'000; auto b = 1.5e-3; auto c = 10ms; "
               "auto d = 0x1Fu;");
  std::vector<std::string> nums;
  for (const auto& t : f.tokens) {
    if (t.kind == TokKind::kNumber) nums.push_back(t.text);
  }
  EXPECT_EQ(nums, (std::vector<std::string>{"1'000'000", "1.5e-3", "10ms",
                                            "0x1Fu"}));
}

TEST(LintLexer, StringAndCharLiteralsWithEscapesAndUdl) {
  auto f = lex("auto s = \"a\\\"b\"sv; auto c = '\\''; auto p = u8\"x\";");
  std::vector<std::string> lits;
  for (const auto& t : f.tokens) {
    if (t.kind == TokKind::kString || t.kind == TokKind::kChar) {
      lits.push_back(t.text);
    }
  }
  EXPECT_EQ(lits, (std::vector<std::string>{"\"a\\\"b\"sv", "'\\''",
                                            "u8\"x\""}));
}

TEST(LintLexer, StringContentsAreNotIdentifiers) {
  auto f = lex("log(\"rand() inside string\"); // rand() in comment");
  for (const auto& t : f.tokens) {
    EXPECT_FALSE(t.kind == TokKind::kIdent && t.text == "rand");
  }
  ASSERT_EQ(f.comments.size(), 1u);
}

TEST(LintLexer, QualifiedCallsLexAsSeparateIdentifiers) {
  // R6 matches the callee token alone, so `std::stoull(` and `::atoi(` must
  // lex the function name as one identifier after the `::`.
  auto f = lex("n = std::stoull(s); m = ::atoi(p); k = stoull_like(q);");
  std::vector<std::string> idents;
  for (const auto& t : f.tokens) {
    if (t.kind == TokKind::kIdent) idents.push_back(t.text);
  }
  EXPECT_EQ(idents, (std::vector<std::string>{"n", "std", "stoull", "s", "m",
                                              "atoi", "p", "k", "stoull_like",
                                              "q"}));
}

TEST(LintLexer, IncludeDirectiveTokensAreMarked) {
  auto f = lex("#include <unordered_map>\n#include \"sim/engine.hpp\"\n");
  auto incs = collect_includes(f);
  ASSERT_EQ(incs.size(), 2u);
  EXPECT_EQ(incs[0].path, "unordered_map");
  EXPECT_TRUE(incs[0].angled);
  EXPECT_EQ(incs[1].path, "sim/engine.hpp");
  EXPECT_FALSE(incs[1].angled);
  // The angle-bracket operand is inside the directive, so rules that skip
  // include operands never see `unordered_map` as a free identifier.
  for (const auto& t : f.tokens) {
    if (t.text == "unordered_map") {
      EXPECT_TRUE(t.in_directive);
      EXPECT_EQ(t.directive, "include");
    }
  }
}

TEST(LintLexer, UnterminatedLiteralIsTotal) {
  // Pathological input must not hang or crash; the token simply ends.
  auto f = lex("auto s = \"never closed\nint x;");
  EXPECT_FALSE(f.tokens.empty());
  EXPECT_EQ(f.tokens.back().text, ";");
}

}  // namespace
}  // namespace dcs::lint
