//===- tests/support_test.cpp - Unit tests for src/support ----------------===//

#include "support/Casting.h"
#include "support/Diagnostics.h"
#include "support/SourceManager.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

using namespace descend;

namespace {

//===----------------------------------------------------------------------===//
// Casting
//===----------------------------------------------------------------------===//

struct Animal {
  enum class Kind { Dog, Cat, Sphynx };
  Kind K;
  explicit Animal(Kind K) : K(K) {}
};
struct Dog : Animal {
  Dog() : Animal(Kind::Dog) {}
  static bool classof(const Animal *A) { return A->K == Kind::Dog; }
};
struct Cat : Animal {
  explicit Cat(Kind K = Kind::Cat) : Animal(K) {}
  static bool classof(const Animal *A) {
    return A->K == Kind::Cat || A->K == Kind::Sphynx;
  }
};
struct Sphynx : Cat {
  Sphynx() : Cat(Kind::Sphynx) {}
  static bool classof(const Animal *A) { return A->K == Kind::Sphynx; }
};

TEST(Casting, IsaMatchesDynamicKind) {
  Dog D;
  Sphynx S;
  Animal *AD = &D, *AS = &S;
  EXPECT_TRUE(isa<Dog>(AD));
  EXPECT_FALSE(isa<Cat>(AD));
  EXPECT_TRUE(isa<Cat>(AS));
  EXPECT_TRUE(isa<Sphynx>(AS));
  EXPECT_TRUE((isa<Dog, Cat>(AS)));
  EXPECT_FALSE((isa<Dog, Sphynx>(static_cast<Animal *>(&D))) == false);
}

TEST(Casting, DynCastReturnsNullOnMismatch) {
  Dog D;
  Animal *A = &D;
  EXPECT_EQ(dyn_cast<Cat>(A), nullptr);
  EXPECT_NE(dyn_cast<Dog>(A), nullptr);
  EXPECT_EQ(dyn_cast_if_present<Dog>(static_cast<Animal *>(nullptr)), nullptr);
  EXPECT_FALSE(isa_and_present<Dog>(static_cast<Animal *>(nullptr)));
}

TEST(Casting, CastPreservesConstness) {
  const Sphynx S;
  const Animal *A = &S;
  const Cat *C = cast<Cat>(A);
  EXPECT_EQ(C, &S);
}

//===----------------------------------------------------------------------===//
// SourceManager
//===----------------------------------------------------------------------===//

TEST(SourceManager, LineColumnResolution) {
  SourceManager SM;
  uint32_t Id = SM.addBuffer("a.descend", "fn foo() {\n  let x = 1;\n}\n");
  EXPECT_EQ(Id, 1u);
  PresumedLoc P = SM.presumed(SourceLoc(Id, 0));
  EXPECT_EQ(P.Line, 1u);
  EXPECT_EQ(P.Column, 1u);
  // Offset of 'l' in "let".
  P = SM.presumed(SourceLoc(Id, 13));
  EXPECT_EQ(P.Line, 2u);
  EXPECT_EQ(P.Column, 3u);
  EXPECT_EQ(SM.lineContaining(SourceLoc(Id, 13)), "  let x = 1;");
}

TEST(SourceManager, MultipleBuffers) {
  SourceManager SM;
  uint32_t A = SM.addBuffer("a", "aaa");
  uint32_t B = SM.addBuffer("b", "b\nbb");
  EXPECT_EQ(SM.bufferName(A), "a");
  EXPECT_EQ(SM.bufferText(B), "b\nbb");
  EXPECT_EQ(SM.presumed(SourceLoc(B, 2)).Line, 2u);
}

TEST(SourceManager, LastLineWithoutNewline) {
  SourceManager SM;
  uint32_t Id = SM.addBuffer("x", "one\ntwo");
  EXPECT_EQ(SM.lineContaining(SourceLoc(Id, 5)), "two");
}

//===----------------------------------------------------------------------===//
// Diagnostics
//===----------------------------------------------------------------------===//

TEST(Diagnostics, CountsErrorsAndFindsCodes) {
  SourceManager SM;
  uint32_t Id = SM.addBuffer("k.descend", "arr[[thread]] = arr.rev[[thread]];");
  DiagnosticEngine DE(SM);
  EXPECT_FALSE(DE.hasErrors());
  DE.error(DiagCode::ConflictingMemoryAccess,
           SourceRange(SourceLoc(Id, 0), SourceLoc(Id, 13)),
           "conflicting memory access")
      .note(SourceRange(SourceLoc(Id, 16), SourceLoc(Id, 33)),
            "cannot select memory because of a conflicting prior selection "
            "here");
  EXPECT_TRUE(DE.hasErrors());
  EXPECT_EQ(DE.errorCount(), 1u);
  EXPECT_TRUE(DE.contains(DiagCode::ConflictingMemoryAccess));
  EXPECT_FALSE(DE.contains(DiagCode::BarrierNotAllowed));
}

TEST(Diagnostics, RenderShowsSnippetAndCarets) {
  SourceManager SM;
  uint32_t Id = SM.addBuffer("k.descend", "arr[[thread]] = arr.rev[[thread]];");
  DiagnosticEngine DE(SM);
  DE.error(DiagCode::ConflictingMemoryAccess,
           SourceRange(SourceLoc(Id, 0), SourceLoc(Id, 13)),
           "conflicting memory access");
  std::string R = DE.renderAll();
  EXPECT_NE(R.find("error: conflicting memory access"), std::string::npos);
  EXPECT_NE(R.find("k.descend:1:1"), std::string::npos);
  EXPECT_NE(R.find("^^^^^^^^^^^^^"), std::string::npos);
}

TEST(Diagnostics, WarningsAreNotErrors) {
  SourceManager SM;
  DiagnosticEngine DE(SM);
  DE.warning(DiagCode::NatCannotProve, SourceRange(), "might not hold");
  EXPECT_FALSE(DE.hasErrors());
  EXPECT_EQ(DE.all().size(), 1u);
}

TEST(Diagnostics, HeadlinesMatchPaperErrorMessages) {
  EXPECT_STREQ(diagCodeHeadline(DiagCode::ConflictingMemoryAccess),
               "conflicting memory access");
  EXPECT_STREQ(diagCodeHeadline(DiagCode::BarrierNotAllowed),
               "barrier not allowed here");
  EXPECT_STREQ(diagCodeHeadline(DiagCode::MismatchedTypes),
               "mismatched types");
  EXPECT_STREQ(diagCodeHeadline(DiagCode::CannotDereference),
               "cannot dereference");
}

//===----------------------------------------------------------------------===//
// StringUtils
//===----------------------------------------------------------------------===//

TEST(StringUtils, Strfmt) {
  EXPECT_EQ(strfmt("%d + %s", 3, "x"), "3 + x");
  EXPECT_EQ(strfmt("empty"), "empty");
}

TEST(StringUtils, JoinSplitTrimReplace) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  auto Parts = split("a,b,,c", ',');
  ASSERT_EQ(Parts.size(), 4u);
  EXPECT_EQ(Parts[2], "");
  EXPECT_EQ(trim("  x \n"), "x");
  EXPECT_EQ(replaceAll("aXbXc", "X", "__"), "a__b__c");
}

TEST(StringUtils, JsonEscape) {
  EXPECT_EQ(jsonEscape("plain/path.descend"), "plain/path.descend");
  EXPECT_EQ(jsonEscape("a\"b\\c\nd\x01"), "a\\\"b\\\\c\\u000ad\\u0001");
}

} // namespace
