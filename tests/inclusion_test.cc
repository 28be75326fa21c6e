#include <gtest/gtest.h>

#include <random>

#include "regex/glushkov.h"
#include "regex/inclusion.h"

namespace xic {
namespace {

RegexPtr R(const std::string& text) {
  Result<RegexPtr> re = ParseContentModel(text);
  EXPECT_TRUE(re.ok()) << re.status();
  return re.value();
}

TEST(Inclusion, BasicCases) {
  EXPECT_TRUE(RegexLanguageIncluded(R("(a)"), R("(a | b)")));
  EXPECT_FALSE(RegexLanguageIncluded(R("(a | b)"), R("(a)")));
  EXPECT_TRUE(RegexLanguageIncluded(R("(a, b)"), R("(a, b?)")));
  EXPECT_FALSE(RegexLanguageIncluded(R("(a, b?)"), R("(a, b)")));
  EXPECT_TRUE(RegexLanguageIncluded(R("(a, a)"), R("(a*)")));
  EXPECT_FALSE(RegexLanguageIncluded(R("(a*)"), R("(a, a)")));
  EXPECT_TRUE(RegexLanguageIncluded(R("EMPTY"), R("(a*)")));
  EXPECT_FALSE(RegexLanguageIncluded(R("(a)"), R("EMPTY")));
  // Disjoint alphabets.
  EXPECT_FALSE(RegexLanguageIncluded(R("(a)"), R("(b)")));
}

TEST(Inclusion, WideModelPastTwoWords) {
  // B7's wide model (a0, a1*, ..., a99*) at 100 positions against its
  // all-starred widening.
  std::vector<RegexPtr> narrow_parts;
  std::vector<RegexPtr> wide_parts;
  for (int i = 0; i < 100; ++i) {
    RegexPtr symbol = Regex::Symbol("a" + std::to_string(i));
    narrow_parts.push_back(i == 0 ? symbol : Regex::Star(symbol));
    wide_parts.push_back(Regex::Star(symbol));
  }
  RegexPtr narrow = Regex::Sequence(std::move(narrow_parts));
  RegexPtr wide = Regex::Sequence(std::move(wide_parts));
  EXPECT_EQ(CompareContentModels(narrow, wide),
            ModelCompatibility::kWidening);
}

TEST(Inclusion, NondeterministicPairs) {
  // Both sides 1-ambiguous: b's sets hold several positions at once.
  EXPECT_EQ(CompareContentModels(R("((a | b)*, a, (a | b))"),
                                 R("((a | b)*, a, (a | b)*)")),
            ModelCompatibility::kWidening);
  EXPECT_EQ(CompareContentModels(R("((a, b) | (a, c))*"),
                                 R("(a, (b | c))*")),
            ModelCompatibility::kEquivalent);
}

TEST(Inclusion, ClassicEquivalences) {
  // (a | b)* == (a*, b*)*.
  EXPECT_TRUE(RegexLanguageEquivalent(R("((a | b)*)"), R("((a*, b*)*)")));
  // (a, b) | (a, c) == a, (b | c).
  EXPECT_TRUE(
      RegexLanguageEquivalent(R("((a, b) | (a, c))"), R("(a, (b | c))")));
  // a+ == a, a*.
  EXPECT_TRUE(RegexLanguageEquivalent(R("(a+)"), R("(a, a*)")));
  // But a* != a+.
  EXPECT_FALSE(RegexLanguageEquivalent(R("(a*)"), R("(a+)")));
}

TEST(Inclusion, DtdEvolutionVerdicts) {
  // Adding an optional trailing element widens.
  EXPECT_EQ(CompareContentModels(R("(title, publisher)"),
                                 R("(title, publisher, year?)")),
            ModelCompatibility::kWidening);
  // Making a required element optional widens.
  EXPECT_EQ(CompareContentModels(R("(title, publisher)"),
                                 R("(title, publisher?)")),
            ModelCompatibility::kWidening);
  // Dropping alternatives narrows.
  EXPECT_EQ(CompareContentModels(R("(text | section)"), R("(text)")),
            ModelCompatibility::kNarrowing);
  // Reordering is incomparable.
  EXPECT_EQ(CompareContentModels(R("(a, b)"), R("(b, a)")),
            ModelCompatibility::kIncomparable);
  // Syntactic variants are equivalent.
  EXPECT_EQ(CompareContentModels(R("(a?, a?)"), R("(a?, a?)")),
            ModelCompatibility::kEquivalent);
  EXPECT_STREQ(ModelCompatibilityToString(ModelCompatibility::kWidening),
               "widening");
}

TEST(Inclusion, BookModelEvolution) {
  // The paper's book model: making authors mandatory narrows; allowing
  // refs to repeat widens.
  RegexPtr original = R("(entry, author*, section*, ref)");
  EXPECT_EQ(CompareContentModels(original,
                                 R("(entry, author+, section*, ref)")),
            ModelCompatibility::kNarrowing);
  EXPECT_EQ(CompareContentModels(original,
                                 R("(entry, author*, section*, ref+)")),
            ModelCompatibility::kWidening);
  EXPECT_EQ(CompareContentModels(original, original),
            ModelCompatibility::kEquivalent);
}

// Property: inclusion verdicts agree with brute-force word enumeration.
bool NaiveMatch(const Regex& re, const std::vector<std::string>& word,
                size_t begin, size_t end) {
  switch (re.kind()) {
    case RegexKind::kEpsilon:
      return begin == end;
    case RegexKind::kSymbol:
      return end == begin + 1 && word[begin] == re.symbol();
    case RegexKind::kUnion:
      return NaiveMatch(*re.left(), word, begin, end) ||
             NaiveMatch(*re.right(), word, begin, end);
    case RegexKind::kConcat:
      for (size_t mid = begin; mid <= end; ++mid) {
        if (NaiveMatch(*re.left(), word, begin, mid) &&
            NaiveMatch(*re.right(), word, mid, end)) {
          return true;
        }
      }
      return false;
    case RegexKind::kStar:
      if (begin == end) return true;
      for (size_t mid = begin + 1; mid <= end; ++mid) {
        if (NaiveMatch(*re.inner(), word, begin, mid) &&
            NaiveMatch(re, word, mid, end)) {
          return true;
        }
      }
      return false;
  }
  return false;
}

RegexPtr RandomRegex(std::mt19937& rng, int depth) {
  std::uniform_int_distribution<int> kind(0, depth <= 0 ? 1 : 4);
  switch (kind(rng)) {
    case 0:
      return Regex::Symbol(rng() % 2 == 0 ? "a" : "b");
    case 1:
      return Regex::Epsilon();
    case 2:
      return Regex::Union(RandomRegex(rng, depth - 1),
                          RandomRegex(rng, depth - 1));
    case 3:
      return Regex::Concat(RandomRegex(rng, depth - 1),
                           RandomRegex(rng, depth - 1));
    default:
      return Regex::Star(RandomRegex(rng, depth - 1));
  }
}

class InclusionProperty : public ::testing::TestWithParam<int> {};

TEST_P(InclusionProperty, AgreesWithWordEnumeration) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 16807u);
  for (int trial = 0; trial < 40; ++trial) {
    RegexPtr a = RandomRegex(rng, 3);
    RegexPtr b = RandomRegex(rng, 3);
    bool included = RegexLanguageIncluded(a, b);
    // Enumerate all words over {a, b} up to length 5; inclusion must hold
    // exactly on the sample iff the decision procedure says so (for these
    // tiny regexes, length 5 exceeds the distinguishing bound in all but
    // adversarial cases; a found counterexample always refutes).
    bool sample_included = true;
    for (int len = 0; len <= 5 && sample_included; ++len) {
      for (int mask = 0; mask < (1 << len); ++mask) {
        std::vector<std::string> word;
        for (int i = 0; i < len; ++i) {
          word.push_back((mask >> i) & 1 ? "b" : "a");
        }
        if (NaiveMatch(*a, word, 0, word.size()) &&
            !NaiveMatch(*b, word, 0, word.size())) {
          sample_included = false;
          break;
        }
      }
    }
    if (included) {
      EXPECT_TRUE(sample_included)
          << a->ToString() << " vs " << b->ToString();
    }
    if (!sample_included) {
      EXPECT_FALSE(included) << a->ToString() << " vs " << b->ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InclusionProperty,
                         ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace xic
