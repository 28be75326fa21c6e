#include <gtest/gtest.h>
#include <pthread.h>

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "regex/content_model.h"
#include "regex/glushkov.h"

namespace xic {
namespace {

RegexPtr MustParse(const std::string& text) {
  Result<RegexPtr> r = ParseContentModel(text);
  EXPECT_TRUE(r.ok()) << r.status();
  return r.value();
}

TEST(ContentModelParser, BookDtdModels) {
  // The content models of the paper's book DTD (Section 1).
  EXPECT_EQ(MustParse("(entry, author*, section*, ref)")->ToString(),
            "entry, author*, section*, ref");
  EXPECT_EQ(MustParse("(title, publisher)")->ToString(), "title, publisher");
  EXPECT_EQ(MustParse("(title, (text|section)*)")->ToString(),
            "title, (text | section)*");
  EXPECT_EQ(MustParse("EMPTY")->kind(), RegexKind::kEpsilon);
}

TEST(ContentModelParser, PcdataIsStringSymbol) {
  RegexPtr re = MustParse("(#PCDATA)");
  EXPECT_EQ(re->kind(), RegexKind::kSymbol);
  EXPECT_EQ(re->symbol(), kStringSymbol);
}

TEST(ContentModelParser, MixedContent) {
  RegexPtr re = MustParse("(#PCDATA | b | i)*");
  EXPECT_EQ(re->kind(), RegexKind::kStar);
  std::set<std::string> symbols = re->Symbols();
  EXPECT_EQ(symbols.size(), 3u);
  EXPECT_TRUE(symbols.count(kStringSymbol));
}

TEST(ContentModelParser, PlusAndOptionalDesugar) {
  // a+ == a, a*; b? == b | EMPTY.
  RegexPtr plus = MustParse("(a+)");
  EXPECT_EQ(plus->kind(), RegexKind::kConcat);
  RegexPtr opt = MustParse("(b?)");
  EXPECT_EQ(opt->kind(), RegexKind::kUnion);
  EXPECT_TRUE(opt->Nullable());
}

TEST(ContentModelParser, Errors) {
  EXPECT_FALSE(ParseContentModel("(a,").ok());
  EXPECT_FALSE(ParseContentModel("a)").ok());
  EXPECT_FALSE(ParseContentModel("(a | )").ok());
  EXPECT_FALSE(ParseContentModel("").ok());
  EXPECT_FALSE(ParseContentModel("EMPTY extra").ok());
  EXPECT_EQ(ParseContentModel("ANY").status().code(),
            StatusCode::kNotSupported);
}

TEST(RegexAnalysis, Nullable) {
  EXPECT_TRUE(MustParse("EMPTY")->Nullable());
  EXPECT_TRUE(MustParse("(a*)")->Nullable());
  EXPECT_TRUE(MustParse("(a?, b*)")->Nullable());
  EXPECT_FALSE(MustParse("(a, b*)")->Nullable());
  EXPECT_FALSE(MustParse("(a | b)")->Nullable());
}

TEST(RegexAnalysis, OccurrenceBounds) {
  RegexPtr re = MustParse("(title, (text|section)*)");
  Regex::Bounds title = re->OccurrenceBounds("title");
  EXPECT_EQ(title.min, 1);
  EXPECT_EQ(title.max, 1);
  Regex::Bounds section = re->OccurrenceBounds("section");
  EXPECT_EQ(section.min, 0);
  EXPECT_EQ(section.max, Regex::kUnbounded);
  Regex::Bounds absent = re->OccurrenceBounds("nothere");
  EXPECT_EQ(absent.min, 0);
  EXPECT_EQ(absent.max, 0);
}

TEST(RegexAnalysis, UniqueSymbolIsTheSection34Condition) {
  // person: (name, address) -- name is a unique sub-element, so it may
  // serve as a key (Section 3.4).
  RegexPtr person = MustParse("(name, address)");
  EXPECT_TRUE(person->IsUniqueSymbol("name"));
  EXPECT_TRUE(person->IsUniqueSymbol("address"));
  // In (a | b) neither a nor b occurs in *every* word.
  RegexPtr choice = MustParse("(a | b)");
  EXPECT_FALSE(choice->IsUniqueSymbol("a"));
  // a occurs twice in (a, a).
  RegexPtr twice = MustParse("(a, a)");
  EXPECT_FALSE(twice->IsUniqueSymbol("a"));
  // In (a, (a | b)) a occurs once or twice.
  EXPECT_FALSE(MustParse("(a, (a | b))")->IsUniqueSymbol("a"));
  // In (a, b?) b is optional.
  EXPECT_FALSE(MustParse("(a, b?)")->IsUniqueSymbol("b"));
  // In ((a,b) | (b,a)) both are unique.
  RegexPtr sym = MustParse("((a,b) | (b,a))");
  EXPECT_TRUE(sym->IsUniqueSymbol("a"));
  EXPECT_TRUE(sym->IsUniqueSymbol("b"));
}

std::vector<std::string> Word(std::initializer_list<const char*> labels) {
  return std::vector<std::string>(labels.begin(), labels.end());
}

TEST(Glushkov, MatchesBookModel) {
  GlushkovAutomaton nfa(MustParse("(entry, author*, section*, ref)"));
  EXPECT_TRUE(nfa.Matches(Word({"entry", "ref"})));
  EXPECT_TRUE(nfa.Matches(Word({"entry", "author", "ref"})));
  EXPECT_TRUE(
      nfa.Matches(Word({"entry", "author", "author", "section", "ref"})));
  EXPECT_FALSE(nfa.Matches(Word({"entry"})));
  EXPECT_FALSE(nfa.Matches(Word({"ref", "entry"})));
  EXPECT_FALSE(nfa.Matches(Word({"entry", "section", "author", "ref"})));
  EXPECT_FALSE(nfa.Matches({}));
}

TEST(Glushkov, MatchesEpsilonAndStar) {
  GlushkovAutomaton empty(Regex::Epsilon());
  EXPECT_TRUE(empty.Matches({}));
  EXPECT_FALSE(empty.Matches(Word({"a"})));

  GlushkovAutomaton star(MustParse("(a*)"));
  EXPECT_TRUE(star.Matches({}));
  EXPECT_TRUE(star.Matches(Word({"a", "a", "a"})));
  EXPECT_FALSE(star.Matches(Word({"a", "b"})));
}

TEST(Glushkov, MatchesRecursiveSectionModel) {
  GlushkovAutomaton nfa(MustParse("(title, (text|section)*)"));
  EXPECT_TRUE(nfa.Matches(Word({"title"})));
  EXPECT_TRUE(nfa.Matches(Word({"title", "text", "section", "text"})));
  EXPECT_FALSE(nfa.Matches(Word({"text"})));
}

TEST(Glushkov, OneUnambiguity) {
  // (a, b) | (a, c) is the classic 1-ambiguous model.
  EXPECT_FALSE(GlushkovAutomaton(MustParse("((a, b) | (a, c))"))
                   .IsOneUnambiguous());
  // The equivalent (a, (b | c)) is deterministic.
  EXPECT_TRUE(
      GlushkovAutomaton(MustParse("(a, (b | c))")).IsOneUnambiguous());
  // Book model is deterministic.
  EXPECT_TRUE(GlushkovAutomaton(MustParse("(entry, author*, section*, ref)"))
                  .IsOneUnambiguous());
  // (a*, a) is ambiguous (follow clash).
  EXPECT_FALSE(GlushkovAutomaton(MustParse("(a*, a)")).IsOneUnambiguous());
}

TEST(Glushkov, OneUnambiguityEdgeCases) {
  // A nested optional adds no second position: still deterministic.
  GlushkovAutomaton nested(MustParse("((a?)?)"));
  EXPECT_TRUE(nested.IsOneUnambiguous());
  EXPECT_TRUE(nested.Matches({}));
  EXPECT_TRUE(nested.Matches(Word({"a"})));
  EXPECT_FALSE(nested.Matches(Word({"a", "a"})));
  // (a | a): both positions carry the same symbol in First.
  EXPECT_FALSE(GlushkovAutomaton(MustParse("((a | a))")).IsOneUnambiguous());
  // (a?, a): skipping the optional makes the first input 'a' ambiguous.
  EXPECT_FALSE(GlushkovAutomaton(MustParse("(a?, a)")).IsOneUnambiguous());
  // (a+, a): desugars to (a, a*), a with a three-way follow clash.
  EXPECT_FALSE(GlushkovAutomaton(MustParse("(a+, a)")).IsOneUnambiguous());
  // ((a | b)*, a): after reading 'a' the star may loop or exit into 'a'.
  EXPECT_FALSE(
      GlushkovAutomaton(MustParse("((a | b)*, a)")).IsOneUnambiguous());
  // ((a | b)*, c) exits on a distinct symbol: deterministic.
  EXPECT_TRUE(
      GlushkovAutomaton(MustParse("((a | b)*, c)")).IsOneUnambiguous());
  // Same-symbol positions are fine when no state reaches both.
  EXPECT_TRUE(GlushkovAutomaton(MustParse("(a, b, a)")).IsOneUnambiguous());
}

TEST(Glushkov, EmptyContentModel) {
  // EMPTY has zero positions, matches only the empty word, and is
  // trivially deterministic.
  GlushkovAutomaton nfa(MustParse("EMPTY"));
  EXPECT_EQ(nfa.num_positions(), 0u);
  EXPECT_TRUE(nfa.IsOneUnambiguous());
  EXPECT_TRUE(nfa.Matches({}));
  EXPECT_FALSE(nfa.Matches(Word({"a"})));
}

TEST(Glushkov, PositionCount) {
  EXPECT_EQ(GlushkovAutomaton(MustParse("(a, b, a)")).num_positions(), 3u);
  EXPECT_EQ(GlushkovAutomaton(Regex::Epsilon()).num_positions(), 0u);
}

// "f0?, f1?, ..., f<k-1>?, " (or without the '?').
std::string Fillers(int k, const char* suffix) {
  std::string out;
  for (int i = 0; i < k; ++i) out += "f" + std::to_string(i) + suffix + ", ";
  return out;
}

TEST(Glushkov, WitnessesPastTheFirstWords) {
  // Goldens recorded from the former std::set implementation: the lint
  // text (XIC103) quotes these positions.
  auto witness = [](const std::string& model) {
    std::optional<AmbiguityWitness> w =
        GlushkovAutomaton(MustParse(model)).OneUnambiguityWitness();
    EXPECT_TRUE(w.has_value()) << model;
    return w.value_or(AmbiguityWitness{});
  };
  // A clash in First, behind 70 optional fillers.
  AmbiguityWitness first =
      witness("(" + Fillers(70, "?") + "((a, b) | (a, c)))");
  EXPECT_EQ(first.symbol, "a");
  EXPECT_EQ(first.pos1, 70);
  EXPECT_EQ(first.pos2, 72);
  EXPECT_EQ(first.via, -1);
  // A clash in Follow(69): both b's follow the last filler.
  AmbiguityWitness follow =
      witness("(" + Fillers(70, "") + "((b, c) | (b, d)))");
  EXPECT_EQ(follow.symbol, "b");
  EXPECT_EQ(follow.pos1, 70);
  EXPECT_EQ(follow.pos2, 72);
  EXPECT_EQ(follow.via, 69);
  // Past position 128: Follow(139) holds both x's.
  AmbiguityWitness third = witness("(" + Fillers(140, "") + "(x*, x))");
  EXPECT_EQ(third.symbol, "x");
  EXPECT_EQ(third.pos1, 140);
  EXPECT_EQ(third.pos2, 141);
  EXPECT_EQ(third.via, 139);
  // Deterministic despite 133 positions.
  EXPECT_TRUE(GlushkovAutomaton(MustParse("(" + Fillers(130, "?") +
                                          "a*, b, a)"))
                  .IsOneUnambiguous());
}

TEST(Glushkov, WideRunStatesOfAmbiguousModels) {
  // After an 'a', all 20 a-positions are live: the run state outgrows
  // its inline buffers.
  std::string twenty = "a";
  for (int i = 1; i < 20; ++i) twenty += " | a";
  GlushkovAutomaton star(MustParse("((" + twenty + "), b)*"));
  EXPECT_FALSE(star.IsOneUnambiguous());
  EXPECT_TRUE(star.Matches(Word({"a", "b", "a", "b"})));
  EXPECT_FALSE(star.Matches(Word({"a", "a"})));
  EXPECT_FALSE(star.Matches(Word({"a", "b", "a"})));
  GlushkovAutomaton loop(MustParse("((" + twenty + ")*, b)"));
  EXPECT_TRUE(loop.Matches(Word({"a", "a", "a", "b"})));
  EXPECT_FALSE(loop.Matches(Word({"a", "a", "a"})));
}

TEST(Glushkov, CountPositionsCountsSharedOperandsOnce) {
  EXPECT_EQ(GlushkovAutomaton::CountPositions(*MustParse("(a, b, a)")), 3u);
  EXPECT_EQ(GlushkovAutomaton::CountPositions(*MustParse("EMPTY")), 0u);
  // a+ is (a, a*) over one shared operand: each level doubles the
  // positions, yet the count visits each node once.
  RegexPtr re = Regex::Symbol("a");
  for (int i = 0; i < 10; ++i) re = Regex::Plus(re);
  EXPECT_EQ(GlushkovAutomaton::CountPositions(*re), 1024u);
  EXPECT_EQ(GlushkovAutomaton(re).num_positions(), 1024u);
  for (int i = 10; i < 40; ++i) re = Regex::Plus(re);
  EXPECT_EQ(GlushkovAutomaton::CountPositions(*re), uint64_t{1} << 40);
  for (int i = 40; i < 80; ++i) re = Regex::Plus(re);
  EXPECT_EQ(GlushkovAutomaton::CountPositions(*re), SIZE_MAX);
}

// Runs `body` on a thread with a 256 KiB stack.
void OnSmallStack(std::function<void()> body) {
  pthread_attr_t attr;
  ASSERT_EQ(pthread_attr_init(&attr), 0);
  ASSERT_EQ(pthread_attr_setstacksize(&attr, 256 << 10), 0);
  pthread_t thread;
  ASSERT_EQ(pthread_create(
                &thread, &attr,
                [](void* arg) -> void* {
                  (*static_cast<std::function<void()>*>(arg))();
                  return nullptr;
                },
                &body),
            0);
  pthread_join(thread, nullptr);
  pthread_attr_destroy(&attr);
}

TEST(Glushkov, LongSequenceAndChoiceBuildOnASmallStack) {
  // Sequence and Choice build left-deep chains; neither the build nor
  // any Regex member may recurse along them. The 4096-element
  // expressions are made and destroyed on this thread, and their
  // automata live on the small stack; a 262144-element sequence is made,
  // analysed, rendered and destroyed there.
  std::vector<RegexPtr> names;
  std::vector<std::string> word;
  for (int i = 0; i < 4096; ++i) {
    word.push_back("e" + std::to_string(i));
    names.push_back(Regex::Symbol(word.back()));
  }
  RegexPtr sequence = Regex::Sequence(names);
  RegexPtr choice = Regex::Choice(names);
  std::vector<bool> got;
  OnSmallStack([&] {
    GlushkovAutomaton seq(sequence);
    got.push_back(seq.num_positions() == 4096);
    got.push_back(seq.IsOneUnambiguous());
    got.push_back(seq.Matches(word));
    got.push_back(!seq.Matches({word.begin(), word.end() - 1}));
    GlushkovAutomaton alt(choice);
    got.push_back(alt.IsOneUnambiguous());
    got.push_back(alt.Matches({word.back()}));
    got.push_back(!alt.Matches({word[0], word[1]}));
    std::vector<RegexPtr> parts;
    for (int i = 0; i < 262144; ++i) parts.push_back(Regex::Symbol("x"));
    RegexPtr long_sequence = Regex::Sequence(std::move(parts));
    got.push_back(GlushkovAutomaton::CountPositions(*long_sequence) ==
                  262144);
    got.push_back(!long_sequence->Nullable());
    const Regex::Bounds bounds = long_sequence->OccurrenceBounds("x");
    got.push_back(bounds.min == 262144 && bounds.max == 262144);
    const std::string text = long_sequence->ToString();
    got.push_back(text.size() == 262144 * 3 - 2 &&
                  text.compare(0, 7, "x, x, x") == 0);
    long_sequence.reset();
  });
  EXPECT_EQ(got, std::vector<bool>(11, true));
}

TEST(RegexBuilders, SequenceAndChoice) {
  EXPECT_EQ(Regex::Sequence({})->kind(), RegexKind::kEpsilon);
  RegexPtr one = Regex::Sequence({Regex::Symbol("a")});
  EXPECT_EQ(one->ToString(), "a");
  RegexPtr choice =
      Regex::Choice({Regex::Symbol("a"), Regex::Symbol("b")});
  EXPECT_EQ(choice->ToString(), "a | b");
}

}  // namespace
}  // namespace xic
