// Property-based cross-validation:
//   * the Glushkov matcher against a naive recursive matcher,
//   * LuSolver (finite) implication against exhaustive small-model search,
//   * Theorem 3.4 (primary restriction: implication == finite implication)
//     on random primary-restricted sets,
//   * LpSolver against the chase on random primary multi-attribute sets,
//   * chase countermodels against the table-level semantics.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "implication/countermodel.h"
#include "implication/l_general_solver.h"
#include "implication/lp_solver.h"
#include "implication/lu_solver.h"
#include "regex/content_model.h"
#include "regex/glushkov.h"

namespace xic {
namespace {

// ---------------------------------------------------------------------------
// Glushkov vs naive matcher.
// ---------------------------------------------------------------------------

// Naive language membership by structural recursion (exponential, fine
// for tiny words).
bool NaiveMatch(const Regex& re, const std::vector<std::string>& word,
                size_t begin, size_t end);

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

class GlushkovProperty : public ::testing::TestWithParam<int> {};

TEST_P(GlushkovProperty, AgreesWithNaiveMatcher) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()));
  for (int trial = 0; trial < 20; ++trial) {
    RegexPtr re = RandomRegex(rng, 3);
    GlushkovAutomaton nfa(re);
    // All words over {a, b} up to length 4.
    for (int len = 0; len <= 4; ++len) {
      for (int mask = 0; mask < (1 << len); ++mask) {
        std::vector<std::string> word;
        for (int i = 0; i < len; ++i) {
          word.push_back((mask >> i) & 1 ? "b" : "a");
        }
        EXPECT_EQ(nfa.Matches(word),
                  NaiveMatch(*re, word, 0, word.size()))
            << re->ToString();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GlushkovProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

// The same comparison past one and two 64-position words: the model
// follows 70 or 140 optional fillers, so its positions, its First and
// Last rows and the fillers' Follow rows cross word boundaries.
class GlushkovPaddedProperty : public ::testing::TestWithParam<int> {};

TEST_P(GlushkovPaddedProperty, AgreesWithNaiveMatcher) {
  for (int pad : {70, 140}) {
    std::mt19937 rng(static_cast<unsigned>(GetParam()));
    const std::string first = "f0";
    const std::string last = "f" + std::to_string(pad - 1);
    for (int trial = 0; trial < 10; ++trial) {
      RegexPtr re = RandomRegex(rng, 3);
      // Right-nested, so NaiveMatch peels one filler per level.
      for (int i = pad - 1; i >= 0; --i) {
        re = Regex::Concat(
            Regex::Optional(Regex::Symbol("f" + std::to_string(i))), re);
      }
      GlushkovAutomaton nfa(re);
      for (int len = 0; len <= 4; ++len) {
        for (int mask = 0; mask < (1 << len); ++mask) {
          for (const std::vector<std::string>& prefix :
               {std::vector<std::string>{}, std::vector<std::string>{last},
                std::vector<std::string>{first, last},
                std::vector<std::string>{last, first}}) {
            std::vector<std::string> word = prefix;
            for (int i = 0; i < len; ++i) {
              word.push_back((mask >> i) & 1 ? "b" : "a");
            }
            EXPECT_EQ(nfa.Matches(word),
                      NaiveMatch(*re, word, 0, word.size()))
                << "pad " << pad << ": " << re->ToString();
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GlushkovPaddedProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---------------------------------------------------------------------------
// LuSolver vs exhaustive search.
// ---------------------------------------------------------------------------

// Random well-formed L_u set over 2 types x {a, b} single attributes and
// one set-valued attribute r. Foreign-key targets get their keys added
// (the language's well-formedness condition).
ConstraintSet RandomLuSigma(std::mt19937& rng) {
  const std::vector<std::string> types = {"t0", "t1"};
  const std::vector<std::string> single = {"a", "b"};
  ConstraintSet sigma;
  sigma.language = Language::kLu;
  auto type = [&] { return types[rng() % types.size()]; };
  auto attr = [&] { return single[rng() % single.size()]; };
  auto add = [&](const Constraint& c) {
    if (!sigma.Contains(c)) sigma.constraints.push_back(c);
  };
  int n = 1 + static_cast<int>(rng() % 4);
  for (int i = 0; i < n; ++i) {
    switch (rng() % 3) {
      case 0:
        add(Constraint::UnaryKey(type(), attr()));
        break;
      case 1: {
        Constraint fk = Constraint::UnaryForeignKey(type(), attr(), type(),
                                                    attr());
        add(Constraint::UnaryKey(fk.ref_element, fk.ref_attr()));
        add(fk);
        break;
      }
      case 2: {
        Constraint sfk =
            Constraint::SetForeignKey(type(), "r", type(), attr());
        add(Constraint::UnaryKey(sfk.ref_element, sfk.ref_attr()));
        add(sfk);
        break;
      }
    }
  }
  return sigma;
}

std::vector<Constraint> AllLuQueries() {
  const std::vector<std::string> types = {"t0", "t1"};
  const std::vector<std::string> single = {"a", "b"};
  std::vector<Constraint> out;
  for (const std::string& t : types) {
    for (const std::string& l : single) {
      out.push_back(Constraint::UnaryKey(t, l));
      for (const std::string& t2 : types) {
        for (const std::string& l2 : single) {
          out.push_back(Constraint::UnaryForeignKey(t, l, t2, l2));
          out.push_back(Constraint::SetForeignKey(t, "r", t2, l2));
        }
      }
    }
  }
  return out;
}

class LuSolverProperty : public ::testing::TestWithParam<int> {};

TEST_P(LuSolverProperty, FiniteImplicationSoundAgainstEnumeration) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 7919u);
  EnumerationBounds bounds;
  bounds.max_rows_per_type = 2;
  bounds.num_values = 2;
  int decided_not_implied_with_witness = 0;
  std::vector<Constraint> all_queries = AllLuQueries();
  for (int trial = 0; trial < 3; ++trial) {
    ConstraintSet sigma = RandomLuSigma(rng);
    LuSolver solver(sigma);
    ASSERT_TRUE(solver.status().ok()) << sigma.ToString();
    // Sample a subset of the query space per trial; the exhaustive sweep
    // is too slow to run for every (Sigma, phi) pair on every seed.
    std::vector<Constraint> queries = all_queries;
    std::shuffle(queries.begin(), queries.end(), rng);
    queries.resize(12);
    for (const Constraint& phi : queries) {
      std::optional<TableInstance> cm =
          EnumerateCountermodel(sigma, phi, bounds);
      if (solver.FinitelyImplies(phi)) {
        // Soundness: no finite countermodel may exist.
        EXPECT_FALSE(cm.has_value())
            << sigma.ToString() << "\nphi: " << phi.ToString()
            << "\ncountermodel:\n"
            << cm->ToString();
      } else if (cm.has_value()) {
        ++decided_not_implied_with_witness;
        // The witness genuinely separates Sigma from phi.
        EXPECT_TRUE(SatisfiesAll(*cm, sigma));
        EXPECT_FALSE(Satisfies(*cm, phi));
      }
      // Unrestricted implication entails finite implication.
      if (solver.Implies(phi)) {
        EXPECT_TRUE(solver.FinitelyImplies(phi)) << phi.ToString();
      }
    }
  }
  // The sweep must exercise real refutations, not just vacuous passes.
  EXPECT_GT(decided_not_implied_with_witness, 3);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LuSolverProperty,
                         ::testing::Values(1, 2, 3, 4));

// Theorem 3.4: under the primary-key restriction, implication and finite
// implication coincide.
class PrimaryLuProperty : public ::testing::TestWithParam<int> {};

TEST_P(PrimaryLuProperty, ImplicationCoincidesUnderRestriction) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 104729u);
  const std::vector<std::string> types = {"t0", "t1", "t2"};
  for (int trial = 0; trial < 30; ++trial) {
    // One key attribute per type ("a"); foreign keys from either a or b
    // into keys only.
    ConstraintSet sigma;
    sigma.language = Language::kLu;
    for (const std::string& t : types) {
      sigma.constraints.push_back(Constraint::UnaryKey(t, "a"));
    }
    int n = static_cast<int>(rng() % 5);
    for (int i = 0; i < n; ++i) {
      std::string from = types[rng() % 3];
      std::string to = types[rng() % 3];
      std::string src = rng() % 2 == 0 ? "a" : "b";
      sigma.constraints.push_back(
          Constraint::UnaryForeignKey(from, src, to, "a"));
    }
    LuSolver solver(sigma);
    ASSERT_TRUE(solver.status().ok());
    // Sources "b" are never keys here, so the restriction holds.
    ASSERT_TRUE(solver.CheckPrimaryKeyRestriction().ok())
        << sigma.ToString();
    for (const std::string& t : types) {
      for (const std::string l : {"a", "b"}) {
        for (const std::string& t2 : types) {
          Constraint fk = Constraint::UnaryForeignKey(t, l, t2, "a");
          EXPECT_EQ(solver.Implies(fk), solver.FinitelyImplies(fk))
              << sigma.ToString() << "\nphi: " << fk.ToString();
        }
        Constraint key = Constraint::UnaryKey(t, l);
        EXPECT_EQ(solver.Implies(key), solver.FinitelyImplies(key));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrimaryLuProperty,
                         ::testing::Values(1, 2, 3));

// ---------------------------------------------------------------------------
// LpSolver vs the chase (Theorem 3.8: I_p is sound and complete, and the
// chase decides the same implication problem when it terminates).
// ---------------------------------------------------------------------------

class LpChaseProperty : public ::testing::TestWithParam<int> {};

TEST_P(LpChaseProperty, AgreesWithChase) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 31337u);
  const std::vector<std::string> types = {"r0", "r1", "r2"};
  for (int trial = 0; trial < 12; ++trial) {
    // Primary keys of arity 2 with fixed attribute names per type.
    ConstraintSet sigma;
    sigma.language = Language::kL;
    for (const std::string& t : types) {
      sigma.constraints.push_back(Constraint::Key(t, {"k1", "k2"}));
    }
    int n = 1 + static_cast<int>(rng() % 3);
    for (int i = 0; i < n; ++i) {
      std::string from = types[rng() % 3];
      std::string to = types[rng() % 3];
      bool swap = rng() % 2 == 0;
      // Source attributes x1, x2 (or the key attributes themselves).
      std::vector<std::string> src =
          rng() % 2 == 0 ? std::vector<std::string>{"x1", "x2"}
                         : std::vector<std::string>{"k1", "k2"};
      std::vector<std::string> dst = swap
                                         ? std::vector<std::string>{"k2", "k1"}
                                         : std::vector<std::string>{"k1", "k2"};
      sigma.constraints.push_back(
          Constraint::ForeignKey(from, src, to, dst));
    }
    LpSolver solver(sigma);
    ASSERT_TRUE(solver.status().ok()) << sigma.ToString();
    for (const std::string& from : types) {
      for (const std::string& to : types) {
        for (bool swap : {false, true}) {
          std::vector<std::string> dst =
              swap ? std::vector<std::string>{"k2", "k1"}
                   : std::vector<std::string>{"k1", "k2"};
          Constraint phi =
              Constraint::ForeignKey(from, {"x1", "x2"}, to, dst);
          Result<bool> by_axioms = solver.Implies(phi);
          ASSERT_TRUE(by_axioms.ok());
          // Tight bounds: non-terminating chases (fresh-value cascades)
          // must fail fast; terminating ones finish well within these.
          GeneralOptions options;
          options.max_chase_steps = 400;
          options.max_chase_rows = 200;
          GeneralResult by_chase = ChaseImplication(sigma, phi, options);
          if (by_chase.outcome == ImplicationOutcome::kUnknown) continue;
          EXPECT_EQ(by_axioms.value(),
                    by_chase.outcome == ImplicationOutcome::kImplied)
              << sigma.ToString() << "\nphi: " << phi.ToString();
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpChaseProperty,
                         ::testing::Values(1, 2, 3, 4));

// ---------------------------------------------------------------------------
// Chase countermodels are genuine.
// ---------------------------------------------------------------------------

class ChaseWitnessProperty : public ::testing::TestWithParam<int> {};

TEST_P(ChaseWitnessProperty, CountermodelsSeparateSigmaFromPhi) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 65537u);
  const std::vector<std::string> types = {"r0", "r1"};
  const std::vector<std::string> attrs = {"a", "b"};
  for (int trial = 0; trial < 25; ++trial) {
    ConstraintSet sigma;
    sigma.language = Language::kL;
    int n = static_cast<int>(rng() % 3);
    for (int i = 0; i < n; ++i) {
      std::string t = types[rng() % 2];
      if (rng() % 2 == 0) {
        sigma.constraints.push_back(
            Constraint::Key(t, {attrs[rng() % 2]}));
      } else {
        std::string to = types[rng() % 2];
        std::string target = attrs[rng() % 2];
        sigma.constraints.push_back(Constraint::Key(to, {target}));
        sigma.constraints.push_back(
            Constraint::ForeignKey(t, {attrs[rng() % 2]}, to, {target}));
      }
    }
    Constraint phi =
        rng() % 2 == 0
            ? Constraint::Key(types[rng() % 2], {attrs[rng() % 2]})
            : Constraint::ForeignKey(types[rng() % 2], {attrs[rng() % 2]},
                                     types[rng() % 2], {attrs[rng() % 2]});
    GeneralOptions options;
    options.max_chase_steps = 400;
    options.max_chase_rows = 200;
    GeneralResult result = ChaseImplication(sigma, phi, options);
    if (result.outcome != ImplicationOutcome::kNotImplied) continue;
    ASSERT_TRUE(result.countermodel.has_value());
    EXPECT_TRUE(SatisfiesAll(*result.countermodel, sigma))
        << sigma.ToString() << "\n"
        << result.countermodel->ToString();
    EXPECT_FALSE(Satisfies(*result.countermodel, phi))
        << sigma.ToString() << "\nphi: " << phi.ToString() << "\n"
        << result.countermodel->ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaseWitnessProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace xic
