// Differential suite: the ConstraintChecker's sorted-log core and the
// nested-loop reference evaluator (fuzzing/reference_checker.h) must
// report the *same* violations in the same order on every document.
// Generated documents with a tiny attribute value pool make duplicate
// keys and dangling references common, so the two evaluation strategies
// get exercised on violating inputs, not just clean ones.

#include <string>

#include <gtest/gtest.h>

#include "constraints/checker.h"
#include "constraints/constraint_parser.h"
#include "fuzzing/reference_checker.h"
#include "model/doc_generator.h"

namespace {

using namespace xic;

std::string Render(const ConstraintReport& report) {
  std::string out;
  for (const ConstraintViolation& v : report.violations) {
    out += std::to_string(v.constraint_index) + "|" + v.message + "|";
    for (VertexId w : v.witnesses) out += std::to_string(w) + ",";
    out += "|";
    for (const std::string& s : v.values) out += s + ",";
    out += "\n";
  }
  return out;
}

DtdStructure DiffDtd() {
  DtdStructure dtd;
  EXPECT_TRUE(dtd.AddElement("catalog", "(book*)").ok());
  EXPECT_TRUE(dtd.AddElement("book", "(entry, ref*)").ok());
  EXPECT_TRUE(dtd.AddElement("entry", "(#PCDATA)").ok());
  EXPECT_TRUE(dtd.AddElement("ref", "EMPTY").ok());
  EXPECT_TRUE(
      dtd.AddAttribute("entry", "isbn", AttrCardinality::kSingle).ok());
  EXPECT_TRUE(dtd.AddAttribute("ref", "main", AttrCardinality::kSingle).ok());
  EXPECT_TRUE(dtd.AddAttribute("ref", "to", AttrCardinality::kSet).ok());
  EXPECT_TRUE(dtd.SetRoot("catalog").ok());
  return dtd;
}

ConstraintSet DiffSigma() {
  return ParseConstraintSet("key entry.isbn\n"
                            "fk ref.main -> entry.isbn\n"
                            "sfk ref.to -> entry.isbn",
                            Language::kLu)
      .value();
}

TEST(CheckerDiff, CoreAndReferenceAgreeOnGeneratedDocuments) {
  DtdStructure dtd = DiffDtd();
  ConstraintSet sigma = DiffSigma();
  ConstraintChecker fast(dtd, sigma);
  size_t violating_docs = 0;
  for (uint32_t seed = 1; seed <= 25; ++seed) {
    // A 4-value pool over dozens of vertices guarantees key collisions
    // and frequent dangling references.
    DocGenerator generator(dtd, {.seed = seed,
                                 .max_depth = 6,
                                 .star_mean = 4.0,
                                 .value_pool = 4});
    ASSERT_TRUE(generator.status().ok()) << generator.status();
    Result<DataTree> tree = generator.Generate();
    ASSERT_TRUE(tree.ok()) << tree.status();
    ConstraintReport fast_report = fast.Check(tree.value());
    ConstraintReport reference_report =
        fuzz::ReferenceCheck(dtd, sigma, tree.value());
    EXPECT_EQ(Render(fast_report), Render(reference_report)) << "seed " << seed;
    if (!fast_report.ok()) ++violating_docs;
  }
  // The differential test is vacuous if no generated document violates.
  EXPECT_GT(violating_docs, 0u);
}

TEST(CheckerDiff, TripleDuplicateKeyIsReportedOncePerExtraVertex) {
  // Regression: the nested-loop evaluation used to report one violation
  // per *pair* (3 for a triple), the indexed one per extra occurrence (2).
  DtdStructure dtd = DiffDtd();
  ConstraintSet sigma = DiffSigma();
  DataTree tree;
  VertexId root = tree.AddVertex("catalog");
  for (int i = 0; i < 3; ++i) {
    VertexId book = tree.AddVertex("book");
    ASSERT_TRUE(tree.AddChildVertex(root, book).ok());
    VertexId entry = tree.AddVertex("entry");
    ASSERT_TRUE(tree.AddChildVertex(book, entry).ok());
    tree.SetAttribute(entry, "isbn", "same");
  }
  ConstraintChecker fast(dtd, sigma);
  ConstraintReport fast_report = fast.Check(tree);
  ConstraintReport reference_report = fuzz::ReferenceCheck(dtd, sigma, tree);
  EXPECT_EQ(fast_report.violations.size(), 2u);
  EXPECT_EQ(Render(fast_report), Render(reference_report));
  // Both extra occurrences are reported against the first one.
  for (const ConstraintViolation& v : fast_report.violations) {
    ASSERT_EQ(v.witnesses.size(), 2u);
    EXPECT_EQ(v.witnesses[0], fast_report.violations[0].witnesses[0]);
  }
}

TEST(CheckerDiff, DuplicatedIdValueReportedOncePerConstraint) {
  // Regression: a duplicated ID value used to yield one violation per
  // vertex of ext(tau) holding it; the witnesses already list every
  // holder, so one violation per value suffices.
  DtdStructure dtd;
  ASSERT_TRUE(dtd.AddElement("db", "(person*)").ok());
  ASSERT_TRUE(dtd.AddElement("person", "EMPTY").ok());
  ASSERT_TRUE(
      dtd.AddAttribute("person", "oid", AttrCardinality::kSingle).ok());
  ASSERT_TRUE(dtd.SetKind("person", "oid", AttrKind::kId).ok());
  ASSERT_TRUE(dtd.SetRoot("db").ok());
  ConstraintSet sigma =
      ParseConstraintSet("id person.oid", Language::kLid).value();
  DataTree tree;
  VertexId root = tree.AddVertex("db");
  for (int i = 0; i < 3; ++i) {
    VertexId person = tree.AddVertex("person");
    ASSERT_TRUE(tree.AddChildVertex(root, person).ok());
    tree.SetAttribute(person, "oid", "shared");
  }
  ConstraintChecker checker(dtd, sigma);
  ConstraintReport report = checker.Check(tree);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].witnesses.size(), 3u);
  EXPECT_EQ(report.violations[0].values,
            std::vector<std::string>{"shared"});
}

}  // namespace
