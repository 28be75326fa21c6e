// Resource-limit boundaries: every limit in ResourceLimits is exercised
// exactly at the limit (must pass) and one past it (must fail with a
// structured kResourceExhausted naming the limit). Hostile inputs -- deep
// nesting, oversized documents, reference-expansion bombs -- must fail
// fast with a Status, never crash or silently truncate.

#include <string>

#include <gtest/gtest.h>

#include "analysis/analyzer.h"
#include "constraints/constraint.h"
#include "implication/l_general_solver.h"
#include "implication/lp_solver.h"
#include "model/structural_validator.h"
#include "regex/content_model.h"
#include "regex/inclusion.h"
#include "util/limits.h"
#include "xml/dtd_parser.h"
#include "xml/xml_parser.h"

namespace {

using namespace xic;

// -- CheckLimit / Status plumbing -------------------------------------------

TEST(CheckLimit, AtLimitPassesOnePastFails) {
  EXPECT_TRUE(CheckLimit(5, 5, "max_widgets", "widgets").ok());
  Status s = CheckLimit(6, 5, "max_widgets", "widgets");
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(s.limit(), "max_widgets");
  EXPECT_NE(s.message().find("max_widgets"), std::string::npos);
}

TEST(CheckLimit, ZeroMeansUnlimited) {
  EXPECT_TRUE(CheckLimit(1u << 30, 0, "max_widgets", "widgets").ok());
}

TEST(ResourceLimits, UnlimitedDisablesEverything) {
  ResourceLimits u = ResourceLimits::Unlimited();
  EXPECT_EQ(u.max_document_bytes, 0u);
  EXPECT_EQ(u.max_tree_depth, 0u);
  EXPECT_EQ(u.max_expansion_bytes, 0u);
  EXPECT_EQ(u.max_automaton_states, 0u);
}

// -- XmlParser ---------------------------------------------------------------

std::string NestedDoc(size_t depth) {
  std::string xml;
  for (size_t i = 0; i < depth; ++i) xml += "<a>";
  for (size_t i = 0; i < depth; ++i) xml += "</a>";
  return xml;
}

TEST(XmlParserLimits, TreeDepthBoundary) {
  const size_t kDepth = 40;  // root is depth 1
  std::string xml = NestedDoc(kDepth);
  XmlParseOptions at;
  at.limits = ResourceLimits::Unlimited();
  at.limits.max_tree_depth = kDepth;
  EXPECT_TRUE(ParseXml(xml, at).ok());

  XmlParseOptions past = at;
  past.limits.max_tree_depth = kDepth - 1;
  Result<XmlDocument> r = ParseXml(xml, past);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(r.status().limit(), "max_tree_depth");
}

TEST(XmlParserLimits, DeeplyNestedHostileDocumentFailsFast) {
  // 100k levels would overflow the recursive parser's stack without the
  // depth limit; with the default limits it must return a Status.
  std::string xml = NestedDoc(100'000);
  Result<XmlDocument> r = ParseXml(xml, {});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().limit(), "max_tree_depth");
}

TEST(XmlParserLimits, DocumentBytesBoundary) {
  std::string xml = "<a></a>";
  XmlParseOptions at;
  at.limits = ResourceLimits::Unlimited();
  at.limits.max_document_bytes = xml.size();
  EXPECT_TRUE(ParseXml(xml, at).ok());

  XmlParseOptions past = at;
  past.limits.max_document_bytes = xml.size() - 1;
  Result<XmlDocument> r = ParseXml(xml, past);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(r.status().limit(), "max_document_bytes");
}

TEST(XmlParserLimits, AttributesPerElementBoundary) {
  const size_t kAttrs = 10;
  std::string xml = "<a";
  for (size_t i = 0; i < kAttrs; ++i) {
    xml += " a" + std::to_string(i) + "=\"v\"";
  }
  xml += "/>";
  XmlParseOptions at;
  at.limits = ResourceLimits::Unlimited();
  at.limits.max_attributes_per_element = kAttrs;
  EXPECT_TRUE(ParseXml(xml, at).ok());

  XmlParseOptions past = at;
  past.limits.max_attributes_per_element = kAttrs - 1;
  Result<XmlDocument> r = ParseXml(xml, past);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().limit(), "max_attributes_per_element");
}

TEST(XmlParserLimits, ExpansionBytesBoundary) {
  // Each &#65; expands to one byte ("A").
  const size_t kRefs = 16;
  std::string xml = "<a>";
  for (size_t i = 0; i < kRefs; ++i) xml += "&#65;";
  xml += "</a>";
  XmlParseOptions at;
  at.limits = ResourceLimits::Unlimited();
  at.limits.max_expansion_bytes = kRefs;
  EXPECT_TRUE(ParseXml(xml, at).ok());

  XmlParseOptions past = at;
  past.limits.max_expansion_bytes = kRefs - 1;
  Result<XmlDocument> r = ParseXml(xml, past);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(r.status().limit(), "max_expansion_bytes");
}

TEST(XmlParserLimits, ExpansionBombInAttributesIsCapped) {
  // A billion-laughs-style input within this parser's model: lots of
  // character references whose expansion the budget must cap. The budget
  // is total per document, across attribute values and character data.
  std::string xml = "<a";
  for (int i = 0; i < 64; ++i) {
    std::string value;
    for (int j = 0; j < 64; ++j) value += "&#120;";
    xml += " a" + std::to_string(i) + "=\"" + value + "\"";
  }
  xml += "/>";
  XmlParseOptions options;
  options.limits = ResourceLimits::Unlimited();
  options.limits.max_expansion_bytes = 1024;  // 64*64 = 4096 would expand
  Result<XmlDocument> r = ParseXml(xml, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().limit(), "max_expansion_bytes");
}

// -- DtdParser ---------------------------------------------------------------

TEST(DtdParserLimits, SubsetBytesBoundary) {
  std::string subset = "<!ELEMENT r EMPTY>";
  DtdParseOptions at;
  at.limits = ResourceLimits::Unlimited();
  at.limits.max_document_bytes = subset.size();
  EXPECT_TRUE(ParseDtd(subset, "r", at).ok());

  DtdParseOptions past = at;
  past.limits.max_document_bytes = subset.size() - 1;
  Result<DtdStructure> r = ParseDtd(subset, "r", past);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().limit(), "max_document_bytes");
}

TEST(DtdParserLimits, ContentModelDepthBoundary) {
  // Nested groups: (((...(a)...))). Depth = number of '('.
  const size_t kDepth = 12;
  std::string model;
  for (size_t i = 0; i < kDepth; ++i) model += "(";
  model += "a";
  for (size_t i = 0; i < kDepth; ++i) model += ")";
  std::string subset = "<!ELEMENT r " + model + ">\n<!ELEMENT a EMPTY>";

  DtdParseOptions at;
  at.limits = ResourceLimits::Unlimited();
  at.limits.max_content_model_depth = kDepth;
  EXPECT_TRUE(ParseDtd(subset, "r", at).ok());

  DtdParseOptions past = at;
  past.limits.max_content_model_depth = kDepth - 1;
  Result<DtdStructure> r = ParseDtd(subset, "r", past);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(r.status().limit(), "max_content_model_depth");
}

TEST(DtdParserLimits, HostileDeepContentModelFailsFastWithDefaults) {
  std::string model;
  for (int i = 0; i < 100'000; ++i) model += "(";
  model += "a";
  for (int i = 0; i < 100'000; ++i) model += ")";
  Result<RegexPtr> r = ParseContentModel(model, /*max_depth=*/256);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().limit(), "max_content_model_depth");
}

TEST(DtdParserLimits, InternalSubsetInheritsDocumentLimits) {
  // The DOCTYPE route: document-level options govern the embedded DTD.
  std::string xml =
      "<!DOCTYPE r [<!ELEMENT r ((((a))))>\n<!ELEMENT a EMPTY>]><r><a/></r>";
  XmlParseOptions options;
  options.limits = ResourceLimits::Unlimited();
  options.limits.max_content_model_depth = 2;
  Result<XmlDocument> r = ParseXml(xml, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().limit(), "max_content_model_depth");
}

// -- Automata / inclusion ----------------------------------------------------

TEST(ValidatorLimits, AutomatonStatesBoundary) {
  // Content model (a, a, ..., a) has one Glushkov position per symbol.
  const size_t kPositions = 8;
  std::string model = "(a";
  for (size_t i = 1; i < kPositions; ++i) model += ", a";
  model += ")";
  DtdStructure dtd;
  ASSERT_TRUE(dtd.AddElement("r", model).ok());
  ASSERT_TRUE(dtd.AddElement("a", "EMPTY").ok());
  ASSERT_TRUE(dtd.SetRoot("r").ok());

  ValidationOptions at;
  at.limits = ResourceLimits::Unlimited();
  at.limits.max_automaton_states = kPositions;
  EXPECT_TRUE(StructuralValidator(dtd, at).status().ok());

  ValidationOptions past = at;
  past.limits.max_automaton_states = kPositions - 1;
  StructuralValidator capped(dtd, past);
  ASSERT_FALSE(capped.status().ok());
  EXPECT_EQ(capped.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(capped.status().limit(), "max_automaton_states");

  // Every Validate() call surfaces the construction failure.
  DataTree tree;
  tree.AddVertex("r");
  ValidationReport report = capped.Validate(tree);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.status.limit(), "max_automaton_states");
}

TEST(ValidatorLimits, NestedPlusIsCountedBeforeItIsBuilt) {
  // a+ is (a, a*) over one shared operand, so 40 nested '+' name 2^40
  // positions in a ~120-byte model. Both compilers count first and
  // return the limit without building.
  std::string model = "a";
  for (int i = 0; i < 40; ++i) model = "(" + model + ")+";
  DtdStructure dtd;
  ASSERT_TRUE(dtd.AddElement("r", "(" + model + ")").ok());
  ASSERT_TRUE(dtd.AddElement("a", "EMPTY").ok());
  ASSERT_TRUE(dtd.SetRoot("r").ok());

  StructuralValidator validator(dtd);
  EXPECT_EQ(validator.status().limit(), "max_automaton_states");
  EXPECT_EQ(validator.status().ToString(),
            "ResourceExhausted: max_automaton_states: content model of r "
            "(1099511627776 exceeds limit 65536)");

  AnalysisReport report = Analyzer().Analyze(dtd, ConstraintSet{});
  EXPECT_EQ(report.status.limit(), "max_automaton_states");
  EXPECT_EQ(report.status.ToString(),
            "ResourceExhausted: max_automaton_states: content model of r "
            "has too many positions (1099511627776 exceeds limit 65536)");
}

TEST(InclusionLimits, ProductStateCap) {
  RegexPtr a = ParseContentModel("(a | b)*").value();
  RegexPtr b = ParseContentModel("((a, b) | (b, a) | a | b)*").value();
  InclusionBounds bounds;
  bounds.max_product_states = 1;
  Result<bool> r = RegexLanguageIncludedBounded(a, b, bounds);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(r.status().limit(), "max_automaton_states");

  // Unbounded (0) still decides it.
  bounds.max_product_states = 0;
  Result<bool> full = RegexLanguageIncludedBounded(a, b, bounds);
  ASSERT_TRUE(full.ok());
  EXPECT_TRUE(full.value());
}

// -- Solver bounds -----------------------------------------------------------

TEST(SolverLimits, ChaseStepBoundIsStructured) {
  // fk a[x] <= b[k] forces the chase to create a b row; a step budget of 0
  // is exceeded on the second pass.
  ConstraintSet sigma;
  sigma.language = Language::kL;
  sigma.constraints.push_back(Constraint::ForeignKey("a", {"x"}, "b", {"k"}));
  Constraint phi = Constraint::Key("a", {"x"});
  GeneralOptions options;
  options.max_chase_steps = 0;
  GeneralResult result = ChaseImplication(sigma, phi, options);
  EXPECT_EQ(result.outcome, ImplicationOutcome::kUnknown);
  EXPECT_EQ(result.decided_by, "bounds");
  EXPECT_EQ(result.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(result.status.limit(), "max_chase_steps");
}

TEST(SolverLimits, ChaseRowBoundIsStructured) {
  ConstraintSet sigma;
  sigma.language = Language::kL;
  sigma.constraints.push_back(Constraint::ForeignKey("a", {"x"}, "b", {"k"}));
  Constraint phi = Constraint::Key("a", {"x"});
  GeneralOptions options;
  options.max_chase_rows = 1;  // the seeded tableau alone has 2 rows
  GeneralResult result = ChaseImplication(sigma, phi, options);
  EXPECT_EQ(result.outcome, ImplicationOutcome::kUnknown);
  EXPECT_EQ(result.status.limit(), "max_chase_rows");
}

TEST(SolverLimits, LpClosureCap) {
  ConstraintSet sigma;
  sigma.language = Language::kL;
  sigma.constraints.push_back(Constraint::ForeignKey("a", {"x"}, "b", {"k"}));
  sigma.constraints.push_back(Constraint::ForeignKey("b", {"k"}, "c", {"m"}));
  LpOptions options;
  options.max_closure = 1;
  LpSolver solver(sigma, options);
  ASSERT_FALSE(solver.status().ok());
  EXPECT_EQ(solver.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(solver.status().limit(), "max_closure");

  // Without the cap the same set builds fine.
  EXPECT_TRUE(LpSolver(sigma).status().ok());
}

}  // namespace
