// Golden reports for trees built through the DataTree API rather than
// the XML parser. Such trees break assumptions a tokenizer-built tree
// satisfies: vertex ids out of pre-order, a vertex that was never
// attached, adjacent text children, whitespace-only text, and attribute
// set members containing spaces. StructuralValidator::Validate and
// ConstraintChecker::Check must take the tree exactly as built; the
// expected strings pin their verdicts, witnesses included.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "constraints/checker.h"
#include "model/data_tree.h"
#include "model/dtd_structure.h"
#include "model/structural_validator.h"

namespace xic {
namespace {

DtdStructure ApiDtd() {
  DtdStructure dtd;
  EXPECT_TRUE(dtd.AddElement("db", "(book*, person*, dept*)").ok());
  EXPECT_TRUE(dtd.AddElement("book", "(title, ref*)").ok());
  EXPECT_TRUE(dtd.AddElement("title", "(#PCDATA)").ok());
  EXPECT_TRUE(dtd.AddElement("ref", "EMPTY").ok());
  EXPECT_TRUE(dtd.AddElement("person", "(name, note?)").ok());
  EXPECT_TRUE(dtd.AddElement("name", "(#PCDATA | b)*").ok());
  EXPECT_TRUE(dtd.AddElement("b", "(#PCDATA)").ok());
  EXPECT_TRUE(dtd.AddElement("note", "(#PCDATA)").ok());
  EXPECT_TRUE(dtd.AddElement("dept", "EMPTY").ok());
  EXPECT_TRUE(dtd.AddAttribute("book", "isbn", AttrCardinality::kSingle).ok());
  EXPECT_TRUE(dtd.AddAttribute("book", "refs", AttrCardinality::kSet).ok());
  EXPECT_TRUE(dtd.AddAttribute("ref", "to", AttrCardinality::kSingle).ok());
  EXPECT_TRUE(dtd.AddAttribute("person", "oid", AttrCardinality::kSingle).ok());
  EXPECT_TRUE(dtd.SetKind("person", "oid", AttrKind::kId).ok());
  EXPECT_TRUE(
      dtd.AddAttribute("person", "in_dept", AttrCardinality::kSet).ok());
  EXPECT_TRUE(dtd.AddAttribute("dept", "dno", AttrCardinality::kSingle).ok());
  EXPECT_TRUE(dtd.SetKind("dept", "dno", AttrKind::kId).ok());
  EXPECT_TRUE(
      dtd.AddAttribute("dept", "has_staff", AttrCardinality::kSet).ok());
  EXPECT_TRUE(dtd.SetRoot("db").ok());
  return dtd;
}

ConstraintSet ApiSigma() {
  ConstraintSet sigma;
  sigma.language = Language::kLu;
  sigma.constraints = {
      Constraint::Key("book", {"isbn"}),
      Constraint::ForeignKey("ref", {"to"}, "book", {"isbn"}),
      Constraint::SetForeignKey("book", "refs", "book", "isbn"),
      Constraint::Key("person", {"name"}),
      Constraint::Id("person", "oid"),
      Constraint::InverseId("dept", "has_staff", "person", "in_dept"),
      Constraint::Key("person", {"note"}),
      Constraint::Id("dept", "dno"),
      Constraint::Key("book", {"title", "isbn"}),
  };
  return sigma;
}

// Ids are assigned in creation order, which here is deliberately not
// the pre-order of the finished tree.
DataTree ApiTree() {
  DataTree t;
  const VertexId db = t.AddVertex("db");          // 0
  const VertexId anna = t.AddVertex("person");    // 1, attached late
  const VertexId book1 = t.AddVertex("book");     // 2
  const VertexId title1 = t.AddVertex("title");   // 3
  const VertexId book2 = t.AddVertex("book");     // 4
  const VertexId name1 = t.AddVertex("name");     // 5
  const VertexId bold = t.AddVertex("b");         // 6
  const VertexId ref = t.AddVertex("ref");        // 7
  const VertexId title2 = t.AddVertex("title");   // 8
  const VertexId orphan = t.AddVertex("person");  // 9, never attached
  const VertexId dept = t.AddVertex("dept");      // 10
  const VertexId ghost = t.AddVertex("ghost");    // 11
  const VertexId carl = t.AddVertex("person");    // 12
  const VertexId name3 = t.AddVertex("name");     // 13
  const VertexId name2 = t.AddVertex("name");     // 14
  const VertexId ref2 = t.AddVertex("ref");       // 15

  EXPECT_TRUE(t.AddChildVertex(db, book1).ok());
  EXPECT_TRUE(t.AddChildVertex(db, book2).ok());
  EXPECT_TRUE(t.AddChildVertex(db, anna).ok());
  EXPECT_TRUE(t.AddChildVertex(db, carl).ok());
  EXPECT_TRUE(t.AddChildVertex(db, dept).ok());
  EXPECT_TRUE(t.AddChildVertex(db, ghost).ok());

  // book1: a whitespace-only text child breaks (title, ref*); a set
  // member with a space is one value, not two.
  EXPECT_TRUE(t.AddChildVertex(book1, title1).ok());
  t.AddChildText(book1, "  ");
  t.AddChildText(title1, "T");
  t.SetAttribute(book1, "isbn", "a");
  t.SetAttribute(book1, "refs", AttrValue{"a b", "c"});

  // book2: duplicate isbn, no refs; its title holds two adjacent text
  // children.
  EXPECT_TRUE(t.AddChildVertex(book2, title2).ok());
  EXPECT_TRUE(t.AddChildVertex(book2, ref).ok());
  EXPECT_TRUE(t.AddChildVertex(book2, ref2).ok());
  t.AddChildText(title2, "T");
  t.AddChildText(title2, "");
  t.SetAttribute(book2, "isbn", "a");
  t.SetAttribute(ref, "to", "zz");
  t.SetAttribute(ref, "extra", "1");
  t.AddChildText(ref, "x");
  t.AddChildText(ref, "y");
  t.SetAttribute(ref2, "to", AttrValue{"a", "b"});

  // anna: the name field is a sub-element with nested text "An"+"n"+"a".
  EXPECT_TRUE(t.AddChildVertex(anna, name1).ok());
  t.AddChildText(name1, "An");
  EXPECT_TRUE(t.AddChildVertex(name1, bold).ok());
  t.AddChildText(bold, "n");
  t.AddChildText(name1, "a");
  t.SetAttribute(anna, "oid", "p1");
  t.SetAttribute(anna, "in_dept", AttrValue{"d1"});

  // The detached person shares anna's ID and, via adjacent text
  // children, her name.
  EXPECT_TRUE(t.AddChildVertex(orphan, name2).ok());
  t.AddChildText(name2, "An");
  t.AddChildText(name2, "na");
  t.SetAttribute(orphan, "oid", "p1");
  t.SetAttribute(orphan, "in_dept", AttrValue{"d1"});

  // carl: whitespace-only name; listed in no department's staff.
  EXPECT_TRUE(t.AddChildVertex(carl, name3).ok());
  t.AddChildText(name3, " ");
  t.SetAttribute(carl, "oid", "p3");
  t.SetAttribute(carl, "in_dept", AttrValue{"d1"});

  t.SetAttribute(dept, "dno", "d1");
  t.SetAttribute(dept, "has_staff", AttrValue{"p 2", "p1"});
  t.SetAttribute(ghost, "dno", "d1");
  return t;
}

std::string Render(const ConstraintReport& report) {
  std::string out = report.status.ok() ? "" : report.status.ToString() + "\n";
  for (const ConstraintViolation& v : report.violations) {
    out += std::to_string(v.constraint_index) + "|" + v.message + "|";
    for (VertexId w : v.witnesses) out += std::to_string(w) + ",";
    out += "|";
    for (const std::string& s : v.values) out += s + ",";
    out += "\n";
  }
  return out;
}

TEST(ApiTree, ValidateGolden) {
  DtdStructure dtd = ApiDtd();
  DataTree tree = ApiTree();
  EXPECT_EQ(StructuralValidator(dtd).Validate(tree).ToString(),
            "vertex 0: children [book book person person dept ghost] do not "
            "match content model of db\n"
            "vertex 2: children [title #PCDATA] do not match content model "
            "of book\n"
            "vertex 4: missing declared attribute book.refs\n"
            "vertex 7: children [#PCDATA #PCDATA] do not match content model "
            "of ref\n"
            "vertex 7: undeclared attribute ref.extra\n"
            "vertex 8: children [#PCDATA #PCDATA] do not match content model "
            "of title\n"
            "vertex 11: undeclared element type ghost\n"
            "vertex 15: single-valued attribute ref.to holds 2 values\n");
  EXPECT_EQ(StructuralValidator(dtd, {.allow_missing_attributes = true,
                                      .max_violations = 4})
                .Validate(tree)
                .ToString(),
            "vertex 0: children [book book person person dept ghost] do not "
            "match content model of db\n"
            "vertex 2: children [title #PCDATA] do not match content model "
            "of book\n"
            "vertex 7: children [#PCDATA #PCDATA] do not match content model "
            "of ref\n"
            "vertex 7: undeclared attribute ref.extra\n");
}

TEST(ApiTree, CheckGolden) {
  DtdStructure dtd = ApiDtd();
  ConstraintSet sigma = ApiSigma();
  DataTree tree = ApiTree();
  const std::vector<std::string> lines = {
      "0|duplicate key [a]|2,4,|a,\n",
      "1|dangling reference [zz]|7,|zz,\n",
      "1|foreign-key field missing|15,|\n",
      "2|dangling reference \"a b\"|2,|a b,\n",
      "2|dangling reference \"c\"|2,|c,\n",
      "2|set-valued field missing|4,|\n",
      "3|duplicate key [Anna]|1,9,|Anna,\n",
      "4|ID value \"p1\" is not document-unique|1,9,|p1,\n",
      "5|inverse reference \"p 2\" is not a person key|10,|p 2,\n",
      "5|inverse missing: person \"p3\" references \"d1\" but not "
      "back|10,12,|p3,\n",
      "6|key field missing|1,|\n",
      "6|key field missing|9,|\n",
      "6|key field missing|12,|\n",
      "8|duplicate key [a,T]|2,4,|a,T,\n",
  };
  std::string all, first_five;
  for (size_t i = 0; i < lines.size(); ++i) {
    all += lines[i];
    if (i < 5) first_five += lines[i];
  }
  EXPECT_EQ(Render(ConstraintChecker(dtd, sigma).Check(tree)), all);
  EXPECT_EQ(Render(ConstraintChecker(dtd, sigma, {.max_violations = 5})
                       .Check(tree)),
            first_five);
}

}  // namespace
}  // namespace xic
