#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "model/structural_validator.h"
#include "xml/dtd_parser.h"
#include "xml/serializer.h"
#include "xml/xml_parser.h"

namespace xic {
namespace {

// The paper's book document (Section 1), with the DTD as internal subset.
const char* kBookXml = R"(<?xml version="1.0"?>
<!DOCTYPE book [
  <!ELEMENT book     (entry, author*, section*, ref)>
  <!ELEMENT entry    (title, publisher)>
  <!ATTLIST entry    isbn   CDATA   #REQUIRED>
  <!ELEMENT title    (#PCDATA)>
  <!ELEMENT publisher (#PCDATA)>
  <!ELEMENT author   (#PCDATA)>
  <!ELEMENT text     (#PCDATA)>
  <!ELEMENT section  (title, (text|section)*)>
  <!ATTLIST section  sid    ID      #REQUIRED>
  <!ELEMENT ref      EMPTY>
  <!ATTLIST ref      to     IDREFS  #IMPLIED>
]>
<book>
  <entry isbn="1-55860-622-X">
    <title>Data on the Web</title>
    <publisher>Morgan Kaufmann</publisher>
  </entry>
  <author>Serge Abiteboul</author>
  <author>Peter Buneman</author>
  <section sid="s1">
    <title>Introduction</title>
    <text>Web data...</text>
    <section sid="s1.1">
      <title>Audience</title>
    </section>
  </section>
  <ref to="1-55860-622-X 1-55860-000-0"/>
</book>
)";

TEST(XmlParser, ParsesBookDocument) {
  Result<XmlDocument> doc = ParseXml(kBookXml);
  ASSERT_TRUE(doc.ok()) << doc.status();
  const DataTree& t = doc.value().tree;
  EXPECT_EQ(doc.value().doctype_name, "book");
  ASSERT_TRUE(doc.value().dtd.has_value());
  EXPECT_EQ(t.label(t.root()), "book");
  EXPECT_EQ(t.Extent("author").size(), 2u);
  EXPECT_EQ(t.Extent("section").size(), 2u);
  // IDREFS value tokenized into a set of two.
  VertexId ref = t.Extent("ref")[0];
  EXPECT_EQ(t.Attribute(ref, "to").value().size(), 2u);
  EXPECT_TRUE(t.Attribute(ref, "to").value().count("1-55860-622-X"));
}

TEST(XmlParser, DocumentValidatesAgainstItsInternalSubset) {
  Result<XmlDocument> doc = ParseXml(kBookXml);
  ASSERT_TRUE(doc.ok());
  StructuralValidator validator(*doc.value().dtd,
                                {.allow_missing_attributes = true});
  ValidationReport report = validator.Validate(doc.value().tree);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(XmlParser, TextAndEntities) {
  Result<XmlDocument> doc = ParseXml(
      "<a x=\"1 &lt; 2\">Tom &amp; Jerry &#65;&#x42;</a>");
  ASSERT_TRUE(doc.ok()) << doc.status();
  const DataTree& t = doc.value().tree;
  ASSERT_EQ(t.children(t.root()).size(), 1u);
  EXPECT_EQ(std::get<std::string>(t.children(t.root())[0]),
            "Tom & Jerry AB");
  EXPECT_EQ(t.SingleAttribute(t.root(), "x").value(), "1 < 2");
}

TEST(XmlParser, CdataAndComments) {
  Result<XmlDocument> doc =
      ParseXml("<a><!-- note --><![CDATA[<raw> & stuff]]></a>");
  ASSERT_TRUE(doc.ok()) << doc.status();
  const DataTree& t = doc.value().tree;
  ASSERT_EQ(t.children(t.root()).size(), 1u);
  EXPECT_EQ(std::get<std::string>(t.children(t.root())[0]),
            "<raw> & stuff");
}

TEST(XmlParser, SelfClosingAndNesting) {
  Result<XmlDocument> doc = ParseXml("<a><b/><c><d/></c></a>");
  ASSERT_TRUE(doc.ok());
  const DataTree& t = doc.value().tree;
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.ChildWord(t.root()), (std::vector<std::string>{"b", "c"}));
}

TEST(XmlParser, WhitespaceHandling) {
  Result<XmlDocument> kept =
      ParseXml("<a> <b/> </a>", {.skip_ignorable_whitespace = false});
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(kept.value().tree.children(kept.value().tree.root()).size(), 3u);
  Result<XmlDocument> skipped = ParseXml("<a> <b/> </a>");
  ASSERT_TRUE(skipped.ok());
  EXPECT_EQ(
      skipped.value().tree.children(skipped.value().tree.root()).size(), 1u);
}

TEST(XmlParser, Errors) {
  EXPECT_FALSE(ParseXml("").ok());
  EXPECT_FALSE(ParseXml("<a>").ok());                  // unterminated
  EXPECT_FALSE(ParseXml("<a></b>").ok());              // mismatched tags
  EXPECT_FALSE(ParseXml("<a x=1/>").ok());             // unquoted attribute
  EXPECT_FALSE(ParseXml("<a>&unknown;</a>").ok());     // unknown entity
  EXPECT_FALSE(ParseXml("<a/><b/>").ok());             // two roots
  EXPECT_FALSE(ParseXml("text only").ok());
  // Errors carry line/column info.
  Status s = ParseXml("<a>\n  <b>\n</a>").status();
  EXPECT_NE(s.message().find("line 3"), std::string::npos) << s;
}

// Every distinct XML error message, pinned to its exact status text and
// position. The tokenizer renders all of them; this table catches wording
// or position drift that a parity test (one grammar against itself)
// cannot.
TEST(XmlParser, ErrorMessagesGolden) {
  const std::pair<const char*, const char*> cases[] = {
      {"<?xml version=\"1.0\"",
       "unterminated XML declaration at line 1, column 1"},
      {"<!DOCTYPE >", "expected name at line 1, column 11"},
      {"<!DOCTYPE r SYSTEM \"x.dtd><r/>",
       "unterminated literal in DOCTYPE at line 1, column 20"},
      {"<!DOCTYPE r [<!ELEMENT r ANY>",
       "unterminated internal subset at line 1, column 14"},
      {"<!DOCTYPE r x><r/>", "expected '>' closing DOCTYPE at line 1, column 13"},
      {"<r>text", "unterminated element r at line 1, column 8"},
      {"<r><!-- x", "unterminated comment at line 1, column 4"},
      {"<r><?pi x", "unterminated PI at line 1, column 4"},
      {"<r>a]]>b</r>", "']]>' not allowed in content at line 1, column 5"},
      {"<r><![CDATA[x</r>", "unterminated CDATA at line 1, column 4"},
      {"<r>&amp</r>", "malformed entity reference at line 1, column 4"},
      {"<r>&#;</r>", "empty character reference at line 1, column 7"},
      {"<r>&#x1G;</r>", "bad character reference at line 1, column 10"},
      {"<r>&#x110000;</r>",
       "character reference out of range at line 1, column 14"},
      {"<r>&#0;</r>",
       "character reference to invalid XML character at line 1, column 8"},
      {"<r>&bogus;</r>",
       "unknown entity reference &bogus; at line 1, column 11"},
      {"text", "expected '<' at line 1, column 1"},
      {"<1/>", "expected name at line 1, column 2"},
      {"<r a=1/>", "expected quoted value at line 1, column 6"},
      {"<r a=\"<\"/>",
       "'<' not allowed in attribute value at line 1, column 7"},
      {"<r a=\"x", "unterminated attribute value at line 1, column 8"},
      {"<r a=\"x\"", "unterminated start tag at line 1, column 9"},
      {"<r a/>", "expected '=' after attribute name at line 1, column 5"},
      {"<r></s>", "mismatched end tag </s> for <r> at line 1, column 7"},
      {"<r></r x>", "expected '>' in end tag at line 1, column 8"},
      {"<r/><s/>", "content after document element at line 1, column 5"},
  };
  for (const auto& [text, want] : cases) {
    Result<XmlDocument> doc = ParseXml(text);
    ASSERT_FALSE(doc.ok()) << text;
    EXPECT_EQ(doc.status().ToString(), std::string("ParseError: XML: ") + want)
        << text;
  }
}

TEST(XmlParser, ExternalDtdOptionTokenizesSets) {
  DtdStructure dtd;
  ASSERT_TRUE(dtd.AddElement("r", "EMPTY").ok());
  ASSERT_TRUE(dtd.AddAttribute("r", "refs", AttrCardinality::kSet).ok());
  ASSERT_TRUE(dtd.SetRoot("r").ok());
  Result<XmlDocument> doc = ParseXml("<r refs=\"a b c\"/>", {.dtd = &dtd});
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(
      doc.value().tree.Attribute(doc.value().tree.root(), "refs").value(),
      (AttrValue{"a", "b", "c"}));
}

TEST(XmlParser, CharacterReferenceValidity) {
  // Decimal and hex forms, boundary-valid code points.
  Result<XmlDocument> doc = ParseXml("<a>&#9;&#xA;&#x20;&#xD7FF;&#xE000;"
                                     "&#xFFFD;&#x10000;&#x10FFFF;</a>");
  EXPECT_TRUE(doc.ok()) << doc.status();
  // Section 2.2: references must denote XML Chars.
  EXPECT_FALSE(ParseXml("<a>&#0;</a>").ok());       // NUL
  EXPECT_FALSE(ParseXml("<a>&#x1;</a>").ok());      // C0 control
  EXPECT_FALSE(ParseXml("<a>&#8;</a>").ok());       // backspace
  EXPECT_FALSE(ParseXml("<a>&#xD800;</a>").ok());   // surrogate low bound
  EXPECT_FALSE(ParseXml("<a>&#xDFFF;</a>").ok());   // surrogate high bound
  EXPECT_FALSE(ParseXml("<a>&#xFFFE;</a>").ok());   // noncharacter
  EXPECT_FALSE(ParseXml("<a>&#xFFFF;</a>").ok());   // noncharacter
  EXPECT_FALSE(ParseXml("<a>&#x110000;</a>").ok()); // beyond Unicode
  EXPECT_FALSE(ParseXml("<a>&#;</a>").ok());        // no digits
  EXPECT_FALSE(ParseXml("<a>&#x;</a>").ok());       // no hex digits
}

TEST(XmlParser, CdataCloseSequenceInContent) {
  // Section 2.4: "]]>" must not appear in character data...
  EXPECT_FALSE(ParseXml("<a>x]]>y</a>").ok());
  // ...but a lone "]]" or an escaped ">" is fine.
  EXPECT_TRUE(ParseXml("<a>x]]y</a>").ok());
  EXPECT_TRUE(ParseXml("<a>x]]&gt;y</a>").ok());
  // And inside a CDATA section the text up to "]]>" is raw.
  Result<XmlDocument> doc = ParseXml("<a><![CDATA[x]]y]]></a>");
  ASSERT_TRUE(doc.ok()) << doc.status();
  const DataTree& t = doc.value().tree;
  EXPECT_EQ(std::get<std::string>(t.children(t.root())[0]), "x]]y");
}

TEST(XmlParser, LineEndNormalization) {
  // Section 2.11: \r\n and bare \r both become \n, in text and CDATA.
  Result<XmlDocument> doc =
      ParseXml("<a>l1\r\nl2\rl3</a>", {.skip_ignorable_whitespace = false});
  ASSERT_TRUE(doc.ok()) << doc.status();
  const DataTree& t = doc.value().tree;
  EXPECT_EQ(std::get<std::string>(t.children(t.root())[0]), "l1\nl2\nl3");
  Result<XmlDocument> cdata = ParseXml("<a><![CDATA[l1\r\nl2\rl3]]></a>");
  ASSERT_TRUE(cdata.ok()) << cdata.status();
  const DataTree& ct = cdata.value().tree;
  EXPECT_EQ(std::get<std::string>(ct.children(ct.root())[0]), "l1\nl2\nl3");
  // A character reference is not a literal \r and survives.
  Result<XmlDocument> ref =
      ParseXml("<a>x&#13;y</a>", {.skip_ignorable_whitespace = false});
  ASSERT_TRUE(ref.ok()) << ref.status();
  const DataTree& rt = ref.value().tree;
  EXPECT_EQ(std::get<std::string>(rt.children(rt.root())[0]), "x\ry");
}

TEST(XmlParser, AttributeValueNormalization) {
  // Section 3.3.3: literal tab/newline/CR become spaces (\r\n one space);
  // characters entering via references keep their literal value.
  Result<XmlDocument> doc =
      ParseXml("<a x=\"p\tq\nr\r\ns\rt\" y=\"p&#9;q&#10;r&#13;s\"/>");
  ASSERT_TRUE(doc.ok()) << doc.status();
  const DataTree& t = doc.value().tree;
  EXPECT_EQ(t.SingleAttribute(t.root(), "x").value(), "p q r s t");
  EXPECT_EQ(t.SingleAttribute(t.root(), "y").value(), "p\tq\nr\rs");
}

TEST(XmlParser, RawLessThanInAttributeValueRejected) {
  // Well-formedness: '<' cannot appear literally in an attribute value.
  EXPECT_FALSE(ParseXml("<a x=\"1<2\"/>").ok());
  EXPECT_TRUE(ParseXml("<a x=\"1&lt;2\"/>").ok());
}

TEST(DtdParser, ParsesPersonDeptDtd) {
  // The paper's object-database DTD (Section 1).
  const char* dtd_text = R"(
    <!ELEMENT db (person*, dept*)>
    <!ELEMENT person (name, address)>
    <!ATTLIST person
              oid       ID      #required
              in_dept   IDREFS  #implied>
    <!ELEMENT name (#PCDATA)>
    <!ELEMENT address (#PCDATA)>
    <!ELEMENT dname (#PCDATA)>
    <!ELEMENT dept (dname)>
    <!ATTLIST dept
              oid        ID     #required
              manager    IDREF  #required
              has_staff  IDREFS #implied>
  )";
  Result<DtdStructure> dtd = ParseDtd(dtd_text, "db");
  ASSERT_TRUE(dtd.ok()) << dtd.status();
  EXPECT_EQ(dtd.value().IdAttribute("person"), "oid");
  EXPECT_EQ(dtd.value().Kind("person", "in_dept"), AttrKind::kIdref);
  EXPECT_TRUE(dtd.value().IsSetValued("person", "in_dept"));
  EXPECT_TRUE(dtd.value().IsSingleValued("dept", "manager"));
  EXPECT_EQ(dtd.value().Kind("dept", "manager"), AttrKind::kIdref);
  EXPECT_TRUE(dtd.value().IsUniqueSubElement("person", "name"));
}

TEST(DtdParser, AttributeTypeMapping) {
  const char* dtd_text = R"(
    <!ELEMENT e EMPTY>
    <!ATTLIST e
              a CDATA #IMPLIED
              b NMTOKEN #IMPLIED
              c NMTOKENS #IMPLIED
              d (x|y|z) "x"
              f ID #REQUIRED>
  )";
  Result<DtdStructure> dtd = ParseDtd(dtd_text, "e");
  ASSERT_TRUE(dtd.ok()) << dtd.status();
  EXPECT_TRUE(dtd.value().IsSingleValued("e", "a"));
  EXPECT_TRUE(dtd.value().IsSingleValued("e", "b"));
  EXPECT_TRUE(dtd.value().IsSetValued("e", "c"));
  EXPECT_TRUE(dtd.value().IsSingleValued("e", "d"));
  EXPECT_EQ(dtd.value().IdAttribute("e"), "f");
}

TEST(DtdParser, SkipsEntityAndNotationDecls) {
  const char* dtd_text = R"(
    <!ENTITY copy "(c) 2000">
    <!ELEMENT e EMPTY>
    <!-- a comment -->
  )";
  Result<DtdStructure> dtd = ParseDtd(dtd_text, "e");
  ASSERT_TRUE(dtd.ok()) << dtd.status();
}

TEST(DtdParser, Errors) {
  EXPECT_FALSE(ParseDtd("<!ELEMENT e EMPTY>", "missing_root").ok());
  EXPECT_FALSE(ParseDtd("<!BOGUS e>", "e").ok());
  EXPECT_FALSE(ParseDtd("<!ELEMENT e (unclosed>", "e").ok());
  EXPECT_EQ(ParseDtd("%param;", "e").status().code(),
            StatusCode::kNotSupported);
  // Duplicate ID attribute.
  EXPECT_FALSE(ParseDtd("<!ELEMENT e EMPTY>"
                        "<!ATTLIST e a ID #REQUIRED b ID #REQUIRED>",
                        "e")
                   .ok());
}

TEST(Serializer, RoundTrip) {
  Result<XmlDocument> doc = ParseXml(kBookXml);
  ASSERT_TRUE(doc.ok());
  std::string serialized = SerializeXml(doc.value().tree);
  // Reparse with the same DTD so IDREFS tokenize again.
  Result<XmlDocument> again =
      ParseXml(serialized, {.dtd = &*doc.value().dtd});
  ASSERT_TRUE(again.ok()) << again.status() << "\n" << serialized;
  const DataTree& a = doc.value().tree;
  const DataTree& b = again.value().tree;
  ASSERT_EQ(a.size(), b.size());
  for (VertexId v = 0; v < a.size(); ++v) {
    EXPECT_EQ(a.label(v), b.label(v));
    EXPECT_EQ(a.attributes(v), b.attributes(v));
    EXPECT_EQ(a.ChildWord(v), b.ChildWord(v));
  }
}

TEST(Serializer, Escaping) {
  EXPECT_EQ(EscapeXml("a<b>&\"'"), "a&lt;b&gt;&amp;&quot;&apos;");
  DataTree t;
  VertexId root = t.AddVertex("a");
  t.SetAttribute(root, "x", std::string("1<2"));
  t.AddChildText(root, "a&b");
  std::string out = SerializeXml(t, {.pretty = false});
  EXPECT_NE(out.find("x=\"1&lt;2\""), std::string::npos) << out;
  EXPECT_NE(out.find("a&amp;b"), std::string::npos) << out;
}

}  // namespace
}  // namespace xic
