// Streaming validation: tokenizer event goldens, in-place vs chunked
// buffer parity (events, error texts and positions), the sliding
// buffer's size bound, DOM-vs-stream verdict parity (byte-identical
// reports across the committed corpus and across spill budgets),
// spill-threshold behavior, and the XML conformance regressions that
// rode along with the tokenizer work (reserved PI targets, XML-S
// whitespace, deep documents).

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "constraints/checker.h"
#include "constraints/well_formed.h"
#include "engine/stream_validator.h"
#include "fuzzing/corpus.h"
#include "fuzzing/oracles.h"
#include "model/structural_validator.h"
#include "util/strings.h"
#include "xml/dtdc_io.h"
#include "xml/stream_tokenizer.h"
#include "xml/xml_parser.h"

namespace xic {
namespace {

// -- Tokenizer event goldens ----------------------------------------------

// Renders the full event stream, aggregating consecutive kText chunks
// into one entry (the run split is an implementation detail callers are
// told to paper over).
std::vector<std::string> Drain(ByteSource& source, size_t chunk_bytes,
                               Status* error) {
  StreamTokenizerOptions options;
  options.chunk_bytes = chunk_bytes;
  StreamTokenizer tok(source, options);
  std::vector<std::string> out;
  std::string run;
  auto flush = [&] {
    if (!run.empty()) out.push_back("text[" + run + "]");
    run.clear();
  };
  StreamEvent ev;
  for (;;) {
    Status s = tok.Next(&ev);
    if (!s.ok()) {
      if (error != nullptr) *error = s;
      flush();
      out.push_back("ERROR");
      return out;
    }
    switch (ev.kind) {
      case StreamEventKind::kDoctype:
        flush();
        out.push_back(std::string("doctype:") + std::string(ev.name) +
                      (ev.has_internal_subset ? "[subset]" : ""));
        break;
      case StreamEventKind::kStartElement: {
        flush();
        std::string e = "start:" + std::string(ev.name);
        for (const StreamEvent::Attr& a : ev.attrs) {
          e += " " + std::string(a.name) + "=" + std::string(a.value);
        }
        out.push_back(e);
        break;
      }
      case StreamEventKind::kEndElement:
        flush();
        out.push_back("end:" + std::string(ev.name));
        break;
      case StreamEventKind::kText:
        run.append(ev.text);
        break;
      case StreamEventKind::kEndDocument:
        flush();
        out.push_back("eod");
        return out;
    }
  }
}

// The event stream of `text` read through the sliding buffer in
// `chunk_bytes` reads; also demands the same events and error from the
// in-place path.
std::vector<std::string> Events(const std::string& text,
                                size_t chunk_bytes = 64 * 1024,
                                Status* error = nullptr) {
  fuzz::ChunkedSource chunked(text);
  Status chunked_error = Status::OK();
  std::vector<std::string> out = Drain(chunked, chunk_bytes, &chunked_error);
  StringSource in_place(text);
  Status in_place_error = Status::OK();
  EXPECT_EQ(Drain(in_place, chunk_bytes, &in_place_error), out) << text;
  EXPECT_EQ(in_place_error.ToString(), chunked_error.ToString()) << text;
  if (error != nullptr) *error = chunked_error;
  return out;
}

TEST(StreamTokenizer, EventGolden) {
  std::vector<std::string> events = Events(
      "<?xml version=\"1.0\"?>\n"
      "<!DOCTYPE r [<!ELEMENT r ANY>]>\n"
      "<r a=\"x&amp;y\"  b=\" 1\n2 \"><e/>hi<![CDATA[<&]]></r>");
  std::vector<std::string> want = {
      "doctype:r[subset]",
      // Attribute values arrive normalized (Section 3.3.3: the newline
      // became a space) and entity-expanded.
      "start:r a=x&y b= 1 2 ",
      "start:e",
      "end:e",  // synthesized for the self-closing tag
      "text[hi<&]",
      "end:r",
      "eod",
  };
  EXPECT_EQ(events, want);
}

TEST(StreamTokenizer, TextRunsSplitIntoChunksReassembleExactly) {
  std::string big(10000, 'x');
  big[137] = '\n';
  std::string text = "<r>" + big + "</r>";
  // A 64-byte chunk ceiling forces the run through many kText events;
  // the reassembled bytes must equal the DOM parser's one text child.
  std::vector<std::string> events = Events(text, 64);
  Result<XmlDocument> dom = ParseXml(text);
  ASSERT_TRUE(dom.ok()) << dom.status();
  const DataTree& t = dom.value().tree;
  ASSERT_EQ(t.children(t.root()).size(), 1u);
  const std::string& dom_text =
      std::get<std::string>(t.children(t.root())[0]);
  std::vector<std::string> want = {"start:r", "text[" + dom_text + "]",
                                   "end:r", "eod"};
  EXPECT_EQ(events, want);
}

TEST(StreamTokenizer, DoctypeDistinguishesEmptySubsetFromNone) {
  // "<!DOCTYPE r []>" carries an (empty) DTD; "<!DOCTYPE r>" carries
  // none -- the DOM parser treats them differently and so must we.
  std::vector<std::string> with = Events("<!DOCTYPE r []><r/>");
  std::vector<std::string> without = Events("<!DOCTYPE r><r/>");
  ASSERT_FALSE(with.empty());
  ASSERT_FALSE(without.empty());
  EXPECT_EQ(with[0], "doctype:r[subset]");
  EXPECT_EQ(without[0], "doctype:r");
}

TEST(StreamTokenizer, InMemorySourceIsTokenizedInPlace) {
  // Names, attribute values and plain text are views into the caller's
  // bytes, and no buffer is allocated.
  std::string text = "<r a=\"v\">plain text</r>";
  StringSource source(text);
  StreamTokenizer tok(source);
  EXPECT_EQ(tok.buffer_bytes(), 0u);
  StreamEvent ev;
  ASSERT_TRUE(tok.Next(&ev).ok());
  ASSERT_EQ(ev.kind, StreamEventKind::kStartElement);
  EXPECT_EQ(ev.name.data(), text.data() + 1);
  ASSERT_EQ(ev.attrs.size(), 1u);
  EXPECT_EQ(ev.attrs[0].value.data(), text.data() + 6);
  ASSERT_TRUE(tok.Next(&ev).ok());
  ASSERT_EQ(ev.kind, StreamEventKind::kText);
  EXPECT_EQ(ev.text, "plain text");
  EXPECT_EQ(ev.text.data(), text.data() + 9);
  EXPECT_EQ(tok.buffer_bytes(), 0u);
}

// Catalog-shaped rows (the benchmark's catalog workload) inside an open
// <catalog>, until the text reaches `bytes`.
std::string CatalogRows(size_t bytes, const std::string& line_end) {
  std::string text = "<catalog>" + line_end;
  for (size_t n = 1; text.size() < bytes; ++n) {
    std::string id = std::to_string(n);
    text += "<book isbn=\"i" + id + "\"><title>words in a title " + id +
            "</title><author>An Author</author><ref to=\"i" + id +
            "\"/></book>" + line_end;
  }
  return text;
}

TEST(StreamTokenizer, BufferStaysWithinTwoChunksOverALargeDocument) {
  // A tag straddling the buffer's end compacts the buffer instead of
  // growing it, so 4 MiB read in 4 KiB chunks never needs more than the
  // initial 2 x chunk_bytes.
  std::string text = CatalogRows(4u << 20, "") + "</catalog>\n";
  fuzz::ChunkedSource source(text);
  StreamTokenizerOptions options;
  options.chunk_bytes = 4096;
  StreamTokenizer tok(source, options);
  size_t peak = 0;
  StreamEvent ev;
  do {
    ASSERT_TRUE(tok.Next(&ev).ok());
    peak = std::max(peak, tok.buffer_bytes());
  } while (ev.kind != StreamEventKind::kEndDocument);
  EXPECT_EQ(tok.consumed_bytes(), text.size());
  EXPECT_LE(peak, 2 * options.chunk_bytes);
}

// "at line L, column C" for byte `pos` of `text`: only '\n' ends a line
// (the '\r' of "\r\n" is the line's last column).
std::string Position(const std::string& text, size_t pos) {
  size_t line = 1, line_start = 0;
  for (size_t i = 0; i < pos; ++i) {
    if (text[i] == '\n') {
      ++line;
      line_start = i + 1;
    }
  }
  return "at line " + std::to_string(line) + ", column " +
         std::to_string(pos - line_start + 1);
}

Status DrainStatus(ByteSource& source, size_t chunk_bytes) {
  Status error = Status::OK();
  Drain(source, chunk_bytes, &error);
  return error;
}

TEST(StreamTokenizer, ErrorPositionsSurviveManyCompactions) {
  // ~200 KiB through 256-byte chunks: the 512-byte buffer compacts
  // hundreds of times before each error, and lines are counted only at
  // compactions and recorded positions. CRLF line ends keep '\r' bytes
  // in every row.
  const std::string rows = CatalogRows(200u << 10, "\r\n");
  struct Case {
    std::string tail;    // appended to rows
    std::string what;    // the error's description
    size_t offset;       // error position within tail
  };
  const Case cases[] = {
      {"</cat>", "mismatched end tag </cat> for <catalog>", 5},
      {"<!-- open\r\n", "unterminated comment", 0},
      {"x\r\n &bogus; y", "unknown entity reference &bogus;", 11},
      {"<![CDATA[\r\nopen", "unterminated CDATA", 0},
      {"<b a=\"1\r\n\" c=1/>", "expected quoted value", 13},
  };
  const std::string path = testing::TempDir() + "/stream_positions.xml";
  for (const Case& c : cases) {
    std::string text = rows + c.tail;
    std::string want = "XML: " + c.what + " " +
                       Position(text, rows.size() + c.offset);
    fuzz::ChunkedSource chunked(text);
    EXPECT_EQ(DrainStatus(chunked, 256).message(), want) << c.tail;
    {
      std::ofstream out(path, std::ios::binary);
      out << text;
    }
    Result<FileSource> file = FileSource::Open(path);
    ASSERT_TRUE(file.ok()) << file.status();
    EXPECT_EQ(DrainStatus(file.value(), 256).message(), want) << c.tail;
    StringSource in_place(text);
    EXPECT_EQ(DrainStatus(in_place, 256).message(), want) << c.tail;
    EXPECT_EQ(ParseXml(text).status().message(), want) << c.tail;
  }
  std::filesystem::remove(path);
}

TEST(StreamTokenizer, ErrorsMatchDomParserByteForByte) {
  const char* cases[] = {
      "<r>unclosed",
      "<r></mismatch>",
      "<r>a ]]> b</r>",
      "<r>&bogus;</r>",
      "<r a=\"1\" a=\"1\"><r/>",
      "no markup at all",
      "<r/><r2/>",
  };
  for (const char* text : cases) {
    Result<XmlDocument> dom = ParseXml(text);
    ASSERT_FALSE(dom.ok()) << text;
    Status stream_error = Status::OK();
    Events(text, 64, &stream_error);
    EXPECT_EQ(dom.status().ToString(), stream_error.ToString()) << text;
  }
}

// -- XML parser conformance regressions -----------------------------------

TEST(XmlConformance, XmlStylesheetPiIsNotReserved) {
  // Only the exact target "xml" (case-insensitive) is reserved; a PI
  // target that merely *starts* with those letters is an ordinary PI.
  const std::string text =
      "<?xml version=\"1.0\"?>\n"
      "<?xml-stylesheet type=\"text/css\" href=\"s.css\"?>\n"
      "<!DOCTYPE r [<!ELEMENT r (#PCDATA)>]>\n"
      "<?xmlfoo keep going?>\n"
      "<r>body<?xml-model here too?></r>\n"
      "<?xml-stylesheet in the epilog?>";
  Result<XmlDocument> dom = ParseXml(text);
  ASSERT_TRUE(dom.ok()) << dom.status();
  const DataTree& t = dom.value().tree;
  ASSERT_EQ(t.children(t.root()).size(), 1u);
  EXPECT_EQ(std::get<std::string>(t.children(t.root())[0]), "body");
  // The tokenizer agrees: PIs vanish, the text child survives.
  std::vector<std::string> events = Events(text);
  std::vector<std::string> want = {"doctype:r[subset]", "start:r",
                                   "text[body]", "end:r", "eod"};
  EXPECT_EQ(events, want);
}

TEST(XmlConformance, FormFeedAndVerticalTabAreNotXmlSpace) {
  // XML S is exactly {0x20, 0x9, 0xA, 0xD}; std::isspace's extra \f and
  // \v must not make a text run "ignorable"...
  EXPECT_FALSE(IsXmlSpace('\f'));
  EXPECT_FALSE(IsXmlSpace('\v'));
  EXPECT_TRUE(IsXmlSpace(' ') && IsXmlSpace('\t') && IsXmlSpace('\n') &&
              IsXmlSpace('\r'));
  const std::string text =
      "<!DOCTYPE r [<!ELEMENT r (e*)><!ELEMENT e EMPTY>]>\n"
      "<r>\f<e/></r>";
  Result<XmlDocument> dom = ParseXml(text);
  ASSERT_TRUE(dom.ok()) << dom.status();
  const DataTree& t = dom.value().tree;
  // The \f run is real character data: it must survive as a text child
  // and fail the element-only content model.
  ASSERT_EQ(t.children(t.root()).size(), 2u);
  StructuralValidator validator(*dom.value().dtd);
  ValidationReport report = validator.Validate(t);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].message,
            "children [#PCDATA e] do not match content model of r");
  // ...and must not split set-valued attribute values either.
  EXPECT_EQ(TokenizeAttrValue("a\fb \vc", true),
            (AttrValue{"a\fb", "\vc"}));
}

TEST(XmlConformance, DeepDocumentParsesWithoutRecursion) {
  // 50k nested elements: the iterative ParseElement and the tokenizer's
  // explicit stack both survive depths that would overflow a recursive
  // descent, once max_tree_depth is raised.
  constexpr size_t kDepth = 50000;
  std::string text = "<!DOCTYPE a [<!ELEMENT a (a?)>]>\n";
  for (size_t i = 0; i < kDepth; ++i) text += "<a>";
  for (size_t i = 0; i < kDepth; ++i) text += "</a>";
  XmlParseOptions options;
  options.limits.max_tree_depth = kDepth + 1;
  Result<XmlDocument> dom = ParseXml(text, options);
  ASSERT_TRUE(dom.ok()) << dom.status();
  EXPECT_EQ(dom.value().tree.size(), kDepth);
  StreamOptions sopt;
  sopt.limits.max_tree_depth = kDepth + 1;
  StringSource source(text);
  SelfDescribingResult stream =
      ValidateSelfDescribing(source, sopt, /*stream=*/true);
  ASSERT_TRUE(stream.outcome.parse.ok()) << stream.outcome.parse;
  EXPECT_EQ(stream.outcome.stats.vertices, kDepth);
  EXPECT_TRUE(stream.outcome.structure.ok())
      << stream.outcome.structure.ToString();
}

// -- DOM / stream verdict parity ------------------------------------------

// The parity checks below run the stream fuzz oracle's comparison
// (fuzz::CompareStream): the one self-describing check in DOM mode over
// the bytes in place vs. in stream mode over small read chunks.

TEST(StreamParity, EveryCommittedCorpusDocumentAgrees) {
  size_t seen = 0;
  for (const auto& it : std::filesystem::directory_iterator(XIC_CORPUS_DIR)) {
    if (it.path().extension() != ".corpus") continue;
    std::ifstream in(it.path());
    ASSERT_TRUE(in) << it.path();
    std::ostringstream buffer;
    buffer << in.rdbuf();
    Result<fuzz::CorpusEntry> entry = fuzz::ParseCorpusEntry(buffer.str());
    ASSERT_TRUE(entry.ok()) << it.path() << ": " << entry.status();
    ++seen;
    // Every committed document -- whatever oracle family it pins -- must
    // validate identically both ways, spilling or not.
    for (size_t budget : {size_t{0}, size_t{1}}) {
      for (bool allow_missing : {true, false}) {
        std::optional<std::string> detail = fuzz::CompareStream(
            entry.value().document, budget, allow_missing);
        EXPECT_FALSE(detail.has_value())
            << it.path() << " (spill budget " << budget
            << ", allow_missing " << allow_missing
            << "): " << detail.value_or("");
      }
    }
  }
  EXPECT_GE(seen, 12u) << "corpus directory went missing?";
}

// A document whose key/ID/FK extents dwarf any sane budget.
std::string WideDocument(size_t rows) {
  std::string text =
      "<?xml version=\"1.0\"?>\n"
      "<!DOCTYPE db [\n"
      "<!ELEMENT db (t*)>\n"
      "<!ELEMENT t EMPTY>\n"
      "<!ATTLIST t k CDATA #REQUIRED r IDREF #REQUIRED oid ID #REQUIRED>\n"
      "<!-- xic:constraints language=L_id\n"
      "  id t.oid\n"
      "  key t.k\n"
      "  fk t.r -> t.oid\n"
      "-->\n"
      "]>\n"
      "<db>\n";
  for (size_t i = 0; i < rows; ++i) {
    std::string n = std::to_string(i);
    // Sprinkle duplicate keys, dangling references and duplicate IDs.
    std::string k = (i % 97 == 0) ? "dup" : "k" + n;
    std::string r = (i % 89 == 0) ? "nowhere" : "o" + n;
    std::string oid = (i % 101 == 0) ? "same" : "o" + n;
    text += "<t k=\"" + k + "\" r=\"" + r + "\" oid=\"" + oid + "\"/>\n";
  }
  text += "</db>\n";
  return text;
}

TEST(StreamSpill, CrossingTheBudgetSpillsAndPreservesTheVerdict) {
  std::string text = WideDocument(3000);
  // Unlimited in-memory first, as the reference verdict.
  StreamOptions keep;
  keep.validation.allow_missing_attributes = true;
  keep.spill_budget_bytes = 0;
  StringSource s1(text);
  SelfDescribingResult in_memory =
      ValidateSelfDescribing(s1, keep, /*stream=*/true);
  ASSERT_TRUE(in_memory.outcome.parse.ok()) << in_memory.outcome.parse;
  EXPECT_EQ(in_memory.outcome.stats.spilled_bytes, 0u);
  ASSERT_TRUE(in_memory.sigma.has_value());
  EXPECT_FALSE(in_memory.outcome.constraints.ok());

  // A 4 KiB budget forces every extent through the disk path.
  StreamOptions spill = keep;
  spill.spill_budget_bytes = 4096;
  StringSource s2(text);
  SelfDescribingResult spilled =
      ValidateSelfDescribing(s2, spill, /*stream=*/true);
  ASSERT_TRUE(spilled.outcome.parse.ok()) << spilled.outcome.parse;
  EXPECT_GT(spilled.outcome.stats.spilled_bytes, 0u);
  EXPECT_GT(spilled.outcome.stats.spill_runs, 0u);
  EXPECT_GT(spilled.outcome.stats.extent_records, 0u);
  EXPECT_EQ(in_memory.outcome.structure.ToString(),
            spilled.outcome.structure.ToString());
  EXPECT_EQ(in_memory.outcome.constraints.ToString(*in_memory.sigma),
            spilled.outcome.constraints.ToString(*spilled.sigma));
  // And both agree with the materialized checker.
  std::optional<std::string> detail = fuzz::CompareStream(text, 4096, true);
  EXPECT_FALSE(detail.has_value()) << detail.value_or("");
}

TEST(StreamParity, TruncationAndStrictAttributesMatch) {
  // max_violations truncation must keep the DOM checkers' prefix, and
  // strict attribute mode must report missing declared attributes in
  // plan order.
  std::string text =
      "<!DOCTYPE db [\n"
      "<!ELEMENT db (t*)>\n"
      "<!ELEMENT t EMPTY>\n"
      "<!ATTLIST t a CDATA #REQUIRED b CDATA #REQUIRED>\n"
      "<!-- xic:constraints language=L\n"
      "  key t.a\n"
      "-->\n"
      "]>\n"
      "<db><t/><t b=\"1\"/><t a=\"1\"/><t a=\"1\"/><x/></db>\n";
  for (bool allow_missing : {true, false}) {
    StreamOptions sopt;
    sopt.validation.allow_missing_attributes = allow_missing;
    sopt.validation.max_violations = 2;
    sopt.check.max_violations = 1;
    StringSource in_place(text);
    SelfDescribingResult d =
        ValidateSelfDescribing(in_place, sopt, /*stream=*/false);
    StringSource streamed(text);
    SelfDescribingResult s =
        ValidateSelfDescribing(streamed, sopt, /*stream=*/true);
    ASSERT_TRUE(d.outcome.parse.ok()) << d.outcome.parse;
    ASSERT_TRUE(s.outcome.parse.ok()) << s.outcome.parse;
    ASSERT_TRUE(d.sigma.has_value() && s.sigma.has_value());
    EXPECT_EQ(d.outcome.structure.violations.size(), 2u);
    EXPECT_EQ(d.outcome.structure.ToString(), s.outcome.structure.ToString());
    EXPECT_EQ(d.outcome.constraints.violations.size(), 1u);
    EXPECT_EQ(d.outcome.constraints.ToString(*d.sigma),
              s.outcome.constraints.ToString(*s.sigma));
  }
}

TEST(StreamValidator, PrecompiledPlanRunsManyDocuments) {
  // The StreamValidator front door: compile once, stream many.
  Result<DtdC> schema = ParseDtdC(
      "<!ELEMENT db (t*)>\n"
      "<!ELEMENT t EMPTY>\n"
      "<!ATTLIST t k CDATA #REQUIRED>\n"
      "<!-- xic:constraints language=L\n  key t.k\n-->\n",
      "db");
  ASSERT_TRUE(schema.ok()) << schema.status();
  ASSERT_TRUE(schema.value().sigma.has_value());
  StreamOptions options;
  options.spill_budget_bytes = 1;  // force the spill path
  StreamValidator validator(schema.value().dtd, *schema.value().sigma,
                            options);
  ASSERT_TRUE(validator.status().ok()) << validator.status();

  StringSource good("<db><t k=\"a\"/><t k=\"b\"/></db>");
  StreamOutcome ok = validator.Run(good);
  EXPECT_TRUE(ok.ok()) << ok.parse << ok.structure.ToString();

  StringSource dup("<db><t k=\"a\"/><t k=\"a\"/></db>");
  StreamOutcome bad = validator.Run(dup);
  ASSERT_TRUE(bad.parse.ok());
  ASSERT_EQ(bad.constraints.violations.size(), 1u);
  EXPECT_EQ(bad.constraints.violations[0].message, "duplicate key [a]");
  EXPECT_EQ(bad.constraints.violations[0].witnesses,
            (std::vector<VertexId>{1, 2}));
}

TEST(StreamValidator, DocumentWithoutSubsetHasNoDtd) {
  for (bool stream : {false, true}) {
    StringSource source("<!DOCTYPE r>\n<r>anything</r>");
    SelfDescribingResult s = ValidateSelfDescribing(source, {}, stream);
    EXPECT_TRUE(s.outcome.parse.ok()) << s.outcome.parse;
    EXPECT_EQ(s.doctype_name, "r");
    EXPECT_FALSE(s.dtd.has_value());
    EXPECT_FALSE(s.tree.has_value());
  }
}

TEST(SelfDescribing, CallerLimitsGovernTheSubsetInBothModes) {
  // The internal subset is parsed once, under the caller's limits: a
  // content model nested deeper than the default max_content_model_depth
  // (256) passes when the caller raises the limit.
  constexpr int kDepth = 300;
  std::string model = std::string(kDepth, '(') + "a" +
                      std::string(kDepth, ')');
  std::string text =
      "<!DOCTYPE r [\n"
      "<!ELEMENT r " + model + ">\n"
      "<!ELEMENT a EMPTY>\n"
      "<!ATTLIST a k CDATA #REQUIRED>\n"
      "<!-- xic:constraints language=L_u\n  key a.k\n-->\n"
      "]>\n"
      "<r><a k=\"1\"/></r>\n";
  StreamOptions options;
  options.limits.max_content_model_depth = 1000;
  for (bool stream : {false, true}) {
    StringSource source(text);
    SelfDescribingResult r = ValidateSelfDescribing(source, options, stream);
    ASSERT_TRUE(r.outcome.parse.ok()) << r.outcome.parse;
    ASSERT_TRUE(r.sigma.has_value());
    EXPECT_TRUE(r.well_formed.ok()) << r.well_formed;
    EXPECT_TRUE(r.outcome.ok()) << r.outcome.structure.ToString();
  }
  XmlParseOptions parse_options;
  parse_options.limits.max_content_model_depth = 1000;
  Result<SelfDescribingDocument> doc =
      ParseDocumentWithDtdC(text, parse_options);
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_TRUE(doc.value().sigma.has_value());

  // The default limit still rejects it, in both modes.
  for (bool stream : {false, true}) {
    StringSource source(text);
    SelfDescribingResult r = ValidateSelfDescribing(source, {}, stream);
    EXPECT_EQ(r.outcome.parse.code(), StatusCode::kResourceExhausted)
        << r.outcome.parse;
  }
}

}  // namespace
}  // namespace xic
