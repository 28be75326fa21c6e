#include "xml/xml_parser.h"

#include <cctype>
#include <string_view>
#include <vector>

#include "obs/obs.h"
#include "util/strings.h"
#include "xml/dtd_parser.h"
#include "xml/stream_tokenizer.h"

namespace xic {

namespace {

// Drains the tokenizer into a DataTree: one vertex per start tag, one
// string child per text run (consecutive kText chunks aggregated).
Result<XmlDocument> BuildTree(const std::string& text,
                              const XmlParseOptions& options) {
  StringSource source(text);
  StreamTokenizerOptions topt;
  topt.limits = options.limits;
  topt.deadline = options.deadline;
  StreamTokenizer tok(source, topt);
  XmlDocument doc;
  std::vector<VertexId> open;  // open elements, root first
  std::string run;             // pending character data
  bool run_space = true;       // every chunk of `run` was all XML S
  auto flush_text = [&] {
    if (run.empty()) return;
    if (!(options.skip_ignorable_whitespace && run_space)) {
      doc.tree.AddChildText(open.back(), std::move(run));
    }
    run.clear();
    run_space = true;
  };
  StreamEvent ev;
  while (true) {
    XIC_RETURN_IF_ERROR(tok.Next(&ev));
    switch (ev.kind) {
      case StreamEventKind::kDoctype: {
        doc.doctype_name.assign(ev.name);
        XIC_ASSIGN_OR_RETURN(
            doc.dtd, ParseDoctypeDtd(ev, options.limits, options.deadline));
        doc.internal_subset.assign(ev.internal_subset);
        break;
      }
      case StreamEventKind::kStartElement: {
        flush_text();
        VertexId v = doc.tree.AddVertex(ev.name);
        if (!open.empty()) {
          XIC_RETURN_IF_ERROR(doc.tree.AddChildVertex(open.back(), v));
        }
        // The document's own internal subset overrides options.dtd.
        const DtdStructure* dtd =
            doc.dtd.has_value() ? &*doc.dtd : options.dtd;
        for (const StreamEvent::Attr& a : ev.attrs) {
          bool set_valued =
              dtd != nullptr && dtd->IsSetValued(ev.name, a.name);
          doc.tree.SetAttribute(v, a.name,
                                TokenizeAttrValue(a.value, set_valued));
        }
        open.push_back(v);
        break;
      }
      case StreamEventKind::kEndElement:
        flush_text();
        open.pop_back();
        break;
      case StreamEventKind::kText:
        run.append(ev.text);
        run_space = run_space && ev.text_all_space;
        break;
      case StreamEventKind::kEndDocument:
        return doc;
    }
  }
}

}  // namespace

Result<std::optional<DtdStructure>> ParseDoctypeDtd(
    const StreamEvent& doctype, const ResourceLimits& limits,
    const Deadline& deadline) {
  if (!doctype.has_internal_subset) return std::optional<DtdStructure>();
  DtdParseOptions options;
  options.limits = limits;
  options.deadline = deadline;
  XIC_ASSIGN_OR_RETURN(DtdStructure dtd,
                       ParseDtd(std::string(doctype.internal_subset),
                                std::string(doctype.name), options));
  return std::optional<DtdStructure>(std::move(dtd));
}

Result<std::string> ExpandXmlEntity(std::string_view ref) {
  if (ref == "lt") return std::string("<");
  if (ref == "gt") return std::string(">");
  if (ref == "amp") return std::string("&");
  if (ref == "apos") return std::string("'");
  if (ref == "quot") return std::string("\"");
  if (!ref.empty() && ref[0] == '#') {
    int base = 10;
    std::string_view digits = ref.substr(1);
    if (!digits.empty() && (digits[0] == 'x' || digits[0] == 'X')) {
      base = 16;
      digits = digits.substr(1);
    }
    if (digits.empty()) {
      return Result<std::string>(
          Status::ParseError("empty character reference"));
    }
    unsigned long code = 0;
    for (char c : digits) {
      int d;
      if (c >= '0' && c <= '9') {
        d = c - '0';
      } else if (base == 16 && std::isxdigit(static_cast<unsigned char>(c))) {
        d = std::tolower(c) - 'a' + 10;
      } else {
        return Result<std::string>(
            Status::ParseError("bad character reference"));
      }
      code = code * base + static_cast<unsigned long>(d);
      if (code > 0x10FFFF) {
        return Result<std::string>(
            Status::ParseError("character reference out of range"));
      }
    }
    // Only XML Chars are referencable (Section 2.2): #x9 | #xA | #xD |
    // [#x20-#xD7FF] | [#xE000-#xFFFD] | [#x10000-#x10FFFF]. This
    // excludes NUL, other C0 controls, surrogates and #xFFFE/#xFFFF.
    bool valid = code == 0x9 || code == 0xA || code == 0xD ||
                 (code >= 0x20 && code <= 0xD7FF) ||
                 (code >= 0xE000 && code <= 0xFFFD) || code >= 0x10000;
    if (!valid) {
      return Result<std::string>(
          Status::ParseError("character reference to invalid XML character"));
    }
    // UTF-8 encode.
    std::string out;
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (code >> 18));
      out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
    return out;
  }
  return Result<std::string>(Status::ParseError(
      "unknown entity reference &" + std::string(ref) + ";"));
}

AttrValue TokenizeAttrValue(std::string_view raw, bool set_valued) {
  AttrValue out;
  if (!set_valued) {
    out.emplace(raw);
    return out;
  }
  // Set-valued (IDREFS-style) attributes split on XML S whitespace only:
  // \f/\v are data bytes, not separators, so extents cannot change under
  // locale-flavored isspace.
  size_t i = 0;
  while (i < raw.size()) {
    while (i < raw.size() && IsXmlSpace(raw[i])) ++i;
    size_t start = i;
    while (i < raw.size() && !IsXmlSpace(raw[i])) ++i;
    if (i > start) out.emplace(raw.substr(start, i - start));
  }
  return out;
}

Result<XmlDocument> ParseXml(const std::string& text,
                             const XmlParseOptions& options) {
  obs::ScopedSpan span("xml.parse", "xml");
  span.AddInt("bytes", static_cast<int64_t>(text.size()));
  XIC_COUNTER_ADD("xml.parse.calls", 1);
  XIC_COUNTER_ADD("xml.parse.bytes", text.size());
  XIC_HISTOGRAM_OBSERVE("xml.parse.bytes_per_doc", text.size(),
                        {1024.0, 16384.0, 262144.0, 4194304.0});
  Result<XmlDocument> result = BuildTree(text, options);
  if (result.ok()) {
    span.AddInt("vertices",
                static_cast<int64_t>(result.value().tree.size()));
  } else {
    XIC_COUNTER_ADD("xml.parse.errors", 1);
    span.AddString("error", result.status().ToString());
  }
  return result;
}

}  // namespace xic
