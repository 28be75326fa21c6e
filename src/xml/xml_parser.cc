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

Result<DataTree> DrainIntoTree(StreamTokenizer& tok,
                               const StreamEvent* pending,
                               const DtdStructure* dtd,
                               bool skip_ignorable_whitespace) {
  DataTree tree;
  std::vector<VertexId> open;  // open elements, root first
  std::string run;             // pending character data
  bool run_space = true;       // every chunk of `run` was all XML S
  auto flush_text = [&] {
    if (run.empty()) return;
    if (!(skip_ignorable_whitespace && run_space)) {
      tree.AddChildText(open.back(), std::move(run));
    }
    run.clear();
    run_space = true;
  };
  StreamEvent ev;
  const StreamEvent* cur = pending;
  while (true) {
    if (cur == nullptr) {
      XIC_RETURN_IF_ERROR(tok.Next(&ev));
      cur = &ev;
    }
    switch (cur->kind) {
      case StreamEventKind::kDoctype:
        break;  // ParseDoctypeDtd's; cannot recur mid-content
      case StreamEventKind::kStartElement: {
        flush_text();
        VertexId v = tree.AddVertex(cur->name);
        if (!open.empty()) {
          XIC_RETURN_IF_ERROR(tree.AddChildVertex(open.back(), v));
        }
        for (const StreamEvent::Attr& a : cur->attrs) {
          bool set_valued =
              dtd != nullptr && dtd->IsSetValued(cur->name, a.name);
          tree.SetAttribute(v, a.name,
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
        run.append(cur->text);
        run_space = run_space && cur->text_all_space;
        break;
      case StreamEventKind::kEndDocument:
        return tree;
    }
    cur = nullptr;
  }
}

}  // namespace

Result<DataTree> BuildDataTree(StreamTokenizer& tok,
                               const StreamEvent* pending,
                               const DtdStructure* dtd,
                               bool skip_ignorable_whitespace) {
  obs::ScopedSpan span("xml.parse", "xml");
  XIC_COUNTER_ADD("xml.parse.calls", 1);
  Result<DataTree> tree =
      DrainIntoTree(tok, pending, dtd, skip_ignorable_whitespace);
  const uint64_t bytes = tok.consumed_bytes();
  span.AddInt("bytes", static_cast<int64_t>(bytes));
  XIC_COUNTER_ADD("xml.parse.bytes", bytes);
  XIC_HISTOGRAM_OBSERVE("xml.parse.bytes_per_doc", bytes,
                        {1024.0, 16384.0, 262144.0, 4194304.0});
  if (tree.ok()) {
    span.AddInt("vertices", static_cast<int64_t>(tree.value().size()));
  } else {
    XIC_COUNTER_ADD("xml.parse.errors", 1);
    span.AddString("error", tree.status().ToString());
  }
  return tree;
}

Result<std::optional<DtdStructure>> ParseDoctypeDtd(
    StreamTokenizer& tok, StreamEvent* first, const ResourceLimits& limits,
    const Deadline& deadline) {
  XIC_RETURN_IF_ERROR(tok.Next(first));
  if (first->kind != StreamEventKind::kDoctype ||
      !first->has_internal_subset) {
    return std::optional<DtdStructure>();
  }
  DtdParseOptions options;
  options.limits = limits;
  options.deadline = deadline;
  XIC_ASSIGN_OR_RETURN(DtdStructure dtd,
                       ParseDtd(first->internal_subset,
                                std::string(first->name), options));
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
  StringSource source(text);
  StreamTokenizerOptions topt;
  topt.limits = options.limits;
  topt.deadline = options.deadline;
  StreamTokenizer tok(source, topt);
  XmlDocument doc;
  StreamEvent ev;
  XIC_ASSIGN_OR_RETURN(
      doc.dtd, ParseDoctypeDtd(tok, &ev, options.limits, options.deadline));
  if (ev.kind == StreamEventKind::kDoctype) {
    doc.doctype_name.assign(ev.name);
    doc.internal_subset.assign(ev.internal_subset);
  }
  // The document's own internal subset overrides options.dtd.
  XIC_ASSIGN_OR_RETURN(
      doc.tree,
      BuildDataTree(tok, &ev,
                    doc.dtd.has_value() ? &*doc.dtd : options.dtd,
                    options.skip_ignorable_whitespace));
  return doc;
}

}  // namespace xic
