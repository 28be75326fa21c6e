#include "xml/dtdc_io.h"

#include "constraints/constraint_parser.h"
#include "util/strings.h"
#include "xml/dtd_parser.h"
#include "xml/serializer.h"

namespace xic {

namespace {

constexpr const char* kBlockStart = "<!-- xic:constraints";
constexpr const char* kBlockEnd = "-->";

std::string FieldRef(const std::string& element,
                     const std::vector<std::string>& attrs) {
  if (attrs.size() == 1) return element + "." + attrs.front();
  return element + "[" + Join(attrs, ", ") + "]";
}

std::optional<Language> ParseLanguageTag(std::string_view tag) {
  if (tag == "L") return Language::kL;
  if (tag == "L_u") return Language::kLu;
  if (tag == "L_id") return Language::kLid;
  return std::nullopt;
}

}  // namespace

std::string WriteConstraintStatement(const Constraint& c) {
  switch (c.kind) {
    case ConstraintKind::kKey:
      return "key " + FieldRef(c.element, c.attrs);
    case ConstraintKind::kId:
      return "id " + c.element + "." + c.attr();
    case ConstraintKind::kForeignKey:
      return "fk " + FieldRef(c.element, c.attrs) + " -> " +
             FieldRef(c.ref_element, c.ref_attrs);
    case ConstraintKind::kSetForeignKey:
      return "sfk " + c.element + "." + c.attr() + " -> " + c.ref_element +
             "." + c.ref_attr();
    case ConstraintKind::kInverse: {
      std::string lhs = c.element;
      std::string rhs = c.ref_element;
      if (!c.inv_key.empty()) lhs += "(" + c.inv_key + ")";
      if (!c.inv_ref_key.empty()) rhs += "(" + c.inv_ref_key + ")";
      return "inverse " + lhs + "." + c.attr() + " <-> " + rhs + "." +
             c.ref_attr();
    }
  }
  return "";
}

std::string WriteConstraintBlock(const ConstraintSet& sigma) {
  std::string out = kBlockStart;
  out += " language=";
  out += LanguageToString(sigma.language);
  out += "\n";
  for (const Constraint& c : sigma.constraints) {
    out += "  " + WriteConstraintStatement(c) + "\n";
  }
  out += kBlockEnd;
  out += "\n";
  return out;
}

std::string WriteDtdC(const DtdStructure& dtd, const ConstraintSet& sigma) {
  return dtd.ToString() + WriteConstraintBlock(sigma);
}

Result<std::optional<ConstraintSet>> ParseConstraintBlock(
    std::string_view dtd_text) {
  size_t start = dtd_text.find(kBlockStart);
  if (start == std::string_view::npos) {
    return std::optional<ConstraintSet>();
  }
  size_t header_end = start + std::string_view(kBlockStart).size();
  size_t end = dtd_text.find(kBlockEnd, header_end);
  if (end == std::string_view::npos) {
    return Status::ParseError("unterminated xic:constraints block");
  }
  // Optional "language=..." tag on the first line.
  Language lang = Language::kLu;
  std::string_view rest =
      StripWhitespace(dtd_text.substr(header_end, end - header_end));
  if (StartsWith(rest, "language=")) {
    size_t eol = rest.find_first_of(" \t\n");
    std::string_view tag = rest.substr(9, eol == std::string_view::npos
                                              ? std::string_view::npos
                                              : eol - 9);
    std::optional<Language> parsed = ParseLanguageTag(tag);
    if (!parsed.has_value()) {
      return Status::ParseError("unknown constraint language tag \"" +
                                std::string(tag) + "\"");
    }
    lang = *parsed;
    rest = eol == std::string_view::npos ? std::string_view()
                                         : rest.substr(eol);
  }
  XIC_ASSIGN_OR_RETURN(ConstraintSet sigma,
                       ParseConstraintSet(std::string(rest), lang));
  return std::optional<ConstraintSet>(std::move(sigma));
}

Result<DtdC> ParseDtdC(std::string_view text, const std::string& root,
                       const DtdParseOptions& options) {
  DtdC out;
  XIC_ASSIGN_OR_RETURN(out.dtd, ParseDtd(text, root, options));
  XIC_ASSIGN_OR_RETURN(out.sigma, ParseConstraintBlock(text));
  return out;
}

std::string WriteDocumentWithDtdC(const DataTree& tree,
                                  const DtdStructure& dtd,
                                  const ConstraintSet& sigma) {
  std::string out = "<?xml version=\"1.0\"?>\n<!DOCTYPE ";
  out += tree.empty() ? dtd.root() : tree.label(tree.root());
  out += " [\n";
  out += WriteDtdC(dtd, sigma);
  out += "]>\n";
  // SerializeXml emits its own prolog; strip it.
  std::string body = SerializeXml(tree);
  size_t prolog_end = body.find("?>\n");
  if (prolog_end != std::string::npos) {
    body = body.substr(prolog_end + 3);
  }
  out += body;
  return out;
}

Result<SelfDescribingDocument> ParseDocumentWithDtdC(
    const std::string& text, const XmlParseOptions& options) {
  SelfDescribingDocument out;
  XIC_ASSIGN_OR_RETURN(out.document, ParseXml(text, options));
  // ParseXml already parsed the subset's DTD under the caller's limits;
  // only the constraint block is left to read.
  XIC_ASSIGN_OR_RETURN(out.sigma,
                       ParseConstraintBlock(out.document.internal_subset));
  return out;
}

}  // namespace xic
