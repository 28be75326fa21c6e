// XML document parser producing data trees (Definition 2.1).
//
// ParseXml builds the tree from the events of StreamTokenizer
// (xml/stream_tokenizer.h), which owns the one XML grammar: the subset
// of XML 1.0 the paper's model needs, its normalization rules and its
// error messages. The document is tokenized in place, so element and
// attribute names reach the tree's symbol table as views into the input.
//
// XML attribute values are strings; the paper's att() maps to *sets* of
// atomic values. When a DtdStructure is supplied, values of set-valued
// attributes (IDREFS / NMTOKENS) are tokenized on whitespace into sets;
// all other values become singletons.

#ifndef XIC_XML_XML_PARSER_H_
#define XIC_XML_XML_PARSER_H_

#include <optional>
#include <string>

#include "model/data_tree.h"
#include "model/dtd_structure.h"
#include "util/limits.h"
#include "util/status.h"

namespace xic {

struct StreamEvent;
class StreamTokenizer;

struct XmlParseOptions {
  /// Drop text nodes consisting only of whitespace (layout between tags).
  bool skip_ignorable_whitespace = true;
  /// Tokenize set-valued attribute values using this DTD (may be null;
  /// ignored when the document carries its own internal subset).
  const DtdStructure* dtd = nullptr;
  /// Hard input bounds (document bytes, nesting depth, attributes per
  /// element, reference-expansion output). Violations return
  /// kResourceExhausted naming the limit; ResourceLimits::Unlimited()
  /// disables them.
  ResourceLimits limits;
  /// Time budget; checked once per element. Expiry returns
  /// kDeadlineExceeded.
  Deadline deadline;
};

/// A parsed document: the data tree plus the DTD recovered from the
/// internal subset (if the document had a DOCTYPE with declarations).
struct XmlDocument {
  DataTree tree;
  std::optional<DtdStructure> dtd;
  std::string doctype_name;     // empty when no DOCTYPE
  std::string internal_subset;  // raw text between '[' and ']', if any
};

/// Parses a complete XML document.
Result<XmlDocument> ParseXml(const std::string& text,
                             const XmlParseOptions& options = {});

/// The one DOCTYPE step, shared by ParseXml and the validator entry
/// points (engine/stream_validator.h): pulls `tok`'s first event into
/// *first and returns the DTD its internal subset declares, parsed under
/// `limits` and `deadline`; nullopt when there is no DOCTYPE or it has no
/// '['. *first stays valid until the next tok.Next().
Result<std::optional<DtdStructure>> ParseDoctypeDtd(
    StreamTokenizer& tok, StreamEvent* first, const ResourceLimits& limits,
    const Deadline& deadline);

/// Builds the data tree from `pending` (an event already pulled, or
/// null; a DOCTYPE is skipped) and the rest of `tok`'s events: one vertex
/// per start tag (pre-order ids), one string child per text run. Values
/// of attributes `dtd` declares set-valued are split into sets (dtd may
/// be null). StreamValidator drives it in DOM mode.
Result<DataTree> BuildDataTree(StreamTokenizer& tok,
                               const StreamEvent* pending,
                               const DtdStructure* dtd,
                               bool skip_ignorable_whitespace);

/// Tokenizes a normalized attribute value into the paper's set-of-values
/// form: split on XML S whitespace when `set_valued` (IDREFS / NMTOKENS),
/// else a singleton containing `raw` verbatim. Shared by ParseXml and the
/// streaming validator so extents agree byte-for-byte.
AttrValue TokenizeAttrValue(std::string_view raw, bool set_valued);

/// Decodes one entity/character reference (the text between '&' and ';')
/// to its UTF-8 expansion. The returned ParseError carries the bare
/// description; the tokenizer adds line/column.
Result<std::string> ExpandXmlEntity(std::string_view ref);

}  // namespace xic

#endif  // XIC_XML_XML_PARSER_H_
