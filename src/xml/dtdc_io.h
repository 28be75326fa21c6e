// Persistence for DTDs *with constraints* (DTD^C, Definition 2.3).
//
// Plain DTDs have no syntax for the paper's constraint languages; this
// module round-trips a DTD^C through standard DTD text by embedding the
// constraint set in a structured comment that any other processor will
// ignore:
//
//   <!ELEMENT entry (title, publisher)>
//   <!ATTLIST entry isbn CDATA #REQUIRED>
//   <!-- xic:constraints language=L_u
//     key entry.isbn
//     sfk ref.to -> entry.isbn
//   -->
//
// The comment body uses the textual constraint syntax of
// constraints/constraint_parser.h. A document whose internal subset
// carries such a block is fully self-describing: structure and
// semantics travel together, which is the paper's practical goal.

#ifndef XIC_XML_DTDC_IO_H_
#define XIC_XML_DTDC_IO_H_

#include <optional>
#include <string>
#include <string_view>

#include "constraints/constraint.h"
#include "model/dtd_structure.h"
#include "util/status.h"
#include "xml/dtd_parser.h"
#include "xml/xml_parser.h"

namespace xic {

/// A parsed DTD^C: structure plus (optionally) its constraint set.
struct DtdC {
  DtdStructure dtd;
  std::optional<ConstraintSet> sigma;
};

/// Renders a constraint in the textual statement syntax ("key entry.isbn",
/// "fk a[x,y] -> b[u,v]", "inverse a(k).r <-> b(k2).s", ...).
std::string WriteConstraintStatement(const Constraint& c);

/// The "<!-- xic:constraints ... -->" block for `sigma`.
std::string WriteConstraintBlock(const ConstraintSet& sigma);

/// DTD declarations followed by the constraint block.
std::string WriteDtdC(const DtdStructure& dtd, const ConstraintSet& sigma);

/// Reads the constraint block out of DTD text (an internal subset or a
/// .dtd file): nullopt when the text has no block. Only the block is
/// read; the declarations around it are the DTD parser's business.
Result<std::optional<ConstraintSet>> ParseConstraintBlock(
    std::string_view dtd_text);

/// Parses DTD text, recovering an embedded constraint block if present:
/// ParseDtd (under `options`) plus ParseConstraintBlock.
Result<DtdC> ParseDtdC(std::string_view text, const std::string& root,
                       const DtdParseOptions& options = {});

/// A complete self-describing document: XML with a DOCTYPE internal
/// subset carrying declarations and the constraint block.
std::string WriteDocumentWithDtdC(const DataTree& tree,
                                  const DtdStructure& dtd,
                                  const ConstraintSet& sigma);

/// Parses a document and recovers the constraint set from its internal
/// subset (sigma is nullopt when the subset has no xic block). The subset
/// is parsed once, by ParseXml under options.limits and options.deadline.
struct SelfDescribingDocument {
  XmlDocument document;
  std::optional<ConstraintSet> sigma;
};
Result<SelfDescribingDocument> ParseDocumentWithDtdC(
    const std::string& text, const XmlParseOptions& options = {});

}  // namespace xic

#endif  // XIC_XML_DTDC_IO_H_
