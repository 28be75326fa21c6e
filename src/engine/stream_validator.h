// The full check of Definition 2.4 plus G |= Sigma, run over tokenizer
// events or over a materialized tree from one compiled plan.
//
// StreamValidator is the plan for one schema: the DTD's automata
// (StructuralValidator) and the constraint plan (ConstraintChecker),
// compiled once. Its two halves, StructureRun (model/structural_validator.h)
// and ConstraintRun (constraints/checker.h), are fed either by the tree
// walks (validator().Validate, checker().Check) or, without ever
// materializing the DataTree, by this file's event driver (Run):
//
//   * Structure: each open element carries a StructureRun::Vertex whose
//     child word grows as child labels and qualifying text runs arrive;
//     attributes are checked at the start tag and the word is matched
//     against the content model at the end tag. Peak state is one child
//     word per open element.
//
//   * Constraints: the fields the constraints read are resolved while
//     the element streams by -- attributes at the start tag, unique
//     sub-element text captured from the subtree -- and handed to the
//     ConstraintRun at the end tag. Its tuple logs spill to disk past
//     spill_budget_bytes, so memory stays bounded by the budget, not the
//     extent sizes. (Exception: inverse constraints are evaluated in
//     memory; DESIGN.md records the bound.)
//
// Vertex ids are ParseXml's pre-order AddVertex ids and both halves are
// shared, so ValidationReport::ToString() and ConstraintReport::ToString()
// are byte-identical in both modes on every document.
//
// ValidateSelfDescribing is the one check of a self-describing document
// (DTD^C in the DOCTYPE internal subset, Definition 2.3), as xicheck runs
// it: one DOCTYPE step (the subset parsed once, under the caller's
// limits, then its constraint block), one compiled plan, and a choice of
// body driver -- events (`stream`) or a DataTree built from the same
// tokenizer. The stream fuzz oracle (src/fuzzing/oracles.h) compares the
// two drivers byte for byte.

#ifndef XIC_ENGINE_STREAM_VALIDATOR_H_
#define XIC_ENGINE_STREAM_VALIDATOR_H_

#include <optional>
#include <string>
#include <vector>

#include "constraints/checker.h"
#include "model/data_tree.h"
#include "model/structural_validator.h"
#include "util/limits.h"
#include "util/status.h"
#include "xml/stream_tokenizer.h"

namespace xic {

struct StreamOptions {
  /// Drop text runs consisting only of whitespace, like
  /// XmlParseOptions::skip_ignorable_whitespace.
  bool skip_ignorable_whitespace = true;
  /// Structural-check options (allow_missing_attributes, max_violations;
  /// limits.max_automaton_states bounds content-model compilation).
  ValidationOptions validation;
  /// Constraint-check options (max_violations).
  CheckOptions check;
  /// Input bounds for the tokenizer (document bytes, depth, attributes,
  /// expansion); the same limits ParseXml enforces.
  ResourceLimits limits;
  /// Wall-clock budget; polled per start tag and per constraint.
  Deadline deadline;
  /// Tokenizer read granularity / text chunk ceiling.
  size_t chunk_bytes = 64 * 1024;
  /// Combined in-memory bytes for all extent logs before the largest
  /// spills to disk; 0 = never spill. The knob behind "peak RSS
  /// independent of document size".
  size_t spill_budget_bytes = 64u << 20;  // 64 MiB
};

/// Resource/diagnostic counters for one streaming run.
struct StreamStats {
  size_t vertices = 0;
  uint64_t input_bytes = 0;
  /// Extent-log records appended across all constraints.
  size_t extent_records = 0;
  uint64_t spilled_bytes = 0;
  size_t spill_runs = 0;
};

/// The streaming pipeline's verdict; mirrors DocumentOutcome's
/// parse/structure/constraints split so callers render identically.
struct StreamOutcome {
  Status parse = Status::OK();  // tokenizer / DTD errors end the run
  ValidationReport structure;
  ConstraintReport constraints;
  StreamStats stats;

  bool ok() const {
    return parse.ok() && structure.ok() && constraints.ok();
  }
};

struct SelfDescribingResult;

/// The compiled plan of the full check for one schema: the DTD's
/// automata (StructuralValidator) and the constraint plan
/// (ConstraintChecker), compiled once. Run() validates any number of byte
/// streams against it; validator() and checker() validate resident
/// trees. Thread-safe after construction (all per-document state lives
/// on the caller's stack).
class StreamValidator {
 public:
  /// The DTD and Sigma must outlive the validator and stay unmodified.
  /// Sigma must be well-formed for the DTD (CheckWellFormed) -- the same
  /// contract the ConstraintChecker has.
  StreamValidator(const DtdStructure& dtd, const ConstraintSet& sigma,
                  StreamOptions options = {});

  /// Not-OK when content-model compilation hit a resource limit; Run()
  /// then reports it as every document's structure status.
  const Status& status() const { return validator_.status(); }

  const StructuralValidator& validator() const { return validator_; }
  const ConstraintChecker& checker() const { return checker_; }

  StreamOutcome Run(ByteSource& source) const {
    return Run(source, options_.deadline, options_.limits);
  }
  /// Run with a per-call deadline and input limits (xicd threads each
  /// request's budget through here without recompiling).
  StreamOutcome Run(ByteSource& source, const Deadline& deadline,
                    const ResourceLimits& limits) const;

 private:
  friend class StreamRun;
  friend SelfDescribingResult ValidateSelfDescribing(
      ByteSource& source, const StreamOptions& options, bool stream);

  /// Drives a tokenizer past its DOCTYPE step. `pending` is an event the
  /// caller already pulled (a DOCTYPE is skipped), or null; `tok_dtd` the
  /// DTD governing attribute tokenization (the document's own internal
  /// subset when present, like ParseXml).
  StreamOutcome RunCore(StreamTokenizer& tok, const StreamEvent* pending,
                        const DtdStructure& tok_dtd,
                        const Deadline& deadline) const;

  const DtdStructure& dtd_;
  StreamOptions options_;
  StructuralValidator validator_;
  ConstraintChecker checker_;
};

/// The verdict on one self-describing document.
struct SelfDescribingResult {
  /// Parse status (tokenizer, DTD, then constraint block), structure and
  /// constraint reports, and the run's counters.
  StreamOutcome outcome;
  std::string doctype_name;
  /// The internal subset's DTD; nullopt when the document has none, and
  /// then only `outcome.parse` is meaningful.
  std::optional<DtdStructure> dtd;
  /// Constraint set recovered from the subset's xic:constraints block.
  std::optional<ConstraintSet> sigma;
  /// CheckWellFormed(sigma, dtd) when sigma was recovered; constraints
  /// are only evaluated when this is OK.
  Status well_formed = Status::OK();
  /// The document, in DOM mode once it parsed (for repair).
  std::optional<DataTree> tree;
};

/// Checks a self-describing document read from `source`. With `stream`
/// the body feeds the plan event by event and memory stays bounded by
/// the spill budget; otherwise the body becomes a DataTree that the same
/// plan validates and checks. Both modes produce the same outcome bytes.
SelfDescribingResult ValidateSelfDescribing(ByteSource& source,
                                            const StreamOptions& options,
                                            bool stream);

}  // namespace xic

#endif  // XIC_ENGINE_STREAM_VALIDATOR_H_
