// The paper's check of one document -- Definition 2.4 (the tree conforms
// to the DTD's structure) plus G |= Sigma -- compiled once per schema and
// run by every caller: xicheck through ValidateSelfDescribing, xicbatch
// and xicd through BatchValidator (engine/batch_validator.h).
//
// StreamValidator is the compiled plan: the DTD's automata
// (StructuralValidator) and the constraint plan (ConstraintChecker). A
// document goes through it in three steps, written once:
//
//   1. one StreamTokenizer over the bytes, under the call's limits,
//      deadline and chunk size;
//   2. one DOCTYPE step (ParseDoctypeDtd): the internal subset, if any,
//      parsed once under the same limits;
//   3. the body, by one of two drivers over the same tokenizer. DOM mode
//      builds a DataTree (BuildDataTree) and walks it with
//      validator().Validate and checker().Check. Stream mode (StreamRun)
//      feeds the same two per-vertex halves, StructureRun
//      (model/structural_validator.h) and ConstraintRun
//      (constraints/checker.h), from tokenizer events, never holding the
//      tree: each open element carries its content-model run and the
//      constraint fields it has resolved so far (attributes at the start
//      tag, unique sub-element text captured from the subtree), and the
//      constraint tuple logs spill to disk past spill_budget_bytes.
//      (Exception: inverse constraints are evaluated in memory; DESIGN.md
//      records the bound.)
//
// Vertex ids are pre-order in both drivers and the halves are shared, so
// the StreamOutcome is byte-identical in both modes on every document;
// the stream fuzz oracle (src/fuzzing/oracles.h) holds the two drivers
// to that.
//
// Run() checks a document against the plan's schema. ValidateSelfDescribing
// checks a self-describing document (DTD^C in the DOCTYPE internal subset,
// Definition 2.3) against the schema it carries: after the DOCTYPE step it
// reads the subset's constraint block, compiles a plan and runs the body.

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

/// Counters and stage times for one run.
struct StreamStats {
  /// Vertices of the document; 0 whenever the parse failed.
  size_t vertices = 0;
  uint64_t input_bytes = 0;
  /// Extent-log records appended across all constraints (stream mode).
  size_t extent_records = 0;
  uint64_t spilled_bytes = 0;
  size_t spill_runs = 0;
  /// Wall time per stage. DOM mode times each stage (parse includes the
  /// DOCTYPE step); stream mode interleaves them in one pass, which is
  /// billed to parse_seconds.
  double parse_seconds = 0;
  double structure_seconds = 0;
  double constraints_seconds = 0;
};

/// The verdict on one document. The structure and constraint reports are
/// empty when the parse failed.
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
/// (ConstraintChecker), compiled once. Run() checks any number of
/// documents against it. Thread-safe after construction (all
/// per-document state lives on the caller's stack).
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

  /// Streams one document under the construction-time deadline and limits.
  StreamOutcome Run(ByteSource& source) const {
    return Run(source, options_.deadline, options_.limits, /*stream=*/true);
  }
  /// Checks one document under a per-call deadline and input limits (xicd
  /// threads each request's budget through here without recompiling).
  /// `stream` picks the body driver; both give the same outcome bytes. A
  /// document's own internal subset governs only how its attribute values
  /// tokenize (ParseXml semantics); the plan stays the compiled one.
  StreamOutcome Run(ByteSource& source, const Deadline& deadline,
                    const ResourceLimits& limits, bool stream) const;

 private:
  friend class StreamRun;
  friend SelfDescribingResult ValidateSelfDescribing(
      ByteSource& source, const StreamOptions& options, bool stream);

  /// Steps 1 and 2: the tokenizer, pulled through the DOCTYPE step.
  struct Prologue;

  /// Step 3: the rest of the document, by the chosen driver. `tok_dtd`
  /// governs attribute tokenization. In DOM mode the tree is moved into
  /// *tree when `tree` is non-null and the document parsed.
  StreamOutcome Body(Prologue& prologue, const DtdStructure& tok_dtd,
                     const Deadline& deadline, bool stream,
                     std::optional<DataTree>* tree) const;

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

/// Checks a self-describing document read from `source` (xicheck). With
/// `stream` memory stays bounded by the spill budget; otherwise the body
/// becomes a DataTree, kept in the result. Both modes produce the same
/// outcome bytes.
SelfDescribingResult ValidateSelfDescribing(ByteSource& source,
                                            const StreamOptions& options,
                                            bool stream);

}  // namespace xic

#endif  // XIC_ENGINE_STREAM_VALIDATOR_H_
