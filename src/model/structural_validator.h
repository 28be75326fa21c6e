// Structural validity of a data tree against a DTD structure
// (Definition 2.4 without the constraint-set condition G |= Sigma; the
// constraint half lives in constraints/checker.h).
//
// Checks, for every vertex v with label tau:
//   * the root is labeled r,
//   * tau is a declared element type,
//   * the child word of v (string children mapped to S) is in L(P(tau)),
//   * att(v, l) is defined iff R(tau, l) is defined (strict mode), and
//     single-valued attributes hold singleton sets.
//
// `allow_missing_attributes` relaxes the "only if" direction (XML
// #IMPLIED attributes); undeclared attributes are always rejected.
//
// These checks are written once, in StructureRun, which takes one vertex
// at a time: its attributes at Open, its children one by one, its
// content-model verdict at Close. Two callers feed it. Validate() walks a
// DataTree in vertex-id order, passing every attribute and text child as
// the tree holds it; the streaming validator (engine/stream_validator.h)
// feeds tokenizer events. Both therefore render the same messages in the
// same (vertex, phase) order.

#ifndef XIC_MODEL_STRUCTURAL_VALIDATOR_H_
#define XIC_MODEL_STRUCTURAL_VALIDATOR_H_

#include <optional>
#include <string>
#include <vector>

#include "model/data_tree.h"
#include "model/dtd_structure.h"
#include "regex/glushkov.h"
#include "util/limits.h"
#include "util/symbol_table.h"

namespace xic {

struct ValidationOptions {
  /// Permit a declared attribute to be absent on a vertex (the paper's
  /// Definition 2.4 is strict; XML's #IMPLIED is not).
  bool allow_missing_attributes = false;
  /// Stop after this many violations (0 = collect all).
  size_t max_violations = 0;
  /// max_automaton_states bounds the Glushkov positions of each compiled
  /// content model; a DTD exceeding it surfaces in status().
  ResourceLimits limits;
};

struct Violation {
  VertexId vertex;
  std::string message;
};

struct ValidationReport {
  std::vector<Violation> violations;
  /// Vertices the walk examined (== tree size unless cut short). Fed to
  /// the observability layer as the structure stage's step count; not
  /// part of ToString(), so rendered reports stay byte-stable.
  size_t steps = 0;
  /// Not-OK when the walk was cut short (deadline); the violation list is
  /// then a prefix, not a verdict.
  Status status = Status::OK();
  bool ok() const { return status.ok() && violations.empty(); }
  std::string ToString() const;
};

class StructuralValidator {
 public:
  /// Compiles the DTD's content models to Glushkov automata once; the
  /// validator can then be reused across documents.
  explicit StructuralValidator(const DtdStructure& dtd,
                               ValidationOptions options = {});

  /// Not-OK when compilation hit a resource limit (a content model
  /// larger than max_automaton_states). Validate() then reports this
  /// status on every document.
  const Status& status() const { return status_; }

  /// Validates the tree; the report lists every violation found. The
  /// deadline is polled once per vertex.
  ValidationReport Validate(const DataTree& tree) const {
    return Validate(tree, Deadline::Infinite());
  }
  ValidationReport Validate(const DataTree& tree,
                            const Deadline& deadline) const;

  /// True iff every content model in the DTD is 1-unambiguous
  /// (deterministic per the XML spec) -- an extension check beyond the
  /// paper's model.
  bool AllContentModelsDeterministic() const;

  /// Read-only view of one element type's compiled content model, for
  /// callers that match child words themselves. Nullopt for undeclared
  /// element types. Views stay valid as long as the validator does.
  struct PlanView {
    const GlushkovAutomaton* automaton = nullptr;
  };
  std::optional<PlanView> PlanFor(std::string_view element) const;

  /// Bytes held by the compiled automata's tables.
  size_t automaton_bytes() const;

 private:
  friend class StructureRun;

  /// Per-element-type compiled form: the content-model automaton plus the
  /// declared attributes (sorted by name, as DtdStructure stores them).
  /// Built once in the constructor; a StructureRun translates each
  /// document's interned symbols against these plans once per document,
  /// so the per-vertex work is integer comparisons.
  struct ElementPlan {
    const GlushkovAutomaton* automaton = nullptr;
    std::vector<std::string> attr_names;  // sorted
    std::vector<bool> attr_single;        // parallel: single-valued?
  };

  const DtdStructure& dtd_;
  ValidationOptions options_;
  Status status_;
  std::map<std::string, GlushkovAutomaton> automata_;
  std::map<std::string, ElementPlan, std::less<>> plans_;
};

/// One document's structural check. A caller calls Open, Child (per
/// child) and Close for every vertex, then Finish. Labels and attribute
/// names are Symbols of the caller's `symbols` table (the tree's own, or
/// the stream's); the table may grow during the run. Violations may
/// arrive in any vertex order: Finish sorts them by (vertex, phase), the
/// order a vertex-id walk emits them in.
class StructureRun {
 public:
  /// `validator` must be compiled OK (status()); both references must
  /// outlive the run.
  StructureRun(const StructuralValidator& validator,
               const SymbolTable& symbols);

  /// The structural state of one open vertex.
  struct Vertex {
    uint32_t seq = 0;
    Symbol label = kInvalidSymbol;
    const GlushkovAutomaton* automaton = nullptr;  // null: nothing to run
    Symbol type = kInvalidSymbol;  // index into the run's types
    std::vector<Symbol> word;  // children; kInvalidSymbol marks text
  };

  /// Start-tag checks of vertex `seq`: the root label (vertex 0), a
  /// declared type, and the present attributes, sorted by name as a
  /// DataTree stores them (names are Symbols of the run's table). Resets
  /// `v` for the vertex's children.
  void Open(Vertex* v, uint32_t seq, Symbol label,
            const std::vector<DataTree::AttrEntry>& attrs);
  /// Appends one child label (kInvalidSymbol for a text child) to the
  /// vertex's child word.
  void Child(Vertex* v, Symbol child) {
    if (v->automaton != nullptr) v->word.push_back(child);
  }
  /// Runs the vertex's content model over its child word.
  void Close(const Vertex& v);

  /// True once max_violations violations were collected.
  bool full() const { return cap_ != 0 && violations_.size() >= cap_; }
  /// The report: violations in (vertex, phase) order, capped at
  /// max_violations; `steps` is the number of vertices examined.
  ValidationReport Finish(size_t steps);

 private:
  // Per-document state of one element type, resolved on first sight:
  // lazy translations of the document's Symbols to the type's automaton
  // alphabet and declared-attribute slots.
  struct Type {
    bool resolved = false;
    // Null for an undeclared type.
    const StructuralValidator::ElementPlan* plan = nullptr;
    std::vector<int> alpha;      // child Symbol -> alphabet id; -2 unknown
    int text_alpha = -1;         // alphabet id of S
    std::vector<int> attr_slot;  // Symbol -> slot; -1 undeclared, -2 unknown
  };
  // A violation with its phase within the vertex: root check, undeclared
  // type, content model, present attributes in name order, missing
  // attributes in declaration order.
  struct Pending {
    uint32_t seq;
    uint64_t rank;
    std::string message;
  };
  static uint64_t Rank(uint64_t phase, uint64_t index) {
    return (phase << 32) | index;
  }
  Type& TypeOf(Symbol label);
  void Add(uint32_t seq, uint64_t rank, std::string message) {
    violations_.push_back(Pending{seq, rank, std::move(message)});
  }

  const StructuralValidator& validator_;
  const SymbolTable& symbols_;
  const size_t cap_;
  std::vector<Type> types_;  // by label Symbol
  std::vector<int> ids_;     // Close() scratch: the word as alphabet ids
  std::vector<Pending> violations_;
};

}  // namespace xic

#endif  // XIC_MODEL_STRUCTURAL_VALIDATOR_H_
