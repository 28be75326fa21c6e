// Constraint satisfaction: does a data tree G satisfy a constraint set
// Sigma (the G |= Sigma half of Definition 2.4)?
//
// Evaluation follows the paper's semantics exactly:
//   * keys are scoped to ext(tau) (per element type),
//   * L_id ID constraints are scoped to the *whole document* (a value must
//     not recur in any vertex's ID attribute, regardless of type),
//   * foreign keys / set-valued foreign keys are value inclusions into the
//     target extent's key values,
//   * inverse constraints assert the two symmetric membership implications.
//
// Key and foreign-key positions may be unique sub-elements (Section 3.4);
// the value of a sub-element field is the concatenated character data of
// the unique child with that label.
//
// One plan serves every checker. The constructor compiles, per element
// type, the fields the constraints read and the role each constraint
// gives the type (key tuple, foreign-key source or target, ID holder,
// inverse side). Two rules read a vertex through that plan:
// ResolveTreeFields turns a DataTree vertex into resolved fields, and
// RoleReader turns resolved fields into what one role reads (an encoded
// tuple, a set's members, or one value). A ConstraintRun takes one call
// per vertex, appends what each role reads to sorted TupleLogs
// (constraints/extent_log.h), and Finish() turns sorted scans of those
// logs into the violation list: duplicate keys by group iteration,
// foreign keys by merge-join, document-wide IDs via a global ID log.
// Two drivers feed it: Check() walks a DataTree in vertex-id order
// (detached vertices included, attribute sets and text children as
// built), and the streaming validator (engine/stream_validator.h) feeds
// tokenizer events. IncrementalChecker (constraints/incremental.h) reads
// vertices through the same plan and rules but keeps running counts
// instead of logs. The nested-loop reference semantics the core is
// tested against live in src/fuzzing/reference_checker.h.
//
// Thread-safety: the constructor compiles everything derived from the DTD
// and Sigma into an immutable plan; Check() keeps all per-document state
// on the stack. One checker can therefore validate many documents
// concurrently from different threads, as the batch engine
// (engine/batch_validator.h) does. The referenced DtdStructure and
// ConstraintSet must outlive the checker and stay unmodified.

#ifndef XIC_CONSTRAINTS_CHECKER_H_
#define XIC_CONSTRAINTS_CHECKER_H_

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "constraints/constraint.h"
#include "constraints/extent_log.h"
#include "model/data_tree.h"
#include "model/dtd_structure.h"
#include "util/limits.h"
#include "util/status.h"

namespace xic {

/// One constraint violation with the witnesses that falsify the formula.
struct ConstraintViolation {
  size_t constraint_index;  // into sigma.constraints
  std::string message;
  /// Falsifying vertices. For repairable violations the vertex to edit
  /// comes first (see constraints/repair.h).
  std::vector<VertexId> witnesses;
  /// The offending values: the dangling reference value(s), duplicated
  /// key tuple, or (for inverse violations) the key missing from the
  /// first witness's reference set.
  std::vector<std::string> values;
};

struct ConstraintReport {
  std::vector<ConstraintViolation> violations;
  /// Work performed: vertex-field evaluations (index probes plus extent
  /// scans). Fed to the observability layer as the constraint stage's
  /// step count; not part of ToString(), so rendered reports stay
  /// byte-stable.
  size_t steps = 0;
  /// Not-OK when the check was cut short (deadline); the violation list
  /// is then a prefix, not a verdict.
  Status status = Status::OK();
  bool ok() const { return status.ok() && violations.empty(); }
  std::string ToString(const ConstraintSet& sigma) const;
};

struct CheckOptions {
  /// Stop after this many violations (0 = collect all).
  size_t max_violations = 0;
};

class ConstraintChecker {
 public:
  ConstraintChecker(const DtdStructure& dtd, const ConstraintSet& sigma,
                    CheckOptions options = {});

  /// Evaluates G |= Sigma; the report lists every violated constraint.
  /// The deadline is polled every 1024 vertices and between constraints;
  /// on expiry the report carries kDeadlineExceeded. The tree is
  /// resident, so its tuple logs never spill.
  ConstraintReport Check(const DataTree& tree) const {
    return Check(tree, Deadline::Infinite());
  }
  ConstraintReport Check(const DataTree& tree, const Deadline& deadline) const;

  /// The value of field `name` (attribute or unique sub-element) on vertex
  /// `v`, as a set of atomic values. Missing fields yield an error. The
  /// reference evaluator's reading of Section 3.4; the core reads through
  /// ResolveTreeFields.
  Result<AttrValue> FieldValue(const DataTree& tree, VertexId v,
                               const std::string& name) const;

  /// What one constraint reads from the vertices of one element type.
  struct Role {
    enum Kind {
      kKeyTuple,   // ext(tau) of a key: encoded tuple -> ext log
      kFkTuple,    // ext(tau) of a foreign key: tuple -> ext log
      kFkTarget,   // ext(tau') of a foreign key: tuple -> target log
      kSfkSource,  // ext(tau) of a set-valued FK: each value -> ext log
      kSfkTarget,  // ext(tau') of a set-valued FK: value -> target log
      kIdExt,      // ext(tau) of an ID constraint: value -> ext log
      kInvExt,     // ext(tau) of an inverse: (key, set) -> in memory
      kInvRef,     // ext(tau') of an inverse: (key, set) -> in memory
      kGlobalId,   // the type's ID attribute -> document-wide ID log
    };
    Kind kind;
    size_t constraint;
    std::vector<size_t> fields;  // indexes into TypePlan::fields
  };

  /// Everything the core reads from vertices of one element type.
  struct TypePlan {
    std::vector<std::string> fields;  // distinct field names
    /// Parallel: declared as an attribute in the DTD? A declared but
    /// absent attribute is a missing field, never a sub-element.
    std::vector<bool> field_declared;
    std::vector<Role> roles;
  };

  /// The plan for vertices labeled `element`, or null when no constraint
  /// reads them.
  const TypePlan* PlanFor(std::string_view element) const {
    auto it = type_plans_.find(element);
    return it == type_plans_.end() ? nullptr : &it->second;
  }

  /// One field of one vertex as resolved: a present attribute's value
  /// set, the text of the unique matching sub-element, or missing. Views
  /// must stay valid while the field is read.
  struct Field {
    enum Kind { kMissing, kSet, kText } kind = kMissing;
    const AttrValue* set = nullptr;  // kSet
    std::string_view text;           // kText
  };

  /// How the fields of `plan` resolve on tree vertex `v`: a present
  /// attribute is its value set; a declared attribute that is absent is
  /// missing (never a sub-element); any other name is the text of the
  /// unique child so labeled, kept in `texts`. `syms` holds the tree's
  /// Symbols of plan.fields (kInvalidSymbol for names the tree lacks).
  static void ResolveTreeFields(const DataTree& tree, VertexId v,
                                const TypePlan& plan,
                                const std::vector<Symbol>& syms,
                                std::vector<Field>* fields,
                                std::vector<std::string>* texts);

  /// What a role reads from one vertex's resolved fields. Read() fills
  /// values() with the encoded field tuple (kKeyTuple, kFkTuple,
  /// kFkTarget), every member of the set (kSfkSource) or the one value
  /// (kSfkTarget, kIdExt, kGlobalId), and returns false when a field is
  /// missing, or holds other than one value where one is needed. Inverse
  /// roles read their key with Single() and their set with SetOf().
  /// Views stay valid until the next call or until the fields change.
  class RoleReader {
   public:
    bool Read(const Role& role, const std::vector<Field>& fields);
    std::optional<std::string_view> Single(const Field& f);
    bool SetOf(const Field& f);  // fills values()
    const std::vector<std::string_view>& values() const { return values_; }
    /// Single-value reads so far (the core's work counter).
    size_t steps() const { return steps_; }

   private:
    std::vector<std::string_view> values_;
    std::string encoded_;
    size_t steps_ = 0;
  };

 private:
  friend class ConstraintRun;

  const DtdStructure& dtd_;
  const ConstraintSet& sigma_;
  CheckOptions options_;
  std::map<std::string, TypePlan, std::less<>> type_plans_;
  /// Resolved key attributes of each inverse constraint (the named L_u
  /// keys or the DTD's ID attributes in L_id); empty when unresolvable.
  struct InverseKeys {
    std::string key, ref_key;
  };
  std::vector<InverseKeys> inverse_keys_;  // parallel to sigma_.constraints
  bool needs_global_ids_ = false;
};

/// One document's constraint check. A caller resolves each vertex's
/// fields (in TypePlan::fields order) and calls AddVertex once per vertex
/// whose type has a plan, in any vertex order; Finish() evaluates Sigma.
/// Violations come out in the order a vertex-id walk emits them:
/// constraint by constraint, then by witness vertex.
class ConstraintRun {
 public:
  /// `spill_budget_bytes` bounds the in-memory tuple logs (kNeverSpill:
  /// unbounded). The checker must outlive the run.
  ConstraintRun(const ConstraintChecker& checker, size_t spill_budget_bytes,
                const Deadline& deadline);

  void AddVertex(uint32_t seq, const ConstraintChecker::TypePlan& plan,
                 const std::vector<ConstraintChecker::Field>& fields);

  /// Evaluates every constraint over the collected logs.
  ConstraintReport Finish();

  /// Records appended to the constraints' logs (the document-wide ID log
  /// not included).
  size_t extent_records() const;
  const SpillBudget& budget() const { return budget_; }

 private:
  // Per-constraint extraction output.
  struct Logs {
    std::optional<TupleLog> ext;     // ext(tau) tuples / values
    std::optional<TupleLog> target;  // ext(tau') key tuples / values
    std::vector<uint32_t> ext_missing;  // seqs with a missing field
    // Inverse constraints need random access to both extents; they are
    // held in memory (see DESIGN.md for the bound). An entry's key and
    // value set are indexes into `values`, whose bytes live in `bytes`.
    struct InvEntry {
      uint32_t seq = 0;
      bool has_key = false;
      bool has_set = false;
      uint32_t key = 0;                     // index into values
      uint32_t set_begin = 0, set_end = 0;  // ascending values
    };
    std::vector<InvEntry> inv_ext, inv_ref;
    std::vector<std::pair<size_t, size_t>> values;  // (offset, length)
    std::string bytes;
    uint32_t Store(std::string_view v) {
      values.emplace_back(bytes.size(), v.size());
      bytes.append(v);
      return static_cast<uint32_t>(values.size() - 1);
    }
    std::string_view Value(uint32_t index) const {
      return std::string_view(bytes.data() + values[index].first,
                              values[index].second);
    }
  };

  void Append(std::optional<TupleLog>* log, uint32_t seq, uint32_t rank,
              std::string_view payload);
  void EvaluateInverse(size_t i, Logs& logs, ConstraintReport* report);

  const ConstraintChecker& checker_;
  Deadline deadline_;
  // budget_ must precede every TupleLog: logs deregister from the budget
  // on destruction.
  SpillBudget budget_;
  std::vector<Logs> logs_;  // parallel to sigma; never resized
  std::optional<TupleLog> global_ids_;
  ConstraintChecker::RoleReader reader_;
  Status spill_error_ = Status::OK();
};

}  // namespace xic

#endif  // XIC_CONSTRAINTS_CHECKER_H_
