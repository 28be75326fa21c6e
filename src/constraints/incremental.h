// Incremental constraint maintenance.
//
// The paper's conclusion envisions constraints "specified by the XML
// designer and maintained by the system". This module maintains
// satisfaction of a constraint set under document updates without
// re-checking the whole document: running counts are updated in
// O(affected values) per mutation and answer consistency queries in O(1).
//
// The checker reads Sigma through the plan ConstraintChecker compiles
// (constraints/checker.h): per element type, the fields the constraints
// read and the role each constraint gives the type. A vertex's fields
// are resolved and read with the same two rules the batch core uses, so
// both checkers see the same tuples, sets and values by construction.
// An update is one signed pass over the roles that read the changed
// field: each role's values are withdrawn (-1) before the change and
// re-entered (+1) after it.
//
// Supported constraints: keys, ID constraints, foreign keys and
// set-valued foreign keys whose fields are declared attributes of their
// element type. Inverse constraints and any other field (a sub-element,
// or a name the DTD does not declare) are rejected with NotSupported;
// use the batch ConstraintChecker for those.
//
// Violation accounting (consistent() is true iff all counts are zero):
//   * key tau[X] -> tau: one violation per extra vertex sharing an
//     X-tuple, plus one per vertex with an incomplete tuple;
//   * ID constraint: one violation per vertex of its type whose ID
//     attribute is missing; document-wide, id_conflicts() counts the
//     vertices of ID-constrained types whose ID value is held by more than
//     one ID-bearing vertex;
//   * (set-valued) foreign key: one violation per dangling source tuple
//     occurrence / set member, plus incomplete source tuples.

#ifndef XIC_CONSTRAINTS_INCREMENTAL_H_
#define XIC_CONSTRAINTS_INCREMENTAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "constraints/checker.h"
#include "constraints/constraint.h"
#include "model/data_tree.h"
#include "model/dtd_structure.h"
#include "util/status.h"

namespace xic {

class IncrementalChecker {
 public:
  /// Compiles the plan for `sigma` over an initially empty document.
  /// Unsupported constraint forms surface in status(). `dtd` must outlive
  /// the checker; `sigma` is copied.
  IncrementalChecker(const DtdStructure& dtd, const ConstraintSet& sigma);

  const Status& status() const { return status_; }

  // -- Document construction / mutation ------------------------------------

  /// Adds an element labeled `label` under `parent` (kInvalidVertex for
  /// the root). Content models are not enforced here (use
  /// StructuralValidator for batch structural checks); constraint
  /// counts are updated.
  Result<VertexId> AddElement(VertexId parent, const std::string& label);

  /// Sets (or replaces) attribute `attr` of `v`, updating all affected
  /// constraint counts.
  Status SetAttribute(VertexId v, const std::string& attr, AttrValue value);

  /// Convenience overload for single-valued attributes.
  Status SetAttribute(VertexId v, const std::string& attr,
                      std::string value);

  const DataTree& tree() const { return tree_; }

  // -- Constraint state -----------------------------------------------------

  /// True iff the current document satisfies every constraint in Sigma
  /// (O(1)).
  bool consistent() const { return total_violations_ == 0; }

  /// Current total violation count (see the accounting rules above).
  size_t violation_count() const { return total_violations_; }

  /// Per-constraint violation counts, aligned with sigma.constraints.
  /// Document-wide ID duplications are reported separately by
  /// id_conflicts() (they belong to every Id constraint at once).
  const std::vector<size_t>& per_constraint_violations() const {
    return violations_;
  }

  /// Constrained vertices whose ID value is duplicated document-wide.
  size_t id_conflicts() const { return id_conflicts_; }

 private:
  using Role = ConstraintChecker::Role;
  using TypePlan = ConstraintChecker::TypePlan;

  // Occurrences of one value on the two sides a count compares: a key's
  // tuple holders (n[0]); a foreign key's source occurrences (n[0]) and
  // target holders (n[1]); the ID table's holders (n[0]) and holders of
  // ID-constrained types (n[1]).
  struct Tally {
    size_t n[2] = {0, 0};
  };
  struct ViewHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  using Tallies =
      std::unordered_map<std::string, Tally, ViewHash, std::equal_to<>>;
  // The violations a tally contributes under one kind of count.
  using Rule = size_t (*)(const Tally&);

  static constexpr size_t kAllFields = static_cast<size_t>(-1);

  /// Adds `sign` (+1 or -1) times what every role of `plan` reading
  /// `field` (kAllFields: every role) reads from vertex v now.
  void Apply(VertexId v, const TypePlan& plan, size_t field, int sign);
  /// Moves side `side` of `value`'s tally by `sign` and returns the
  /// change in the violations `rule` counts.
  static int64_t Step(Tallies* tallies, std::string_view value, int side,
                      int sign, Rule rule);
  void Bump(size_t* counter, int64_t delta);

  const DtdStructure& dtd_;
  // On the heap so that checker_'s reference to it survives a move.
  std::unique_ptr<const ConstraintSet> sigma_;
  ConstraintChecker checker_;
  Status status_;
  DataTree tree_;

  std::vector<size_t> violations_;
  size_t total_violations_ = 0;
  std::vector<Tallies> tallies_;  // parallel to sigma_->constraints
  Tallies ids_;                   // the document-wide ID table
  size_t id_conflicts_ = 0;
  // Scratch for one vertex's resolved fields.
  std::vector<Symbol> syms_;
  std::vector<ConstraintChecker::Field> fields_;
  std::vector<std::string> texts_;
  ConstraintChecker::RoleReader reader_;
};

}  // namespace xic

#endif  // XIC_CONSTRAINTS_INCREMENTAL_H_
