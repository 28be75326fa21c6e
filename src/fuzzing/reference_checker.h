// The reference semantics of G |= Sigma: nested loops over extents,
// read straight off the paper's definitions, with no index of any kind.
//
// ConstraintChecker (constraints/checker.h) evaluates Sigma through
// sorted tuple logs. This evaluator is the slow, obviously-correct
// standard it is measured against: the `checker` fuzz oracle,
// tests/checker_diff_test.cc and the B1 ablation benchmark
// (BM_ConstraintCheckNaive) compare the two reports byte for byte,
// witnesses and truncation included. Field values come from
// ConstraintChecker::FieldValue, the one definition of Section 3.4's
// attribute-or-unique-sub-element rule.
//
// Cost: O(|ext(tau)| * |ext(tau')|) per constraint, O(|V|^2) for ID
// constraints. Test and benchmark use only.

#ifndef XIC_FUZZING_REFERENCE_CHECKER_H_
#define XIC_FUZZING_REFERENCE_CHECKER_H_

#include <cstddef>

#include "constraints/checker.h"
#include "constraints/constraint.h"
#include "model/data_tree.h"
#include "model/dtd_structure.h"

namespace xic::fuzz {

/// Evaluates Sigma over `tree`; the report must equal
/// ConstraintChecker(dtd, sigma, {max_violations}).Check(tree) except for
/// `steps`.
ConstraintReport ReferenceCheck(const DtdStructure& dtd,
                                const ConstraintSet& sigma,
                                const DataTree& tree,
                                size_t max_violations = 0);

}  // namespace xic::fuzz

#endif  // XIC_FUZZING_REFERENCE_CHECKER_H_
