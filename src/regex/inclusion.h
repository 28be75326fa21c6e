// Language inclusion and equivalence for content models.
//
// DTD evolution needs to answer "does the new content model accept every
// document the old one accepted?" -- language inclusion L(a) ⊆ L(b) over
// the element-name alphabet. Decided by the classical product
// construction: simulate the Glushkov NFA of `a` against the on-the-fly
// determinization of `b`'s Glushkov NFA and look for a reachable pair
// (accepting-in-a, non-accepting-in-b), reading both automata's position
// rows (glushkov.h). Exponential in |b| in the worst case; a
// 1-unambiguous b keeps every b-set to at most one position.

#ifndef XIC_REGEX_INCLUSION_H_
#define XIC_REGEX_INCLUSION_H_

#include "regex/content_model.h"
#include "util/limits.h"

namespace xic {

/// Bounds for one inclusion query. The product search visits at most
/// `max_product_states` pairs (0 = unlimited; kResourceExhausted naming
/// max_automaton_states past that) and polls the deadline every few
/// hundred states (kDeadlineExceeded on expiry).
struct InclusionBounds {
  size_t max_product_states = 0;
  Deadline deadline;

  static InclusionBounds FromLimits(const ResourceLimits& limits,
                                    Deadline deadline = {}) {
    InclusionBounds b;
    b.max_product_states = limits.max_automaton_states;
    b.deadline = deadline;
    return b;
  }
};

/// True iff L(a) ⊆ L(b).
bool RegexLanguageIncluded(const RegexPtr& a, const RegexPtr& b);

/// True iff L(a) = L(b).
bool RegexLanguageEquivalent(const RegexPtr& a, const RegexPtr& b);

/// Bounded variants: the exact answer, or a structured error when the
/// state bound / deadline was hit (the inclusion problem is PSPACE-hard,
/// so a service must cap it).
Result<bool> RegexLanguageIncludedBounded(const RegexPtr& a,
                                          const RegexPtr& b,
                                          const InclusionBounds& bounds);
Result<bool> RegexLanguageEquivalentBounded(const RegexPtr& a,
                                            const RegexPtr& b,
                                            const InclusionBounds& bounds);

/// Compatibility verdict for replacing content model `from` by `to` in a
/// DTD revision.
enum class ModelCompatibility {
  kEquivalent,  // same language
  kWidening,    // strictly more documents accepted (backward compatible)
  kNarrowing,   // strictly fewer documents accepted
  kIncomparable,
};

ModelCompatibility CompareContentModels(const RegexPtr& from,
                                        const RegexPtr& to);

const char* ModelCompatibilityToString(ModelCompatibility c);

}  // namespace xic

#endif  // XIC_REGEX_INCLUSION_H_
