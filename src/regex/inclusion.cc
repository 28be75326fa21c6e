#include "regex/inclusion.h"

#include <algorithm>
#include <deque>
#include <map>
#include <span>
#include <unordered_set>
#include <utility>
#include <vector>

#include "obs/obs.h"
#include "regex/glushkov.h"

namespace xic {

Result<bool> RegexLanguageIncludedBounded(const RegexPtr& a,
                                          const RegexPtr& b,
                                          const InclusionBounds& bounds) {
  XIC_RETURN_IF_ERROR(bounds.deadline.Check("language inclusion"));
  obs::ScopedSpan span("regex.inclusion", "regex");
  XIC_COUNTER_ADD("regex.inclusion.checks", 1);
  GlushkovAutomaton nfa_a(a);
  GlushkovAutomaton nfa_b(b);
  // Product search over (a-state, determinized b-set), breadth first: a
  // counterexample word exists iff some reachable pair is (accepting in
  // a, rejecting set in b). A b-set is an ascending list of b-states;
  // seen[set] holds the a-states already queued with it.
  std::map<std::vector<int>, std::unordered_set<int>> seen;
  std::deque<std::pair<int, const std::vector<int>*>> queue;
  size_t visited = 0;
  auto visit = [&](int pa, std::vector<int> set_b) {
    auto it = seen.try_emplace(std::move(set_b)).first;
    if (!it->second.insert(pa).second) return;
    ++visited;
    queue.emplace_back(pa, &it->first);
  };
  visit(GlushkovAutomaton::kStart, {GlushkovAutomaton::kStart});
  size_t expanded = 0;
  bool included = true;
  std::vector<std::pair<int, int>> moves;  // (a's alphabet id, a-position)
  while (included && !queue.empty()) {
    XIC_RETURN_IF_ERROR(CheckLimit(visited, bounds.max_product_states,
                                   "max_automaton_states",
                                   "inclusion product states"));
    if ((++expanded & 0xFF) == 0) {
      XIC_RETURN_IF_ERROR(bounds.deadline.Check("language inclusion"));
    }
    auto [pa, set_b] = queue.front();
    queue.pop_front();
    auto any_b = [set_b](auto pred) {
      return std::any_of(set_b->begin(), set_b->end(), pred);
    };
    included = !nfa_a.Final(pa) ||
               any_b([&](int p) { return nfa_b.Final(p); });
    // pa's successors: alphabet ids follow name order, so sorting visits
    // symbols by name and each symbol's positions ascending.
    moves.clear();
    nfa_a.ForEachSuccessor(
        pa, [&](int q) { moves.emplace_back(nfa_a.alphabet_id(q), q); });
    std::sort(moves.begin(), moves.end());
    for (size_t i = 0; included && i < moves.size();) {
      const int alpha = nfa_b.FindAlphabetId(nfa_a.symbol(moves[i].second));
      std::vector<int> next_b;
      for (int q : alpha < 0 ? std::span<const int>()
                             : nfa_b.Positions(alpha)) {
        if (any_b([&](int p) { return nfa_b.Follows(p, q); })) {
          next_b.push_back(q);
        }
      }
      for (const int symbol = moves[i].first;
           i < moves.size() && moves[i].first == symbol; ++i) {
        visit(moves[i].second, next_b);
      }
    }
  }
  XIC_COUNTER_ADD("regex.inclusion.product_states", visited);
  span.AddInt("product_states", static_cast<int64_t>(visited));
  return included;
}

Result<bool> RegexLanguageEquivalentBounded(const RegexPtr& a,
                                            const RegexPtr& b,
                                            const InclusionBounds& bounds) {
  XIC_ASSIGN_OR_RETURN(bool forward,
                       RegexLanguageIncludedBounded(a, b, bounds));
  if (!forward) return false;
  return RegexLanguageIncludedBounded(b, a, bounds);
}

bool RegexLanguageIncluded(const RegexPtr& a, const RegexPtr& b) {
  return RegexLanguageIncludedBounded(a, b, {}).value();
}

bool RegexLanguageEquivalent(const RegexPtr& a, const RegexPtr& b) {
  return RegexLanguageIncluded(a, b) && RegexLanguageIncluded(b, a);
}

ModelCompatibility CompareContentModels(const RegexPtr& from,
                                        const RegexPtr& to) {
  bool widens = RegexLanguageIncluded(from, to);
  bool narrows = RegexLanguageIncluded(to, from);
  if (widens && narrows) return ModelCompatibility::kEquivalent;
  if (widens) return ModelCompatibility::kWidening;
  if (narrows) return ModelCompatibility::kNarrowing;
  return ModelCompatibility::kIncomparable;
}

const char* ModelCompatibilityToString(ModelCompatibility c) {
  switch (c) {
    case ModelCompatibility::kEquivalent:
      return "equivalent";
    case ModelCompatibility::kWidening:
      return "widening";
    case ModelCompatibility::kNarrowing:
      return "narrowing";
    case ModelCompatibility::kIncomparable:
      return "incomparable";
  }
  return "?";
}

}  // namespace xic
