// Glushkov position automaton for content-model regular expressions:
// matching child words against P(tau) (Definition 2.4), the XML
// 1-unambiguity check, and language inclusion (inclusion.h).
//
// One form for every size: positions 0..n-1 (symbol occurrences, left to
// right); First, Last and each Follow(p) are rows of ceil(n/64) words.
// Memory is (n+2) * ceil(n/64) * 8 bytes plus O(n + alphabet); building
// costs ceil(n/64) word operations per node and per Last position that a
// concatenation or star links from. A run keeps the positions that
// consumed the latest label: at most one for 1-unambiguous models
// (Brueggemann-Klein & Wood, 1998), so a step is one bit test per
// occurrence of the label and a run allocates nothing. Ambiguous models
// take the same loop at |state| * |occurrences| bit tests per step.

#ifndef XIC_REGEX_GLUSHKOV_H_
#define XIC_REGEX_GLUSHKOV_H_

#include <bit>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "regex/content_model.h"

namespace xic {

/// Why a content model fails the 1-unambiguity requirement: two distinct
/// positions (occurrences, numbered left to right from 0) that carry the
/// same symbol compete -- after the same prefix, the matcher cannot
/// decide which occurrence consumed the next label. `via == -1` means
/// both positions can begin a match (clash in First); otherwise both can
/// follow position `via` (clash in Follow(via)).
struct AmbiguityWitness {
  std::string symbol;
  int pos1 = 0;
  int pos2 = 0;
  int via = -1;
};

class GlushkovAutomaton {
 public:
  /// Builds the automaton of `re` (non-null) without recursing, so a
  /// long sequence or choice costs heap, not native stack. The build
  /// also holds two rows per level of right-nested operands.
  explicit GlushkovAutomaton(const RegexPtr& re);

  /// The positions the automaton of `re` would have, saturating at
  /// SIZE_MAX, in time linear in distinct nodes (a shared operand, as in
  /// nested '+', counts once per node). Check it before building.
  static size_t CountPositions(const Regex& re);

  /// True iff the label sequence is in L(re).
  bool Matches(const std::vector<std::string>& word) const;

  /// Dense id of `symbol` (ids follow name order), or -1 if it does not
  /// occur. Callers matching many words translate labels once.
  int FindAlphabetId(std::string_view symbol) const {
    auto it = alphabet_index_.find(symbol);
    return it == alphabet_index_.end() ? -1 : it->second;
  }

  /// True iff the word (alphabet ids; -1 for foreign symbols) matches.
  /// Thread-safe: the run state lives on the caller's stack.
  bool MatchesIds(const int* word, size_t len) const;

  /// True iff no two distinct positions with the same symbol are both in
  /// First, or both in Follow(p) for some p (XML's deterministic models).
  bool IsOneUnambiguous() const { return !OneUnambiguityWitness(); }
  /// The first clash (First before Follow rows, lowest positions first),
  /// or nullopt for deterministic models.
  std::optional<AmbiguityWitness> OneUnambiguityWitness() const;

  size_t num_positions() const { return pos_alpha_.size(); }
  size_t table_bytes() const {  // rows and position tables
    return rows_.size() * sizeof(uint64_t) +
           (2 * pos_alpha_.size() + alpha_begin_.size()) * sizeof(int);
  }

  // -- Position rows. A run state is a position, or kStart before the
  //    first label; Follow(kStart) is First.
  static constexpr int kStart = -1;
  bool Follows(int p, int q) const { return Bit(Row(p + 1), q); }
  /// True iff a run ending in `p` accepts (kStart: the empty word).
  bool Final(int p) const {
    return p == kStart ? nullable_ : Bit(Row(num_positions() + 1), p);
  }
  /// Calls visit(q) for each q in Follow(p), ascending.
  template <typename Visit>
  void ForEachSuccessor(int p, Visit&& visit) const {
    const uint64_t* row = Row(p + 1);
    for (size_t w = 0; w < words_; ++w) {
      for (uint64_t bits = row[w]; bits != 0; bits &= bits - 1) {
        visit(static_cast<int>(w * 64) + std::countr_zero(bits));
      }
    }
  }
  /// The positions carrying alphabet id `alpha`, ascending.
  std::span<const int> Positions(int alpha) const {
    return {alpha_pos_.data() + alpha_begin_[alpha],
            alpha_pos_.data() + alpha_begin_[alpha + 1]};
  }
  int alphabet_id(int p) const { return pos_alpha_[p]; }
  const std::string& symbol(int p) const { return alphabet_[pos_alpha_[p]]; }

 private:
  // Row 0 is First, row p + 1 is Follow(p), row n + 1 is Last.
  const uint64_t* Row(size_t r) const { return rows_.data() + r * words_; }
  static bool Bit(const uint64_t* row, int q) {
    return (row[q >> 6] >> (q & 63)) & 1;
  }

  size_t words_ = 0;  // ceil(n / 64)
  std::vector<uint64_t> rows_;
  bool nullable_ = false;
  std::map<std::string, int, std::less<>> alphabet_index_;
  std::vector<std::string> alphabet_;  // alphabet id -> symbol
  std::vector<int> pos_alpha_;         // position -> alphabet id
  std::vector<int> alpha_begin_;       // alphabet id -> offset in alpha_pos_
  std::vector<int> alpha_pos_;         // positions grouped by alphabet id
};

}  // namespace xic

#endif  // XIC_REGEX_GLUSHKOV_H_
