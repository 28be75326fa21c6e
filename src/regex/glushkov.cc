#include "regex/glushkov.h"

#include <algorithm>
#include <climits>
#include <numeric>
#include <stdexcept>

#include "obs/obs.h"

namespace xic {

size_t GlushkovAutomaton::CountPositions(const Regex& re) {
  return Fold<size_t>(re, [](const Regex& node, size_t l, size_t r) {
    return node.kind() == RegexKind::kSymbol ? 1
           : l > SIZE_MAX - r                ? SIZE_MAX
                                             : l + r;
  });
}

GlushkovAutomaton::GlushkovAutomaton(const RegexPtr& re) {
  const size_t n = CountPositions(*re);
  if (n > static_cast<size_t>(INT_MAX)) {
    throw std::length_error("content model has too many positions");
  }
  const size_t w = words_ = (n + 63) / 64;
  rows_.assign((n + 2) * w, 0);
  // Each finished subexpression leaves its nullability and its First and
  // Last rows on a stack; an operator combines the top entries in place.
  std::vector<bool> nullable;
  std::vector<uint64_t> sets;  // per entry: First row, then Last row
  std::vector<const std::string*> labels;  // position -> symbol
  auto top = [&](size_t k) { return sets.data() + sets.size() - 2 * w * k; };
  auto link = [&](const uint64_t* last, const uint64_t* first) {
    for (size_t i = 0; i < w; ++i) {  // Follow(p) |= first, p in last
      for (uint64_t bits = last[i]; bits != 0; bits &= bits - 1) {
        const size_t p = i * 64 + std::countr_zero(bits);
        for (size_t k = 0; k < w; ++k) rows_[(p + 1) * w + k] |= first[k];
      }
    }
  };
  PostOrder(
      *re, [](const Regex*) { return false; },
      [&](const Regex& node) {
        const RegexKind kind = node.kind();
        if (kind == RegexKind::kEpsilon || kind == RegexKind::kSymbol) {
          sets.resize(sets.size() + 2 * w, 0);
          nullable.push_back(kind == RegexKind::kEpsilon);
          if (kind == RegexKind::kEpsilon) return;
          const size_t pos = labels.size();
          labels.push_back(&node.symbol());
          top(1)[pos / 64] = top(1)[w + pos / 64] = uint64_t{1} << (pos % 64);
          return;
        }
        if (kind == RegexKind::kStar) {
          link(top(1) + w, top(1));
          nullable.back() = true;
          return;
        }
        uint64_t* l = top(2);
        const uint64_t* r = top(1);
        const bool l_nullable = nullable[nullable.size() - 2];
        const bool r_nullable = nullable.back();
        nullable.pop_back();
        if (kind == RegexKind::kUnion) {
          for (size_t k = 0; k < 2 * w; ++k) l[k] |= r[k];
          nullable.back() = l_nullable || r_nullable;
        } else {
          link(l + w, r);
          for (size_t k = 0; k < w; ++k) {
            if (l_nullable) l[k] |= r[k];
            l[w + k] = r[w + k] | (r_nullable ? l[w + k] : 0);
          }
          nullable.back() = l_nullable && r_nullable;
        }
        sets.resize(sets.size() - 2 * w);
      });
  nullable_ = nullable.back();
  std::copy(sets.begin(), sets.begin() + w, rows_.begin());
  std::copy(sets.begin() + w, sets.end(), rows_.end() - w);

  // Alphabet ids in name order; positions grouped by id, ascending.
  for (const std::string* label : labels) alphabet_index_.emplace(*label, 0);
  for (auto& [symbol, id] : alphabet_index_) {
    id = static_cast<int>(alphabet_.size());
    alphabet_.push_back(symbol);
  }
  alpha_begin_.assign(alphabet_.size() + 1, 0);
  for (const std::string* label : labels) {
    pos_alpha_.push_back(alphabet_index_.find(*label)->second);
    ++alpha_begin_[pos_alpha_.back() + 1];
  }
  std::partial_sum(alpha_begin_.begin(), alpha_begin_.end(),
                   alpha_begin_.begin());
  alpha_pos_.resize(n);
  std::vector<int> fill = alpha_begin_;
  for (size_t p = 0; p < n; ++p) {
    alpha_pos_[fill[pos_alpha_[p]]++] = static_cast<int>(p);
  }

  XIC_COUNTER_ADD("regex.glushkov.builds", 1);
  XIC_COUNTER_ADD("regex.glushkov.states", n);
  XIC_COUNTER_MAX("regex.glushkov.max_states", n);
  XIC_HISTOGRAM_OBSERVE("regex.glushkov.states_per_build", n,
                        {4.0, 16.0, 64.0, 256.0, 1024.0});
}

bool GlushkovAutomaton::Matches(const std::vector<std::string>& word) const {
  std::vector<int> ids;
  for (const std::string& label : word) ids.push_back(FindAlphabetId(label));
  return MatchesIds(ids.data(), ids.size());
}

bool GlushkovAutomaton::MatchesIds(const int* word, size_t len) const {
  // The run state: the ascending positions that consumed the latest
  // label (kStart before the first), in two alternating buffers. They
  // start inline; a 1-unambiguous model never outgrows them (its state
  // is at most one position), so such a run allocates nothing.
  constexpr size_t kInline = 8;
  int inline_states[2][kInline] = {};
  std::vector<int> heap;
  int* current = inline_states[0];
  int* next = inline_states[1];
  size_t current_size = 1;
  size_t capacity = kInline;
  current[0] = kStart;
  for (size_t i = 0; i < len; ++i) {
    if (word[i] < 0) return false;  // foreign symbol: no transition
    size_t next_size = 0;
    for (int q : Positions(word[i])) {
      for (size_t k = 0; k < current_size; ++k) {
        if (!Follows(current[k], q)) continue;
        if (next_size == capacity) {  // both buffers double, on the heap
          std::vector<int> grown(4 * capacity);
          std::copy(current, current + current_size, grown.begin());
          std::copy(next, next + next_size, grown.begin() + 2 * capacity);
          heap.swap(grown);
          current = heap.data();
          next = current + 2 * capacity;
          capacity *= 2;
        }
        next[next_size++] = q;
        break;
      }
    }
    if (next_size == 0) return false;
    std::swap(current, next);
    current_size = next_size;
  }
  return std::any_of(current, current + current_size,
                     [this](int p) { return Final(p); });
}

std::optional<AmbiguityWitness> GlushkovAutomaton::OneUnambiguityWitness()
    const {
  // Scan First, then Follow(0..n-1), each row ascending. seen[a] is the
  // lowest position with alphabet id a in the row named by stamp[a].
  std::vector<int> seen(alphabet_.size());
  std::vector<int> stamp(alphabet_.size(), kStart - 1);
  std::optional<AmbiguityWitness> witness;
  for (int via = kStart;
       via < static_cast<int>(num_positions()) && !witness.has_value();
       ++via) {
    ForEachSuccessor(via, [&](int q) {
      const int a = pos_alpha_[q];
      if (witness.has_value() || stamp[a] != via) {
        stamp[a] = via;
        seen[a] = q;
      } else {
        witness = AmbiguityWitness{alphabet_[a], seen[a], q, via};
      }
    });
  }
  return witness;
}

}  // namespace xic
