// Content models for element type definitions (Definition 2.2).
//
// The paper defines element type definitions P(tau) = alpha with
//   alpha ::= S | e | epsilon | alpha + alpha | alpha , alpha | alpha*
// where S is the atomic (string) type and e an element name. This module
// provides the regular-expression AST, a parser for the DTD surface syntax
// ("(entry, author*, section*, ref)", "(#PCDATA|b)*", "EMPTY", ...), and
// static analyses used elsewhere:
//   * symbol occurrence bounds (min/max occurrences of a symbol over all
//     words of L(alpha)) -- the "unique sub-element" test of Section 3.4,
//   * the set of symbols occurring in alpha (path construction, Section 4).

#ifndef XIC_REGEX_CONTENT_MODEL_H_
#define XIC_REGEX_CONTENT_MODEL_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/status.h"

namespace xic {

/// The reserved symbol naming the atomic string type S. Element names never
/// collide with it because '#' is not an XML name character.
inline constexpr const char* kStringSymbol = "#PCDATA";

/// AST node kinds for content-model regular expressions.
enum class RegexKind {
  kEpsilon,  // the empty word
  kSymbol,   // an element name, or kStringSymbol for S
  kUnion,    // alpha + alpha  (DTD syntax: '|')
  kConcat,   // alpha , alpha
  kStar,     // alpha*
};

/// A regular expression over element names and S. Immutable after
/// construction; shared via shared_ptr so DTD structures are cheap to copy.
class Regex;
using RegexPtr = std::shared_ptr<const Regex>;

class Regex {
 public:
  static RegexPtr Epsilon();
  static RegexPtr Symbol(std::string name);
  static RegexPtr String();  // the S terminal
  static RegexPtr Union(RegexPtr left, RegexPtr right);
  static RegexPtr Concat(RegexPtr left, RegexPtr right);
  static RegexPtr Star(RegexPtr inner);
  /// alpha+ == alpha , alpha*
  static RegexPtr Plus(RegexPtr inner);
  /// alpha? == alpha + epsilon
  static RegexPtr Optional(RegexPtr inner);
  /// Concatenation of a whole sequence (Epsilon when empty).
  static RegexPtr Sequence(std::vector<RegexPtr> parts);
  /// Union of a whole sequence; parts must be non-empty.
  static RegexPtr Choice(std::vector<RegexPtr> parts);

  RegexKind kind() const { return kind_; }
  /// Only for kSymbol nodes.
  const std::string& symbol() const { return symbol_; }
  /// Only for kUnion / kConcat nodes.
  const RegexPtr& left() const { return left_; }
  const RegexPtr& right() const { return right_; }
  /// Only for kStar nodes.
  const RegexPtr& inner() const { return left_; }

  /// True if the empty word is in L(this).
  bool Nullable() const;

  /// All symbols (element names and possibly kStringSymbol) occurring in
  /// the expression.
  std::set<std::string> Symbols() const;

  /// Occurrence bounds of `symbol` over the words of L(this):
  /// (min, max) with max == kUnbounded for unbounded.
  static constexpr int64_t kUnbounded = -1;
  struct Bounds {
    int64_t min = 0;
    int64_t max = 0;  // kUnbounded means no finite bound
  };
  Bounds OccurrenceBounds(const std::string& symbol) const;

  /// True iff `symbol` occurs exactly once in every word of L(this) --
  /// the paper's "unique sub-element" condition (Section 3.4).
  bool IsUniqueSymbol(const std::string& symbol) const;

  /// DTD-style rendering, e.g. "(entry, author*, (text | section)*)".
  std::string ToString() const;

  /// Frees uniquely owned operands with an explicit stack: Sequence and
  /// Choice build chains as long as the model.
  ~Regex();
  Regex(const Regex&) = delete;
  Regex& operator=(const Regex&) = delete;

 private:
  Regex(RegexKind kind, std::string symbol, RegexPtr left, RegexPtr right)
      : kind_(kind),
        symbol_(std::move(symbol)),
        left_(std::move(left)),
        right_(std::move(right)) {}

  RegexKind kind_;
  std::string symbol_;
  RegexPtr left_;
  RegexPtr right_;
};

/// Calls leave(node) for every node of `re` after its operands, operands
/// left to right, skipping nodes (and their operands) for which
/// skip(node) holds. The stack is explicit: Regex::Sequence and
/// Regex::Choice build chains as long as the model.
template <typename Skip, typename Leave>
void PostOrder(const Regex& re, Skip skip, Leave leave) {
  std::vector<std::pair<const Regex*, bool>> todo{{&re, false}};
  while (!todo.empty()) {
    auto [node, expanded] = todo.back();
    if (skip(node)) {
      todo.pop_back();
    } else if (!expanded && node->left() != nullptr) {
      todo.back().second = true;
      if (node->right() != nullptr) {
        todo.emplace_back(node->right().get(), false);
      }
      todo.emplace_back(node->left().get(), false);
    } else {
      todo.pop_back();
      leave(*node);
    }
  }
}

/// Evaluates `re` bottom-up: f(node, left, right) gets the values of the
/// node's operands (T{} for an absent one). Each distinct node is
/// evaluated once, however many owners it has (Plus shares its operand,
/// so a plain tree walk of nested '+' would take 2^depth steps).
template <typename T, typename F>
T Fold(const Regex& re, F f) {
  std::unordered_map<const Regex*, T> value{{nullptr, T{}}};
  PostOrder(
      re, [&](const Regex* node) { return value.count(node) > 0; },
      [&](const Regex& node) {
        T v = f(node, value.at(node.left().get()),
                value.at(node.right().get()));
        value.emplace(&node, std::move(v));
      });
  return value.at(&re);
}

/// Parses the DTD content-model surface syntax. Accepts:
///   EMPTY | ANY-free subset | "(" ... ")" with ',' '|' '*' '+' '?'
///   #PCDATA for the atomic type S.
/// "ANY" is not supported (NotSupported) -- the paper's model has no ANY.
/// `max_depth` bounds parenthesis nesting (the parser recurses per
/// level); 0 disables the bound. Exceeding it returns kResourceExhausted
/// naming max_content_model_depth.
Result<RegexPtr> ParseContentModel(const std::string& text,
                                   size_t max_depth = 0);

}  // namespace xic

#endif  // XIC_REGEX_CONTENT_MODEL_H_
