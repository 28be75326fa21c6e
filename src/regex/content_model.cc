#include "regex/content_model.h"

#include <algorithm>
#include <cctype>
#include <unordered_set>

#include "util/limits.h"
#include "util/strings.h"

namespace xic {

RegexPtr Regex::Epsilon() {
  return RegexPtr(
      new Regex(RegexKind::kEpsilon, std::string(), nullptr, nullptr));
}

RegexPtr Regex::Symbol(std::string name) {
  return RegexPtr(
      new Regex(RegexKind::kSymbol, std::move(name), nullptr, nullptr));
}

RegexPtr Regex::String() { return Symbol(kStringSymbol); }

RegexPtr Regex::Union(RegexPtr left, RegexPtr right) {
  return RegexPtr(new Regex(RegexKind::kUnion, std::string(),
                            std::move(left), std::move(right)));
}

RegexPtr Regex::Concat(RegexPtr left, RegexPtr right) {
  return RegexPtr(new Regex(RegexKind::kConcat, std::string(),
                            std::move(left), std::move(right)));
}

RegexPtr Regex::Star(RegexPtr inner) {
  return RegexPtr(
      new Regex(RegexKind::kStar, std::string(), std::move(inner), nullptr));
}

RegexPtr Regex::Plus(RegexPtr inner) {
  return Concat(inner, Star(inner));
}

RegexPtr Regex::Optional(RegexPtr inner) {
  return Union(std::move(inner), Epsilon());
}

RegexPtr Regex::Sequence(std::vector<RegexPtr> parts) {
  if (parts.empty()) return Epsilon();
  RegexPtr out = parts[0];
  for (size_t i = 1; i < parts.size(); ++i) {
    out = Concat(std::move(out), parts[i]);
  }
  return out;
}

RegexPtr Regex::Choice(std::vector<RegexPtr> parts) {
  RegexPtr out = parts.at(0);
  for (size_t i = 1; i < parts.size(); ++i) {
    out = Union(std::move(out), parts[i]);
  }
  return out;
}

Regex::~Regex() {
  // Operands this node alone owns are unlinked here and freed by this
  // loop, so no destructor recurses more than one level.
  std::vector<RegexPtr> doomed;
  auto take = [&](RegexPtr& operand) {
    if (operand != nullptr && operand.use_count() == 1) {
      doomed.push_back(std::move(operand));
    }
  };
  take(left_);
  take(right_);
  while (!doomed.empty()) {
    RegexPtr node = std::move(doomed.back());
    doomed.pop_back();
    // Sole owner: no one else can observe the node being emptied.
    Regex& owned = const_cast<Regex&>(*node);
    take(owned.left_);
    take(owned.right_);
  }
}

bool Regex::Nullable() const {
  return Fold<bool>(*this, [](const Regex& node, bool l, bool r) {
    switch (node.kind()) {
      case RegexKind::kSymbol:
        return false;
      case RegexKind::kUnion:
        return l || r;
      case RegexKind::kConcat:
        return l && r;
      case RegexKind::kEpsilon:
      case RegexKind::kStar:
        break;
    }
    return true;
  });
}

std::set<std::string> Regex::Symbols() const {
  // Iterative, each node once: a long sequence must not recurse per
  // element, and Plus shares its operand, so a tree walk of nested '+'
  // would visit it 2^depth times. Only a node with several owners can be
  // reached twice, so only those are remembered.
  std::set<std::string> out;
  std::unordered_set<const Regex*> seen;
  std::vector<const Regex*> todo{this};
  while (!todo.empty()) {
    const Regex* re = todo.back();
    todo.pop_back();
    if (re->kind_ == RegexKind::kSymbol) out.insert(re->symbol_);
    for (const RegexPtr* child : {&re->left_, &re->right_}) {
      if (*child != nullptr && (child->use_count() == 1 ||
                                seen.insert(child->get()).second)) {
        todo.push_back(child->get());
      }
    }
  }
  return out;
}

namespace {

// Saturating addition treating kUnbounded as infinity.
int64_t AddBound(int64_t a, int64_t b) {
  if (a == Regex::kUnbounded || b == Regex::kUnbounded) {
    return Regex::kUnbounded;
  }
  return a + b;
}

int64_t MaxBound(int64_t a, int64_t b) {
  if (a == Regex::kUnbounded || b == Regex::kUnbounded) {
    return Regex::kUnbounded;
  }
  return std::max(a, b);
}

}  // namespace

Regex::Bounds Regex::OccurrenceBounds(const std::string& symbol) const {
  return Fold<Bounds>(*this, [&](const Regex& node, Bounds l, Bounds r) {
    switch (node.kind()) {
      case RegexKind::kEpsilon:
        break;
      case RegexKind::kSymbol:
        if (node.symbol() == symbol) return Bounds{1, 1};
        break;
      case RegexKind::kUnion:
        return Bounds{std::min(l.min, r.min), MaxBound(l.max, r.max)};
      case RegexKind::kConcat:
        return Bounds{l.min + r.min, AddBound(l.max, r.max)};
      case RegexKind::kStar:
        if (l.max != 0) return Bounds{0, kUnbounded};
        break;
    }
    return Bounds{0, 0};
  });
}

bool Regex::IsUniqueSymbol(const std::string& symbol) const {
  Bounds b = OccurrenceBounds(symbol);
  return b.min == 1 && b.max == 1;
}

std::string Regex::ToString() const {
  // Renders with minimal parenthesization (union < concat < star) from an
  // explicit stack of pending nodes and literal text.
  struct Pending {
    const Regex* node;  // null: append `text`
    int parent_precedence;
    const char* text;
  };
  std::string out;
  std::vector<Pending> todo{{this, 0, nullptr}};
  while (!todo.empty()) {
    const Pending p = todo.back();
    todo.pop_back();
    if (p.node == nullptr) {
      out += p.text;
      continue;
    }
    const Regex& re = *p.node;
    switch (re.kind()) {
      case RegexKind::kEpsilon:
        out += "EMPTY";
        break;
      case RegexKind::kSymbol:
        out += re.symbol();
        break;
      case RegexKind::kUnion:
      case RegexKind::kConcat: {
        const bool is_union = re.kind() == RegexKind::kUnion;
        const int precedence = is_union ? 0 : 1;
        const bool parens = p.parent_precedence > precedence;
        if (parens) {
          out += '(';
          todo.push_back({nullptr, 0, ")"});
        }
        todo.push_back({re.right().get(), precedence, nullptr});
        todo.push_back({nullptr, 0, is_union ? " | " : ", "});
        todo.push_back({re.left().get(), precedence, nullptr});
        break;
      }
      case RegexKind::kStar:
        todo.push_back({nullptr, 0, "*"});
        todo.push_back({re.inner().get(), 2, nullptr});
        break;
    }
  }
  return out;
}

namespace {

// Recursive-descent parser for the DTD content-model syntax.
//
//   model   := 'EMPTY' | choice
//   choice  := seq ( '|' seq )*
//   seq     := factor ( ',' factor )*
//   factor  := atom ( '*' | '+' | '?' )?
//   atom    := NAME | '#PCDATA' | '(' choice ')'
class ModelParser {
 public:
  ModelParser(std::string_view text, size_t max_depth)
      : text_(text), max_depth_(max_depth) {}

  Result<RegexPtr> Parse() {
    SkipSpace();
    if (Consume("EMPTY")) {
      SkipSpace();
      if (pos_ != text_.size()) return Error("trailing input after EMPTY");
      return Regex::Epsilon();
    }
    if (Consume("ANY")) {
      return Status::NotSupported(
          "ANY content models are outside the paper's model");
    }
    Result<RegexPtr> re = ParseChoice();
    if (!re.ok()) return re;
    SkipSpace();
    if (pos_ != text_.size()) {
      return Error("unexpected trailing input");
    }
    return re;
  }

 private:
  Result<RegexPtr> ParseChoice() {
    std::vector<RegexPtr> parts;
    XIC_ASSIGN_OR_RETURN(RegexPtr first, ParseSeq());
    parts.push_back(std::move(first));
    SkipSpace();
    while (Peek() == '|') {
      ++pos_;
      XIC_ASSIGN_OR_RETURN(RegexPtr next, ParseSeq());
      parts.push_back(std::move(next));
      SkipSpace();
    }
    return Regex::Choice(std::move(parts));
  }

  Result<RegexPtr> ParseSeq() {
    std::vector<RegexPtr> parts;
    XIC_ASSIGN_OR_RETURN(RegexPtr first, ParseFactor());
    parts.push_back(std::move(first));
    SkipSpace();
    while (Peek() == ',') {
      ++pos_;
      XIC_ASSIGN_OR_RETURN(RegexPtr next, ParseFactor());
      parts.push_back(std::move(next));
      SkipSpace();
    }
    return Regex::Sequence(std::move(parts));
  }

  Result<RegexPtr> ParseFactor() {
    XIC_ASSIGN_OR_RETURN(RegexPtr atom, ParseAtom());
    switch (Peek()) {
      case '*':
        ++pos_;
        return Regex::Star(std::move(atom));
      case '+':
        ++pos_;
        return Regex::Plus(std::move(atom));
      case '?':
        ++pos_;
        return Regex::Optional(std::move(atom));
      default:
        return atom;
    }
  }

  Result<RegexPtr> ParseAtom() {
    SkipSpace();
    if (Peek() == '(') {
      XIC_RETURN_IF_ERROR(CheckLimit(++depth_, max_depth_,
                                     "max_content_model_depth",
                                     "content-model nesting depth"));
      ++pos_;
      XIC_ASSIGN_OR_RETURN(RegexPtr inner, ParseChoice());
      SkipSpace();
      if (Peek() != ')') return Error("expected ')'");
      ++pos_;
      --depth_;
      return inner;
    }
    if (Consume("#PCDATA")) return Regex::String();
    size_t start = pos_;
    if (pos_ < text_.size() && IsNameStartChar(text_[pos_])) {
      ++pos_;
      while (pos_ < text_.size() && IsNameChar(text_[pos_])) ++pos_;
      return Regex::Symbol(std::string(text_.substr(start, pos_ - start)));
    }
    return Error("expected element name, #PCDATA or '('");
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  bool Consume(std::string_view token) {
    if (text_.substr(pos_, token.size()) == token) {
      pos_ += token.size();
      return true;
    }
    return false;
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  Status Error(const std::string& what) const {
    return Status::ParseError("content model: " + what + " at offset " +
                              std::to_string(pos_) + " in \"" +
                              std::string(text_) + "\"");
  }

  std::string_view text_;
  size_t max_depth_;
  size_t pos_ = 0;
  size_t depth_ = 0;
};

}  // namespace

Result<RegexPtr> ParseContentModel(const std::string& text,
                                   size_t max_depth) {
  return ModelParser(text, max_depth).Parse();
}

}  // namespace xic
