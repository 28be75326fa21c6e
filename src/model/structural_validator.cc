#include "model/structural_validator.h"

#include <algorithm>

#include "obs/obs.h"
#include "regex/glushkov.h"

namespace xic {

std::string ValidationReport::ToString() const {
  if (ok()) return "valid";
  std::string out;
  if (!status.ok()) out += status.ToString() + "\n";
  for (const Violation& v : violations) {
    out += "vertex " + std::to_string(v.vertex) + ": " + v.message + "\n";
  }
  return out;
}

StructuralValidator::StructuralValidator(const DtdStructure& dtd,
                                         ValidationOptions options)
    : dtd_(dtd), options_(options) {
  for (const std::string& element : dtd_.Elements()) {
    Result<RegexPtr> content = dtd_.ContentModel(element);
    if (!content.ok()) continue;
    // Count before building: nested '+' doubles the positions per level.
    Status fits = CheckLimit(
        GlushkovAutomaton::CountPositions(*content.value()),
        options_.limits.max_automaton_states, "max_automaton_states",
        "content model of " + element);
    if (fits.ok()) {
      automata_.emplace(element, GlushkovAutomaton(content.value()));
    } else if (status_.ok()) {
      status_ = std::move(fits);
    }
  }
  for (const std::string& element : dtd_.Elements()) {
    ElementPlan plan;
    auto it = automata_.find(element);
    if (it != automata_.end()) plan.automaton = &it->second;
    plan.attr_names = dtd_.Attributes(element);
    plan.attr_single.reserve(plan.attr_names.size());
    for (const std::string& attr : plan.attr_names) {
      plan.attr_single.push_back(dtd_.IsSingleValued(element, attr));
    }
    plans_.emplace(element, std::move(plan));
  }
}

ValidationReport StructuralValidator::Validate(
    const DataTree& tree, const Deadline& deadline) const {
  obs::ScopedSpan span("validate.structure", "model");
  ValidationReport report;
  if (!status_.ok()) {
    report.status = status_;
  } else if (tree.empty()) {
    report.violations.push_back({kInvalidVertex, "empty document"});
  } else {
    // The tree walk: every vertex in id order -- detached ones
    // included -- with its attributes and children exactly as stored.
    StructureRun run(*this, tree.symbols());
    StructureRun::Vertex vertex;
    size_t steps = 0;
    Status status = Status::OK();
    for (VertexId v = 0; v < tree.size() && !run.full(); ++v) {
      if ((v & 0x3F) == 0) {
        status = deadline.Check("structural validation");
        if (!status.ok()) break;
      }
      ++steps;
      run.Open(&vertex, v, tree.label_symbol(v),
               tree.attributes(v).entries());
      if (vertex.automaton != nullptr) {
        for (const Child& c : tree.children(v)) {
          const VertexId* child = std::get_if<VertexId>(&c);
          run.Child(&vertex, child != nullptr ? tree.label_symbol(*child)
                                              : kInvalidSymbol);
        }
      }
      run.Close(vertex);
    }
    report = run.Finish(steps);
    report.status = std::move(status);
  }
  span.AddInt("vertices", static_cast<int64_t>(tree.size()));
  span.AddInt("steps", static_cast<int64_t>(report.steps));
  span.AddInt("violations", static_cast<int64_t>(report.violations.size()));
  XIC_COUNTER_ADD("validate.documents", 1);
  XIC_COUNTER_ADD("validate.steps", report.steps);
  XIC_COUNTER_ADD("validate.violations", report.violations.size());
  return report;
}

std::optional<StructuralValidator::PlanView> StructuralValidator::PlanFor(
    std::string_view element) const {
  auto it = plans_.find(element);
  if (it == plans_.end()) return std::nullopt;
  return PlanView{it->second.automaton};
}

size_t StructuralValidator::automaton_bytes() const {
  size_t bytes = 0;
  for (const auto& [element, automaton] : automata_) {
    bytes += automaton.table_bytes();
  }
  return bytes;
}

bool StructuralValidator::AllContentModelsDeterministic() const {
  for (const auto& [element, automaton] : automata_) {
    if (!automaton.IsOneUnambiguous()) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// StructureRun

StructureRun::StructureRun(const StructuralValidator& validator,
                           const SymbolTable& symbols)
    : validator_(validator),
      symbols_(symbols),
      cap_(validator.options_.max_violations) {}

StructureRun::Type& StructureRun::TypeOf(Symbol label) {
  if (types_.size() <= label) types_.resize(symbols_.size());
  Type& type = types_[label];
  if (type.resolved) return type;
  type.resolved = true;
  auto it = validator_.plans_.find(symbols_.name(label));
  if (it == validator_.plans_.end()) return type;
  type.plan = &it->second;
  if (type.plan->automaton != nullptr) {
    type.text_alpha = type.plan->automaton->FindAlphabetId(kStringSymbol);
  }
  return type;
}

void StructureRun::Open(Vertex* v, uint32_t seq, Symbol label,
                        const std::vector<DataTree::AttrEntry>& attrs) {
  v->seq = seq;
  v->label = label;
  v->automaton = nullptr;
  v->word.clear();
  const std::string& name = symbols_.name(label);
  if (seq == 0 && name != validator_.dtd_.root()) {
    Add(0, Rank(0, 0),
        "root labeled " + name + ", expected " + validator_.dtd_.root());
  }
  Type& type = TypeOf(label);
  if (type.plan == nullptr) {
    Add(seq, Rank(1, 0), "undeclared element type " + name);
    return;
  }
  const StructuralValidator::ElementPlan& plan = *type.plan;
  if (plan.automaton != nullptr) {
    v->automaton = plan.automaton;
    v->type = label;
  }
  // Attributes: declared <-> present, single-valued are singletons.
  auto slot_of = [&](Symbol attr) {
    if (type.attr_slot.size() <= attr) {
      type.attr_slot.resize(symbols_.size(), -2);
    }
    int& slot = type.attr_slot[attr];
    if (slot == -2) {
      auto at = std::lower_bound(plan.attr_names.begin(),
                                 plan.attr_names.end(), symbols_.name(attr));
      slot = at != plan.attr_names.end() && *at == symbols_.name(attr)
                 ? static_cast<int>(at - plan.attr_names.begin())
                 : -1;
    }
    return slot;
  };
  size_t declared_present = 0;
  for (size_t idx = 0; idx < attrs.size(); ++idx) {
    const int slot = slot_of(attrs[idx].name);
    if (slot < 0) {
      Add(seq, Rank(3, idx), "undeclared attribute " + name + "." +
                                 symbols_.name(attrs[idx].name));
      continue;
    }
    ++declared_present;
    if (plan.attr_single[slot] && attrs[idx].value.size() != 1) {
      Add(seq, Rank(3, idx),
          "single-valued attribute " + name + "." +
              symbols_.name(attrs[idx].name) + " holds " +
              std::to_string(attrs[idx].value.size()) + " values");
    }
  }
  if (!validator_.options_.allow_missing_attributes &&
      declared_present != plan.attr_names.size()) {
    std::vector<bool> present(plan.attr_names.size(), false);
    for (const DataTree::AttrEntry& a : attrs) {
      if (int slot = slot_of(a.name); slot >= 0) present[slot] = true;
    }
    for (size_t j = 0; j < present.size(); ++j) {
      if (!present[j]) {
        Add(seq, Rank(4, j),
            "missing declared attribute " + name + "." + plan.attr_names[j]);
      }
    }
  }
}

void StructureRun::Close(const Vertex& v) {
  if (v.automaton == nullptr) return;
  Type& type = types_[v.type];
  ids_.clear();
  for (Symbol child : v.word) {
    if (child == kInvalidSymbol) {
      ids_.push_back(type.text_alpha);
      continue;
    }
    if (type.alpha.size() <= child) type.alpha.resize(symbols_.size(), -2);
    int& alpha = type.alpha[child];
    if (alpha == -2) alpha = v.automaton->FindAlphabetId(symbols_.name(child));
    ids_.push_back(alpha);
  }
  if (v.automaton->MatchesIds(ids_.data(), ids_.size())) return;
  std::string rendered;
  for (size_t i = 0; i < v.word.size(); ++i) {
    if (i > 0) rendered += ' ';
    rendered += v.word[i] == kInvalidSymbol ? std::string(kStringSymbol)
                                            : symbols_.name(v.word[i]);
  }
  Add(v.seq, Rank(2, 0),
      "children [" + rendered + "] do not match content model of " +
          symbols_.name(v.label));
}

ValidationReport StructureRun::Finish(size_t steps) {
  std::stable_sort(violations_.begin(), violations_.end(),
                   [](const Pending& a, const Pending& b) {
                     if (a.seq != b.seq) return a.seq < b.seq;
                     return a.rank < b.rank;
                   });
  if (cap_ != 0 && violations_.size() > cap_) violations_.resize(cap_);
  ValidationReport report;
  report.steps = steps;
  report.violations.reserve(violations_.size());
  for (Pending& p : violations_) {
    report.violations.push_back({p.seq, std::move(p.message)});
  }
  violations_.clear();
  return report;
}

}  // namespace xic
