#include "constraints/incremental.h"

#include <algorithm>

namespace xic {

IncrementalChecker::IncrementalChecker(const DtdStructure& dtd,
                                       const ConstraintSet& sigma)
    : dtd_(dtd),
      sigma_(std::make_unique<const ConstraintSet>(sigma)),
      checker_(dtd, *sigma_) {
  const std::vector<Constraint>& constraints = sigma_->constraints;
  violations_.assign(constraints.size(), 0);
  tallies_.resize(constraints.size());
  // Counts are kept only for what a mutation can change in O(1): the
  // fields must be declared attributes, and inverse constraints (which
  // compile to no role when their keys are unresolvable) are refused
  // outright.
  for (size_t i = 0; i < constraints.size(); ++i) {
    const Constraint& c = constraints[i];
    if (c.kind == ConstraintKind::kInverse) {
      status_ = Status::NotSupported(
          "inverse constraints are not incrementally maintained; use "
          "ConstraintChecker");
      return;
    }
    for (const std::string* element : {&c.element, &c.ref_element}) {
      const TypePlan* plan = checker_.PlanFor(*element);
      if (plan == nullptr) continue;
      for (const Role& role : plan->roles) {
        if (role.constraint != i || role.kind == Role::kGlobalId) continue;
        for (size_t f : role.fields) {
          if (plan->field_declared[f]) continue;
          status_ = Status::NotSupported(
              "incremental checking requires attribute fields; " +
              *element + "." + plan->fields[f] + " is not an attribute");
          return;
        }
      }
    }
  }
}

void IncrementalChecker::Bump(size_t* counter, int64_t delta) {
  *counter = static_cast<size_t>(static_cast<int64_t>(*counter) + delta);
  total_violations_ =
      static_cast<size_t>(static_cast<int64_t>(total_violations_) + delta);
}

int64_t IncrementalChecker::Step(Tallies* tallies, std::string_view value,
                                 int side, int sign, Rule rule) {
  auto it = tallies->find(value);
  if (it == tallies->end()) it = tallies->emplace(value, Tally{}).first;
  Tally& t = it->second;
  const size_t before = rule(t);
  t.n[side] = static_cast<size_t>(static_cast<int64_t>(t.n[side]) + sign);
  const int64_t delta =
      static_cast<int64_t>(rule(t)) - static_cast<int64_t>(before);
  if (t.n[0] == 0 && t.n[1] == 0) tallies->erase(it);
  return delta;
}

void IncrementalChecker::Apply(VertexId v, const TypePlan& plan, size_t field,
                               int sign) {
  syms_.clear();
  for (const std::string& name : plan.fields) {
    syms_.push_back(tree_.FindName(name));
  }
  ConstraintChecker::ResolveTreeFields(tree_, v, plan, syms_, &fields_,
                                       &texts_);
  // The violations one value's tally contributes, per kind of count.
  constexpr Rule kKeyExtras = [](const Tally& t) -> size_t {
    return t.n[0] > 1 ? t.n[0] - 1 : 0;
  };
  constexpr Rule kDangling = [](const Tally& t) -> size_t {
    return t.n[1] == 0 ? t.n[0] : 0;
  };
  constexpr Rule kIdClashes = [](const Tally& t) -> size_t {
    return t.n[0] > 1 ? t.n[1] : 0;
  };
  const bool id_constrained =
      std::any_of(plan.roles.begin(), plan.roles.end(),
                  [](const Role& r) { return r.kind == Role::kIdExt; });
  // Each step moves one count by the difference it makes, so the totals
  // hold after every step and the order of the roles does not matter
  // (a reflexive foreign key's source and target may share a field).
  for (const Role& role : plan.roles) {
    if (field != kAllFields &&
        std::find(role.fields.begin(), role.fields.end(), field) ==
            role.fields.end()) {
      continue;
    }
    const bool present = reader_.Read(role, fields_);
    size_t* counter = &violations_[role.constraint];
    int side = 0;
    Rule rule = kDangling;
    switch (role.kind) {
      case Role::kKeyTuple:
        rule = kKeyExtras;
        break;
      case Role::kFkTuple:
      case Role::kSfkSource:
        break;
      case Role::kFkTarget:
      case Role::kSfkTarget:
        side = 1;
        break;
      case Role::kIdExt:  // the value itself is counted by kGlobalId
        if (!present) Bump(counter, sign);
        continue;
      case Role::kGlobalId: {
        if (!present) continue;
        const std::string_view id = reader_.values()[0];
        Bump(&id_conflicts_, Step(&ids_, id, 0, sign, kIdClashes));
        if (id_constrained) {
          Bump(&id_conflicts_, Step(&ids_, id, 1, sign, kIdClashes));
        }
        continue;
      }
      case Role::kInvExt:
      case Role::kInvRef:
        continue;  // refused by the constructor
    }
    if (!present) {
      // An incomplete source or key tuple is a violation; a target
      // without its tuple holds nothing.
      if (side == 0) Bump(counter, sign);
      continue;
    }
    for (std::string_view value : reader_.values()) {
      Bump(counter, Step(&tallies_[role.constraint], value, side, sign, rule));
    }
  }
}

Result<VertexId> IncrementalChecker::AddElement(VertexId parent,
                                                const std::string& label) {
  XIC_RETURN_IF_ERROR(status_);
  if (!dtd_.HasElement(label)) {
    return Status::InvalidArgument("undeclared element type " + label);
  }
  if (tree_.empty() != (parent == kInvalidVertex)) {
    return Status::InvalidArgument(
        tree_.empty() ? "first element must be the root (no parent)"
                      : "only the first element may omit a parent");
  }
  // Validate the parent *before* creating the vertex: a rejected update
  // must leave both the tree and the counts untouched (an orphan vertex
  // would silently drift away from what the counts cover).
  if (parent != kInvalidVertex && parent >= tree_.size()) {
    return Status::InvalidArgument("parent vertex id out of range");
  }
  VertexId v = tree_.AddVertex(label);
  if (parent != kInvalidVertex) {
    XIC_RETURN_IF_ERROR(tree_.AddChildVertex(parent, v));
  }
  // A new vertex's fields are all unset: its key and source tuples count
  // as incomplete from the start.
  if (const TypePlan* plan = checker_.PlanFor(label)) {
    Apply(v, *plan, kAllFields, +1);
  }
  return v;
}

Status IncrementalChecker::SetAttribute(VertexId v, const std::string& attr,
                                        AttrValue value) {
  XIC_RETURN_IF_ERROR(status_);
  if (v >= tree_.size()) {
    return Status::InvalidArgument("vertex id out of range");
  }
  const std::string& type = tree_.label(v);
  if (!dtd_.HasAttribute(type, attr)) {
    return Status::InvalidArgument("undeclared attribute " + type + "." +
                                   attr);
  }
  Result<AttrCardinality> card = dtd_.Cardinality(type, attr);
  if (card.ok() && card.value() == AttrCardinality::kSingle &&
      value.size() != 1) {
    return Status::InvalidArgument("single-valued attribute " + type + "." +
                                   attr + " needs exactly one value");
  }
  const TypePlan* plan = checker_.PlanFor(type);
  const size_t field =
      plan == nullptr
          ? 0
          : static_cast<size_t>(
                std::find(plan->fields.begin(), plan->fields.end(), attr) -
                plan->fields.begin());
  if (plan != nullptr && field == plan->fields.size()) {
    plan = nullptr;  // no constraint reads attr
  }
  if (plan != nullptr) Apply(v, *plan, field, -1);
  tree_.SetAttribute(v, attr, std::move(value));
  if (plan != nullptr) Apply(v, *plan, field, +1);
  return Status::OK();
}

Status IncrementalChecker::SetAttribute(VertexId v, const std::string& attr,
                                        std::string value) {
  return SetAttribute(v, attr, AttrValue{std::move(value)});
}

}  // namespace xic
