#include "constraints/incremental.h"

#include <algorithm>

#include "constraints/extent_log.h"
#include "constraints/well_formed.h"

namespace xic {

IncrementalChecker::IncrementalChecker(const DtdStructure& dtd,
                                       const ConstraintSet& sigma)
    : dtd_(dtd), sigma_(sigma) {
  violations_.assign(sigma_.constraints.size(), 0);
  key_indexes_.resize(sigma_.constraints.size());
  fk_indexes_.resize(sigma_.constraints.size());
  // A constraint may read one field through both of its roles (e.g. the
  // reflexive "fk t.x -> t.x", or "fk t[x,y] -> t[y,x]"); registering it
  // twice would double every Retract/Contribute on that field and
  // underflow the violation counts.
  auto watch = [this](const std::string& element, const std::string& attr,
                      size_t index) {
    std::vector<size_t>& watchers = field_watchers_[{element, attr}];
    if (std::find(watchers.begin(), watchers.end(), index) ==
        watchers.end()) {
      watchers.push_back(index);
    }
  };
  for (size_t i = 0; i < sigma_.constraints.size(); ++i) {
    const Constraint& c = sigma_.constraints[i];
    switch (c.kind) {
      case ConstraintKind::kKey:
      case ConstraintKind::kForeignKey:
        for (const std::string& a : c.attrs) {
          if (!dtd_.HasAttribute(c.element, a)) {
            status_ = Status::NotSupported(
                "incremental checking requires attribute fields; " +
                c.element + "." + a + " is not an attribute");
            return;
          }
          watch(c.element, a, i);
        }
        if (c.kind == ConstraintKind::kForeignKey) {
          for (const std::string& a : c.ref_attrs) {
            if (!dtd_.HasAttribute(c.ref_element, a)) {
              status_ = Status::NotSupported(
                  "incremental checking requires attribute fields; " +
                  c.ref_element + "." + a + " is not an attribute");
              return;
            }
            watch(c.ref_element, a, i);
          }
        }
        break;
      case ConstraintKind::kSetForeignKey:
        watch(c.element, c.attr(), i);
        watch(c.ref_element, c.ref_attr(), i);
        break;
      case ConstraintKind::kId: {
        has_id_constraints_ = true;
        id_constraint_[c.element] = i;
        watch(c.element, c.attr(), i);
        break;
      }
      case ConstraintKind::kInverse:
        status_ = Status::NotSupported(
            "inverse constraints are not incrementally maintained; use "
            "ConstraintChecker");
        return;
    }
  }
}

void IncrementalChecker::Bump(size_t index, int64_t delta) {
  violations_[index] = static_cast<size_t>(
      static_cast<int64_t>(violations_[index]) + delta);
  total_violations_ =
      static_cast<size_t>(static_cast<int64_t>(total_violations_) + delta);
}

void IncrementalChecker::BumpIdConflicts(int64_t delta) {
  id_conflicts_ =
      static_cast<size_t>(static_cast<int64_t>(id_conflicts_) + delta);
  total_violations_ =
      static_cast<size_t>(static_cast<int64_t>(total_violations_) + delta);
}

bool IncrementalChecker::IsIdConstrainedType(const std::string& type) const {
  return id_constraint_.count(type) > 0;
}

void IncrementalChecker::RetractIdValue(VertexId v) {
  if (!has_id_constraints_) return;
  const std::string& type = tree_.label(v);
  std::optional<std::string> id_attr = dtd_.IdAttribute(type);
  if (!id_attr.has_value()) return;
  bool constrained = IsIdConstrainedType(type);
  Result<std::string> value = tree_.SingleAttribute(v, *id_attr);
  if (!value.ok()) {
    // Was counted as missing if constrained.
    if (constrained) Bump(id_constraint_.at(type), -1);
    return;
  }
  IdValueEntry& entry = id_values_[value.value()];
  // Conflict accounting: constrained holders of duplicated values. The
  // count is global (document-wide scope), tracked in id_conflicts_.
  size_t old_conflicts = entry.holders >= 2 ? entry.constrained : 0;
  entry.holders -= 1;
  if (constrained) entry.constrained -= 1;
  size_t new_conflicts = entry.holders >= 2 ? entry.constrained : 0;
  BumpIdConflicts(static_cast<int64_t>(new_conflicts) -
             static_cast<int64_t>(old_conflicts));
  if (entry.holders == 0) id_values_.erase(value.value());
}

void IncrementalChecker::ContributeIdValue(VertexId v) {
  if (!has_id_constraints_) return;
  const std::string& type = tree_.label(v);
  std::optional<std::string> id_attr = dtd_.IdAttribute(type);
  if (!id_attr.has_value()) return;
  bool constrained = IsIdConstrainedType(type);
  Result<std::string> value = tree_.SingleAttribute(v, *id_attr);
  if (!value.ok()) {
    if (constrained) Bump(id_constraint_.at(type), +1);  // missing ID
    return;
  }
  IdValueEntry& entry = id_values_[value.value()];
  size_t old_conflicts = entry.holders >= 2 ? entry.constrained : 0;
  entry.holders += 1;
  if (constrained) entry.constrained += 1;
  size_t new_conflicts = entry.holders >= 2 ? entry.constrained : 0;
  BumpIdConflicts(static_cast<int64_t>(new_conflicts) -
             static_cast<int64_t>(old_conflicts));
}

void IncrementalChecker::Retract(size_t index, VertexId v) {
  const Constraint& c = sigma_.constraints[index];
  const std::string& type = tree_.label(v);
  switch (c.kind) {
    case ConstraintKind::kKey: {
      if (type != c.element) return;
      KeyIndex& idx = key_indexes_[index];
      std::vector<std::string> tuple;
      bool complete = true;
      for (const std::string& a : c.attrs) {
        Result<std::string> val = tree_.SingleAttribute(v, a);
        if (!val.ok()) {
          complete = false;
          break;
        }
        tuple.push_back(std::move(val).value());
      }
      if (!complete) {
        idx.incomplete -= 1;
        Bump(index, -1);
        return;
      }
      std::string key = EncodeTuple(tuple);
      size_t& count = idx.tuple_counts[key];
      if (count >= 2) Bump(index, -1);  // this vertex was an extra
      count -= 1;
      if (count == 0) idx.tuple_counts.erase(key);
      return;
    }
    case ConstraintKind::kForeignKey:
    case ConstraintKind::kSetForeignKey: {
      FkIndex& idx = fk_indexes_[index];
      if (type == c.element) {
        // Source contributions.
        if (c.kind == ConstraintKind::kForeignKey) {
          std::vector<std::string> tuple;
          bool complete = true;
          for (const std::string& a : c.attrs) {
            Result<std::string> val = tree_.SingleAttribute(v, a);
            if (!val.ok()) {
              complete = false;
              break;
            }
            tuple.push_back(std::move(val).value());
          }
          if (!complete) {
            idx.incomplete -= 1;
            Bump(index, -1);
          } else {
            std::string key = EncodeTuple(tuple);
            if (idx.target_counts.count(key) == 0) {
              idx.dangling -= 1;
              Bump(index, -1);
            }
            size_t& count = idx.source_counts[key];
            count -= 1;
            if (count == 0) idx.source_counts.erase(key);
          }
        } else {
          Result<AttrValue> values = tree_.Attribute(v, c.attr());
          if (!values.ok()) {
            idx.incomplete -= 1;
            Bump(index, -1);
          } else {
            for (const std::string& member : values.value()) {
              std::string key = EncodeTuple({member});
              if (idx.target_counts.count(key) == 0) {
                idx.dangling -= 1;
                Bump(index, -1);
              }
              size_t& count = idx.source_counts[key];
              count -= 1;
              if (count == 0) idx.source_counts.erase(key);
            }
          }
        }
      }
      if (type == c.ref_element) {
        // Target contributions.
        std::vector<std::string> tuple;
        bool complete = true;
        for (const std::string& a : c.ref_attrs) {
          Result<std::string> val = tree_.SingleAttribute(v, a);
          if (!val.ok()) {
            complete = false;
            break;
          }
          tuple.push_back(std::move(val).value());
        }
        if (complete) {
          std::string key = EncodeTuple(tuple);
          size_t& count = idx.target_counts[key];
          count -= 1;
          if (count == 0) {
            idx.target_counts.erase(key);
            // Sources pointing here become dangling.
            auto it = idx.source_counts.find(key);
            if (it != idx.source_counts.end()) {
              idx.dangling += it->second;
              Bump(index, static_cast<int64_t>(it->second));
            }
          }
        }
      }
      return;
    }
    case ConstraintKind::kId:
      // Handled globally by RetractIdValue.
      return;
    case ConstraintKind::kInverse:
      return;
  }
}

void IncrementalChecker::Contribute(size_t index, VertexId v) {
  const Constraint& c = sigma_.constraints[index];
  const std::string& type = tree_.label(v);
  switch (c.kind) {
    case ConstraintKind::kKey: {
      if (type != c.element) return;
      KeyIndex& idx = key_indexes_[index];
      std::vector<std::string> tuple;
      bool complete = true;
      for (const std::string& a : c.attrs) {
        Result<std::string> val = tree_.SingleAttribute(v, a);
        if (!val.ok()) {
          complete = false;
          break;
        }
        tuple.push_back(std::move(val).value());
      }
      if (!complete) {
        idx.incomplete += 1;
        Bump(index, +1);
        return;
      }
      size_t& count = idx.tuple_counts[EncodeTuple(tuple)];
      count += 1;
      if (count >= 2) Bump(index, +1);
      return;
    }
    case ConstraintKind::kForeignKey:
    case ConstraintKind::kSetForeignKey: {
      FkIndex& idx = fk_indexes_[index];
      if (type == c.ref_element) {
        // Register the target first so self-referencing rows match.
        std::vector<std::string> tuple;
        bool complete = true;
        for (const std::string& a : c.ref_attrs) {
          Result<std::string> val = tree_.SingleAttribute(v, a);
          if (!val.ok()) {
            complete = false;
            break;
          }
          tuple.push_back(std::move(val).value());
        }
        if (complete) {
          std::string key = EncodeTuple(tuple);
          size_t& count = idx.target_counts[key];
          count += 1;
          if (count == 1) {
            auto it = idx.source_counts.find(key);
            if (it != idx.source_counts.end()) {
              idx.dangling -= it->second;
              Bump(index, -static_cast<int64_t>(it->second));
            }
          }
        }
      }
      if (type == c.element) {
        if (c.kind == ConstraintKind::kForeignKey) {
          std::vector<std::string> tuple;
          bool complete = true;
          for (const std::string& a : c.attrs) {
            Result<std::string> val = tree_.SingleAttribute(v, a);
            if (!val.ok()) {
              complete = false;
              break;
            }
            tuple.push_back(std::move(val).value());
          }
          if (!complete) {
            idx.incomplete += 1;
            Bump(index, +1);
          } else {
            std::string key = EncodeTuple(tuple);
            idx.source_counts[key] += 1;
            if (idx.target_counts.count(key) == 0) {
              idx.dangling += 1;
              Bump(index, +1);
            }
          }
        } else {
          Result<AttrValue> values = tree_.Attribute(v, c.attr());
          if (!values.ok()) {
            idx.incomplete += 1;
            Bump(index, +1);
          } else {
            for (const std::string& member : values.value()) {
              std::string key = EncodeTuple({member});
              idx.source_counts[key] += 1;
              if (idx.target_counts.count(key) == 0) {
                idx.dangling += 1;
                Bump(index, +1);
              }
            }
          }
        }
      }
      return;
    }
    case ConstraintKind::kId:
      return;  // handled globally
    case ConstraintKind::kInverse:
      return;
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
  // must leave both the tree and the indexes untouched (an orphan vertex
  // would silently drift away from what the indexes cover).
  if (parent != kInvalidVertex && parent >= tree_.size()) {
    return Status::InvalidArgument("parent vertex id out of range");
  }
  VertexId v = tree_.AddVertex(label);
  if (parent != kInvalidVertex) {
    XIC_RETURN_IF_ERROR(tree_.AddChildVertex(parent, v));
  }
  // Initial contributions (all fields unset).
  std::set<size_t> touched;
  for (const auto& [field, watchers] : field_watchers_) {
    if (field.first != label) continue;
    for (size_t index : watchers) touched.insert(index);
  }
  for (size_t index : touched) {
    // Only source/key roles count incomplete tuples; target roles of FK
    // constraints contribute nothing while incomplete.
    if (sigma_.constraints[index].kind != ConstraintKind::kId) {
      Contribute(index, v);
    }
  }
  ContributeIdValue(v);
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
  auto watchers = field_watchers_.find({type, attr});
  std::optional<std::string> id_attr = dtd_.IdAttribute(type);
  bool is_id_field = id_attr.has_value() && *id_attr == attr;

  if (watchers != field_watchers_.end()) {
    for (size_t index : watchers->second) {
      if (sigma_.constraints[index].kind != ConstraintKind::kId) {
        Retract(index, v);
      }
    }
  }
  if (is_id_field) RetractIdValue(v);

  tree_.SetAttribute(v, attr, std::move(value));

  if (watchers != field_watchers_.end()) {
    for (size_t index : watchers->second) {
      if (sigma_.constraints[index].kind != ConstraintKind::kId) {
        Contribute(index, v);
      }
    }
  }
  if (is_id_field) ContributeIdValue(v);
  return Status::OK();
}

Status IncrementalChecker::SetAttribute(VertexId v, const std::string& attr,
                                        std::string value) {
  return SetAttribute(v, attr, AttrValue{std::move(value)});
}

}  // namespace xic
