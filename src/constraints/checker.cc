#include "constraints/checker.h"

#include <algorithm>
#include <string_view>

#include "obs/obs.h"
#include "util/strings.h"

namespace xic {

std::string ConstraintReport::ToString(const ConstraintSet& sigma) const {
  if (ok()) return "all constraints satisfied";
  std::string out;
  for (const ConstraintViolation& v : violations) {
    out += sigma.constraints[v.constraint_index].ToString() + ": " +
           v.message + "\n";
  }
  return out;
}

// ---------------------------------------------------------------------------
// Compilation: which fields each element type must surrender, and to
// which constraint.

ConstraintChecker::ConstraintChecker(const DtdStructure& dtd,
                                     const ConstraintSet& sigma,
                                     CheckOptions options)
    : dtd_(dtd), sigma_(sigma), options_(options) {
  inverse_keys_.resize(sigma_.constraints.size());
  auto add_role = [&](const std::string& element, Role::Kind kind, size_t ci,
                      const std::vector<std::string>& names) {
    TypePlan& plan = type_plans_[element];
    Role role{kind, ci, {}};
    for (const std::string& name : names) {
      auto it = std::find(plan.fields.begin(), plan.fields.end(), name);
      role.fields.push_back(static_cast<size_t>(it - plan.fields.begin()));
      if (it == plan.fields.end()) {
        plan.fields.push_back(name);
        plan.field_declared.push_back(dtd_.HasAttribute(element, name));
      }
    }
    plan.roles.push_back(std::move(role));
  };
  for (size_t i = 0; i < sigma_.constraints.size(); ++i) {
    const Constraint& c = sigma_.constraints[i];
    switch (c.kind) {
      case ConstraintKind::kKey:
        add_role(c.element, Role::kKeyTuple, i, c.attrs);
        break;
      case ConstraintKind::kForeignKey:
        add_role(c.element, Role::kFkTuple, i, c.attrs);
        add_role(c.ref_element, Role::kFkTarget, i, c.ref_attrs);
        break;
      case ConstraintKind::kSetForeignKey:
        if (c.attrs.empty() || c.ref_attrs.empty()) break;
        add_role(c.element, Role::kSfkSource, i, {c.attr()});
        add_role(c.ref_element, Role::kSfkTarget, i, {c.ref_attr()});
        break;
      case ConstraintKind::kId:
        needs_global_ids_ = true;
        if (c.attrs.empty()) break;
        add_role(c.element, Role::kIdExt, i, {c.attr()});
        break;
      case ConstraintKind::kInverse: {
        InverseKeys& keys = inverse_keys_[i];
        keys.key = c.inv_key.empty()
                       ? dtd_.IdAttribute(c.element).value_or("")
                       : c.inv_key;
        keys.ref_key = c.inv_ref_key.empty()
                           ? dtd_.IdAttribute(c.ref_element).value_or("")
                           : c.inv_ref_key;
        // Unresolvable keys are reported at check time ("inverse
        // constraint lacks key attributes"); nothing to extract.
        if (keys.key.empty() || keys.ref_key.empty()) break;
        if (c.attrs.empty() || c.ref_attrs.empty()) break;
        add_role(c.element, Role::kInvExt, i, {keys.key, c.attr()});
        add_role(c.ref_element, Role::kInvRef, i, {keys.ref_key, c.ref_attr()});
        break;
      }
    }
  }
  // The document-wide ID table reads every type's ID attribute (always a
  // declared attribute, so an absent one is a missing field).
  if (needs_global_ids_) {
    for (const std::string& element : dtd_.Elements()) {
      if (std::optional<std::string> id = dtd_.IdAttribute(element)) {
        add_role(element, Role::kGlobalId, 0, {*id});
      }
    }
  }
}

namespace {

// Concatenated character data beneath `v` (depth-first).
void AppendTextContent(const DataTree& tree, VertexId v, std::string* out) {
  for (const Child& c : tree.children(v)) {
    if (const std::string* s = std::get_if<std::string>(&c)) {
      out->append(*s);
    } else {
      AppendTextContent(tree, std::get<VertexId>(c), out);
    }
  }
}

// Section 3.4: the text of `v`'s unique child labeled `name`. Returns the
// number of children so labeled; `out` is filled only when it is 1.
int SubElementText(const DataTree& tree, VertexId v, Symbol name,
                   std::string* out) {
  VertexId match = kInvalidVertex;
  int count = 0;
  if (name != kInvalidSymbol) {
    for (const Child& c : tree.children(v)) {
      const VertexId* child = std::get_if<VertexId>(&c);
      if (child != nullptr && tree.label_symbol(*child) == name) {
        match = *child;
        ++count;
      }
    }
  }
  if (count == 1) {
    out->clear();
    AppendTextContent(tree, match, out);
  }
  return count;
}

}  // namespace

Result<AttrValue> ConstraintChecker::FieldValue(const DataTree& tree,
                                                VertexId v,
                                                const std::string& name) const {
  if (tree.HasAttribute(v, name)) return tree.Attribute(v, name);
  // A name in Att(tau) always denotes the attribute: an unset declared
  // attribute is a missing field, never a sub-element fallback (the rule
  // ResolveTreeFields applies for the core).
  if (dtd_.HasAttribute(tree.label(v), name)) {
    return Status::InvalidArgument("field " + name + " undefined on vertex " +
                                   std::to_string(v) +
                                   " (declared attribute unset)");
  }
  std::string text;
  int count = SubElementText(tree, v, tree.FindName(name), &text);
  if (count == 1) return AttrValue{std::move(text)};
  return Status::InvalidArgument(
      "field " + name + " undefined on vertex " + std::to_string(v) +
      (count > 1 ? " (sub-element not unique)" : ""));
}

void ConstraintChecker::ResolveTreeFields(const DataTree& tree, VertexId v,
                                          const TypePlan& plan,
                                          const std::vector<Symbol>& syms,
                                          std::vector<Field>* fields,
                                          std::vector<std::string>* texts) {
  const size_t n = syms.size();
  fields->assign(n, Field{});
  if (texts->size() < n) texts->resize(n);
  for (size_t i = 0; i < n; ++i) {
    const Symbol sym = syms[i];
    Field& f = (*fields)[i];
    if (const AttrValue* value =
            sym == kInvalidSymbol ? nullptr : tree.FindAttr(v, sym)) {
      f.kind = Field::kSet;
      f.set = value;
    } else if (!plan.field_declared[i] &&
               SubElementText(tree, v, sym, &(*texts)[i]) == 1) {
      f.kind = Field::kText;
      f.text = (*texts)[i];
    }
  }
}

// ---------------------------------------------------------------------------
// RoleReader: resolved fields -> what one role reads.

std::optional<std::string_view> ConstraintChecker::RoleReader::Single(
    const Field& f) {
  ++steps_;
  switch (f.kind) {
    case Field::kSet:
      if (f.set->size() != 1) return std::nullopt;
      return std::string_view(*f.set->begin());
    case Field::kText:
      return f.text;
    case Field::kMissing:
      break;
  }
  return std::nullopt;
}

bool ConstraintChecker::RoleReader::SetOf(const Field& f) {
  values_.clear();
  switch (f.kind) {
    case Field::kSet:
      for (const std::string& v : *f.set) values_.push_back(v);
      return true;
    case Field::kText:
      values_.push_back(f.text);
      return true;
    case Field::kMissing:
      break;
  }
  return false;
}

bool ConstraintChecker::RoleReader::Read(const Role& role,
                                         const std::vector<Field>& fields) {
  switch (role.kind) {
    case Role::kKeyTuple:
    case Role::kFkTuple:
    case Role::kFkTarget:
      values_.clear();
      for (size_t f : role.fields) {
        std::optional<std::string_view> v = Single(fields[f]);
        if (!v.has_value()) return false;
        values_.push_back(*v);
      }
      EncodeTupleInto(values_, &encoded_);
      values_.assign(1, encoded_);
      return true;
    case Role::kSfkSource:
      return SetOf(fields[role.fields[0]]);
    case Role::kSfkTarget:
    case Role::kIdExt:
    case Role::kGlobalId: {
      values_.clear();
      std::optional<std::string_view> v = Single(fields[role.fields[0]]);
      if (v.has_value()) values_.push_back(*v);
      return v.has_value();
    }
    case Role::kInvExt:
    case Role::kInvRef:
      break;
  }
  values_.clear();
  return false;
}

// ---------------------------------------------------------------------------
// The tree walk: every vertex in id order, fields read straight from
// the tree.

ConstraintReport ConstraintChecker::Check(const DataTree& tree,
                                          const Deadline& deadline) const {
  obs::ScopedSpan span("constraints.check", "constraints");
  ConstraintRun run(*this, kNeverSpill, deadline);
  // Per label Symbol: the type's plan and its fields' Symbols, resolved
  // on first sight.
  struct Label {
    bool resolved = false;
    const TypePlan* plan = nullptr;
    std::vector<Symbol> field_syms;
  };
  std::vector<Label> labels(type_plans_.empty() ? 0 : tree.symbols().size());
  std::vector<Field> fields;
  std::vector<std::string> texts;  // sub-element field values
  Status status = Status::OK();
  for (VertexId v = 0; v < tree.size() && !labels.empty(); ++v) {
    if ((v & 0x3FF) == 0) {
      status = deadline.Check("constraint check");
      if (!status.ok()) break;
    }
    Label& label = labels[tree.label_symbol(v)];
    if (!label.resolved) {
      label.resolved = true;
      label.plan = PlanFor(tree.label(v));
      if (label.plan != nullptr) {
        for (const std::string& name : label.plan->fields) {
          label.field_syms.push_back(tree.FindName(name));
        }
      }
    }
    if (label.plan == nullptr) continue;
    ResolveTreeFields(tree, v, *label.plan, label.field_syms, &fields,
                      &texts);
    run.AddVertex(v, *label.plan, fields);
  }
  // A walk cut short has incomplete logs: report no verdict, only why.
  ConstraintReport report;
  if (status.ok()) {
    report = run.Finish();
  } else {
    report.status = std::move(status);
  }
  span.AddInt("constraints", static_cast<int64_t>(sigma_.constraints.size()));
  span.AddInt("steps", static_cast<int64_t>(report.steps));
  span.AddInt("violations", static_cast<int64_t>(report.violations.size()));
  XIC_COUNTER_ADD("constraints.checks", 1);
  XIC_COUNTER_ADD("constraints.steps", report.steps);
  XIC_COUNTER_ADD("constraints.violations", report.violations.size());
  return report;
}

// ---------------------------------------------------------------------------
// ConstraintRun: field tuples -> tuple logs -> violations.

ConstraintRun::ConstraintRun(const ConstraintChecker& checker,
                             size_t spill_budget_bytes,
                             const Deadline& deadline)
    : checker_(checker),
      deadline_(deadline),
      budget_(spill_budget_bytes),
      logs_(checker.sigma_.constraints.size()) {
  if (checker_.needs_global_ids_) global_ids_.emplace(&budget_);
}

void ConstraintRun::Append(std::optional<TupleLog>* log, uint32_t seq,
                           uint32_t rank, std::string_view payload) {
  if (!spill_error_.ok()) return;
  if (!log->has_value()) log->emplace(&budget_);
  if (Status s = (*log)->Append(seq, rank, payload); !s.ok()) {
    spill_error_ = std::move(s);
  }
}

size_t ConstraintRun::extent_records() const {
  size_t n = 0;
  for (const Logs& logs : logs_) {
    for (const std::optional<TupleLog>* log : {&logs.ext, &logs.target}) {
      if (log->has_value()) n += (*log)->record_count();
    }
  }
  return n;
}

void ConstraintRun::AddVertex(
    uint32_t seq, const ConstraintChecker::TypePlan& plan,
    const std::vector<ConstraintChecker::Field>& fields) {
  using Role = ConstraintChecker::Role;
  for (const Role& role : plan.roles) {
    Logs& logs = logs_[role.constraint];
    if (role.kind == Role::kInvExt || role.kind == Role::kInvRef) {
      Logs::InvEntry e;
      e.seq = seq;
      if (std::optional<std::string_view> k =
              reader_.Single(fields[role.fields[0]])) {
        e.has_key = true;
        e.key = logs.Store(*k);
      }
      if (reader_.SetOf(fields[role.fields[1]])) {
        e.has_set = true;
        e.set_begin = static_cast<uint32_t>(logs.values.size());
        for (std::string_view v : reader_.values()) logs.Store(v);
        e.set_end = static_cast<uint32_t>(logs.values.size());
      }
      (role.kind == Role::kInvExt ? logs.inv_ext : logs.inv_ref)
          .push_back(std::move(e));
      continue;
    }
    const bool present = reader_.Read(role, fields);
    std::optional<TupleLog>* log = &logs.ext;
    switch (role.kind) {
      case Role::kGlobalId:
        log = &global_ids_;
        break;
      case Role::kFkTarget:
      case Role::kSfkTarget:
        log = &logs.target;
        break;
      default:  // ext(tau) roles: a missing field is a violation
        if (!present) logs.ext_missing.push_back(seq);
        break;
    }
    if (!present) continue;
    uint32_t rank = 0;
    for (std::string_view v : reader_.values()) Append(log, seq, rank++, v);
  }
}

ConstraintReport ConstraintRun::Finish() {
  ConstraintReport report;
  report.steps = reader_.steps();
  if (!spill_error_.ok()) {
    report.status = spill_error_;
    return report;
  }
  const ConstraintSet& sigma = checker_.sigma_;
  const size_t cap = checker_.options_.max_violations;
  auto full = [&] { return cap != 0 && report.violations.size() >= cap; };

  // Document-wide ID table, reduced to the duplicated values (value ->
  // every holder, in vertex order). Values are views into the log.
  std::vector<std::pair<std::string_view, std::vector<VertexId>>> dup_ids;
  if (global_ids_.has_value()) {
    if (Status s = global_ids_->Finish(); !s.ok()) {
      report.status = std::move(s);
      return report;
    }
    TupleLog::Cursor cur = global_ids_->Scan();
    TupleLog::Record r;
    std::string_view value;
    std::vector<VertexId> holders;
    auto flush = [&] {
      if (holders.size() > 1) dup_ids.emplace_back(value, holders);
    };
    while (cur.Next(&r)) {
      if (holders.empty() || r.payload != value) {
        flush();
        value = r.payload;
        holders.clear();
      }
      holders.push_back(r.seq);
    }
    flush();  // the scan's (payload) order keeps dup_ids sorted
  }

  // A violation pending its position among the constraint's others.
  struct Pending {
    uint32_t seq;
    uint32_t rank;
    std::string msg;
    std::vector<VertexId> wit;
    std::vector<std::string> values;
  };
  std::vector<Pending> pending;

  for (size_t i = 0; i < sigma.constraints.size() && !full(); ++i) {
    if (Status s = deadline_.Check("constraint check"); !s.ok()) {
      report.status = std::move(s);
      return report;
    }
    const Constraint& c = sigma.constraints[i];
    Logs& logs = logs_[i];
    for (std::optional<TupleLog>* log : {&logs.ext, &logs.target}) {
      if (log->has_value()) {
        if (Status s = (*log)->Finish(); !s.ok()) {
          report.status = std::move(s);
          return report;
        }
      }
    }
    pending.clear();

    switch (c.kind) {
      case ConstraintKind::kKey: {
        if (logs.ext.has_value()) {
          TupleLog::Cursor cur = logs.ext->Scan();
          TupleLog::Record r;
          std::string_view group;
          uint32_t first = 0;
          bool have = false;
          while (cur.Next(&r)) {
            if (!have || r.payload != group) {
              group = r.payload;
              first = r.seq;
              have = true;
              continue;
            }
            std::vector<std::string> vals = DecodeTuple(r.payload);
            pending.push_back(Pending{r.seq, 0,
                                      "duplicate key [" + Join(vals, ",") + "]",
                                      {first, r.seq}, std::move(vals)});
          }
        }
        for (uint32_t seq : logs.ext_missing) {
          pending.push_back(Pending{seq, 0, "key field missing", {seq}, {}});
        }
        break;
      }

      case ConstraintKind::kId: {
        if (logs.ext.has_value()) {
          TupleLog::Cursor cur = logs.ext->Scan();
          TupleLog::Record r;
          std::string_view group;
          bool have = false;
          while (cur.Next(&r)) {
            if (have && r.payload == group) continue;
            group = r.payload;
            have = true;
            auto it = std::lower_bound(
                dup_ids.begin(), dup_ids.end(), r.payload,
                [](const auto& entry, std::string_view v) {
                  return PayloadCompare(entry.first, v) < 0;
                });
            if (it != dup_ids.end() && it->first == r.payload) {
              const std::string value(it->first);
              pending.push_back(Pending{
                  r.seq, 0, "ID value \"" + value + "\" is not document-unique",
                  it->second, {value}});
            }
          }
        }
        for (uint32_t seq : logs.ext_missing) {
          pending.push_back(Pending{seq, 0, "ID attribute missing", {seq}, {}});
        }
        break;
      }

      case ConstraintKind::kForeignKey:
      case ConstraintKind::kSetForeignKey: {
        const bool set_valued = c.kind == ConstraintKind::kSetForeignKey;
        std::optional<TupleLog::Cursor> tcur;
        TupleLog::Record t;
        bool thave = false;
        if (logs.target.has_value()) {
          tcur = logs.target->Scan();
          thave = tcur->Next(&t);
        }
        if (logs.ext.has_value()) {
          TupleLog::Cursor ecur = logs.ext->Scan();
          TupleLog::Record e;
          while (ecur.Next(&e)) {
            while (thave && PayloadCompare(t.payload, e.payload) < 0) {
              thave = tcur->Next(&t);
            }
            if (thave && t.payload == e.payload) continue;
            if (set_valued) {
              pending.push_back(Pending{e.seq, e.rank,
                                        "dangling reference \"" +
                                            std::string(e.payload) + "\"",
                                        {e.seq},
                                        {std::string(e.payload)}});
            } else {
              std::vector<std::string> vals = DecodeTuple(e.payload);
              pending.push_back(Pending{
                  e.seq, 0, "dangling reference [" + Join(vals, ",") + "]",
                  {e.seq}, std::move(vals)});
            }
          }
        }
        const char* missing = set_valued ? "set-valued field missing"
                                         : "foreign-key field missing";
        for (uint32_t seq : logs.ext_missing) {
          pending.push_back(Pending{seq, 0, missing, {seq}, {}});
        }
        break;
      }

      case ConstraintKind::kInverse:
        EvaluateInverse(i, logs, &report);
        break;
    }

    // Scans emit in payload order and missing-field entries come last: a
    // stable sort by (vertex, rank) restores the vertex-id walk's order.
    if (pending.size() > 1) {
      std::stable_sort(pending.begin(), pending.end(),
                       [](const Pending& a, const Pending& b) {
                         if (a.seq != b.seq) return a.seq < b.seq;
                         return a.rank < b.rank;
                       });
    }
    for (Pending& p : pending) {
      if (full()) break;
      report.violations.push_back(
          {i, std::move(p.msg), std::move(p.wit), std::move(p.values)});
    }
  }
  return report;
}

void ConstraintRun::EvaluateInverse(size_t i, Logs& logs,
                                    ConstraintReport* report) {
  const Constraint& c = checker_.sigma_.constraints[i];
  const size_t cap = checker_.options_.max_violations;
  auto full = [&] { return cap != 0 && report->violations.size() >= cap; };
  auto add = [&](std::string msg, std::vector<VertexId> wit,
                 std::vector<std::string> values) {
    if (!full()) {
      report->violations.push_back(
          {i, std::move(msg), std::move(wit), std::move(values)});
    }
  };
  const ConstraintChecker::InverseKeys& keys = checker_.inverse_keys_[i];
  if (keys.key.empty() || keys.ref_key.empty()) {
    add("inverse constraint lacks key attributes", {}, {});
    return;
  }
  using InvEntry = Logs::InvEntry;
  // A tree walk adds entries in vertex order already; a token stream
  // adds them at end tags.
  auto by_seq = [](const InvEntry& a, const InvEntry& b) {
    return a.seq < b.seq;
  };
  for (std::vector<InvEntry>* side : {&logs.inv_ext, &logs.inv_ref}) {
    if (!std::is_sorted(side->begin(), side->end(), by_seq)) {
      std::sort(side->begin(), side->end(), by_seq);
    }
  }
  // Key value -> entry index, sorted by (key, vertex): the entries of one
  // key form a run in extent order.
  using KeyIndex = std::vector<std::pair<std::string_view, size_t>>;
  auto index = [&](const std::vector<InvEntry>& entries) {
    KeyIndex out;
    for (size_t k = 0; k < entries.size(); ++k) {
      if (entries[k].has_key) out.emplace_back(logs.Value(entries[k].key), k);
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  const KeyIndex by_key = index(logs.inv_ext);
  const KeyIndex ref_by_key = index(logs.inv_ref);
  auto holders = [](const KeyIndex& idx, std::string_view key) {
    auto lo = std::lower_bound(
        idx.begin(), idx.end(), key,
        [](const auto& e, std::string_view k) { return e.first < k; });
    auto hi = lo;
    while (hi != idx.end() && hi->first == key) ++hi;
    return std::make_pair(lo, hi);
  };
  auto contains = [&](const InvEntry& x, std::string_view val) {
    uint32_t lo = x.set_begin, hi = x.set_end;
    while (lo < hi) {
      const uint32_t mid = lo + (hi - lo) / 2;
      const int cmp = logs.Value(mid).compare(val);
      if (cmp == 0) return true;
      if (cmp < 0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return false;
  };
  // Typed semantics (DESIGN.md): the referenced values must be keys of
  // the partner type (the containments Inv-SFK-ID derives).
  auto references_are_keys = [&](const std::vector<InvEntry>& side,
                                 const KeyIndex& partner,
                                 const std::string& partner_type) {
    for (const InvEntry& x : side) {
      if (full()) return;
      if (!x.has_set) continue;
      for (uint32_t k = x.set_begin; k < x.set_end; ++k) {
        const std::string_view val = logs.Value(k);
        auto [lo, hi] = holders(partner, val);
        if (lo == hi) {
          add("inverse reference \"" + std::string(val) + "\" is not a " +
                  partner_type + " key",
              {x.seq}, {std::string(val)});
          if (full()) return;
        }
      }
    }
  };
  references_are_keys(logs.inv_ext, ref_by_key, c.ref_element);
  references_are_keys(logs.inv_ref, by_key, c.element);
  // Each direction: y referencing x (x.key in y.set) must be answered by
  // x referencing y (y.key in x.set). Witnesses: x, then y.
  auto answered = [&](const std::vector<InvEntry>& from,
                      const std::vector<InvEntry>& to, const KeyIndex& to_idx,
                      const std::string& from_type) {
    for (const InvEntry& y : from) {
      if (full()) return;
      if (!y.has_set || !y.has_key) continue;
      const std::string_view y_key = logs.Value(y.key);
      for (uint32_t k = y.set_begin; k < y.set_end; ++k) {
        const std::string_view val = logs.Value(k);
        auto [lo, hi] = holders(to_idx, val);
        for (auto it = lo; it != hi; ++it) {
          const InvEntry& x = to[it->second];
          if (!x.has_set || !contains(x, y_key)) {
            add("inverse missing: " + from_type + " \"" + std::string(y_key) +
                    "\" references \"" + std::string(val) + "\" but not back",
                {x.seq, y.seq}, {std::string(y_key)});
          }
          if (full()) return;
        }
      }
    }
  };
  answered(logs.inv_ref, logs.inv_ext, by_key, c.ref_element);
  answered(logs.inv_ext, logs.inv_ref, ref_by_key, c.element);
}

}  // namespace xic
