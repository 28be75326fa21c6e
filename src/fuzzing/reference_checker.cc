#include "fuzzing/reference_checker.h"

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "util/strings.h"

namespace xic::fuzz {

ConstraintReport ReferenceCheck(const DtdStructure& dtd,
                                const ConstraintSet& sigma,
                                const DataTree& tree,
                                size_t max_violations) {
  const ConstraintChecker fields(dtd, sigma);
  ConstraintReport report;
  auto full = [&] {
    return max_violations != 0 && report.violations.size() >= max_violations;
  };
  auto add = [&](size_t index, std::string msg, std::vector<VertexId> wit,
                 std::vector<std::string> values) {
    if (!full()) {
      report.violations.push_back(
          {index, std::move(msg), std::move(wit), std::move(values)});
    }
  };
  auto value = [&](VertexId v,
                   const std::string& name) -> std::optional<AttrValue> {
    Result<AttrValue> r = fields.FieldValue(tree, v, name);
    if (!r.ok()) return std::nullopt;
    return std::move(r).value();
  };
  auto single = [&](VertexId v,
                    const std::string& name) -> std::optional<std::string> {
    std::optional<AttrValue> set = value(v, name);
    if (!set.has_value() || set->size() != 1) return std::nullopt;
    return *set->begin();
  };
  auto tuple = [&](VertexId v, const std::vector<std::string>& names)
      -> std::optional<std::vector<std::string>> {
    std::vector<std::string> out;
    for (const std::string& name : names) {
      std::optional<std::string> s = single(v, name);
      if (!s.has_value()) return std::nullopt;
      out.push_back(std::move(*s));
    }
    return out;
  };
  // Every vertex whose type's ID attribute holds `val`, in id order.
  auto id_holders = [&](const std::string& val) {
    std::vector<VertexId> out;
    for (VertexId w = 0; w < tree.size(); ++w) {
      std::optional<std::string> id = dtd.IdAttribute(tree.label(w));
      if (id.has_value() && single(w, *id) == val) out.push_back(w);
    }
    return out;
  };

  for (size_t i = 0; i < sigma.constraints.size() && !full(); ++i) {
    const Constraint& c = sigma.constraints[i];
    const std::vector<VertexId> ext = tree.Extent(c.element);
    const std::vector<VertexId> ref_ext = tree.Extent(c.ref_element);
    switch (c.kind) {
      case ConstraintKind::kKey:
        // Each duplicate is reported once, against the first vertex
        // carrying the same tuple.
        for (size_t b = 0; b < ext.size() && !full(); ++b) {
          std::optional<std::vector<std::string>> t = tuple(ext[b], c.attrs);
          if (!t.has_value()) {
            add(i, "key field missing", {ext[b]}, {});
            continue;
          }
          for (size_t a = 0; a < b; ++a) {
            if (tuple(ext[a], c.attrs) == t) {
              add(i, "duplicate key [" + Join(*t, ",") + "]",
                  {ext[a], ext[b]}, *t);
              break;
            }
          }
        }
        break;

      case ConstraintKind::kId: {
        // One violation per duplicated value; the witnesses list every
        // holder document-wide.
        std::vector<std::string> reported;
        for (VertexId v : ext) {
          if (full()) break;
          std::optional<std::string> val = single(v, c.attr());
          if (!val.has_value()) {
            add(i, "ID attribute missing", {v}, {});
            continue;
          }
          if (std::find(reported.begin(), reported.end(), *val) !=
              reported.end()) {
            continue;
          }
          std::vector<VertexId> holders = id_holders(*val);
          if (holders.size() > 1) {
            reported.push_back(*val);
            add(i, "ID value \"" + *val + "\" is not document-unique",
                holders, {*val});
          }
        }
        break;
      }

      case ConstraintKind::kForeignKey:
        for (VertexId v : ext) {
          if (full()) break;
          std::optional<std::vector<std::string>> t = tuple(v, c.attrs);
          if (!t.has_value()) {
            add(i, "foreign-key field missing", {v}, {});
            continue;
          }
          bool found = false;
          for (VertexId w : ref_ext) {
            if (tuple(w, c.ref_attrs) == t) {
              found = true;
              break;
            }
          }
          if (!found) {
            add(i, "dangling reference [" + Join(*t, ",") + "]", {v}, *t);
          }
        }
        break;

      case ConstraintKind::kSetForeignKey:
        for (VertexId v : ext) {
          if (full()) break;
          std::optional<AttrValue> vals = value(v, c.attr());
          if (!vals.has_value()) {
            add(i, "set-valued field missing", {v}, {});
            continue;
          }
          for (const std::string& val : *vals) {
            bool found = false;
            for (VertexId w : ref_ext) {
              if (single(w, c.ref_attr()) == val) {
                found = true;
                break;
              }
            }
            if (!found) {
              add(i, "dangling reference \"" + val + "\"", {v}, {val});
            }
          }
        }
        break;

      case ConstraintKind::kInverse: {
        const std::string lk = c.inv_key.empty()
                                   ? dtd.IdAttribute(c.element).value_or("")
                                   : c.inv_key;
        const std::string lk2 =
            c.inv_ref_key.empty() ? dtd.IdAttribute(c.ref_element).value_or("")
                                  : c.inv_ref_key;
        if (lk.empty() || lk2.empty()) {
          add(i, "inverse constraint lacks key attributes", {}, {});
          break;
        }
        // The referenced values must be keys of the partner type.
        auto keys_exist = [&](const std::vector<VertexId>& side,
                              const std::string& attr,
                              const std::vector<VertexId>& partner,
                              const std::string& partner_key,
                              const std::string& partner_type) {
          for (VertexId x : side) {
            std::optional<AttrValue> set = value(x, attr);
            if (!set.has_value()) continue;
            for (const std::string& val : *set) {
              bool found = false;
              for (VertexId y : partner) {
                if (single(y, partner_key) == val) {
                  found = true;
                  break;
                }
              }
              if (!found) {
                add(i, "inverse reference \"" + val + "\" is not a " +
                           partner_type + " key",
                    {x}, {val});
              }
            }
          }
        };
        keys_exist(ext, c.attr(), ref_ext, lk2, c.ref_element);
        keys_exist(ref_ext, c.ref_attr(), ext, lk, c.element);
        // y referencing x (x's key in y's set) must be answered by x
        // referencing y. Witnesses: x, then y.
        auto answered = [&](const std::vector<VertexId>& from,
                            const std::string& from_attr,
                            const std::string& from_key,
                            const std::string& from_type,
                            const std::vector<VertexId>& to,
                            const std::string& to_attr,
                            const std::string& to_key) {
          for (VertexId y : from) {
            std::optional<AttrValue> set = value(y, from_attr);
            std::optional<std::string> key = single(y, from_key);
            if (!set.has_value() || !key.has_value()) continue;
            for (const std::string& val : *set) {
              for (VertexId x : to) {
                if (single(x, to_key) != val) continue;
                std::optional<AttrValue> back = value(x, to_attr);
                if (!back.has_value() || back->count(*key) == 0) {
                  add(i, "inverse missing: " + from_type + " \"" + *key +
                             "\" references \"" + val + "\" but not back",
                      {x, y}, {*key});
                }
              }
            }
          }
        };
        answered(ref_ext, c.ref_attr(), lk2, c.ref_element, ext, c.attr(),
                 lk);
        answered(ext, c.attr(), lk, c.element, ref_ext, c.ref_attr(), lk2);
        break;
      }
    }
  }
  return report;
}

}  // namespace xic::fuzz
