// Solver-backed constraint-set diagnostics (XIC2xx / XIC3xx):
//
//   targets          foreign keys whose target key is missing from Sigma
//   consistency      sets with no finite valid document: the DTD's extent
//                    cardinalities contradict a chain of tight foreign
//                    keys (the cardinality argument behind the paper's
//                    cycle rules C_k, run as a refutation)
//   redundancy       constraints implied by the rest of Sigma, reported
//                    with the derivation from the implication solvers
//   key-subsumption  keys weakened by a stronger (subset or ID) key
//   divergence       finite vs unrestricted implication disagreement
//                    (portability: Theorem 3.4's cycle rules firing)
//
// The solver rules deliberately stay silent on sets with reference or
// shape errors (the `references` rule reports those): running implication
// over a broken Sigma produces cascading noise, not insight.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/rule.h"
#include "constraints/well_formed.h"
#include "implication/lid_solver.h"
#include "implication/lp_solver.h"
#include "implication/lu_solver.h"
#include "util/strings.h"

namespace xic {

namespace {

constexpr char kCodeInconsistent[] = "XIC201";
constexpr char kCodeRedundant[] = "XIC202";
constexpr char kCodeSubsumedKey[] = "XIC203";
constexpr char kCodeMissingTarget[] = "XIC204";
constexpr char kCodeDivergence[] = "XIC301";

bool ShapeClean(const AnalysisInput& input) {
  for (const Constraint& c : input.sigma.constraints) {
    if (!CheckConstraintShape(c, input.sigma.language, input.dtd).ok()) {
      return false;
    }
  }
  return true;
}

bool HasKeyInSigma(const ConstraintSet& sigma, const std::string& tau,
                   const std::vector<std::string>& attrs) {
  std::vector<std::string> sorted = attrs;
  std::sort(sorted.begin(), sorted.end());
  for (const Constraint& k : sigma.constraints) {
    if (k.kind == ConstraintKind::kKey && k.element == tau &&
        k.attrs == sorted) {
      return true;
    }
  }
  return false;
}

bool HasIdInSigma(const ConstraintSet& sigma, const std::string& tau) {
  for (const Constraint& k : sigma.constraints) {
    if (k.kind == ConstraintKind::kId && k.element == tau) return true;
  }
  return false;
}

Diagnostic ConstraintDiag(const AnalysisInput& input, int index,
                          const char* code, const std::string& rule,
                          DiagSeverity severity, std::string message) {
  Diagnostic d;
  d.code = code;
  d.rule = rule;
  d.severity = severity;
  d.message = std::move(message);
  d.location = input.LocationOf(index);
  return d;
}

// ---------------------------------------------------------------------------
// targets (XIC204)

class TargetRule final : public LintRule {
 public:
  std::string name() const override { return "targets"; }
  std::string description() const override {
    return "every reference must target a key (or ID constraint) that is "
           "itself in Sigma";
  }

  Status Run(const AnalysisInput& input,
             std::vector<Diagnostic>* out) const override {
    const ConstraintSet& sigma = input.sigma;
    for (size_t i = 0; i < sigma.constraints.size(); ++i) {
      const Constraint& c = sigma.constraints[i];
      // Broken shapes are the `references` rule's findings.
      if (!CheckConstraintShape(c, sigma.language, input.dtd).ok()) continue;
      auto missing = [&](std::string what) {
        out->push_back(ConstraintDiag(
            input, static_cast<int>(i), kCodeMissingTarget, name(),
            DiagSeverity::kError,
            "constraint \"" + c.ToString() + "\": " + std::move(what)));
      };
      switch (c.kind) {
        case ConstraintKind::kForeignKey:
        case ConstraintKind::kSetForeignKey:
          if (sigma.language == Language::kLid) {
            if (!HasIdInSigma(sigma, c.ref_element)) {
              missing("Sigma lacks the target ID constraint \"" +
                      c.ref_element + ".id ->id " + c.ref_element + "\"");
            }
          } else if (!HasKeyInSigma(sigma, c.ref_element, c.ref_attrs)) {
            missing("Sigma lacks the target key \"" +
                    Constraint::Key(c.ref_element, c.ref_attrs).ToString() +
                    "\"");
          }
          break;
        case ConstraintKind::kInverse:
          if (sigma.language == Language::kLu) {
            if (!HasKeyInSigma(sigma, c.element, {c.inv_key}) ||
                !HasKeyInSigma(sigma, c.ref_element, {c.inv_ref_key})) {
              missing("Sigma lacks one of the named keys \"" + c.element +
                      "." + c.inv_key + "\" / \"" + c.ref_element + "." +
                      c.inv_ref_key + "\"");
            }
          } else if (!HasIdInSigma(sigma, c.element) ||
                     !HasIdInSigma(sigma, c.ref_element)) {
            missing("Sigma lacks the ID constraints of \"" + c.element +
                    "\" / \"" + c.ref_element + "\"");
          }
          break;
        default:
          break;
      }
    }
    return Status::OK();
  }
};

// ---------------------------------------------------------------------------
// consistency (XIC201)

constexpr uint64_t kUnboundedCount = std::numeric_limits<uint64_t>::max();
// Lower bounds saturate here (stays a valid lower bound); upper bounds
// that reach it are promoted to "unbounded" (stays a valid upper bound).
constexpr uint64_t kCountCap = uint64_t{1} << 40;

uint64_t SatAdd(uint64_t a, uint64_t b) {
  if (a == kUnboundedCount || b == kUnboundedCount) return kUnboundedCount;
  uint64_t sum = a + b;
  return sum >= kCountCap ? kCountCap : sum;
}

uint64_t SatMul(uint64_t a, uint64_t b) {
  if (a == 0 || b == 0) return 0;
  if (a == kUnboundedCount || b == kUnboundedCount) return kUnboundedCount;
  if (a > kCountCap / b) return kCountCap;
  return a * b;
}

/// Per element type, bounds on how many tau-labeled nodes a document
/// valid for the DTD can contain: forced <= |nodes(tau)| <= upper.
struct ExtentBounds {
  std::map<std::string, uint64_t> forced;
  std::map<std::string, uint64_t> upper;  // kUnboundedCount when unbounded
  bool valid = false;
};

ExtentBounds ComputeExtentBounds(const DtdStructure& dtd) {
  ExtentBounds out;
  const std::string& root = dtd.root();
  if (root.empty() || !dtd.HasElement(root)) return out;
  std::vector<std::string> elements = dtd.Elements();

  // Occurrence bounds of each child symbol per parent's content model.
  struct Occ {
    std::string child;
    uint64_t min;
    uint64_t max;  // kUnboundedCount for unbounded
  };
  std::map<std::string, std::vector<Occ>> occ;
  for (const std::string& tau : elements) {
    Result<RegexPtr> content = dtd.ContentModel(tau);
    if (!content.ok()) return out;
    std::set<std::string> symbols = content.value()->Symbols();
    symbols.erase(kStringSymbol);
    for (const std::string& child : symbols) {
      Regex::Bounds b = content.value()->OccurrenceBounds(child);
      occ[tau].push_back(
          {child, static_cast<uint64_t>(b.min),
           b.max == Regex::kUnbounded ? kUnboundedCount
                                      : static_cast<uint64_t>(b.max)});
    }
  }

  auto relax = [&](const std::map<std::string, uint64_t>& cur, bool use_max) {
    std::map<std::string, uint64_t> next;
    for (const std::string& tau : elements) next[tau] = tau == root ? 1 : 0;
    for (const auto& [parent, children] : occ) {
      uint64_t count = cur.at(parent);
      if (count == 0) continue;
      for (const Occ& o : children) {
        auto it = next.find(o.child);
        if (it == next.end()) continue;  // undeclared symbol
        it->second = SatAdd(
            it->second, SatMul(count, use_max ? o.max : o.min));
      }
    }
    return next;
  };

  std::map<std::string, uint64_t> forced;
  for (const std::string& tau : elements) forced[tau] = tau == root ? 1 : 0;
  bool converged = false;
  for (size_t round = 0; round <= elements.size() + 1; ++round) {
    std::map<std::string, uint64_t> next = relax(forced, /*use_max=*/false);
    if (next == forced) {
      converged = true;
      break;
    }
    forced = std::move(next);
  }
  // Non-convergence means a cycle of forced occurrences: the grammar is
  // non-productive, which the productivity rule reports; nothing sound to
  // say about cardinalities here.
  if (!converged) return out;

  std::map<std::string, uint64_t> upper;
  for (const std::string& tau : elements) upper[tau] = tau == root ? 1 : 0;
  for (size_t round = 0; round <= elements.size(); ++round) {
    upper = relax(upper, /*use_max=*/true);
  }
  // Anything still growing sits on (or below) a cycle: promote to
  // unbounded and re-relax until stable.
  for (size_t round = 0; round <= elements.size() + 1; ++round) {
    std::map<std::string, uint64_t> next = relax(upper, /*use_max=*/true);
    bool changed = false;
    for (auto& [tau, value] : next) {
      if (value != upper.at(tau)) {
        value = kUnboundedCount;
        changed = true;
      }
    }
    upper = std::move(next);
    if (!changed) break;
  }
  for (auto& [tau, value] : upper) {
    if (value >= kCountCap && value != kUnboundedCount) {
      value = kUnboundedCount;
    }
  }

  out.forced = std::move(forced);
  out.upper = std::move(upper);
  out.valid = true;
  return out;
}

/// A foreign key tau[X] <= tau'[Y] whose source attributes form a key of
/// tau forces |ext(tau)| <= |ext(tau')| in every document (both sides
/// project injectively onto the shared value tuples).
struct TightEdge {
  std::string from;
  std::string to;
  int constraint_index;
};

std::vector<TightEdge> CollectTightEdges(const AnalysisInput& input) {
  const ConstraintSet& sigma = input.sigma;
  std::optional<LuSolver> lu;
  std::optional<LidSolver> lid;
  bool all_unary = true;
  for (const Constraint& c : sigma.constraints) {
    if (!c.attrs.empty() && !c.IsUnary()) all_unary = false;
  }
  auto source_is_key = [&](const Constraint& c) {
    if (sigma.language == Language::kLid) {
      if (!lid.has_value()) lid.emplace(input.dtd, sigma);
      return lid->status().ok() &&
             lid->Implies(Constraint::UnaryKey(c.element, c.attr()));
    }
    if (sigma.language == Language::kLu || all_unary) {
      if (!lu.has_value()) lu.emplace(sigma);
      return lu->status().ok() &&
             lu->Implies(Constraint::Key(c.element, c.attrs));
    }
    return HasKeyInSigma(sigma, c.element, c.attrs);
  };

  std::vector<TightEdge> edges;
  for (size_t i = 0; i < sigma.constraints.size(); ++i) {
    const Constraint& c = sigma.constraints[i];
    if (c.kind != ConstraintKind::kForeignKey) continue;
    if (c.element == c.ref_element) continue;
    if (source_is_key(c)) {
      edges.push_back({c.element, c.ref_element, static_cast<int>(i)});
    }
  }
  return edges;
}

class ConsistencyRule final : public LintRule {
 public:
  std::string name() const override { return "consistency"; }
  std::string description() const override {
    return "the DTD's extent cardinalities must not contradict tight "
           "foreign-key chains (finite satisfiability)";
  }

  Status Run(const AnalysisInput& input,
             std::vector<Diagnostic>* out) const override {
    if (!CheckWellFormed(input.sigma, input.dtd).ok()) return Status::OK();
    // Edges first: the extent bounds cost O(symbols * model) per type
    // and bound nothing without a tight edge.
    std::vector<TightEdge> edges = CollectTightEdges(input);
    if (edges.empty()) return Status::OK();
    ExtentBounds bounds = ComputeExtentBounds(input.dtd);
    if (!bounds.valid) return Status::OK();

    // eff[tau] = min over tight-reachable tau' of upper[tau'].
    std::map<std::string, uint64_t> eff = bounds.upper;
    std::map<std::string, std::pair<int, std::string>> succ;
    for (size_t round = 0; round < eff.size(); ++round) {
      bool changed = false;
      for (const TightEdge& e : edges) {
        auto from = eff.find(e.from);
        auto to = eff.find(e.to);
        if (from == eff.end() || to == eff.end()) continue;
        if (to->second < from->second) {
          from->second = to->second;
          succ[e.from] = {e.constraint_index, e.to};
          changed = true;
        }
      }
      if (!changed) break;
    }

    for (const auto& [tau, forced] : bounds.forced) {
      auto it = eff.find(tau);
      if (it == eff.end() || forced <= it->second) continue;
      // Reconstruct the tight chain that caps ext(tau).
      std::vector<std::string> notes;
      int anchor = -1;
      std::string cur = tau;
      while (true) {
        auto s = succ.find(cur);
        if (s == succ.end()) break;
        const Constraint& fk =
            input.sigma.constraints[static_cast<size_t>(s->second.first)];
        if (anchor < 0) anchor = s->second.first;
        notes.push_back("ext(" + cur + ") <= ext(" + s->second.second +
                        ")  [tight foreign key \"" + fk.ToString() +
                        "\", constraint #" +
                        std::to_string(s->second.first) + ": " + fk.element +
                        "[" + Join(fk.attrs, ",") + "] is a key of " +
                        fk.element + "]");
        cur = s->second.second;
      }
      notes.push_back(
          "the DTD forces at least " + std::to_string(forced) + " \"" + tau +
          "\" element(s) but allows at most " +
          std::to_string(bounds.upper.at(cur)) + " \"" + cur +
          "\" element(s)");
      Diagnostic d = ConstraintDiag(
          input, anchor, kCodeInconsistent, name(), DiagSeverity::kError,
          "constraint set is unsatisfiable over documents valid for the "
          "DTD: a tight foreign-key chain caps ext(" + tau + ") at " +
              std::to_string(it->second) + ", but the DTD forces " +
              std::to_string(forced) + " \"" + tau + "\" element(s)");
      d.notes = std::move(notes);
      out->push_back(std::move(d));
    }
    return Status::OK();
  }
};

// ---------------------------------------------------------------------------
// redundancy (XIC202)

std::vector<std::string> DerivationNotes(const std::string& explain) {
  std::vector<std::string> notes;
  for (const std::string& line : Split(explain, '\n')) {
    if (!line.empty()) notes.push_back(line);
  }
  return notes;
}

class RedundancyRule final : public LintRule {
 public:
  std::string name() const override { return "redundancy"; }
  std::string description() const override {
    return "constraints implied by the rest of Sigma, with the derivation";
  }

  Status Run(const AnalysisInput& input,
             std::vector<Diagnostic>* out) const override {
    const ConstraintSet& sigma = input.sigma;
    if (!CheckWellFormed(sigma, input.dtd).ok()) return Status::OK();
    for (size_t i = 0; i < sigma.constraints.size(); ++i) {
      XIC_RETURN_IF_ERROR(input.deadline.Check("redundancy lint"));
      const Constraint& phi = sigma.constraints[i];
      ConstraintSet rest = sigma;
      rest.constraints.erase(rest.constraints.begin() +
                             static_cast<std::ptrdiff_t>(i));
      // Removing a constraint the rest of Sigma structurally depends on
      // (e.g. the target key of a foreign key) is not a redundancy
      // question: the remainder is no longer well-formed.
      if (!CheckWellFormed(rest, input.dtd).ok()) continue;
      std::optional<std::pair<bool, std::string>> verdict =
          Implied(input, rest, phi);
      if (!verdict.has_value()) continue;
      if (!verdict->first) continue;
      Diagnostic d = ConstraintDiag(
          input, static_cast<int>(i), kCodeRedundant, name(),
          DiagSeverity::kWarning,
          "constraint \"" + phi.ToString() +
              "\" is redundant: implied by the rest of Sigma");
      d.notes = DerivationNotes(verdict->second);
      out->push_back(std::move(d));
    }
    return Status::OK();
  }

 private:
  // (implied?, derivation) for rest |= phi, or nullopt when no solver
  // decides the fragment.
  std::optional<std::pair<bool, std::string>> Implied(
      const AnalysisInput& input, const ConstraintSet& rest,
      const Constraint& phi) const {
    if (rest.language == Language::kLid) {
      LidSolver solver(input.dtd, rest);
      if (!solver.status().ok()) return std::nullopt;
      if (!solver.Implies(phi)) return std::make_pair(false, std::string());
      return std::make_pair(true, solver.Explain(phi).value_or(""));
    }
    bool all_unary = true;
    for (const Constraint& c : rest.constraints) {
      if (!c.attrs.empty() && !c.IsUnary()) all_unary = false;
    }
    if (rest.language == Language::kLu || (all_unary && phi.IsUnary())) {
      LuSolver solver(rest);
      if (!solver.status().ok()) return std::nullopt;
      if (!solver.Implies(phi)) return std::make_pair(false, std::string());
      return std::make_pair(true, solver.Explain(phi).value_or(""));
    }
    LpOptions options;
    options.max_closure = input.limits.max_solver_steps;
    options.deadline = input.deadline;
    LpSolver solver(rest, options);
    if (!solver.status().ok()) return std::nullopt;  // outside I_p
    Result<bool> implied = solver.Implies(phi);
    if (!implied.ok() || !implied.value()) {
      return std::make_pair(false, std::string());
    }
    return std::make_pair(true, solver.Explain(phi).value_or(""));
  }
};

// ---------------------------------------------------------------------------
// key-subsumption (XIC203)

class KeySubsumptionRule final : public LintRule {
 public:
  std::string name() const override { return "key-subsumption"; }
  std::string description() const override {
    return "keys weakened by a stronger key over fewer attributes (or by "
           "an ID constraint)";
  }

  Status Run(const AnalysisInput& input,
             std::vector<Diagnostic>* out) const override {
    const ConstraintSet& sigma = input.sigma;
    for (size_t i = 0; i < sigma.constraints.size(); ++i) {
      const Constraint& weak = sigma.constraints[i];
      if (weak.kind != ConstraintKind::kKey) continue;
      for (size_t j = 0; j < sigma.constraints.size(); ++j) {
        if (i == j) continue;
        const Constraint& strong = sigma.constraints[j];
        if (strong.element != weak.element) continue;
        if (strong.kind == ConstraintKind::kKey &&
            strong.attrs.size() < weak.attrs.size() &&
            std::includes(weak.attrs.begin(), weak.attrs.end(),
                          strong.attrs.begin(), strong.attrs.end())) {
          out->push_back(ConstraintDiag(
              input, static_cast<int>(i), kCodeSubsumedKey, name(),
              DiagSeverity::kWarning,
              "key \"" + weak.ToString() +
                  "\" is weakened by the stronger key \"" +
                  strong.ToString() + "\" (constraint #" +
                  std::to_string(j) +
                  "): every superset of a key is a key"));
          break;
        }
        if (strong.kind == ConstraintKind::kId && weak.IsUnary() &&
            strong.attr() == weak.attr()) {
          out->push_back(ConstraintDiag(
              input, static_cast<int>(i), kCodeSubsumedKey, name(),
              DiagSeverity::kWarning,
              "key \"" + weak.ToString() +
                  "\" is subsumed by the ID constraint \"" +
                  strong.ToString() + "\" (constraint #" +
                  std::to_string(j) +
                  "): document-wide uniqueness implies per-type "
                  "uniqueness (ID-Key)"));
          break;
        }
      }
    }
    return Status::OK();
  }
};

// ---------------------------------------------------------------------------
// divergence (XIC301)

class DivergenceRule final : public LintRule {
 public:
  std::string name() const override { return "divergence"; }
  std::string description() const override {
    return "finite and unrestricted implication disagree (cycle rules "
           "C_k fire): a portability hazard";
  }

  Status Run(const AnalysisInput& input,
             std::vector<Diagnostic>* out) const override {
    const ConstraintSet& sigma = input.sigma;
    // L_id and primary-key-restricted fragments have no divergence
    // (Proposition 3.1, Theorem 3.4 / Corollary 3.9).
    if (sigma.language == Language::kLid) return Status::OK();
    if (!ShapeClean(input)) return Status::OK();
    LuSolver solver(sigma);
    if (!solver.status().ok()) return Status::OK();
    if (solver.CheckPrimaryKeyRestriction().ok()) return Status::OK();
    for (size_t i = 0; i < sigma.constraints.size(); ++i) {
      const Constraint& c = sigma.constraints[i];
      if (c.kind != ConstraintKind::kForeignKey || !c.IsUnary()) continue;
      if (c.element == c.ref_element && c.attr() == c.ref_attr()) continue;
      Constraint reverse = Constraint::UnaryForeignKey(
          c.ref_element, c.ref_attr(), c.element, c.attr());
      if (!solver.FinitelyImplies(reverse) || solver.Implies(reverse)) {
        continue;
      }
      Diagnostic d = ConstraintDiag(
          input, static_cast<int>(i), kCodeDivergence, name(),
          DiagSeverity::kWarning,
          "finite and unrestricted implication diverge: \"" +
              reverse.ToString() +
              "\" holds in every finite document satisfying Sigma (cycle "
              "rule C_k) but not in unrestricted models");
      if (std::optional<std::string> why =
              solver.Explain(reverse, /*finite=*/true);
          why.has_value()) {
        d.notes = DerivationNotes(*why);
      }
      d.notes.push_back(
          "schemas relying on the reversal are not portable to consumers "
          "reasoning with unrestricted implication");
      out->push_back(std::move(d));
    }
    return Status::OK();
  }
};

}  // namespace

void RegisterConsistencyRules(RuleRegistry* registry) {
  registry->Register(std::make_unique<TargetRule>());
  registry->Register(std::make_unique<ConsistencyRule>());
  registry->Register(std::make_unique<RedundancyRule>());
  registry->Register(std::make_unique<KeySubsumptionRule>());
  registry->Register(std::make_unique<DivergenceRule>());
}

}  // namespace xic
