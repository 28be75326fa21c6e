// Batch validation: the paper's per-document check (Definition 2.4
// structure + G |= Sigma) run over a corpus, by xicbatch and by xicd.
//
// The check itself is StreamValidator::Run (engine/stream_validator.h),
// the same entry xicheck's ValidateSelfDescribing drives, compiled once
// per schema; RunOverrides::stream picks its body driver (a DataTree or
// events). A BatchValidator adds only what is batch-specific: attempts
// with backoff, fault draws, per-document deadlines, the work-stealing
// thread pool (engine/thread_pool.h) and the report. Every mutable
// intermediate lives on the worker's stack.
//
// Determinism: outcomes are stored at the document's input index, and the
// per-document check is sequential, so the violation report is
// byte-identical no matter how many threads ran the batch (timings and
// throughput are reported separately in BatchStats).
//
// Fault isolation: a document that trips a resource limit, blows its
// per-document deadline, hits an injected fault, or throws is recorded as
// that document's outcome -- the batch always completes and reports every
// other document normally. Transient failures (kUnavailable, e.g. from
// the FaultInjector seam) are retried up to BatchOptions::max_attempts
// times; everything else fails fast.
//
// One fault policy in both modes: the "parse" site is drawn before the
// check; once the document parsed, "structure" and then "constraints"
// are drawn, and a stage's report is published only after its draw
// passed. A drawn fault sets `error`, keeps the vertex count and drops
// the report of its stage and of every later one. Decisions depend only
// on (seed, site, document name, attempt), so a faulted run's report is
// byte-identical across thread counts and across modes.

#ifndef XIC_ENGINE_BATCH_VALIDATOR_H_
#define XIC_ENGINE_BATCH_VALIDATOR_H_

#include <optional>
#include <string>
#include <vector>

#include "constraints/checker.h"
#include "engine/stream_validator.h"
#include "model/structural_validator.h"
#include "util/backoff.h"
#include "util/fault_injector.h"
#include "util/limits.h"
#include "util/status.h"

namespace xic {

/// One unit of batch input: a named raw XML document.
struct BatchDocument {
  std::string name;  // file name or synthetic id, echoed in reports
  std::string text;  // complete XML document
};

/// What became of one document, in precedence order: a pipeline that
/// could not finish outranks every verdict on the document itself.
enum class Verdict {
  kInfrastructureFailure,
  kParseError,
  kInvalidStructure,
  kConstraintViolations,
  kOk,
};

/// "infrastructure_failure", "parse_error", "invalid_structure",
/// "constraint_violations" or "ok" (the xicbatch --json and xicd spelling).
const char* VerdictName(Verdict verdict);

/// What became of one document: the check's outcome plus the batch's
/// bookkeeping.
struct DocumentOutcome : StreamOutcome {
  std::string name;
  /// Pipeline-level failure: an injected fault that exhausted its
  /// retries (kUnavailable), or an exception caught escaping the check
  /// (kInternal). Distinct from the document merely being invalid.
  Status error = Status::OK();
  /// Attempts taken; > 1 when transient failures were retried.
  size_t attempts = 1;
  /// Delay between batch fan-out and this document's pipeline starting
  /// (approximates time spent waiting in the pool's queues). Timing-only
  /// diagnostics: excluded from ToJson/ViolationsToString.
  double queue_wait_seconds = 0;
  /// Pool worker that ran the (final) attempt, -1 on the inline path.
  /// Scheduling-dependent; excluded from deterministic reports.
  int worker = -1;

  bool ok() const { return error.ok() && StreamOutcome::ok(); }

  /// The status that kept the pipeline from a verdict -- a fault or
  /// exception (`error`), else the first resource-limit, deadline,
  /// unavailable or internal status among the stages -- or OK when it
  /// reached one (the document may still be invalid).
  Status infrastructure_status() const;
  bool infrastructure_failure() const {
    return !infrastructure_status().ok();
  }

  /// The one classification of an outcome, shared by ToJson, the stats
  /// buckets and xicd.
  Verdict verdict() const;
};

/// Aggregate counters and timings for one batch run.
struct BatchStats {
  size_t documents = 0;
  /// Documents whose pipeline reached a fully-OK verdict. Counted
  /// directly from the outcomes, NOT derived by subtracting the failure
  /// counters from `documents`: a document can fail several ways at once
  /// (e.g. structurally invalid *and* constraint-violating after a
  /// deadline), so the subtraction underflows size_t.
  size_t ok_documents = 0;
  size_t parse_failures = 0;
  size_t structurally_invalid = 0;
  size_t constraint_violating = 0;
  /// Documents whose pipeline was cut short (limit, deadline, fault,
  /// exception) rather than reaching a verdict.
  size_t resource_failures = 0;
  /// Extra attempts beyond the first, summed over the batch.
  size_t retries = 0;
  size_t total_vertices = 0;
  size_t total_violations = 0;  // structural + constraint
  size_t threads = 1;
  double wall_seconds = 0;
  /// Per-stage times summed across workers (CPU-ish, exceeds wall time
  /// when the pool overlaps documents).
  double parse_seconds = 0;
  double structure_seconds = 0;
  double constraints_seconds = 0;

  /// Human-readable stats block (counts, wall time, docs/s, stage times).
  std::string ToString() const;
};

struct BatchReport {
  std::vector<DocumentOutcome> outcomes;  // in input order
  BatchStats stats;

  bool all_ok() const;

  /// True when any document hit a limit, deadline, fault or exception --
  /// the batch's verdict on those documents is "could not check", not
  /// "invalid" (xicbatch maps this to exit code 2).
  bool any_infrastructure_failure() const;

  /// Every failure in input order: pipeline errors, parse errors,
  /// structural violations, constraint violations. Byte-identical across
  /// thread counts (absent per-document deadlines, whose expiry is
  /// inherently timing-dependent).
  std::string ViolationsToString(const ConstraintSet& sigma) const;

  /// Machine-readable batch report: one entry per document, in input
  /// order, with verdict, attempts/retries, fault/timeout classification
  /// and violation details, plus the aggregate counters. Deliberately
  /// excludes every timing and the worker assignment so the bytes are
  /// identical across thread counts (the batch engine's determinism
  /// guarantee, pinned by engine_test).
  std::string ToJson(const ConstraintSet& sigma) const;
};

struct BatchOptions {
  /// Worker threads; 0 picks hardware_concurrency, 1 runs the batch
  /// inline on the calling thread (the sequential baseline).
  size_t num_threads = 0;
  ValidationOptions validation;
  /// Hard input/search limits, copied over `validation.limits` (single
  /// knob for the whole pipeline).
  ResourceLimits limits;
  /// Wall-clock budget per document attempt, 0 = none. Covers parse,
  /// structural validation and the constraint check.
  uint64_t document_timeout_ms = 0;
  /// Attempts per document; transient (kUnavailable) failures are
  /// retried until this many attempts were made.
  size_t max_attempts = 1;
  /// Extent-log bytes per document before spilling to disk (0 = never
  /// spill). Only meaningful for streaming runs (RunOverrides::stream).
  size_t stream_spill_budget_bytes = 64u << 20;
  /// Deterministic fault injection (off by default; see
  /// util/fault_injector.h).
  FaultConfig faults;
  /// Wait schedule between transient-failure retries. The default
  /// (initial_delay_ms == 0) retries immediately, preserving the
  /// pre-backoff behavior; services set an exponential schedule so
  /// retries do not stampede. Jitter is deterministic per (key, attempt),
  /// keeping faulted reports byte-identical across thread counts.
  BackoffConfig backoff;
};

/// Per-call overrides for a compiled validator. A long-lived service
/// (xicd) compiles one BatchValidator per schema and then threads each
/// request's deadline / retry budget / input limits through Run without
/// recompiling; absent fields fall back to the construction-time
/// BatchOptions.
struct RunOverrides {
  /// Check each document with the event driver instead of a DataTree.
  /// Reports are byte-identical; peak memory per worker is bounded by
  /// the spill budget instead of the largest document's tree.
  bool stream = false;
  /// Per-document wall-clock budget for this call, milliseconds (0 =
  /// none). Overrides BatchOptions::document_timeout_ms.
  std::optional<uint64_t> document_timeout_ms;
  /// Attempts per document for this call (>= 1). Overrides
  /// BatchOptions::max_attempts.
  std::optional<size_t> max_attempts;
  /// Starting attempt index for fault-injection numbering. A caller that
  /// owns the retry loop itself (xicd's dispatcher) runs each call with
  /// max_attempts = 1 and threads its outer attempt index here, so
  /// injected transient faults clear at the configured
  /// transient_attempts without a second retry layer multiplying
  /// attempts underneath it.
  size_t attempt_base = 0;
  /// Input bounds for the parse stage of this call (document bytes,
  /// nesting depth, expansion budget). Compiled-plan search bounds
  /// (automaton states etc.) stay at their construction-time values.
  std::optional<ResourceLimits> limits;
  /// Cooperative cancellation: when cancelled, per-document deadlines
  /// report expiry at the next check. Must outlive the Run call.
  const CancellationToken* cancellation = nullptr;
  /// Request trace id to install on the worker thread for the duration of
  /// each document (obs::ScopedTraceId), so fanned-out engine spans stay
  /// joinable to the originating request even when the pool executes them
  /// on a different thread than the caller's. Empty = keep the worker's
  /// ambient id (i.e. the caller's id on the inline single-document path,
  /// none on the pool path).
  std::string trace_id;
};

class BatchValidator {
 public:
  /// Compiles the DTD's content models and the constraint plan once. The
  /// DTD and Sigma must outlive the validator and stay unmodified.
  BatchValidator(const DtdStructure& dtd, const ConstraintSet& sigma,
                 BatchOptions options = {});

  /// Parses and validates the whole corpus.
  BatchReport Run(const std::vector<BatchDocument>& corpus) const;

  /// Run with per-call overrides (request deadline, retry budget, input
  /// limits, cancellation) layered over the compiled options.
  BatchReport Run(const std::vector<BatchDocument>& corpus,
                  const RunOverrides& overrides) const;

  /// Bytes held by the compiled content-model automata.
  size_t automaton_bytes() const {
    return plan_.validator().automaton_bytes();
  }

 private:
  DocumentOutcome CheckOne(const BatchDocument& doc,
                           const RunOverrides& overrides) const;
  DocumentOutcome CheckOneAttempt(const BatchDocument& doc, size_t attempt,
                                  const RunOverrides& overrides) const;
  Deadline DocumentDeadline(const RunOverrides& overrides) const;

  BatchOptions options_;
  /// The one compiled plan, shared read-only by both body drivers.
  StreamValidator plan_;
  FaultInjector injector_;
};

}  // namespace xic

#endif  // XIC_ENGINE_BATCH_VALIDATOR_H_
