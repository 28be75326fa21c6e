#include "engine/batch_validator.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>

#include "engine/thread_pool.h"
#include "obs/obs.h"
#include "util/json_writer.h"

namespace xic {

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

std::string Fmt(const char* format, double a, double b = 0, double c = 0) {
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer), format, a, b, c);
  return buffer;
}

// Status codes that mean "the pipeline could not finish", as opposed to a
// verdict about the document itself.
bool IsInfrastructure(const Status& s) {
  switch (s.code()) {
    case StatusCode::kResourceExhausted:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kUnavailable:
    case StatusCode::kInternal:
      return true;
    default:
      return false;
  }
}

}  // namespace

Status DocumentOutcome::infrastructure_status() const {
  if (!error.ok()) return error;
  for (const Status* s : {&parse, &structure.status, &constraints.status}) {
    if (IsInfrastructure(*s)) return *s;
  }
  return Status::OK();
}

Verdict DocumentOutcome::verdict() const {
  if (infrastructure_failure()) return Verdict::kInfrastructureFailure;
  if (!parse.ok()) return Verdict::kParseError;
  if (!structure.ok()) return Verdict::kInvalidStructure;
  if (!constraints.ok()) return Verdict::kConstraintViolations;
  return Verdict::kOk;
}

const char* VerdictName(Verdict verdict) {
  static constexpr const char* kNames[] = {
      "infrastructure_failure", "parse_error", "invalid_structure",
      "constraint_violations", "ok"};
  return kNames[static_cast<int>(verdict)];
}

std::string BatchStats::ToString() const {
  // `ok_documents` is counted straight from the outcomes; deriving it as
  // documents minus the failure buckets underflowed when a document
  // landed in more than one bucket.
  std::string out;
  out += "batch: " + std::to_string(documents) + " document(s), " +
         std::to_string(ok_documents) + " ok, " +
         std::to_string(parse_failures) +
         " parse failure(s), " + std::to_string(structurally_invalid) +
         " structurally invalid, " + std::to_string(constraint_violating) +
         " with constraint violations, " +
         std::to_string(resource_failures) +
         " resource/fault failure(s), " + std::to_string(retries) +
         " retry(ies)\n";
  out += "       " + std::to_string(total_vertices) + " vertices, " +
         std::to_string(total_violations) + " violation(s)\n";
  double docs_per_sec = wall_seconds > 0 ? documents / wall_seconds : 0;
  out += Fmt("wall:  %.3f s (%.1f docs/s) on ", wall_seconds, docs_per_sec) +
         std::to_string(threads) + " thread(s)\n";
  out += Fmt("stage: parse %.3f s, structure %.3f s, constraints %.3f s\n",
             parse_seconds, structure_seconds, constraints_seconds);
  return out;
}

bool BatchReport::all_ok() const {
  for (const DocumentOutcome& outcome : outcomes) {
    if (!outcome.ok()) return false;
  }
  return true;
}

bool BatchReport::any_infrastructure_failure() const {
  for (const DocumentOutcome& outcome : outcomes) {
    if (outcome.infrastructure_failure()) return true;
  }
  return false;
}

std::string BatchReport::ViolationsToString(const ConstraintSet& sigma) const {
  std::string out;
  for (const DocumentOutcome& o : outcomes) {
    if (o.ok()) continue;
    if (!o.error.ok()) {
      out += o.name + ": " + o.error.ToString() + "\n";
      continue;
    }
    if (!o.parse.ok()) {
      out += o.name + ": " + o.parse.ToString() + "\n";
      continue;
    }
    if (!o.structure.status.ok()) {
      out += o.name + ": structure: " + o.structure.status.ToString() + "\n";
    }
    for (const Violation& v : o.structure.violations) {
      out += o.name + ": structure: vertex " + std::to_string(v.vertex) +
             ": " + v.message + "\n";
    }
    if (!o.constraints.status.ok()) {
      out += o.name + ": constraints: " + o.constraints.status.ToString() +
             "\n";
    }
    for (const ConstraintViolation& v : o.constraints.violations) {
      out += o.name + ": " +
             sigma.constraints[v.constraint_index].ToString() + ": " +
             v.message + "\n";
    }
  }
  return out;
}

namespace {

bool HasCode(const DocumentOutcome& o, StatusCode code) {
  return o.error.code() == code || o.parse.code() == code ||
         o.structure.status.code() == code ||
         o.constraints.status.code() == code;
}

// The plan's options: the single limits knob wins over whatever
// `validation.limits` carried (the CLI and tests set BatchOptions::limits
// only).
StreamOptions PlanOptions(const BatchOptions& options) {
  StreamOptions sopt;
  sopt.validation = options.validation;
  sopt.validation.limits = options.limits;
  sopt.limits = options.limits;
  sopt.spill_budget_bytes = options.stream_spill_budget_bytes;
  return sopt;
}

}  // namespace

std::string BatchReport::ToJson(const ConstraintSet& sigma) const {
  // Deterministic by construction: input order, no timings, no thread or
  // worker identities (`stats.threads` is also omitted so one corpus
  // renders identically at every --threads setting).
  using Layout = util::JsonWriter::Layout;
  util::JsonWriter w;
  auto text = [&w](std::string_view key, std::string_view value) {
    w.Key(key);
    w.String(value);
  };
  auto number = [&w](std::string_view key, uint64_t value) {
    w.Key(key);
    w.Number(value);
  };
  w.BeginObject(Layout::kIndented);
  text("schema", "xic-batch-report-v1");
  w.Key("documents");
  w.BeginArray(Layout::kIndented);
  for (const DocumentOutcome& o : outcomes) {
    w.BeginObject(Layout::kInline);
    text("name", o.name);
    text("verdict", VerdictName(o.verdict()));
    number("attempts", o.attempts);
    number("retries", o.attempts - 1);
    number("vertices", o.stats.vertices);
    w.Key("timed_out");
    w.Bool(HasCode(o, StatusCode::kDeadlineExceeded));
    w.Key("faulted");
    w.Bool(HasCode(o, StatusCode::kUnavailable));
    if (!o.error.ok()) {
      w.Key("error");
      w.BeginObject(Layout::kInline);
      text("code", StatusCodeToString(o.error.code()));
      text("message", o.error.message());
      w.EndObject();
    }
    if (!o.parse.ok()) text("parse_error", o.parse.ToString());
    if (!o.structure.status.ok()) {
      text("structure_error", o.structure.status.ToString());
    }
    if (!o.constraints.status.ok()) {
      text("constraints_error", o.constraints.status.ToString());
    }
    if (!o.structure.violations.empty()) {
      w.Key("structure_violations");
      w.BeginArray(Layout::kInline);
      for (const Violation& v : o.structure.violations) {
        w.BeginObject(Layout::kInline);
        number("vertex", v.vertex);
        text("message", v.message);
        w.EndObject();
      }
      w.EndArray();
    }
    if (!o.constraints.violations.empty()) {
      w.Key("constraint_violations");
      w.BeginArray(Layout::kInline);
      for (const ConstraintViolation& v : o.constraints.violations) {
        w.BeginObject(Layout::kInline);
        text("constraint", sigma.constraints[v.constraint_index].ToString());
        text("message", v.message);
        w.EndObject();
      }
      w.EndArray();
    }
    w.EndObject();
  }
  w.EndArray();
  w.Key("stats");
  w.BeginObject(Layout::kInline);
  number("documents", stats.documents);
  number("ok_documents", stats.ok_documents);
  number("parse_failures", stats.parse_failures);
  number("structurally_invalid", stats.structurally_invalid);
  number("constraint_violating", stats.constraint_violating);
  number("resource_failures", stats.resource_failures);
  number("retries", stats.retries);
  number("total_vertices", stats.total_vertices);
  number("total_violations", stats.total_violations);
  w.EndObject();
  w.EndObject();
  return w.TakeString() + "\n";
}

BatchValidator::BatchValidator(const DtdStructure& dtd,
                               const ConstraintSet& sigma,
                               BatchOptions options)
    : options_(std::move(options)),
      plan_(dtd, sigma, PlanOptions(options_)),
      injector_(options_.faults) {}

Deadline BatchValidator::DocumentDeadline(
    const RunOverrides& overrides) const {
  uint64_t timeout_ms =
      overrides.document_timeout_ms.value_or(options_.document_timeout_ms);
  Deadline deadline = timeout_ms == 0 ? Deadline::Infinite()
                                      : Deadline::AfterMillis(timeout_ms);
  if (overrides.cancellation != nullptr) {
    deadline = deadline.WithToken(overrides.cancellation);
  }
  return deadline;
}

DocumentOutcome BatchValidator::CheckOne(
    const BatchDocument& doc, const RunOverrides& overrides) const {
  size_t max_attempts =
      std::max<size_t>(1, overrides.max_attempts.value_or(
                              options_.max_attempts));
  DocumentOutcome outcome;
  for (size_t attempt = 0; attempt < max_attempts; ++attempt) {
    if (attempt > 0) {
      // Exponential backoff with deterministic jitter before each retry
      // (disabled by default). Skipped once the caller cancelled: a
      // draining service wants the final deterministic outcome, not a
      // sleep.
      if (overrides.cancellation == nullptr ||
          !overrides.cancellation->cancelled()) {
        BackoffSleep(options_.backoff, doc.name, attempt);
      }
    }
    outcome = CheckOneAttempt(doc, overrides.attempt_base + attempt,
                              overrides);
    outcome.attempts = attempt + 1;
    // Only transient failures are worth retrying; limits and deadlines
    // would trip identically on the next attempt.
    if (outcome.error.code() != StatusCode::kUnavailable) break;
  }
  return outcome;
}

DocumentOutcome BatchValidator::CheckOneAttempt(
    const BatchDocument& doc, size_t attempt,
    const RunOverrides& overrides) const {
  DocumentOutcome outcome;
  outcome.name = doc.name;
  obs::ScopedSpan span("batch.attempt", "engine");
  span.SetSeq(static_cast<int64_t>(attempt));
  span.AddInt("attempt", static_cast<int64_t>(attempt));
  // The fault policy of the header: false once `site` drew a fault.
  auto draw = [&](const char* site) {
    Status s = injector_.MaybeFail(site, doc.name, static_cast<int>(attempt));
    if (s.ok()) return true;
    XIC_COUNTER_ADD("engine.batch.faults", 1);
    span.AddString("fault", site);
    outcome.error = std::move(s);
    return false;
  };
  // The whole attempt runs under one try: anything the check (or the
  // fault injector in throwing mode) throws becomes this document's
  // outcome instead of tearing down the batch.
  try {
    if (!draw("parse")) return outcome;
    StringSource source(doc.text);
    StreamOutcome run =
        plan_.Run(source, DocumentDeadline(overrides),
                  overrides.limits.value_or(options_.limits), overrides.stream);
    outcome.parse = std::move(run.parse);
    outcome.stats = run.stats;
    if (!outcome.parse.ok() || !draw("structure")) return outcome;
    outcome.structure = std::move(run.structure);
    if (!draw("constraints")) return outcome;
    outcome.constraints = std::move(run.constraints);
  } catch (const std::exception& e) {
    outcome.error =
        Status::Internal(std::string("uncaught exception: ") + e.what());
  } catch (...) {
    outcome.error = Status::Internal("uncaught exception");
  }
  return outcome;
}

BatchReport BatchValidator::Run(
    const std::vector<BatchDocument>& corpus) const {
  return Run(corpus, RunOverrides{});
}

BatchReport BatchValidator::Run(const std::vector<BatchDocument>& corpus,
                                const RunOverrides& overrides) const {
  obs::ScopedSpan batch_span("batch.run", "engine");
  BatchReport report;
  report.outcomes.resize(corpus.size());
  Clock::time_point start = Clock::now();
  size_t threads = options_.num_threads;
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  // One document's full pipeline (all attempts), wrapped in a span tagged
  // with its deterministic input index. queue_wait measures fan-out start
  // to pipeline start -- on the pool path that approximates time sitting
  // in the worker deques.
  auto run_one = [&](size_t i) {
    // Re-install the request's trace id on this worker before opening the
    // document span; on the inline path this re-installs the caller's own
    // ambient id (a no-op).
    obs::ScopedTraceId scoped_trace(overrides.trace_id.empty()
                                        ? obs::ScopedTraceId::Current()
                                        : overrides.trace_id);
    obs::ScopedSpan doc_span("batch.document", "engine");
    doc_span.SetSeq(static_cast<int64_t>(i));
    double queue_wait = Seconds(start, Clock::now());
    Clock::time_point doc_start = Clock::now();
    DocumentOutcome& o = report.outcomes[i];
    o = CheckOne(corpus[i], overrides);
    o.queue_wait_seconds = queue_wait;
    o.worker = ThreadPool::current_worker();
    double doc_seconds = Seconds(doc_start, Clock::now());
    XIC_COUNTER_ADD("engine.batch.documents", 1);
    XIC_COUNTER_ADD("engine.batch.retries", o.attempts - 1);
    XIC_HISTOGRAM_OBSERVE("engine.batch.doc_ms", doc_seconds * 1e3,
                          {0.1, 1.0, 10.0, 100.0, 1000.0, 10000.0});
    if (doc_span.active()) {
      doc_span.AddString("doc", o.name);
      doc_span.AddInt("worker", o.worker);
      doc_span.AddInt("attempts", static_cast<int64_t>(o.attempts));
      doc_span.AddInt("vertices", static_cast<int64_t>(o.stats.vertices));
      doc_span.AddInt("structure_steps",
                      static_cast<int64_t>(o.structure.steps));
      doc_span.AddInt("constraint_steps",
                      static_cast<int64_t>(o.constraints.steps));
      doc_span.AddDouble("queue_wait_ms", queue_wait * 1e3);
      doc_span.AddDouble("run_ms", doc_seconds * 1e3);
      if (!o.error.ok()) {
        doc_span.AddString("error", StatusCodeToString(o.error.code()));
      }
    }
  };
  if (threads <= 1 || corpus.size() <= 1) {
    threads = 1;
    for (size_t i = 0; i < corpus.size(); ++i) run_one(i);
  } else {
    ThreadPool pool(threads);
    // Each worker writes only its own outcome slot; the Wait() inside
    // ParallelFor publishes them to this thread.
    pool.ParallelFor(corpus.size(), run_one);
  }
  report.stats.wall_seconds = Seconds(start, Clock::now());
  report.stats.threads = threads;
  report.stats.documents = corpus.size();
  for (const DocumentOutcome& o : report.outcomes) {
    if (o.attempts > 1) report.stats.retries += o.attempts - 1;
    // One bucket per Verdict, in enum order.
    size_t* const buckets[] = {
        &report.stats.resource_failures, &report.stats.parse_failures,
        &report.stats.structurally_invalid,
        &report.stats.constraint_violating, &report.stats.ok_documents};
    ++*buckets[static_cast<int>(o.verdict())];
    report.stats.total_vertices += o.stats.vertices;
    report.stats.total_violations +=
        o.structure.violations.size() + o.constraints.violations.size();
    report.stats.parse_seconds += o.stats.parse_seconds;
    report.stats.structure_seconds += o.stats.structure_seconds;
    report.stats.constraints_seconds += o.stats.constraints_seconds;
  }
  XIC_COUNTER_ADD("engine.batch.runs", 1);
  XIC_COUNTER_ADD("engine.batch.resource_failures",
                  report.stats.resource_failures);
  if (batch_span.active()) {
    batch_span.AddInt("documents",
                      static_cast<int64_t>(report.stats.documents));
    batch_span.AddInt("threads", static_cast<int64_t>(threads));
    batch_span.AddInt("retries", static_cast<int64_t>(report.stats.retries));
    batch_span.AddInt("violations",
                      static_cast<int64_t>(report.stats.total_violations));
  }
  return report;
}

}  // namespace xic
