// xicbench_trace: the benchmark's traced run. It feeds one workload's
// inputs to each layer's public functions directly and records a span
// around every call: name, start, end, parent. Spans stay in memory and
// are written out at the end; the per-layer metrics are derived from
// them (self time = span duration minus the part its child spans cover).
//
//   xicbench_trace SCHEMAS REQUESTS.bin REQUESTS.schedule SECONDS SPANS_OUT
//
// SCHEMAS is a comma-separated list of self-describing documents whose
// DTD^C are the workload's schemas; a frame header `schema=@K` names the
// K-th. The layers run on the first schema and on the bodies of the
// `validate` frames that carry `schema=@0`; the schedule's first
// kMaxRequests requests are replayed through an in-process
// serve::Dispatcher, and its session scripts through IncrementalChecker.
// The batch validator runs at 1 thread and at as many as the process may
// use.
//
// Passes repeat until SECONDS have elapsed (at least two). They
// alternate between tracing off and on; every metric is the median over
// the traced passes, and obs.trace_overhead is the median traced pass
// wall time over the median untraced one. Prints one JSON object of
// metrics on stdout.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <malloc.h>
#include <sched.h>
#include <unistd.h>

#include "engine/extent_log.h"
#include "serve/server.h"
#include "wire.h"
#include "xic.h"

namespace {

using namespace xic;
using Clock = std::chrono::steady_clock;

// Requests replayed per pass: enough for xicd_mix's steady state, few
// enough that a pass stays well under a run.
constexpr size_t kMaxRequests = 3000;

// ---------------------------------------------------------------------------
// Spans.

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  int pass = 0;
};

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Tracer {
  bool on = false;
  int pass = 0;
  std::vector<Span> spans;
  std::vector<int> open;
};
Tracer g_tracer;

// Records one span for its lifetime when tracing is on; costs nothing
// beyond a branch when it is off.
class Scope {
 public:
  explicit Scope(std::string name) {
    if (!g_tracer.on) return;
    index_ = static_cast<int>(g_tracer.spans.size());
    g_tracer.spans.push_back({std::move(name), NowNs(), 0,
                              g_tracer.open.empty() ? -1 : g_tracer.open.back(),
                              g_tracer.pass});
    g_tracer.open.push_back(index_);
  }
  ~Scope() {
    if (index_ < 0) return;
    g_tracer.spans[index_].end_ns = NowNs();
    g_tracer.open.pop_back();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  int index_ = -1;
};

// Self time per span name within one pass.
std::map<std::string, double> SelfNs(int pass) {
  std::vector<int64_t> covered(g_tracer.spans.size(), 0);
  for (const Span& s : g_tracer.spans) {
    if (s.pass == pass && s.parent >= 0) {
      covered[s.parent] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < g_tracer.spans.size(); ++i) {
    const Span& s = g_tracer.spans[i];
    if (s.pass != pass) continue;
    self[s.name] += static_cast<double>(s.end_ns - s.start_ns - covered[i]);
  }
  return self;
}

// ---------------------------------------------------------------------------
// Inputs.

double KbField(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) return std::atof(line.c_str() + strlen(key));
  }
  return 0;
}

// Returns freed heap to the kernel and resets VmHWM, so the next case
// reports its own peak, not the process's.
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// ---------------------------------------------------------------------------
// One pass over every layer.

struct Schema {
  std::string text;
  DtdStructure dtd;
  ConstraintSet sigma;
};

struct Workload {
  std::vector<Schema> schemas;  // the layers run on schemas[0]
  std::vector<serve::Request> frames;
  std::vector<size_t> schedule;     // frame indexes, in order
  std::vector<std::string> docs;    // validate bodies against schema=@
};

using Metrics = std::map<std::string, double>;

// Sends one frame and reads its reply; returns the reply's code.
StatusCode RoundTrip(int fd, xicbench::ReplyReader* reader,
                     const std::string& frame) {
  serve::ResponseHead head;
  std::string body;
  if (!xicbench::SendAll(fd, frame) || !reader->Next(&head, &body)) {
    return StatusCode::kUnavailable;
  }
  return head.code;
}

size_t Cpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<size_t>(std::max(1, CPU_COUNT(&set)));
}

serve::DispatcherOptions ServeOptions() {
  serve::DispatcherOptions options;
  options.max_request_bytes = size_t{1} << 30;
  return options;
}

Metrics RunPass(const Workload& w) {
  Metrics m;
  Scope pass("pass");
  uint64_t doc_bytes = 0;
  for (const std::string& d : w.docs) doc_bytes += d.size();

  // Schema: DTD, Sigma, well-formedness, automata.
  Result<SelfDescribingDocument> schema = [&] {
    Scope s("xml.ParseDocumentWithDtdC.schema");
    return ParseDocumentWithDtdC(w.schemas[0].text);
  }();
  if (!schema.ok() || !schema.value().document.dtd.has_value()) {
    std::cerr << "schema: " << schema.status() << "\n";
    std::exit(2);
  }
  const DtdStructure& dtd = *schema.value().document.dtd;
  const ConstraintSet sigma = schema.value().sigma.value_or(ConstraintSet{});
  {
    Scope s("xml.ParseDtd");
    Result<DtdStructure> again =
        ParseDtd(schema.value().document.internal_subset, dtd.root());
    if (!again.ok()) std::exit(2);
  }
  {
    Scope s("constraints.CheckWellFormed");
    if (!CheckWellFormed(sigma, dtd).ok()) std::exit(2);
  }
  ValidationOptions vopt;
  vopt.allow_missing_attributes = true;
  std::unique_ptr<StructuralValidator> validator;
  {
    Scope s("regex.StructuralValidator");
    validator = std::make_unique<StructuralValidator>(dtd, vopt);
  }

  // xml: materialized parse, then the pull tokenizer alone.
  XmlParseOptions popt;
  popt.dtd = &dtd;
  std::vector<XmlDocument> trees;
  trees.reserve(w.docs.size());
  ResetPeakRss();
  double rss_before = KbField("VmRSS:");
  {
    Scope s("xml.ParseXml");
    for (const std::string& d : w.docs) {
      Result<XmlDocument> doc = ParseXml(d, popt);
      if (!doc.ok()) {
        std::cerr << "parse: " << doc.status() << "\n";
        std::exit(2);
      }
      trees.push_back(std::move(doc.value()));
    }
  }
  m["model.tree_mb"] = (KbField("VmHWM:") - rss_before) / 1024;
  double events = 0;
  {
    Scope s("xml.StreamTokenizer::Next");
    for (const std::string& d : w.docs) {
      StringSource source(d);
      StreamTokenizer tok(source);
      StreamEvent event;
      do {
        if (!tok.Next(&event).ok()) std::exit(2);
        ++events;
      } while (event.kind != StreamEventKind::kEndDocument);
    }
  }
  m["xml.events"] = events;

  // model + regex + constraints on the materialized trees.
  double vertices = 0, violations = 0;
  std::vector<ValidationReport> structure;
  std::vector<ConstraintReport> constraint;
  ConstraintChecker checker(dtd, sigma);
  {
    Scope s("model.StructuralValidator::Validate");
    for (const XmlDocument& d : trees) {
      structure.push_back(validator->Validate(d.tree));
      vertices += static_cast<double>(d.tree.size());
    }
  }
  {
    Scope s("constraints.ConstraintChecker::Check");
    for (const XmlDocument& d : trees) {
      constraint.push_back(checker.Check(d.tree));
    }
  }
  {
    Scope s("constraints.render");
    size_t bytes = 0;
    for (size_t i = 0; i < trees.size(); ++i) {
      bytes += structure[i].ToString().size() +
               constraint[i].ToString(sigma).size();
    }
    m["constraints.render_bytes"] = static_cast<double>(bytes);
  }
  for (size_t i = 0; i < trees.size(); ++i) {
    violations += static_cast<double>(structure[i].violations.size() +
                                      constraint[i].violations.size());
  }
  m["model.vertices"] = vertices;
  m["constraints.violations"] = violations;

  // regex: each element's child word through its content model, split
  // at the 64-position bitmask limit.
  std::vector<std::pair<const GlushkovAutomaton*, std::vector<int>>> words;
  for (const XmlDocument& d : trees) {
    for (VertexId v = 0; v < d.tree.size(); ++v) {
      auto plan = validator->PlanFor(d.tree.label(v));
      if (!plan || plan->automaton == nullptr) continue;
      std::vector<int> ids;
      for (const std::string& sym : d.tree.ChildWord(v)) {
        ids.push_back(plan->automaton->FindAlphabetId(sym));
      }
      words.emplace_back(plan->automaton, std::move(ids));
    }
  }
  double symbols[2] = {0, 0};
  double accepted = 0;
  for (int wide = 0; wide < 2; ++wide) {
    Scope s(wide ? "regex.MatchesIds.wide" : "regex.MatchesIds.narrow");
    for (const auto& [automaton, ids] : words) {
      if ((automaton->num_positions() > 64) != (wide == 1)) continue;
      accepted += automaton->MatchesIds(ids.data(), ids.size());
      symbols[wide] += static_cast<double>(ids.size());
    }
  }
  m["regex.symbols"] = symbols[0] + symbols[1];
  m["regex.wide_symbol_share"] =
      symbols[0] + symbols[1] > 0 ? symbols[1] / (symbols[0] + symbols[1]) : 0;

  // engine: streaming validation (default and 1 MiB spill budget).
  StreamOptions sopt;
  sopt.validation = vopt;
  StreamValidator streamer(dtd, sigma, sopt);
  {
    Scope s("engine.StreamValidator::Run");
    for (const std::string& d : w.docs) {
      StringSource source(d);
      if (!streamer.Run(source).parse.ok()) std::exit(2);
    }
  }
  sopt.spill_budget_bytes = 1u << 20;
  StreamValidator spiller(dtd, sigma, sopt);
  StreamStats spill;
  {
    Scope s("engine.StreamValidator::Run.spill");
    for (const std::string& d : w.docs) {
      StringSource source(d);
      StreamOutcome out = spiller.Run(source);
      if (!out.parse.ok()) std::exit(2);
      spill.extent_records += out.stats.extent_records;
      spill.spilled_bytes += out.stats.spilled_bytes;
      spill.spill_runs += out.stats.spill_runs;
    }
  }
  m["engine.extent_records"] = static_cast<double>(spill.extent_records);
  m["engine.spilled_mb"] = static_cast<double>(spill.spilled_bytes) / (1 << 20);
  m["engine.spill_runs"] = static_cast<double>(spill.spill_runs);

  // engine: the extent log on the workload's own field tuples.
  struct Tuple {
    size_t log;
    uint32_t seq;
    uint32_t rank;
    std::string payload;
  };
  std::vector<Tuple> tuples;
  for (const XmlDocument& d : trees) {
    for (size_t c = 0; c < sigma.constraints.size(); ++c) {
      const Constraint& con = sigma.constraints[c];
      for (VertexId v : d.tree.Extent(con.element)) {
        std::vector<std::string_view> values;
        bool complete = true;
        for (const std::string& attr : con.attrs) {
          Result<AttrValue> value = d.tree.Attribute(v, attr);
          if (!value.ok() || value.value().empty()) {
            complete = false;
            break;
          }
          values.push_back(*value.value().begin());
        }
        if (!complete) continue;
        Tuple t{c, static_cast<uint32_t>(v), 0, {}};
        EncodeTupleInto(values, &t.payload);
        tuples.push_back(std::move(t));
      }
    }
  }
  for (int spilling = 1; spilling >= 0; --spilling) {
    const std::string tag = spilling ? "" : ".unbounded";
    SpillBudget budget(spilling ? size_t{1} << 20 : SIZE_MAX);
    std::vector<std::unique_ptr<TupleLog>> logs;
    for (size_t c = 0; c < std::max<size_t>(sigma.constraints.size(), 1); ++c) {
      logs.push_back(std::make_unique<TupleLog>(&budget));
    }
    {
      Scope s("engine.TupleLog::Append" + tag);
      for (const Tuple& t : tuples) {
        if (!logs[t.log]->Append(t.seq, t.rank, t.payload).ok()) std::exit(2);
      }
    }
    {
      Scope s("engine.TupleLog::Finish+Scan" + tag);
      size_t scanned = 0;
      for (auto& log : logs) {
        if (!log->Finish().ok()) std::exit(2);
        TupleLog::Cursor cursor = log->Scan();
        TupleLog::Record r;
        while (cursor.Next(&r)) ++scanned;
      }
      if (scanned != tuples.size()) std::exit(2);
    }
  }
  m["engine.extent_log.records"] = static_cast<double>(tuples.size());

  // engine: the batch validator at 1 and N threads.
  std::vector<BatchDocument> corpus;
  for (size_t i = 0; i < w.docs.size(); ++i) {
    corpus.push_back({"d" + std::to_string(i), w.docs[i]});
  }
  const size_t cpus = Cpus();
  for (size_t threads : {size_t{1}, cpus}) {
    BatchOptions bopt;
    bopt.num_threads = threads;
    bopt.validation = vopt;
    BatchValidator batch(dtd, sigma, bopt);
    int64_t t0 = NowNs();
    {
      Scope s(threads == 1 ? "engine.BatchValidator::Run.t1"
                           : "engine.BatchValidator::Run.tN");
      BatchReport report = batch.Run(corpus);
      if (report.any_infrastructure_failure()) std::exit(2);
    }
    double docs_s = static_cast<double>(corpus.size()) * 1e9 /
                    static_cast<double>(NowNs() - t0);
    m[threads == 1 ? "engine.batch.docs_s.t1" : "engine.batch.docs_s.tN"] =
        docs_s;
  }
  m["engine.pool.threads"] = static_cast<double>(cpus);
  m["engine.pool.scaling"] =
      m["engine.batch.docs_s.tN"] / m["engine.batch.docs_s.t1"];

  // constraints: the incremental checker on the session scripts.
  {
    std::map<std::string, std::unique_ptr<IncrementalChecker>> sessions;
    double ops = 0;
    for (size_t index : w.schedule) {
      const serve::Request& r = w.frames[index];
      const std::string name = r.header("session");
      if (r.verb == "session.open") {
        const Schema& s = w.schemas.at(r.header("schema").at(1) - '0');
        sessions[name] = std::make_unique<IncrementalChecker>(s.dtd, s.sigma);
      } else if (r.verb == "session.close") {
        sessions.erase(name);
      } else if (r.verb == "session.apply" && sessions.count(name)) {
        struct Op {
          bool add;
          VertexId vertex;
          std::string a, b;
        };
        std::vector<Op> script;
        for (const std::string& line : Split(r.body, '\n')) {
          std::vector<std::string> t = Split(line, ' ');
          if (t.size() < 3) continue;
          VertexId v = t[1] == "root" ? kInvalidVertex
                                      : static_cast<VertexId>(std::stoul(t[1]));
          script.push_back({t[0] == "add", v, t[2], t.size() > 3 ? t[3] : ""});
        }
        IncrementalChecker& checker = *sessions[name];
        Scope s("constraints.IncrementalChecker");
        for (const Op& op : script) {
          if (op.add) {
            (void)checker.AddElement(op.vertex, op.a);
          } else {
            (void)checker.SetAttribute(op.vertex, op.a, op.b);
          }
        }
        ops += static_cast<double>(script.size());
      }
    }
    m["constraints.incremental_ops"] = ops;
  }

  // serve: every scheduled request through an in-process dispatcher.
  serve::Dispatcher dispatcher(ServeOptions());
  std::vector<std::string> hashes;  // of the schemas, in order
  for (const Schema& schema : w.schemas) {
    serve::Request put;
    put.verb = "schema.put";
    put.body = schema.text;
    put.body_length = put.body.size();
    serve::Response r = dispatcher.Handle(put);
    hashes.push_back(r.headers["schema"]);
    if (!r.status.ok() || hashes.back().empty()) std::exit(2);
  }
  std::map<std::string, double> verb_count;
  std::vector<double> validate_us;
  std::vector<std::string> validate_frames;
  double memo_hits = 0, memo_lookups = 0;
  for (size_t index : w.schedule) {
    serve::Request r = w.frames[index];
    xicbench::ResolveSchema(hashes, &r);
    int64_t t0 = NowNs();
    serve::Response resp = [&] {
      Scope s("serve.Dispatcher::Handle." + r.verb);
      return dispatcher.Handle(r);
    }();
    double us = static_cast<double>(NowNs() - t0) / 1000;
    verb_count[r.verb] += 1;
    if (r.verb == "imply") {
      memo_lookups += 1;
      memo_hits += resp.headers["memo"] == "hit";
    }
    if (r.verb == "validate" && r.header("schema") == hashes[0] &&
        validate_frames.size() < 400) {
      validate_us.push_back(us);
      validate_frames.push_back(serve::FormatRequest(r));
    }
  }
  for (const auto& [verb, n] : verb_count) m["serve.requests." + verb] = n;
  serve::PlanCache::Stats cache = dispatcher.cache().stats();
  m["serve.plan_cache.lookups"] =
      static_cast<double>(cache.hits + cache.misses);
  m["serve.plan_cache.hit_ratio"] =
      cache.hits + cache.misses
          ? static_cast<double>(cache.hits) /
                static_cast<double>(cache.hits + cache.misses)
          : 0;
  m["serve.imply_memo.lookups"] = memo_lookups;
  m["serve.imply_memo.hit_ratio"] = memo_lookups ? memo_hits / memo_lookups : 0;

  // serve: the same validate requests over a socket to an in-process
  // server; the difference of medians is the socket layer's share.
  {
    serve::ServerOptions sopts;
    sopts.num_threads = 1;
    sopts.max_inflight_bytes = 0;
    sopts.dispatcher = ServeOptions();
    serve::Server server(sopts);
    if (!server.Start().ok()) std::exit(2);
    int fd = xicbench::Connect(server.port());
    if (fd < 0) {
      std::cerr << "cannot connect to the in-process server\n";
      std::exit(2);
    }
    xicbench::ReplyReader reader(fd);
    serve::Request put;
    put.verb = "schema.put";
    put.body = w.schemas[0].text;
    put.body_length = put.body.size();
    if (RoundTrip(fd, &reader, serve::FormatRequest(put)) != StatusCode::kOk) {
      std::exit(2);
    }
    std::vector<double> rtt;
    for (const std::string& frame : validate_frames) {
      int64_t t0 = NowNs();
      Scope s("serve.socket.validate");
      if (RoundTrip(fd, &reader, frame) != StatusCode::kOk) std::exit(2);
      rtt.push_back(static_cast<double>(NowNs() - t0) / 1000);
    }
    ::close(fd);
    server.Shutdown(/*drain=*/true);
    server.Wait();
    m["serve.socket_overhead_us"] = Median(rtt) - Median(validate_us);
  }

  m["xml.bytes"] = static_cast<double>(doc_bytes);
  m["regex.accepted"] = accepted;
  return m;
}

// Per-layer metrics of one traced pass, from its spans' self times.
void AddSpanMetrics(int pass, Metrics* m) {
  std::map<std::string, double> self = SelfNs(pass);
  Metrics& x = *m;
  auto per = [](double ns, double n) { return n > 0 ? ns / n : 0; };
  const double bytes = x["xml.bytes"];
  x["xml.parse_ns_per_byte"] = per(self["xml.ParseXml"], bytes);
  x["xml.tokenize_ns_per_byte"] =
      per(self["xml.StreamTokenizer::Next"], bytes);
  x["xml.dtd_parse_us"] = self["xml.ParseDtd"] / 1000;
  x["regex.compile_us"] = self["regex.StructuralValidator"] / 1000;
  x["regex.match_ns_per_symbol"] =
      per(self["regex.MatchesIds.narrow"] + self["regex.MatchesIds.wide"],
          x["regex.symbols"]);
  x["model.structure_ns_per_vertex"] =
      per(self["model.StructuralValidator::Validate"], x["model.vertices"]);
  x["constraints.check_ns_per_vertex"] =
      per(self["constraints.ConstraintChecker::Check"], x["model.vertices"]);
  x["constraints.wellformed_us"] = self["constraints.CheckWellFormed"] / 1000;
  x["constraints.render_us"] = self["constraints.render"] / 1000;
  x["constraints.incremental_ns_per_op"] =
      per(self["constraints.IncrementalChecker"],
          x["constraints.incremental_ops"]);
  x["engine.stream_extract_ns_per_byte"] =
      per(self["engine.StreamValidator::Run"] -
              self["xml.StreamTokenizer::Next"],
          bytes);
  const double records = x["engine.extent_log.records"];
  x["engine.extent_log.append_ns_per_record"] =
      per(self["engine.TupleLog::Append"], records);
  x["engine.extent_log.merge_ns_per_record"] =
      per(self["engine.TupleLog::Finish+Scan"], records);
  x["engine.extent_log.append_ns_per_record.unbounded"] =
      per(self["engine.TupleLog::Append.unbounded"], records);
  x["engine.extent_log.merge_ns_per_record.unbounded"] =
      per(self["engine.TupleLog::Finish+Scan.unbounded"], records);
  for (const char* verb : {"validate", "validate.stream", "session.apply",
                           "imply"}) {
    x[std::string("serve.dispatch_us.") + verb] =
        per(self[std::string("serve.Dispatcher::Handle.") + verb] / 1000,
            x[std::string("serve.requests.") + verb]);
  }
}

void WriteSpans(const std::string& path) {
  std::ofstream out(path);
  out << "[\n";
  for (size_t i = 0; i < g_tracer.spans.size(); ++i) {
    const Span& s = g_tracer.spans[i];
    out << (i ? ",\n" : "") << "{\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"pass\": " << s.pass << ", \"parent\": " << s.parent
        << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << "}";
  }
  out << "\n]\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 6) {
    std::cerr << "usage: xicbench_trace SCHEMAS REQUESTS.bin "
                 "REQUESTS.schedule SECONDS SPANS_OUT\n";
    return 2;
  }
  Workload w;
  for (const std::string& path : Split(argv[1], ',')) {
    Schema s;
    s.text = xicbench::ReadFile(path);
    Result<SelfDescribingDocument> doc = ParseDocumentWithDtdC(s.text);
    if (!doc.ok() || !doc.value().document.dtd.has_value()) {
      std::cerr << path << ": not a self-describing schema\n";
      return 2;
    }
    s.dtd = *doc.value().document.dtd;
    s.sigma = doc.value().sigma.value_or(ConstraintSet{});
    w.schemas.push_back(std::move(s));
  }
  Result<std::vector<serve::Request>> frames = xicbench::ReadFrames(argv[2]);
  if (!frames.ok()) {
    std::cerr << frames.status() << "\n";
    return 2;
  }
  w.frames = std::move(frames.value());
  const double seconds = std::atof(argv[4]);
  {
    std::ifstream in(argv[3]);
    int64_t due;
    size_t conn, frame;
    while (w.schedule.size() < kMaxRequests && in >> due >> conn >> frame) {
      w.schedule.push_back(frame);
    }
  }
  for (const serve::Request& r : w.frames) {
    if (r.verb == "validate" && r.header("schema") == "@0") {
      w.docs.push_back(r.body);
    }
  }

  const int64_t start = NowNs();
  std::vector<Metrics> traced;
  std::vector<double> wall[2];
  for (int pass = 0;
       pass < 2 || static_cast<double>(NowNs() - start) < seconds * 1e9;
       ++pass) {
    g_tracer.on = pass % 2 == 1;
    g_tracer.pass = pass;
    int64_t t0 = NowNs();
    Metrics m = RunPass(w);
    wall[pass % 2].push_back(static_cast<double>(NowNs() - t0));
    if (g_tracer.on) {
      AddSpanMetrics(pass, &m);
      traced.push_back(std::move(m));
    }
  }
  g_tracer.on = false;
  WriteSpans(argv[5]);

  Metrics result;
  for (const auto& [name, unused] : traced.front()) {
    std::vector<double> values;
    for (const Metrics& m : traced) values.push_back(m.at(name));
    result[name] = Median(values);
  }
  result["obs.trace_overhead"] = Median(wall[1]) / Median(wall[0]);
  result["obs.passes"] = static_cast<double>(traced.size());
  std::cout << "{";
  bool first = true;
  for (const auto& [name, value] : result) {
    std::printf("%s\"%s\": %.9g", first ? "" : ", ", name.c_str(), value);
    first = false;
  }
  std::cout << "}\n";
  return 0;
}
