#include "engine/stream_validator.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "constraints/well_formed.h"
#include "obs/obs.h"
#include "util/symbol_table.h"
#include "xml/dtdc_io.h"
#include "xml/xml_parser.h"

namespace xic {

StreamValidator::StreamValidator(const DtdStructure& dtd,
                                 const ConstraintSet& sigma,
                                 StreamOptions options)
    : dtd_(dtd),
      options_(std::move(options)),
      validator_(dtd, options_.validation),
      checker_(dtd, sigma, options_.check) {}

// ---------------------------------------------------------------------------
// StreamRun: tokenizer events -> calls on both halves. One instance per
// streamed document; all mutable state lives here, so a StreamValidator
// is share-safe.

class StreamRun {
 public:
  StreamRun(const StreamValidator& sv, const DtdStructure& tok_dtd,
            const Deadline& deadline)
      : sv_(sv),
        tok_dtd_(tok_dtd),
        compile_ok_(sv.validator_.status().ok()),
        structure_(sv.validator_, syms_),
        constraints_(sv.checker_, sv.options_.spill_budget_bytes, deadline) {}

  StreamOutcome Run(StreamTokenizer& tok, const StreamEvent* pending);

 private:
  using TypePlan = ConstraintChecker::TypePlan;

  // The constraint plan of one element type, resolved on first sight.
  struct LabelInfo {
    bool prepared = false;
    const TypePlan* tplan = nullptr;
    std::vector<Symbol> field_syms;  // parallel to tplan->fields
  };

  // One field of one open vertex. The three states mirror the tree rule
  // (ConstraintChecker::ResolveTreeFields): a present attribute is the
  // attribute's value set; a declared-but-absent attribute is missing;
  // anything else falls back to the unique matching sub-element's text.
  struct FieldState {
    enum Kind { kUnset, kAttr, kCapture } kind = kUnset;
    AttrValue attr;     // kAttr
    int captures = 0;   // kCapture: matching direct children seen
    std::string text;   // kCapture: text content of the first match
  };

  // One open element. Frames are reused across elements at the same
  // depth, so their vectors keep their capacity.
  struct Frame {
    StructureRun::Vertex vertex;
    LabelInfo* info = nullptr;
    std::vector<FieldState> fields;  // parallel to info->tplan->fields
  };

  // An active sub-element text capture: while at least `depth` elements
  // are open, qualified text runs append to the owner frame's field.
  struct Capture {
    size_t owner_frame;
    size_t field;
    size_t depth;
  };

  void OnStart(const StreamEvent& ev);
  void OnEnd();
  void OnText(const StreamEvent& ev);
  void CloseRun() {
    run_open_ = false;
    run_qualified_ = false;
    run_prefix_.clear();
  }
  void AppendToCaptures(std::string_view text) {
    for (const Capture& c : captures_) {
      frames_[c.owner_frame].fields[c.field].text.append(text);
    }
  }
  LabelInfo& Prepare(Symbol label, std::string_view name);

  const StreamValidator& sv_;
  const DtdStructure& tok_dtd_;  // governs attribute-value tokenization
  const bool compile_ok_;

  SymbolTable syms_;  // before structure_, which reads it
  StructureRun structure_;
  ConstraintRun constraints_;
  std::deque<LabelInfo> labels_;  // by Symbol; deque: stable references
  std::vector<Frame> frames_;
  size_t depth_ = 0;  // open elements: frames_[0, depth_)
  std::vector<Capture> captures_;
  uint32_t next_seq_ = 0;

  bool run_open_ = false;       // a text run is in progress
  bool run_qualified_ = false;  // ...and has produced a text child
  std::string run_prefix_;      // all-space chunks pending qualification

  std::vector<DataTree::AttrEntry> attr_scratch_;
  std::vector<ConstraintChecker::Field> field_scratch_;
};

StreamRun::LabelInfo& StreamRun::Prepare(Symbol label, std::string_view name) {
  while (labels_.size() <= label) labels_.emplace_back();
  LabelInfo& info = labels_[label];
  if (info.prepared) return info;
  info.prepared = true;
  info.tplan = sv_.checker_.PlanFor(name);
  if (info.tplan != nullptr) {
    for (const std::string& field : info.tplan->fields) {
      info.field_syms.push_back(syms_.Intern(field));
    }
  }
  return info;
}

void StreamRun::OnText(const StreamEvent& ev) {
  if (depth_ == 0) return;
  if (!run_open_) {
    run_open_ = true;
    run_qualified_ = false;
    run_prefix_.clear();
  }
  if (!run_qualified_) {
    if (sv_.options_.skip_ignorable_whitespace && ev.text_all_space) {
      // The run may still qualify on a later chunk; keep the prefix only
      // if someone would consume it.
      if (!captures_.empty()) run_prefix_.append(ev.text);
      return;
    }
    run_qualified_ = true;
    // The whole run is exactly one text child of the open element.
    structure_.Child(&frames_[depth_ - 1].vertex, kInvalidSymbol);
    if (!run_prefix_.empty()) {
      AppendToCaptures(run_prefix_);
      run_prefix_.clear();
    }
  }
  AppendToCaptures(ev.text);
}

void StreamRun::OnStart(const StreamEvent& ev) {
  CloseRun();
  const Symbol label = syms_.Intern(ev.name);

  // Parent bookkeeping: the child steps the parent's content-model run,
  // and may be the unique sub-element some parent field captures.
  if (depth_ > 0) {
    Frame& parent = frames_[depth_ - 1];
    structure_.Child(&parent.vertex, label);
    if (parent.info->tplan != nullptr) {
      const std::vector<Symbol>& names = parent.info->field_syms;
      for (size_t i = 0; i < names.size(); ++i) {
        FieldState& fs = parent.fields[i];
        if (fs.kind == FieldState::kCapture && names[i] == label &&
            ++fs.captures == 1) {
          captures_.push_back(Capture{depth_ - 1, i, depth_ + 1});
        }
      }
    }
  }

  const uint32_t seq = next_seq_++;
  LabelInfo& info = Prepare(label, ev.name);
  if (frames_.size() == depth_) frames_.emplace_back();
  Frame& frame = frames_[depth_++];
  frame.info = &info;

  // Attribute values, tokenized against the document's own DTD (set-
  // valued attributes split on XML whitespace) and sorted by name, the
  // order the DOM tree stores them in.
  attr_scratch_.clear();
  for (const StreamEvent::Attr& a : ev.attrs) {
    attr_scratch_.push_back(DataTree::AttrEntry{
        syms_.Intern(a.name),
        TokenizeAttrValue(a.value, tok_dtd_.IsSetValued(ev.name, a.name))});
  }
  std::sort(attr_scratch_.begin(), attr_scratch_.end(),
            [this](const DataTree::AttrEntry& a,
                   const DataTree::AttrEntry& b) {
              return syms_.name(a.name) < syms_.name(b.name);
            });
  if (compile_ok_) {
    structure_.Open(&frame.vertex, seq, label, attr_scratch_);
  } else {
    frame.vertex = StructureRun::Vertex{};
  }
  frame.vertex.seq = seq;

  if (info.tplan != nullptr) {
    const TypePlan& tp = *info.tplan;
    frame.fields.resize(tp.fields.size());
    for (size_t i = 0; i < tp.fields.size(); ++i) {
      FieldState& fs = frame.fields[i];
      fs.captures = 0;
      fs.text.clear();
      auto it = std::find_if(
          attr_scratch_.begin(), attr_scratch_.end(),
          [&](const DataTree::AttrEntry& e) {
            return e.name == info.field_syms[i];
          });
      if (it != attr_scratch_.end()) {
        fs.kind = FieldState::kAttr;
        fs.attr = std::move(it->value);
      } else {
        fs.kind = tp.field_declared[i] ? FieldState::kUnset
                                       : FieldState::kCapture;
      }
    }
  }
}

void StreamRun::OnEnd() {
  CloseRun();
  Frame& frame = frames_[depth_ - 1];
  if (compile_ok_) structure_.Close(frame.vertex);
  if (frame.info->tplan != nullptr) {
    field_scratch_.assign(frame.fields.size(), ConstraintChecker::Field{});
    for (size_t i = 0; i < frame.fields.size(); ++i) {
      const FieldState& fs = frame.fields[i];
      ConstraintChecker::Field& f = field_scratch_[i];
      if (fs.kind == FieldState::kAttr) {
        f.kind = ConstraintChecker::Field::kSet;
        f.set = &fs.attr;
      } else if (fs.kind == FieldState::kCapture && fs.captures == 1) {
        f.kind = ConstraintChecker::Field::kText;
        f.text = fs.text;
      }
    }
    constraints_.AddVertex(frame.vertex.seq, *frame.info->tplan,
                           field_scratch_);
  }
  --depth_;
  while (!captures_.empty() && captures_.back().depth > depth_) {
    captures_.pop_back();
  }
}

StreamOutcome StreamRun::Run(StreamTokenizer& tok,
                             const StreamEvent* pending) {
  obs::ScopedSpan span("stream.validate", "engine");
  StreamOutcome out;
  StreamEvent ev;
  Status s = Status::OK();
  const StreamEvent* cur = pending;
  if (cur == nullptr) {
    s = tok.Next(&ev);
    cur = &ev;
  }
  bool done = false;
  while (s.ok() && !done) {
    switch (cur->kind) {
      case StreamEventKind::kStartElement:
        OnStart(*cur);
        break;
      case StreamEventKind::kEndElement:
        OnEnd();
        break;
      case StreamEventKind::kText:
        OnText(*cur);
        break;
      case StreamEventKind::kEndDocument:
        done = true;
        break;
      case StreamEventKind::kDoctype:
        break;  // ParseDoctypeDtd's; cannot recur mid-content
    }
    if (done) break;
    s = tok.Next(&ev);
    cur = &ev;
  }
  out.stats.input_bytes = tok.consumed_bytes();
  if (!s.ok()) {
    out.parse = std::move(s);
    return out;
  }
  out.stats.vertices = next_seq_;
  if (compile_ok_) {
    out.structure = structure_.Finish(next_seq_);
  } else {
    out.structure.status = sv_.validator_.status();
  }
  out.constraints = constraints_.Finish();
  out.stats.extent_records = constraints_.extent_records();
  out.stats.spilled_bytes = constraints_.budget().spilled_bytes();
  out.stats.spill_runs = constraints_.budget().spill_runs();
  span.AddInt("vertices", static_cast<int64_t>(out.stats.vertices));
  span.AddInt("spilled_bytes", static_cast<int64_t>(out.stats.spilled_bytes));
  XIC_COUNTER_ADD("stream.documents", 1);
  XIC_COUNTER_ADD("stream.vertices", out.stats.vertices);
  XIC_COUNTER_ADD("stream.spilled_bytes", out.stats.spilled_bytes);
  return out;
}

// ---------------------------------------------------------------------------
// Entry points

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

}  // namespace

struct StreamValidator::Prologue {
  Prologue(ByteSource& source, const ResourceLimits& limits,
           const Deadline& deadline, size_t chunk_bytes)
      : tok(source, {.limits = limits,
                     .deadline = deadline,
                     .chunk_bytes = chunk_bytes}),
        dtd(ParseDoctypeDtd(tok, &first, limits, deadline)) {}

  Clock::time_point start = Clock::now();  // the parse stage's clock
  StreamTokenizer tok;
  StreamEvent first;  // the event after the DOCTYPE step
  Result<std::optional<DtdStructure>> dtd;
};

StreamOutcome StreamValidator::Body(Prologue& prologue,
                                    const DtdStructure& tok_dtd,
                                    const Deadline& deadline, bool stream,
                                    std::optional<DataTree>* tree) const {
  if (stream) {
    StreamOutcome out =
        StreamRun(*this, tok_dtd, deadline).Run(prologue.tok, &prologue.first);
    out.stats.parse_seconds = Seconds(prologue.start, Clock::now());
    return out;
  }
  StreamOutcome out;
  Result<DataTree> built =
      BuildDataTree(prologue.tok, &prologue.first, &tok_dtd,
                    options_.skip_ignorable_whitespace);
  const Clock::time_point parsed = Clock::now();
  out.stats.parse_seconds = Seconds(prologue.start, parsed);
  out.stats.input_bytes = prologue.tok.consumed_bytes();
  if (!built.ok()) {
    out.parse = built.status();
    return out;
  }
  const DataTree& document = built.value();
  out.stats.vertices = document.size();
  out.structure = validator_.Validate(document, deadline);
  const Clock::time_point validated = Clock::now();
  out.stats.structure_seconds = Seconds(parsed, validated);
  out.constraints = checker_.Check(document, deadline);
  out.stats.constraints_seconds = Seconds(validated, Clock::now());
  if (tree != nullptr) *tree = std::move(built).value();
  return out;
}

StreamOutcome StreamValidator::Run(ByteSource& source,
                                   const Deadline& deadline,
                                   const ResourceLimits& limits,
                                   bool stream) const {
  Prologue prologue(source, limits, deadline, options_.chunk_bytes);
  if (!prologue.dtd.ok()) {
    StreamOutcome out;
    out.parse = prologue.dtd.status();
    out.stats.parse_seconds = Seconds(prologue.start, Clock::now());
    return out;
  }
  const std::optional<DtdStructure>& own = prologue.dtd.value();
  return Body(prologue, own.has_value() ? *own : dtd_, deadline, stream,
              nullptr);
}

SelfDescribingResult ValidateSelfDescribing(ByteSource& source,
                                            const StreamOptions& options,
                                            bool stream) {
  SelfDescribingResult r;
  // The DOCTYPE step: the subset's DTD, parsed once under the caller's
  // limits and deadline, then its constraint block. A DTD error fails
  // before any content is read; a tokenizer error anywhere in the
  // document outranks a malformed block, so the block's error waits for
  // a clean parse.
  StreamValidator::Prologue prologue(source, options.limits, options.deadline,
                                     options.chunk_bytes);
  if (!prologue.dtd.ok()) {
    r.outcome.parse = prologue.dtd.status();
    return r;
  }
  r.dtd = std::move(prologue.dtd).value();
  StreamEvent& ev = prologue.first;
  Status deferred = Status::OK();
  if (ev.kind == StreamEventKind::kDoctype) {
    r.doctype_name = std::string(ev.name);
    Result<std::optional<ConstraintSet>> sigma =
        ParseConstraintBlock(ev.internal_subset);
    if (sigma.ok()) {
      r.sigma = std::move(sigma).value();
    } else {
      deferred = sigma.status();
    }
  }

  if (!r.dtd.has_value()) {
    // Nothing to validate against; still drain the input so parse errors
    // surface exactly as with a DTD.
    Status s = Status::OK();
    while (s.ok() && ev.kind != StreamEventKind::kEndDocument) {
      s = prologue.tok.Next(&ev);
    }
    r.outcome.parse = std::move(s);
    r.outcome.stats.input_bytes = prologue.tok.consumed_bytes();
    return r;
  }

  static const ConstraintSet kEmptySigma;
  const ConstraintSet* sigma = &kEmptySigma;
  if (r.sigma.has_value()) {
    r.well_formed = CheckWellFormed(*r.sigma, *r.dtd);
    if (r.well_formed.ok()) sigma = &*r.sigma;
  }
  StreamValidator sv(*r.dtd, *sigma, options);
  r.outcome = sv.Body(prologue, *r.dtd, options.deadline, stream, &r.tree);
  if (r.outcome.parse.ok() && !deferred.ok()) {
    r.outcome.parse = std::move(deferred);
    r.outcome.stats.vertices = 0;
  }
  return r;
}

}  // namespace xic
