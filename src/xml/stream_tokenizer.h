// Pull tokenizer for XML: the one grammar every xic path reads documents
// through. ParseXml (xml/xml_parser.h) builds its DataTree from these
// events; the streaming validator consumes them directly and never
// materializes the tree.
//
// The accepted language is the XML 1.0 subset of the paper's model:
// prolog, DOCTYPE with an internal subset, elements, attributes,
// character data, comments, CDATA sections, character and predefined
// entity references (PIs are skipped). Line ends are normalized per
// Section 2.11 and attribute values per Section 3.3.3; "]]>" in content,
// references to non-Chars and the expansion budget are rejected. Every
// error is rendered once, here: "XML: <what> at line L, column C", or
// the limit / deadline status.
//
// Two buffer modes, chosen by the source. An in-memory source
// (ByteSource::view(), e.g. StringSource) is tokenized in place: names,
// attribute values and plain text runs are views into the caller's
// bytes and no buffer is allocated. Any other source is read through a
// sliding buffer that holds only the construct being tokenized: start
// tags, end-tag names and the DOCTYPE name are buffered whole (the buffer
// grows only for a single tag larger than it), while text runs, CDATA
// sections, comments and PIs stream through in chunks. Peak memory is
// then O(open-element depth + largest single tag + chunk size),
// independent of document size. Line and column are counted only when
// the buffer compacts or a position is recorded, never per byte.
//
// The tokenizer keeps an explicit open-element stack (no recursion -- the
// depth limit can be raised arbitrarily).
//
// Event order for one document:
//   [Doctype]? StartElement (Text | StartElement | EndElement)* EndElement
//   EndDocument
// Self-closing tags produce a StartElement immediately followed by a
// synthesized EndElement. Text between two structural events may arrive
// as SEVERAL Text events (one run split into chunks); consumers that
// care about whole runs (ignorable-whitespace skipping) aggregate until
// the next non-Text event.

#ifndef XIC_XML_STREAM_TOKENIZER_H_
#define XIC_XML_STREAM_TOKENIZER_H_

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/limits.h"
#include "util/status.h"

namespace xic {

/// A pull source of raw document bytes. Implementations are single-pass:
/// the tokenizer reads each byte exactly once, or tokenizes view() in
/// place when the source has one.
class ByteSource {
 public:
  virtual ~ByteSource() = default;

  /// Reads up to `max` bytes into `buf`; returns the count read, 0 at
  /// end of input.
  virtual Result<size_t> Read(char* buf, size_t max) = 0;

  /// Total input size when known upfront (strings, regular files) --
  /// lets the tokenizer enforce max_document_bytes against the whole
  /// document before reading it. Nullopt for unbounded streams.
  virtual std::optional<uint64_t> size() const { return std::nullopt; }

  /// The unread input as one contiguous view, when it is already in
  /// memory and outlives the tokenizer; the tokenizer then works on it in
  /// place instead of calling Read(). Nullopt for sources read in chunks.
  virtual std::optional<std::string_view> view() const {
    return std::nullopt;
  }
};

/// Serves a string_view; the viewed bytes must outlive the source.
/// Tokenized in place (view()).
class StringSource : public ByteSource {
 public:
  explicit StringSource(std::string_view text) : text_(text) {}
  Result<size_t> Read(char* buf, size_t max) override;
  std::optional<uint64_t> size() const override { return text_.size(); }
  std::optional<std::string_view> view() const override {
    return text_.substr(pos_);
  }

 private:
  std::string_view text_;
  size_t pos_ = 0;
};

/// Reads a file in chunks; never holds more than one read's worth.
class FileSource : public ByteSource {
 public:
  /// Opens `path`; kInvalidArgument with the errno detail on failure.
  static Result<FileSource> Open(const std::string& path);
  FileSource(FileSource&& other) noexcept;
  FileSource& operator=(FileSource&& other) noexcept;
  ~FileSource() override;

  Result<size_t> Read(char* buf, size_t max) override;
  std::optional<uint64_t> size() const override { return size_; }

 private:
  FileSource(std::FILE* file, std::optional<uint64_t> size)
      : file_(file), size_(size) {}
  std::FILE* file_ = nullptr;
  std::optional<uint64_t> size_;
};

enum class StreamEventKind {
  kDoctype,       // DOCTYPE seen: name + raw internal subset
  kStartElement,  // start tag (attributes normalized + attached)
  kEndElement,    // end tag, or synthesized for a self-closing tag
  kText,          // one chunk of character data (normalized, expanded)
  kEndDocument,   // input fully consumed; terminal
};

/// One tokenizer event. All views are valid only until the next Next()
/// call (they point into the tokenizer's buffers or, in place, into the
/// source's bytes).
struct StreamEvent {
  StreamEventKind kind = StreamEventKind::kEndDocument;
  /// Element name (start/end), or DOCTYPE name.
  std::string_view name;
  /// kText: one chunk of character data.
  std::string_view text;
  /// kText: the chunk consists solely of XML S whitespace. A whole run
  /// is ignorable iff every chunk of the run has this set.
  bool text_all_space = true;
  /// kStartElement: attributes in document order; a repeated name keeps
  /// the last value (DOM SetAttribute semantics), in first-seen position.
  struct Attr {
    std::string_view name;
    std::string_view value;  // normalized (Section 3.3.3), expanded
  };
  std::vector<Attr> attrs;
  /// kDoctype: raw text between '[' and ']' (empty when absent).
  std::string_view internal_subset;
  /// kDoctype: a '[' was present, even if the subset is empty ("[]" is
  /// an empty DTD, no '[' is no DTD at all).
  bool has_internal_subset = false;
};

struct StreamTokenizerOptions {
  /// Hard input bounds (document bytes, nesting depth, attributes per
  /// element, expansion output); violations return kResourceExhausted
  /// naming the limit.
  ResourceLimits limits;
  /// Checked once per start tag.
  Deadline deadline;
  /// Read granularity and the rough ceiling for one kText chunk. An
  /// in-place source reads nothing and emits a plain text run as one
  /// view, whatever its length.
  size_t chunk_bytes = 64 * 1024;
};

class StreamTokenizer {
 public:
  StreamTokenizer(ByteSource& source, StreamTokenizerOptions options = {});

  /// Pulls the next event. After kEndDocument (terminal), further calls
  /// keep returning kEndDocument. An error status is also terminal ("XML:
  /// <what> at line L, column C" / limit / deadline statuses).
  Status Next(StreamEvent* event);

  /// Open-element depth (root start tag => 1 while open).
  size_t depth() const { return stack_.size(); }

  /// Bytes of input consumed so far (diagnostics).
  uint64_t consumed_bytes() const { return base_ + start_; }

  /// Bytes the sliding buffer holds allocated; 0 in place (diagnostics).
  size_t buffer_bytes() const { return storage_.size(); }

 private:
  enum class State {
    kProlog,        // before the root element
    kDoctypeClose,  // kDoctype emitted; "]...>" not yet consumed
    kContent,       // inside the document element
    kEpilog,        // after the root element closed
    kDone,
  };

  // -- Buffer management ----------------------------------------------------
  // data_[start_, end_) is unread input; base_ counts bytes consumed
  // before data_[0]. In place, data_ is the source's view and eof_ holds
  // from the start; otherwise data_ is storage_. Fill() reads more
  // (compacting first, so relative offsets survive), FillPinned() grows
  // without compacting so absolute offsets stay stable while one start
  // tag is being materialized. Neither moves data_ once eof_ is set.
  Status Fill();
  Status FillPinned();
  /// Makes >= want bytes available if the input has them (fewer at EOF).
  Status Ensure(size_t want) {
    if (available() >= want || eof_) return Status::OK();
    return EnsureSlow(want);
  }
  Status EnsureSlow(size_t want);
  size_t available() const { return end_ - start_; }
  char at(size_t i) const { return data_[start_ + i]; }
  bool Peek(std::string_view token) const {
    return available() >= token.size() &&
           std::memcmp(data_ + start_, token.data(), token.size()) == 0;
  }
  void Consume(size_t n) { start_ += n; }
  /// Advances line_/line_start_ over data_[counted_, start_).
  void CountLines();

  struct Mark {
    uint64_t abs = 0, line = 1, line_start = 0;
  };

  // -- Grammar --------------------------------------------------------------
  Status NextProlog(StreamEvent* event, bool* emitted);
  Status ParseDoctype(StreamEvent* event);
  Status FinishDoctypeClose();
  Status NextContent(StreamEvent* event);
  Status ParseStartTag(StreamEvent* event);
  Status ParseEndTag(StreamEvent* event);
  Status NextEpilog(StreamEvent* event);
  /// Skips whitespace / comments / non-xml-decl PIs (prolog + epilog).
  Status SkipMisc();
  Status SkipSpace();
  /// Sets *n to the length of the XML name at the cursor, filling while
  /// the name runs to the end of the buffered bytes (n is relative, so a
  /// compaction is harmless; inside a prescanned start tag the '>' ends
  /// it first, so no fill happens there). "expected name" when empty.
  Status ScanName(size_t* n);
  /// True when positioned on "<?xml" with a complete reserved target
  /// (may Fill to see the byte after the target).
  Result<bool> PeekXmlDecl();
  /// Skips a construct ending at `terminator` (comment body, PI, XML
  /// declaration), streaming through the buffer. `what` names the
  /// unterminated error, reported at `mark`; empty `what` consumes
  /// silently to EOF (SkipMisc semantics).
  Status SkipUntil(std::string_view terminator, const std::string& what,
                   const Mark& mark);
  /// Streams CDATA content into text_buf_ until "]]>"; sets *emitted
  /// when a full chunk was flushed into `event` mid-section.
  Status ScanCdata(StreamEvent* event, bool* emitted);
  /// Expands "&...;" at the cursor. `in_tag`: inside a start tag, whose
  /// absolute offsets a compaction would invalidate.
  Status ParseReference(std::string* out, bool in_tag);
  void AppendText(char c);
  void AppendTextRun(const char* data, size_t n);
  /// Takes the next n input bytes as character data: as a view while
  /// nothing can move them (eof_) and they extend the pending run, else
  /// copied into text_buf_.
  void TakeTextRun(size_t n);
  /// Copies a pending in-place run into text_buf_ before other text
  /// joins it.
  void SpillTextView();
  bool HasText() const { return !text_buf_.empty() || !text_view_.empty(); }
  /// Emits the pending text as one kText chunk.
  void EmitText(StreamEvent* event);

  Mark Here();
  Status ErrorAt(const Mark& mark, const std::string& what) const;
  Status Error(const std::string& what);

  ByteSource& source_;
  StreamTokenizerOptions options_;

  std::string storage_;           // sliding buffer (empty in place)
  const char* data_ = nullptr;    // storage_.data() or the source's view
  size_t start_ = 0, end_ = 0;
  uint64_t base_ = 0;        // bytes consumed before data_[0]
  bool eof_ = false;         // source exhausted (from the start in place)
  uint64_t total_read_ = 0;  // all bytes pulled from the source
  bool started_ = false;     // first Next() ran the upfront size check

  // Line bookkeeping covers data_[0, counted_); CountLines() catches up.
  size_t counted_ = 0;
  uint64_t line_ = 1;        // 1-based line at counted_
  uint64_t line_start_ = 0;  // absolute offset just after the last '\n'

  State state_ = State::kProlog;
  std::vector<std::string> stack_;  // open element names
  bool pending_end_ = false;        // synthesized EndElement (self-closing)
  std::string last_name_;           // backs kEndElement name views
  std::string doctype_name_;
  std::string doctype_subset_;

  bool in_cdata_ = false;   // mid-CDATA across Next() calls
  bool cdata_cr_ = false;   // CDATA normalizer saw '\r' last
  Mark cdata_mark_;         // section start, for "unterminated CDATA"
  std::string text_buf_;         // pending character data (copied)
  std::string_view text_view_;   // pending character data (in place)
  std::string emit_buf_;         // backs the previous kText event's view
  bool text_all_space_ = true;

  // One start tag's attributes before their views are materialized:
  // offsets into data_ (fast path) or indexes into attr_store_ (slow
  // path: normalization / expansion). Reused across tags.
  struct RawAttr {
    size_t name_off, name_len;
    bool from_store;
    size_t value_off_or_index, value_len;
  };
  std::vector<RawAttr> raw_attrs_;
  std::vector<std::string> attr_store_;
  uint64_t expanded_bytes_ = 0;  // shared expansion budget
};

}  // namespace xic

#endif  // XIC_XML_STREAM_TOKENIZER_H_
