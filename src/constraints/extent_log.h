// Spillable tuple logs: the index behind the one constraint core.
//
// The constraint core (constraints/checker.h) never builds a hash table
// over an extent. Every constraint position appends compact records --
// (vertex seq, rank, encoded tuple payload) -- to a TupleLog, and the
// final pass consumes each log as a single sorted scan in
// (payload, seq, rank) order. Duplicate detection (keys/IDs) becomes
// group iteration and inclusion checking (foreign keys) a merge-join of
// two sorted scans. The same logs serve a DataTree and a token stream.
//
// Memory discipline: all logs of one run share a SpillBudget. Appends
// accumulate in an in-memory batch; when the combined batches exceed the
// budget, the largest batch is sorted and flushed as one sorted run to
// that log's unlinked temp file. Finish() sorts the tail batch and mmaps
// the file read-only; Scan() then k-way-merges the on-disk runs with the
// in-memory tail. A log that never overflows the budget stays entirely
// in memory, touches no file, and scans its sorted batch directly.
// Peak memory is O(budget + largest single record), independent of
// extent sizes. Checks of a resident DataTree run at kNeverSpill.
//
// Record order within one (payload, seq, rank) sort key is total, so a
// scan's output is deterministic regardless of when spills happened --
// the verdict stays byte-identical at any budget (pinned by
// tests/stream_test.cc at budget 1, i.e. spill on every append).

#ifndef XIC_CONSTRAINTS_EXTENT_LOG_H_
#define XIC_CONSTRAINTS_EXTENT_LOG_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace xic {

class TupleLog;

/// SpillBudget size that keeps every log in memory.
inline constexpr size_t kNeverSpill = 0;

/// The shared in-memory allowance for all TupleLogs of one check.
/// Not thread-safe: one check is single-threaded by design.
class SpillBudget {
 public:
  /// `budget_bytes` caps the combined in-memory batch payload across all
  /// registered logs; kNeverSpill keeps everything in memory.
  explicit SpillBudget(size_t budget_bytes) : budget_(budget_bytes) {}
  SpillBudget(const SpillBudget&) = delete;
  SpillBudget& operator=(const SpillBudget&) = delete;

  size_t budget_bytes() const { return budget_; }
  size_t in_memory_bytes() const { return in_memory_; }
  /// Total bytes written to spill files across all logs (diagnostics).
  uint64_t spilled_bytes() const { return spilled_; }
  /// Sorted runs flushed across all logs (diagnostics).
  size_t spill_runs() const { return runs_; }

 private:
  friend class TupleLog;
  Status Charge(size_t bytes) {
    in_memory_ += bytes;
    if (budget_ == kNeverSpill || in_memory_ <= budget_) return Status::OK();
    return SpillLargest();
  }
  Status SpillLargest();  // spills batches until back within budget

  size_t budget_;
  size_t in_memory_ = 0;
  uint64_t spilled_ = 0;
  size_t runs_ = 0;
  std::vector<TupleLog*> logs_;
};

/// The order in which a scan yields payloads: three-way compare by
/// length, then by the last four bytes as an integer, then by content.
/// Any total order serves the core -- grouping needs only equal payloads
/// to be adjacent, a merge-join only the same order on both sides -- and
/// this one settles most pairs of similar values ("p12-33" / "p12-34")
/// with integer compares. Violations are re-sorted by vertex, so the
/// order never shows in a report.
inline uint32_t PayloadTail(std::string_view p) {
  uint32_t tail = 0;
  if (p.size() >= 4) std::memcpy(&tail, p.data() + p.size() - 4, 4);
  return tail;
}
inline int PayloadCompare(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  const uint32_t x = PayloadTail(a), y = PayloadTail(b);
  if (x != y) return x < y ? -1 : 1;
  return a.empty() ? 0 : std::memcmp(a.data(), b.data(), a.size());
}

/// An append-only log of (seq, rank, payload) records consumed as one
/// scan in (payload, seq, rank) order after Finish(), payloads ordered by
/// PayloadCompare.
class TupleLog {
 public:
  explicit TupleLog(SpillBudget* budget);
  TupleLog(const TupleLog&) = delete;
  TupleLog& operator=(const TupleLog&) = delete;
  ~TupleLog();

  /// Appends one record. May spill (this or another log) past the shared
  /// budget; spill I/O failures surface here as kUnavailable.
  Status Append(uint32_t seq, uint32_t rank, std::string_view payload);

  /// Seals the log: sorts the in-memory tail and maps any spilled runs.
  /// Append() is invalid afterwards; Scan() is valid afterwards.
  Status Finish();

  size_t record_count() const { return record_count_; }

  struct Record {
    uint32_t seq = 0;
    uint32_t rank = 0;
    std::string_view payload;  // valid until the log is destroyed
  };

  /// Single-pass merged cursor over the whole log in (payload, seq, rank)
  /// order. The log must have been Finish()ed and must outlive the
  /// cursor.
  class Cursor {
   public:
    /// Advances to the next record; false at the end.
    bool Next(Record* out) {
      if (!log_->runs_.empty()) return NextMerged(out);
      if (mem_pos_ >= log_->entries_.size()) return false;
      const Entry& e = log_->entries_[mem_pos_++];
      *out = Record{e.seq, e.rank,
                    std::string_view(log_->heap_.data() + e.offset, e.len)};
      return true;
    }

   private:
    friend class TupleLog;
    struct Head {
      size_t source;  // run index, or runs.size() for the memory tail
      Record record;
    };
    explicit Cursor(const TupleLog* log);
    bool NextMerged(Record* out);  // k-way merge over spilled runs
    bool PullFrom(size_t source, Record* out);
    void Push(size_t source);

    /// Drops fully-consumed pages of the spill-file map behind `source`'s
    /// read position (madvise(MADV_DONTNEED)). The map is a read-only
    /// file mapping, so a dropped page re-faults to identical bytes if a
    /// held payload view touches it again -- correctness is unaffected;
    /// what changes is that a scan's resident set stays O(window) instead
    /// of O(spilled bytes).
    void DropConsumed(size_t source);

    const TupleLog* log_ = nullptr;
    std::vector<uint64_t> run_pos_;  // read offset within each run
    /// Per-run offset up to which consumed map pages were dropped.
    std::vector<uint64_t> run_dropped_;
    size_t mem_pos_ = 0;             // index into the sorted tail
    std::vector<Head> heap_;         // min-heap by (payload, seq, rank)
  };
  Cursor Scan() const { return Cursor(this); }

 private:
  friend class SpillBudget;

  struct Entry {
    uint32_t seq;
    uint32_t rank;
    uint64_t offset;  // into heap_ (batch payload bytes)
    uint32_t len;
    uint32_t tail;  // PayloadTail(payload): most sort compares stop here
  };
  struct Run {
    uint64_t offset;  // into the spill file
    uint64_t bytes;
  };

  size_t batch_bytes() const { return charged_; }
  void SortBatch();
  Status SpillBatch();
  Status EnsureFile();

  SpillBudget* budget_;
  std::vector<Entry> entries_;  // in-memory batch (sorted after Finish)
  std::string heap_;            // batch payload bytes
  std::vector<Run> runs_;
  size_t charged_ = 0;  // bytes currently charged against the budget
  size_t record_count_ = 0;
  bool finished_ = false;

  int fd_ = -1;
  uint64_t file_bytes_ = 0;
  const char* map_ = nullptr;  // mmap of the spill file after Finish()
  size_t map_bytes_ = 0;
};

/// Tuple encoding: the one collision-free length-prefixed form of a
/// field tuple ("3:abc2:xy"), shared by the constraint core's logs and
/// IncrementalChecker's indexes. DecodeTuple inverts it for rendering
/// violation messages.
void AppendTupleValue(std::string_view value, std::string* out);
void EncodeTupleInto(const std::vector<std::string_view>& values,
                     std::string* out);
std::string EncodeTuple(const std::vector<std::string>& values);
std::vector<std::string> DecodeTuple(std::string_view payload);

}  // namespace xic

#endif  // XIC_CONSTRAINTS_EXTENT_LOG_H_
