// Serve-layer write-ahead log (DESIGN.md §10).
//
// The scheduler appends one frame per *applied* write batch — after
// PimKdTree::insert/erase succeeded, before the batch's futures resolve.
// The log therefore records exactly the applied history: a crash between
// apply and append loses only a batch whose clients were never acked, and a
// frame that is present was applied in full.
//
// File format: an 8-byte magic ("PKDWAL1\0") plus a framed header record
// (version, dim, generation, start seq), then one framed record per frame
// (record_io.hpp: [u32 tag][u64 len][body][u32 crc32c]). Appends go to the
// end of the open file; fdatasync is a separate call so the Manager can
// batch it per sync policy. A crash mid-append leaves a torn tail — a frame
// whose length or CRC check fails — which read_wal() reports (with the last
// good offset) instead of surfacing garbage; recovery truncates there.
//
// Frame bodies (tag kTagFrame): kind u8 (always 0, the applied-batch
// frame), seq u64, epoch u64 (tree mutation_epoch AFTER applying — the
// replay-idempotence key), base u64 (next_point_id before the inserts),
// n_ins u32, n_del u32, then n_ins points (dim f64 each) and n_del erased
// ids (u32 each; only ids that were actually erased — failed sub-batches and
// dead-id no-ops are excluded). Kind 1 was an online caching-mode switch
// frame; caching modes are now fixed at construction, so read_wal rejects
// such a frame by name (kDataLoss) rather than replaying it.
//
// Fault injection: WalWriter consults pim::FaultInjector::take_torn before
// each append. A "torn@N" event cuts the write short at absolute file
// offset N and fails the writer (the process "died" mid-append); a
// "torn@N:flip" event flips one bit at offset N but lets the run continue
// (latent sector corruption for recovery to catch).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "pim/fault.hpp"
#include "pim/status.hpp"
#include "util/geometry.hpp"

namespace pimkd::durability {

struct WalFrame {
  std::uint64_t seq = 0;    // contiguous, 1-based across generations
  std::uint64_t epoch = 0;  // tree mutation_epoch after applying this frame
  std::uint64_t base_point_id = 0;  // next_point_id before the inserts
  std::vector<Point> inserts;       // applied inserts, id-assignment order
  std::vector<PointId> erases;      // ids actually erased, request order

  // Point carries no operator== (comparisons are dim-scoped); frames store
  // zero-padded points, so whole-array equality is exact here.
  bool operator==(const WalFrame& o) const {
    if (seq != o.seq || epoch != o.epoch ||
        base_point_id != o.base_point_id || erases != o.erases ||
        inserts.size() != o.inserts.size())
      return false;
    for (std::size_t i = 0; i < inserts.size(); ++i)
      if (inserts[i].x != o.inserts[i].x) return false;
    return true;
  }
};

class WalWriter {
 public:
  // Creates `path` (truncating any previous file) and writes + syncs the
  // header. `faults` (optional, non-owning) supplies torn-tail events.
  static Status create(const std::string& path, int dim,
                       std::uint64_t generation, std::uint64_t start_seq,
                       pim::FaultInjector* faults,
                       std::unique_ptr<WalWriter>& out);

  // Opens an existing (recovered, already truncated-to-valid) log for
  // appending. `offset` must be the valid byte count reported by read_wal.
  static Status open(const std::string& path, int dim, std::uint64_t offset,
                     pim::FaultInjector* faults,
                     std::unique_ptr<WalWriter>& out);

  ~WalWriter();
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  // Serializes and appends one frame (no implicit sync). kDataLoss after a
  // cut torn-tail event or an I/O failure — the writer is fail-stop: callers
  // must treat the log as ended and not ack further writes.
  Status append(const WalFrame& frame);

  // fdatasync. After it returns OK, every appended frame is durable.
  Status sync();

  std::uint64_t offset() const { return offset_; }
  bool failed() const { return failed_; }

 private:
  WalWriter(int fd, std::string path, int dim, std::uint64_t offset,
            pim::FaultInjector* faults)
      : fd_(fd), path_(std::move(path)), dim_(dim), offset_(offset),
        faults_(faults) {}

  int fd_ = -1;
  std::string path_;
  int dim_ = 0;
  std::uint64_t offset_ = 0;
  pim::FaultInjector* faults_ = nullptr;
  bool failed_ = false;
};

struct WalReadResult {
  std::uint32_t version = 0;
  int dim = 0;
  std::uint64_t generation = 0;
  std::uint64_t start_seq = 0;
  std::vector<WalFrame> frames;   // every frame up to the first damage
  std::uint64_t valid_bytes = 0;  // header + good frames; truncate target
  bool torn = false;              // trailing bytes past valid_bytes existed
  std::string torn_reason;
};

// Reads and CRC-checks the log. A damaged or incomplete *tail* is normal
// (crash mid-append): frames up to it are returned and `torn` is set. A
// damaged header, a non-frame record, a seq discontinuity, or a dim mismatch
// is kDataLoss — that is corruption recovery must not paper over.
Status read_wal(const std::string& path, WalReadResult& out);

// Truncates the log to `valid_bytes` (torn-tail repair) and fsyncs.
Status truncate_wal(const std::string& path, std::uint64_t valid_bytes);

}  // namespace pimkd::durability
