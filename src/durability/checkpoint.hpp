// Atomic, CRC-framed checkpoints of a PimKdTree (DESIGN.md §10).
//
// A checkpoint is the canonical serialization of everything a PimKdTree
// cannot recompute from its config: the host mirror (points, alive bitmap,
// priorities, NodePool slabs, delayed-construction roots), the algorithm RNG
// state (a restored tree must reproduce the original's *future* counter
// attempts and rebuild splits exactly, or replayed updates would diverge),
// and the DistStore copy registry plus the module-alive bitmap and any
// message-loss-stale replica counters. Metrics history is deliberately
// excluded — a restored tree re-charges its storage ledger from scratch and
// starts its communication/work counters at zero.
//
// File format ("PKDCKPT1" magic, then record_io.hpp framed records):
//
//   meta    config (trace_path / fault_spec cleared) + watermarks
//           (mutation_epoch, last WAL seq)
//   host    rng state, root, next node id, points, alive bitmap,
//           priorities, delayed components, live/peak counts
//   nodes   every live NodeRec + NodeCold, ascending NodeId
//   storage module-alive bitmap, copy registry (per-entry module vectors
//           verbatim — their order drives broadcast/drop sequences), stale
//           replica-counter exceptions
//   end     empty terminator
//
// Every iteration order above is canonical (ascending ids, fixed vectors),
// so serialization is byte-deterministic at any PIMKD_THREADS — the same
// invariant the library itself keeps. save() installs via tmp + fsync +
// rename, so a crash mid-save leaves the previous checkpoint intact.
//
// hash() is a 64-bit FNV-1a over the host/nodes/storage record bodies (meta
// — and with it the watermarks — excluded): two trees hash equal iff their
// durable state is identical, which is the soak test's acked-frontier
// equality check.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "pim/status.hpp"

namespace pimkd::core {
class PimKdTree;
struct PimKdConfig;
}

namespace pimkd::durability {

class ByteWriter;
class ByteReader;

class Checkpoint {
 public:
  struct Info {
    std::uint64_t mutation_epoch = 0;  // tree version at capture
    std::uint64_t wal_seq = 0;         // last WAL frame folded in
    std::uint64_t state_hash = 0;      // FNV-1a over the durable state
    std::uint64_t bytes = 0;           // serialized size
  };

  // Serializes `tree` into a complete file image. The caller must not
  // mutate the tree meanwhile (PimKdTree is externally synchronised).
  // `wal_seq` is the watermark recorded in the meta record.
  static Status serialize(const core::PimKdTree& tree, std::uint64_t wal_seq,
                          std::vector<std::uint8_t>& out, Info* info = nullptr);

  // serialize() + atomic install at `path` (tmp + fsync + rename).
  static Status save(const core::PimKdTree& tree, const std::string& path,
                     std::uint64_t wal_seq, Info* info = nullptr);

  // Reads, CRC-verifies and rehydrates a checkpoint into a fresh tree. Any
  // framing or CRC failure is kCorruptState (a checkpoint is installed
  // atomically, so unlike a WAL tail it is never legitimately torn). The
  // restored tree passes check_invariants()/check_integrity() and serializes
  // back byte-identically.
  static Status load(const std::string& path,
                     std::unique_ptr<core::PimKdTree>& out,
                     Info* info = nullptr);

  // The durable-state hash of a live tree (== Info::state_hash of a
  // checkpoint taken now). Serializes to memory; intended for tests and
  // recovery verification, not hot paths.
  static std::uint64_t hash(const core::PimKdTree& tree);

 private:
  // Record-body writers/readers over the tree's private state (this class is
  // the PimKdTree friend; they must be members, not file-local helpers).
  static void write_meta(const core::PimKdTree& t, std::uint64_t wal_seq,
                         ByteWriter& w);
  static void write_host(const core::PimKdTree& t, ByteWriter& w);
  static void write_nodes(const core::PimKdTree& t, ByteWriter& w);
  static void write_storage(const core::PimKdTree& t, ByteWriter& w);
  static Status read_meta(ByteReader& r, core::PimKdConfig& cfg, Info& info);
  static Status read_host(ByteReader& r, core::PimKdTree& t,
                          std::uint64_t& next_node_id);
  static Status read_nodes(ByteReader& r, core::PimKdTree& t,
                           std::uint64_t next_node_id);
  static Status read_storage(ByteReader& r, core::PimKdTree& t);
};

}  // namespace pimkd::durability
