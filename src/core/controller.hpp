// Unified epoch-boundary controller API (DESIGN.md §13).
//
// Every feedback loop the serving stack runs between epochs — adaptive
// replication (core/replication.hpp) and skew-resistant subtree migration
// (core/migration.hpp) — follows the same shape:
//
//   observe  — sample thread-invariant ledger totals (pim::LoadReport and
//              friends: sums of commutative adds, byte-identical across
//              PIMKD_THREADS),
//   decide   — a pure function of those totals plus the controller's own
//              deterministic state (EWMAs, previous samples, epoch gates),
//   apply    — mutate the tree inside a named trace span, bumping
//              mutation_epoch so epoch-versioned reads never straddle the
//              change, and charging every shipped word to the ledger.
//
// The scheduler calls on_epoch_boundary() after an epoch's updates have been
// applied and before its batch is durably logged; `changed` feeds the batch
// log/stats, `words` the per-feature cost counters. Controllers must be
// deterministic: two runs that see the same epoch sequence make the same
// decisions, whatever the thread count.
#pragma once

#include <cstdint>

namespace pimkd::core {

class EpochController {
 public:
  virtual ~EpochController() = default;

  // Trace-span / stats label ("replication", "migration").
  virtual const char* name() const = 0;

  struct Outcome {
    bool changed = false;        // did apply mutate anything this epoch?
    std::uint64_t words = 0;     // communication charged by the apply step
  };

  // One observe→decide→apply step, called between epochs with the counts of
  // the epoch that just finished. Must only be called from the thread that
  // owns tree execution (the scheduler's EXEC stage or the control thread).
  virtual Outcome on_epoch_boundary(std::uint64_t reads,
                                    std::uint64_t writes) = 0;
};

}  // namespace pimkd::core
