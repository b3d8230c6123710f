// Configuration of the PIM-kd-tree (paper notation in comments; Table 2).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "pim/system.hpp"

namespace pimkd::core {

// Which intra-group replication strategy is active (Figure 2). The paper's
// design is kDual; the others exist to regenerate Figure 2's comparison.
// The mode is fixed when the tree is built.
enum class CachingMode {
  kNone,      // masters only (Fig. 2a) — every tree edge is an off-chip hop
  kTopDown,   // Fig. 2c — each master also stores its in-group descendants
  kBottomUp,  // Fig. 2d — each master also stores its in-group ancestor chain
  kDual,      // Fig. 2b — both (the PIM-kd-tree design)
};

inline const char* caching_mode_name(CachingMode m) {
  switch (m) {
    case CachingMode::kNone: return "none";
    case CachingMode::kTopDown: return "topdown";
    case CachingMode::kBottomUp: return "bottomup";
    case CachingMode::kDual: return "dual";
  }
  return "?";
}

struct PimKdConfig {
  int dim = 2;                 // D
  double alpha = 1.0;          // balance parameter (semi-balanced: O(1))
  double beta = 0.5;           // approximate-counter parameter, Θ(alpha)
  std::size_t leaf_cap = 16;   // points per leaf (O(1))
  std::size_t sigma = 64;      // over-sampling rate for splitter selection
  bool use_approx_counters = true;   // false => counters are exact (ablation)
  CachingMode caching = CachingMode::kDual;
  bool replicate_group0 = true;      // replicate Group 0 on all modules
  // §5 trade-off: apply intra-group caching only to groups < cached_groups
  // (G). -1 means all groups (G = log* P), the communication-optimal design.
  int cached_groups = -1;
  // Push-pull threshold is push_pull_c * (max Group-1 subtree height).
  double push_pull_c = 2.0;
  bool use_push_pull = true;         // false => always push (ablation)
  // §3.4 delayed construction of oversized Group-1 components.
  bool delayed_construction = false;
  std::size_t delayed_finish_multiplier = 1;  // finish when unfinished > mult*P*logP
  // JSONL cost-trace output (pim/trace.hpp): one record per BSP round plus
  // one span per batch operation. Empty => consult the PIMKD_TRACE env var;
  // tracing stays off when neither names a file.
  std::string trace_path;
  // Host leaf-scan kernel ISA: "off" (forced scalar), "avx2" (vectorized;
  // degrades to scalar with a logged warning if the CPU lacks AVX2), "auto"
  // (use AVX2 when available). Empty => consult the PIMKD_SIMD env var
  // (which defaults to auto). Results are bit-identical either way
  // (util/kernels.hpp); only wall-clock differs.
  std::string simd;
  pim::SystemConfig system;    // P modules, cache words M, seed

  // Always-on validation (not an assert): throws std::invalid_argument naming
  // the offending field. Tree constructors call this before touching state.
  void validate() const;
};

// Word-cost model: one word = 8 bytes, matching the PIM Model's word-sized
// message accounting.
inline std::uint64_t node_words(int dim) {
  // id, parent, children, split, counter, flags + 2*dim box coordinates.
  return 8 + 2 * static_cast<std::uint64_t>(dim);
}
inline std::uint64_t point_words(int dim) {
  return static_cast<std::uint64_t>(dim) + 1;  // coordinates + id
}
inline constexpr std::uint64_t kQueryWords = 2;   // query descriptor
inline constexpr std::uint64_t kHopWords = 2;     // boundary crossing: req+resp
inline constexpr std::uint64_t kCounterWords = 1; // counter replica write

}  // namespace pimkd::core
