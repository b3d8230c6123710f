// The simulated PIM system: P modules, each holding a user-defined local
// state, plus the Metrics ledger and the randomized placement hash.
//
// The host CPU orchestrates; each PIM core may only touch its own State.
// Data structures built on this simulator access module state through
// `module(m)` inside a kernel / round and are responsible for charging the
// corresponding work and words via Metrics (the core library does this with
// the Cursor / push-pull helpers). `for_each_module` runs one kernel per
// module — modules are independent, so kernels run in parallel on the host
// thread pool, which models the modules computing concurrently.
//
// Fault model (pim/fault.hpp): when a fault plan is configured
// (SystemConfig::fault_spec or the PIMKD_FAULTS environment variable), the
// system registers itself as the Metrics round observer and applies scheduled
// events at BSP-round barriers. A crashed module's State is wiped and the
// module is marked dead in the alive bitmap until revive_module(); the
// orchestrator (host) suppresses messages addressed to dead modules, and
// for_each_module surfaces dead modules as a structured pimkd::Status instead
// of silently running kernels over wiped state.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "parallel/primitives.hpp"
#include "pim/fault.hpp"
#include "pim/metrics.hpp"
#include "pim/status.hpp"
#include "pim/trace.hpp"
#include "util/random.hpp"

namespace pimkd::pim {

struct SystemConfig {
  std::size_t num_modules = 64;      // P
  std::size_t cache_words = 1 << 20; // M, host cache size in words
  std::uint64_t seed = 0xC0FFEE;     // placement / algorithm randomness
  // Fault plan (pim/fault.hpp format). Empty => consult PIMKD_FAULTS; fault
  // injection stays off when neither is set.
  std::string fault_spec;
};

template <class State>
class PimSystem : private RoundObserver {
 public:
  explicit PimSystem(const SystemConfig& cfg)
      : cfg_(cfg),
        metrics_(cfg.num_modules, cfg.cache_words),
        salt_(Rng(cfg.seed).next_u64()),
        states_(cfg.num_modules),
        alive_(cfg.num_modules, 1),
        incarnation_(cfg.num_modules, 0) {
    FaultPlan plan = FaultPlan::resolve(cfg.fault_spec);
    if (!cfg.fault_spec.empty()) {
      // An explicit plan that names a module this system does not have could
      // never fire — reject it up front instead of ignoring it silently. Env
      // (PIMKD_FAULTS) plans are process-wide and target heterogeneous
      // trees, so out-of-range events there stay inert per tree by design.
      if (Status s = plan.validate_modules(cfg.num_modules); !s.ok())
        throw std::invalid_argument(s.message);
    }
    if (!plan.empty()) {
      faults_ = std::make_unique<FaultInjector>(std::move(plan), cfg.seed,
                                                cfg.num_modules);
      metrics_.set_round_observer(this);
    }
  }

  ~PimSystem() override { metrics_.set_round_observer(nullptr); }

  std::size_t P() const { return cfg_.num_modules; }
  const SystemConfig& config() const { return cfg_; }
  Metrics& metrics() { return metrics_; }
  const Metrics& metrics() const { return metrics_; }
  std::uint64_t seed() const { return cfg_.seed; }

  // Randomized placement: which module stores the object with this key.
  std::size_t module_of(std::uint64_t key) const {
    return static_cast<std::size_t>(hash64(key ^ salt_) % cfg_.num_modules);
  }

  State& module(std::size_t m) { return states_[m]; }
  const State& module(std::size_t m) const { return states_[m]; }

  // --- Fault surface ---------------------------------------------------------
  FaultInjector* faults() { return faults_.get(); }
  const FaultInjector* faults() const { return faults_.get(); }

  bool module_alive(std::size_t m) const { return alive_[m] != 0; }
  // Crashes module m has suffered. Host-side tables stamp what they place on
  // a module with this value, so a crash invalidates all of it in O(1).
  std::uint32_t incarnation(std::size_t m) const { return incarnation_[m]; }
  std::size_t dead_module_count() const { return dead_; }
  const std::vector<char>& alive_bitmap() const { return alive_; }
  std::vector<std::size_t> dead_modules() const {
    std::vector<std::size_t> out;
    for (std::size_t m = 0; m < alive_.size(); ++m)
      if (!alive_[m]) out.push_back(m);
    return out;
  }

  // Wipes module m's local state and marks it dead (its storage ledger is
  // zeroed: the words are physically gone). Idempotent. Callable directly by
  // tests or via a scheduled crash event.
  void crash_module(std::size_t m) {
    if (m >= alive_.size() || !alive_[m]) return;
    alive_[m] = 0;
    ++dead_;
    ++incarnation_[m];
    states_[m] = State{};
    const std::uint64_t lost = metrics_.clear_storage(m);
    lost_words_ += lost;
    if (TraceSink* t = metrics_.trace_sink())
      t->record_fault(metrics_.round_seq(), "crash", m, 0, lost);
  }

  // Marks module m alive again with empty state; the owner of the module's
  // contents (e.g. PimKdTree::recover) is responsible for re-shipping them.
  void revive_module(std::size_t m) {
    if (m >= alive_.size() || alive_[m]) return;
    alive_[m] = 1;
    --dead_;
  }

  std::uint64_t lost_storage_words() const { return lost_words_; }

  // Status naming the dead modules, or OK when the system is healthy.
  Status health() const {
    if (dead_ == 0) return Status::Ok();
    std::ostringstream os;
    os << dead_ << " dead module(s):";
    for (const std::size_t m : dead_modules()) os << " m" << m;
    return Status::Error(StatusCode::kModuleFailed, os.str());
  }

  // Run kernel(m, state) on every module, in parallel across host threads.
  // Throws PimError(kModuleFailed) when any module is dead — running a kernel
  // over wiped state would silently compute garbage. Callers that can degrade
  // use try_for_each_module instead.
  template <class Kernel>
  void for_each_module(Kernel&& kernel) {
    if (dead_ != 0) throw PimError(health());
    parallel_for(
        0, P(), [&](std::size_t m) { kernel(m, states_[m]); },
        /*grain=*/1);
  }

  // Degraded-mode variant: runs the kernel on alive modules only and returns
  // a Status describing the skipped (dead) ones.
  template <class Kernel>
  Status try_for_each_module(Kernel&& kernel) {
    parallel_for(
        0, P(),
        [&](std::size_t m) {
          if (alive_[m]) kernel(m, states_[m]);
        },
        /*grain=*/1);
    return health();
  }

 private:
  void on_round_begin(std::uint64_t round_seq) override {
    for (const FaultEvent& ev : faults_->take_events(round_seq)) {
      switch (ev.kind) {
        case FaultKind::kModuleCrash:
          crash_module(ev.module);
          break;
        case FaultKind::kStall:
          // A transient stall stretches this round: the stalled module charges
          // the extra work, which feeds the round's max (PIM time).
          if (ev.module < P() && alive_[ev.module]) {
            metrics_.add_module_work(ev.module, ev.arg);
            if (TraceSink* t = metrics_.trace_sink())
              t->record_fault(round_seq, "stall", ev.module, ev.arg, 0);
          }
          break;
        case FaultKind::kMessageLoss:
          faults_->set_loss_permille(ev.module, ev.arg);
          if (TraceSink* t = metrics_.trace_sink())
            t->record_fault(round_seq, "lose", ev.module, ev.arg, 0);
          break;
        case FaultKind::kTornTail:
          // Fires on WAL appends (FaultInjector::take_torn), never at a
          // round barrier; the injector filters these out of take_events.
          break;
      }
    }
  }

  SystemConfig cfg_;
  Metrics metrics_;
  std::uint64_t salt_;
  std::vector<State> states_;
  std::vector<char> alive_;
  std::vector<std::uint32_t> incarnation_;
  std::size_t dead_ = 0;
  std::uint64_t lost_words_ = 0;
  std::unique_ptr<FaultInjector> faults_;
};

}  // namespace pimkd::pim
