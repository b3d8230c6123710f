// Fault recovery and the distributed-tree integrity checker ("fsck").
//
// Recovery model: a crash wipes a module's physical state but the host keeps
// the authoritative mirror (NodePool + point store) and each node's copy
// registrations (intent). recover(m) revives the module and re-ships
// everything the registrations say it should hold, preferring surviving dual-way replicas as
// sources and falling back to the host store; the work and words are charged
// to Metrics inside a "recover" trace span, so recovery cost shows up in the
// JSONL trace like any other operation. check_integrity() then cross-checks
// intent against physical truth.
#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/pim_kdtree.hpp"
#include "pim/status.hpp"

namespace pimkd::core {

namespace {
// Bound the problem list so a badly damaged tree doesn't drown the caller.
constexpr std::size_t kMaxProblems = 32;
}  // namespace

// --- Recovery -----------------------------------------------------------------

PimKdTree::RecoveryReport PimKdTree::recover(std::size_t m) {
  RecoveryReport rep;
  rep.module = m;
  if (m >= sys_.P()) {
    std::ostringstream os;
    os << "recover: module " << m << " out of range (P=" << sys_.P() << ")";
    throw std::invalid_argument(os.str());
  }
  const WriteGate gate(*this);  // wait out in-flight pinned read phases
  if (sys_.module_alive(m)) {
    rep.integrity_ok = check_integrity().ok;
    return rep;
  }
  pim::TraceScope span(sys_.metrics(), "recover", 1);
  pim::RoundGuard round(sys_.metrics());
  sys_.revive_module(m);
  const DistStore::RecoverySummary sum = store_.rebuild_module(m);
  rep.copies = sum.copies;
  rep.words = sum.words;
  rep.from_replicas = sum.from_replicas;
  rep.from_host = sum.from_host;
  // Message-loss damage (stale counters on surviving replicas) is repaired in
  // the same pass, so post-recovery integrity covers both failure modes.
  rep.counters_resynced = store_.resync_counters();
  if (pim::TraceSink* t = sys_.metrics().trace_sink())
    t->record_recovery(m, rep.copies, rep.words, rep.from_replicas,
                       rep.from_host, rep.counters_resynced);
  rep.integrity_ok = check_integrity().ok;
  return rep;
}

std::vector<PimKdTree::RecoveryReport> PimKdTree::recover_all() {
  std::vector<RecoveryReport> out;
  for (const std::size_t m : sys_.dead_modules()) out.push_back(recover(m));
  return out;
}

std::uint64_t PimKdTree::resync_counters() {
  pim::TraceScope span(sys_.metrics(), "resync_counters", 1);
  pim::RoundGuard round(sys_.metrics());
  return store_.resync_counters();
}

// --- Integrity checker ("fsck") -------------------------------------------------

std::string PimKdTree::IntegrityReport::to_string() const {
  if (ok) return "integrity OK";
  std::ostringstream os;
  os << "integrity FAILED (" << problems.size() << " problem(s) recorded)";
  for (const std::string& p : problems) os << "\n  - " << p;
  return os.str();
}

PimKdTree::IntegrityReport PimKdTree::check_integrity() const {
  IntegrityReport rep;
  auto fail = [&](const std::string& msg) {
    rep.ok = false;
    if (rep.problems.size() < kMaxProblems) rep.problems.push_back(msg);
  };

  // Alive bitmap: a dead module is damage by definition (its registered
  // copies are physically missing until recover()).
  for (const std::size_t m : sys_.dead_modules()) {
    std::ostringstream os;
    os << "module m" << m << " is dead (unrecovered)";
    fail(os.str());
  }

  // Host bookkeeping: live_ matches the alive_ flags.
  std::size_t alive_count = 0;
  for (const char a : alive_)
    if (a) ++alive_count;
  if (alive_count != live_) {
    std::ostringstream os;
    os << "live_=" << live_ << " but " << alive_count << " alive flags";
    fail(os.str());
  }

  // Expected physical words per module, recomputed from the registrations
  // while cross-checking every replica against the mirror.
  std::vector<std::uint64_t> expect_words(sys_.P(), 0);
  pool_.for_each([&](const NodeRec& rec) {
    const NodeId id = rec.id;
    const std::vector<std::uint32_t>& mods = store_.copy_modules(id);
    if (mods.empty()) return;
    bool master_seen = false;
    for (const Replica& rep : store_.replicas(id)) {
      const std::uint32_t m = rep.module;
      const auto r = static_cast<std::uint32_t>(std::ranges::count(mods, m));
      if (r == 0) {
        std::ostringstream os;
        os << "orphan copy of node " << id << " on m" << m
           << " (not registered)";
        fail(os.str());
        continue;
      }
      if (m == store_.master_of(id)) master_seen = true;
      expect_words[m] += static_cast<std::uint64_t>(r) * node_words(cfg_.dim);
      if (rec.is_leaf())
        expect_words[m] +=
            static_cast<std::uint64_t>(pool_.cold(id).leaf_pts.size()) *
            point_words(cfg_.dim);
      if (!sys_.module_alive(m)) continue;  // missing by design; flagged above
      if (!store_.present(rep)) {
        std::ostringstream os;
        os << "node " << id << " registered on m" << m
           << " but physically absent";
        fail(os.str());
        continue;
      }
      if (rep.refs != r) {
        std::ostringstream os;
        os << "node " << id << " on m" << m << ": refs=" << rep.refs
           << " registrations " << r;
        fail(os.str());
      }
      if (rep.counter != rec.counter) {
        std::ostringstream os;
        os << "node " << id << " on m" << m << ": replica counter "
           << rep.counter << " != canonical " << rec.counter
           << " (stale; resync_counters repairs)";
        fail(os.str());
      }
      if (rec.is_leaf()) {
        const ModuleState& st = sys_.module(m);
        const auto lit = st.leaf_points.find(id);
        if (lit == st.leaf_points.end() ||
            lit->second != pool_.cold(id).leaf_pts) {
          std::ostringstream os;
          os << "leaf " << id << " payload on m" << m
             << (lit == st.leaf_points.end() ? " missing" : " desynced");
          fail(os.str());
        }
      }
    }
    if (!master_seen) {
      std::ostringstream os;
      os << "node " << id << " has no copy on its master m"
         << store_.master_of(id);
      fail(os.str());
    }
  });

  // Orphan leaf payloads (held on a module without the node's copy) and
  // storage-ledger reconciliation.
  for (std::size_t m = 0; m < sys_.P(); ++m) {
    if (!sys_.module_alive(m)) continue;
    for (const auto& [id, pts] : sys_.module(m).leaf_points) {
      if (!store_.module_has(m, id)) {
        std::ostringstream os;
        os << "orphan leaf payload for node " << id << " on m" << m;
        fail(os.str());
      }
    }
    const std::uint64_t ledger = sys_.metrics().module_storage(m);
    if (ledger != expect_words[m]) {
      std::ostringstream os;
      os << "storage ledger m" << m << ": " << ledger << " words, expected "
         << expect_words[m];
      fail(os.str());
    }
  }

  // Counter drift envelope (Lemma 3.6/3.7 smoke bound, as in
  // check_invariants) and basic counter sanity.
  pool_.for_each([&](const NodeRec& rec) {
    if (!(rec.counter >= 0.0) || !std::isfinite(rec.counter)) {
      std::ostringstream os;
      os << "node " << rec.id << ": counter " << rec.counter
         << " out of bounds";
      fail(os.str());
      return;
    }
    const double exact = static_cast<double>(rec.exact_size);
    const double slack =
        0.75 * std::max(exact, 1.0) + 8.0 * static_cast<double>(cfg_.leaf_cap);
    if (std::abs(rec.counter - exact) > slack) {
      std::ostringstream os;
      os << "node " << rec.id << ": counter " << rec.counter
         << " drifted beyond envelope of exact " << exact;
      fail(os.str());
    }
  });

  return rep;
}

}  // namespace pimkd::core
