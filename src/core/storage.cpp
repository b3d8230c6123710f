#include "core/storage.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>

#include "pim/status.hpp"

namespace pimkd::core {

namespace {

// Binary search of a node's module-sorted replicas (no more than P entries).
template <class Replicas>
auto* find_replica(Replicas& reps, std::uint32_t module) {
  const auto it = std::ranges::lower_bound(reps, module, {}, &Replica::module);
  return it != reps.end() && it->module == module ? &*it : nullptr;
}

}  // namespace

Replica& DistStore::register_copy(CopyTable& t, std::uint32_t module) {
  t.modules.push_back(module);
  auto it = std::ranges::lower_bound(t.replicas, module, {}, &Replica::module);
  if (it == t.replicas.end() || it->module != module)
    it = t.replicas.insert(it, Replica{.module = module});
  return *it;
}

std::uint64_t DistStore::install(NodeId id, Replica& r) {
  const NodeRec& rec = pool_.at(id);
  const std::uint32_t now = sys_.incarnation(r.module);
  if (r.stamp != now) {  // wiped by a crash since it was written
    r.stamp = now;
    r.refs = 0;
  }
  ++r.refs;
  r.counter = rec.counter;
  std::uint64_t words = node_words(cfg_.dim);
  if (rec.is_leaf() && r.refs == 1) {
    const std::vector<PointId>& pts = pool_.cold(id).leaf_pts;
    sys_.module(r.module).leaf_points[id] = pts;
    words += static_cast<std::uint64_t>(pts.size()) * point_words(cfg_.dim);
  }
  return words;
}

std::uint64_t DistStore::release(NodeId id, Replica& r, std::uint32_t refs) {
  assert(present(r) && r.refs >= refs);
  r.refs -= refs;
  std::uint64_t words = static_cast<std::uint64_t>(refs) * node_words(cfg_.dim);
  if (r.refs == 0 && pool_.at(id).is_leaf()) {
    auto& stored = sys_.module(r.module).leaf_points;
    const auto lit = stored.find(id);
    if (lit != stored.end()) {
      words += static_cast<std::uint64_t>(lit->second.size()) *
               point_words(cfg_.dim);
      stored.erase(lit);
    }
  }
  return words;
}

std::uint64_t DistStore::add_copy(NodeId id, std::size_t module) {
  assert(sys_.metrics().in_round());
  // The registration records intent even for a dead module (recovery
  // re-ships it); the physical write and every charge are suppressed — the
  // module is down and the orchestrator knows it.
  Replica& r =
      register_copy(pool_.cold(id).copies, static_cast<std::uint32_t>(module));
  if (!sys_.module_alive(module)) return 0;
  const std::uint64_t words = install(id, r);
  sys_.metrics().add_comm(module, words);
  sys_.metrics().add_storage(module, static_cast<std::int64_t>(words));
  return words;
}

void DistStore::remove_all_copies(NodeId id) {
  CopyTable& t = pool_.cold(id).copies;
  for (Replica& r : t.replicas) {
    if (!present(r)) continue;  // dead or wiped: already physically gone
    const std::uint64_t words = release(id, r, r.refs);
    sys_.metrics().add_storage(r.module, -static_cast<std::int64_t>(words));
  }
  t.modules.clear();
  t.replicas.clear();
}

void DistStore::remove_one_copy(NodeId id, std::size_t module) {
  CopyTable& t = pool_.cold(id).copies;
  const auto m = static_cast<std::uint32_t>(module);
  const auto pos = std::find(t.modules.begin(), t.modules.end(), m);
  if (pos == t.modules.end()) {
    std::ostringstream os;
    os << "DistStore::remove_one_copy: node " << id;
    if (t.modules.empty())
      os << " has no copies";
    else
      os << " absent on module " << module << " (" << t.modules.size()
         << " copies elsewhere)";
    throw PimError(StatusCode::kCorruptState, os.str());
  }
  t.modules.erase(pos);
  Replica* r = find_replica(t.replicas, m);
  assert(r != nullptr);
  if (present(*r))
    sys_.metrics().add_storage(
        module, -static_cast<std::int64_t>(release(id, *r, 1)));
  if (std::find(t.modules.begin(), t.modules.end(), m) == t.modules.end())
    t.replicas.erase(t.replicas.begin() + (r - t.replicas.data()));
}

const Replica* DistStore::present_copy(NodeId id, std::size_t module) const {
  if (!pool_.contains(id)) return nullptr;
  const Replica* r = find_replica(replicas(id), module);
  return r && present(*r) ? r : nullptr;
}

std::uint64_t DistStore::write_counter_copies(NodeId id, bool charge_comm) {
  assert(sys_.metrics().in_round());
  const double counter = pool_.at(id).counter;
  CopyTable& t = pool_.cold(id).copies;
  pim::FaultInjector* faults = sys_.faults();
  std::uint64_t words = 0;
  for (const std::uint32_t module : t.modules) {
    if (!sys_.module_alive(module)) continue;  // send suppressed: module down
    if (charge_comm) {
      sys_.metrics().add_comm(module, kCounterWords);
      words += kCounterWords;
      // A lost message is charged (the word left the host) but never
      // applied: the replica keeps its stale counter until resync_counters
      // repairs it.
      if (faults && faults->drop_counter_word(module)) continue;
    }
    Replica* r = find_replica(t.replicas, module);
    assert(r != nullptr && present(*r));
    r->counter = counter;
    sys_.metrics().add_module_work(module, 1);
  }
  return words;
}

void DistStore::refresh_leaf_payload(NodeId leaf, std::uint64_t words_changed) {
  assert(sys_.metrics().in_round());
  assert(pool_.at(leaf).is_leaf());
  // One payload per module: the replicas are the distinct modules.
  for (const Replica& r : replicas(leaf)) {
    if (!sys_.module_alive(r.module)) continue;  // send suppressed: module down
    auto& stored = sys_.module(r.module).leaf_points[leaf];
    const auto old_words = static_cast<std::int64_t>(stored.size()) *
                           static_cast<std::int64_t>(point_words(cfg_.dim));
    stored = pool_.cold(leaf).leaf_pts;
    const auto new_words = static_cast<std::int64_t>(stored.size()) *
                           static_cast<std::int64_t>(point_words(cfg_.dim));
    sys_.metrics().add_comm(r.module, words_changed);
    sys_.metrics().add_module_work(r.module, 1 + words_changed);
    sys_.metrics().add_storage(r.module, new_words - old_words);
  }
}

DistStore::RecoverySummary DistStore::rebuild_module(std::size_t m) {
  assert(sys_.metrics().in_round());
  assert(sys_.module_alive(m));
  RecoverySummary sum;
  const auto mod = static_cast<std::uint32_t>(m);
  pool_.for_each([&](const NodeRec& rec) {
    CopyTable& t = pool_.cold(rec.id).copies;
    Replica* r = find_replica(t.replicas, mod);
    if (r == nullptr) return;
    const auto refs_here =
        static_cast<std::uint32_t>(std::ranges::count(t.modules, mod));
    // Prefer a surviving replica as the source (Figure-2 dual-way caching
    // collocates copies widely); the host point store is the fallback of last
    // resort and always suffices — it is authoritative.
    std::size_t src = m;
    for (const std::uint32_t other : t.modules) {
      if (other != mod && sys_.module_alive(other) && module_has(other, rec.id)) {
        src = other;
        break;
      }
    }
    r->refs = refs_here;
    r->counter = rec.counter;
    r->stamp = sys_.incarnation(m);
    std::uint64_t words =
        static_cast<std::uint64_t>(refs_here) * node_words(cfg_.dim);
    if (rec.is_leaf()) {
      const std::vector<PointId>& pts = pool_.cold(rec.id).leaf_pts;
      sys_.module(m).leaf_points[rec.id] = pts;
      words += static_cast<std::uint64_t>(pts.size()) * point_words(cfg_.dim);
    }
    if (src != m) {
      sys_.metrics().add_comm(src, words);  // read side of the transfer
      sum.from_replicas += refs_here;
    } else {
      sys_.metrics().add_cpu_work(words);  // host reconstructs the copy
      sum.from_host += refs_here;
    }
    sys_.metrics().add_comm(m, words);
    sys_.metrics().add_module_work(m, refs_here);
    sys_.metrics().add_storage(m, static_cast<std::int64_t>(words));
    sum.copies += refs_here;
    sum.words += words;
  });
  return sum;
}

std::uint64_t DistStore::resync_counters() {
  assert(sys_.metrics().in_round());
  std::uint64_t fixed = 0;
  pool_.for_each([&](const NodeRec& rec) {
    for (Replica& r : pool_.cold(rec.id).copies.replicas) {
      if (!present(r) || r.counter == rec.counter) continue;
      r.counter = rec.counter;
      sys_.metrics().add_comm(r.module, kCounterWords);
      sys_.metrics().add_module_work(r.module, 1);
      ++fixed;
    }
  });
  return fixed;
}

std::uint64_t DistStore::node_storage_words(NodeId id) const {
  const CopyTable& t = pool_.cold(id).copies;
  std::uint64_t words =
      static_cast<std::uint64_t>(t.modules.size()) * node_words(cfg_.dim);
  if (pool_.at(id).is_leaf())
    words += static_cast<std::uint64_t>(t.replicas.size()) *
             pool_.cold(id).leaf_pts.size() * point_words(cfg_.dim);
  return words;
}

}  // namespace pimkd::core
