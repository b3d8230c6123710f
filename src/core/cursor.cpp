#include "core/cursor.hpp"

#include <cassert>

namespace pimkd::core {

namespace {
bool group_is_cached(const PimKdConfig& cfg, int group) {
  if (group == 0) return cfg.replicate_group0 && cfg.cached_groups != 0;
  if (cfg.cached_groups < 0) return true;
  return group < cfg.cached_groups;
}
}  // namespace

Cursor::Cursor(const PimKdConfig& cfg, const NodePool& pool,
               const DistStore& store, pim::Metrics& metrics,
               std::size_t start_module)
    : cfg_(cfg), pool_(pool), store_(store), metrics_(metrics) {
  stack_.push_back(Anchor{kNoNode, start_module});
}

bool Cursor::is_comp_related(NodeId id, NodeId anchor) const {
  const NodeRec& u = pool_.at(id);
  const NodeRec& a = pool_.at(anchor);
  if (u.comp_root != a.comp_root) return false;
  const NodeRec& croot = pool_.at(u.comp_root);
  if (!croot.comp_finished) return false;  // delayed construction pending
  if (!group_is_cached(cfg_, u.group)) return false;
  if (u.depth >= a.depth) {
    // Candidate descendant: readable from a's top-down cache.
    if (cfg_.caching != CachingMode::kTopDown &&
        cfg_.caching != CachingMode::kDual)
      return false;
    NodeId cur = id;
    for (std::uint32_t d = u.depth; d > a.depth; --d) cur = pool_.at(cur).parent;
    return cur == anchor;
  }
  // Candidate ancestor: readable from a's bottom-up chain.
  if (cfg_.caching != CachingMode::kBottomUp &&
      cfg_.caching != CachingMode::kDual)
    return false;
  NodeId cur = anchor;
  for (std::uint32_t d = a.depth; d > u.depth; --d) cur = pool_.at(cur).parent;
  return cur == id;
}

bool Cursor::is_local(NodeId id) const {
  const NodeRec& u = pool_.at(id);
  if (u.group == 0 && group_is_cached(cfg_, 0)) return true;
  const Anchor& top = stack_.back();
  if (top.node == kNoNode) return false;  // group-0 base anchor
  if (id == top.node) return true;
  return is_comp_related(id, top.node);
}

bool Cursor::can_visit(NodeId id) const {
  if (!store_.any_module_dead()) return true;
  if (is_local(id)) return store_.module_alive(stack_.back().module);
  return store_.module_alive(store_.master_of(id));
}

bool Cursor::visit(NodeId id) {
  if (is_local(id)) {
    const std::size_t m = stack_.back().module;
    assert(store_.module_has(m, id));
    metrics_.add_module_work(m, 1);
    return false;
  }
  const std::size_t from = stack_.back().module;
  const std::size_t to = store_.master_of(id);
  assert(store_.module_has(to, id));
  metrics_.add_comm(from, kHopWords / 2);
  metrics_.add_comm(to, kHopWords - kHopWords / 2);
  metrics_.add_module_work(to, 1);
  stack_.push_back(Anchor{id, to});
  ++hops_;
  return true;
}

void Cursor::release(std::size_t mark) {
  assert(mark >= 1 && mark <= stack_.size());
  stack_.resize(mark);
}

void Cursor::charge_work(std::uint64_t units) {
  metrics_.add_module_work(stack_.back().module, units);
}

std::size_t Cursor::current_module() const { return stack_.back().module; }

}  // namespace pimkd::core
