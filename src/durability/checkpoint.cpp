#include "durability/checkpoint.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "core/pim_kdtree.hpp"
#include "durability/record_io.hpp"

namespace pimkd::durability {

namespace {

constexpr char kMagic[8] = {'P', 'K', 'D', 'C', 'K', 'P', 'T', '1'};
// v2: the storage record ends with a placement-override count. Live
// migration, which wrote overrides, was removed; this build always writes
// zero and rejects a non-zero count (the slot goes with the next format
// bump). v1 files are rejected.
constexpr std::uint32_t kVersion = 2;

// Record tags (fixed file order: meta, host, nodes, storage, end).
constexpr std::uint32_t kTagMeta = 1;
constexpr std::uint32_t kTagHost = 2;
constexpr std::uint32_t kTagNodes = 3;
constexpr std::uint32_t kTagStorage = 4;
constexpr std::uint32_t kTagEnd = 0xE0F;

std::uint64_t fnv1a(std::uint64_t h, const std::uint8_t* p, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}
constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;

Status corrupt(const std::string& what) {
  return Status::Error(StatusCode::kCorruptState, "checkpoint: " + what);
}

}  // namespace

void Checkpoint::write_meta(const core::PimKdTree& t, std::uint64_t wal_seq,
                ByteWriter& w) {
  const core::PimKdConfig& c = t.cfg_;
  w.u32(kVersion);
  w.i32(c.dim);
  w.f64(c.alpha);
  w.f64(c.beta);
  w.u64(c.leaf_cap);
  w.u64(c.sigma);
  w.u8(c.use_approx_counters ? 1 : 0);
  w.u8(static_cast<std::uint8_t>(c.caching));
  w.u8(c.replicate_group0 ? 1 : 0);
  w.i32(c.cached_groups);
  w.f64(c.push_pull_c);
  w.u8(c.use_push_pull ? 1 : 0);
  w.u8(c.delayed_construction ? 1 : 0);
  w.u64(c.delayed_finish_multiplier);
  // trace_path and fault_spec are intentionally not serialized: a restored
  // tree opens no trace and schedules no faults (both are per-run harness
  // settings, not tree state).
  w.u64(c.system.num_modules);
  w.u64(c.system.cache_words);
  w.u64(c.system.seed);
  w.u64(t.mutation_epoch_);
  w.u64(wal_seq);
}

void Checkpoint::write_host(const core::PimKdTree& t, ByteWriter& w) {
  const int dim = t.cfg_.dim;
  w.u64(t.rng_.state());
  w.u64(t.root_);
  w.u64(t.pool_.next_id());
  w.u64(t.live_);
  w.u64(t.peak_live_);
  w.u64(t.all_points_.size());
  for (const Point& p : t.all_points_)
    for (int d = 0; d < dim; ++d) w.f64(p[d]);
  for (const char a : t.alive_) w.u8(a ? 1 : 0);
  w.u8(t.priorities_.empty() ? 0 : 1);
  if (!t.priorities_.empty())
    for (const double p : t.priorities_) w.f64(p);
  w.u64(t.unfinished_.size());
  for (const core::NodeId id : t.unfinished_) w.u64(id);
}

void Checkpoint::write_nodes(const core::PimKdTree& t, ByteWriter& w) {
  const int dim = t.cfg_.dim;
  w.u64(t.pool_.size());
  t.pool_.for_each([&](const core::NodeRec& n) {  // ascending id: canonical
    w.u64(n.id);
    w.u64(n.parent);
    w.u64(n.left);
    w.u64(n.right);
    w.u64(n.comp_root);
    w.u64(n.exact_size);
    w.f64(n.counter);
    w.f64(n.split_val);
    w.i32(n.split_dim);
    w.u8(n.comp_finished ? 1 : 0);
    w.i32(n.group);
    w.u32(n.depth);
    for (int d = 0; d < dim; ++d) w.f64(n.box.lo[d]);
    for (int d = 0; d < dim; ++d) w.f64(n.box.hi[d]);
    const core::NodeCold& c = t.pool_.cold(n.id);
    w.u64(c.leaf_pts.size());
    for (const PointId p : c.leaf_pts) w.u32(p);
    w.f64(c.max_priority);
    w.u32(c.max_priority_id);
  });
}

void Checkpoint::write_storage(const core::PimKdTree& t, ByteWriter& w) {
  const std::size_t P = t.sys_.P();
  w.u64(P);
  for (std::size_t m = 0; m < P; ++m) w.u8(t.sys_.module_alive(m) ? 1 : 0);
  // Registration lists ascending by NodeId, each verbatim — its order drives
  // counter-broadcast and drop-draw sequences, so it is semantic state, not
  // an implementation detail.
  std::vector<core::NodeId> ids;
  t.pool_.for_each([&](const core::NodeRec& n) {
    if (t.store_.copy_count(n.id) != 0) ids.push_back(n.id);
  });
  w.u64(ids.size());
  for (const core::NodeId id : ids) {
    const std::vector<std::uint32_t>& mods = t.store_.copy_modules(id);
    w.u64(id);
    w.u32(static_cast<std::uint32_t>(mods.size()));
    for (const std::uint32_t m : mods) w.u32(m);
  }
  // Replica counters that disagree with the canonical mirror value (message
  // loss leaves them stale until resync_counters); restored verbatim so a
  // checkpoint of a damaged tree reproduces the damage for fsck to see.
  ByteWriter stale;
  std::uint64_t n_stale = 0;
  for (const core::NodeId id : ids) {
    const std::vector<std::uint32_t>& mods = t.store_.copy_modules(id);
    for (auto it = mods.begin(); it != mods.end(); ++it) {
      if (std::find(mods.begin(), it, *it) != it) continue;  // seen
      const core::Replica* r = t.store_.present_copy(id, *it);
      if (r && r->counter != t.pool_.at(id).counter) {
        stale.u64(id);
        stale.u32(*it);
        stale.f64(r->counter);
        ++n_stale;
      }
    }
  }
  w.u64(n_stale);
  w.raw(stale.bytes().data(), stale.size());
  w.u64(0);  // v2 placement-override count: placement is always the hash
}

Status Checkpoint::read_meta(ByteReader& r, core::PimKdConfig& cfg, Checkpoint::Info& info) {
  std::uint32_t version = 0;
  if (!r.u32(version)) return corrupt("meta record truncated");
  if (version != kVersion) return corrupt("unsupported format version");
  std::uint8_t approx = 0, caching = 0, g0 = 0, pp = 0, delayed = 0;
  bool ok = r.i32(cfg.dim) && r.f64(cfg.alpha) && r.f64(cfg.beta) &&
            r.u64(cfg.leaf_cap) && r.u64(cfg.sigma) && r.u8(approx) &&
            r.u8(caching) && r.u8(g0) && r.i32(cfg.cached_groups) &&
            r.f64(cfg.push_pull_c) && r.u8(pp) && r.u8(delayed) &&
            r.u64(cfg.delayed_finish_multiplier) &&
            r.u64(cfg.system.num_modules) && r.u64(cfg.system.cache_words) &&
            r.u64(cfg.system.seed) && r.u64(info.mutation_epoch) &&
            r.u64(info.wal_seq);
  if (!ok || r.remaining() != 0) return corrupt("meta record truncated");
  if (caching > static_cast<std::uint8_t>(core::CachingMode::kDual))
    return corrupt("meta: bad caching mode");
  cfg.use_approx_counters = approx != 0;
  cfg.caching = static_cast<core::CachingMode>(caching);
  cfg.replicate_group0 = g0 != 0;
  cfg.use_push_pull = pp != 0;
  cfg.delayed_construction = delayed != 0;
  cfg.trace_path.clear();
  cfg.system.fault_spec.clear();
  return Status::Ok();
}

Status Checkpoint::read_host(ByteReader& r, core::PimKdTree& t, std::uint64_t& next_node_id) {
  const int dim = t.cfg_.dim;
  std::uint64_t rng_state = 0, root = 0, live = 0, peak = 0, n_points = 0;
  if (!r.u64(rng_state) || !r.u64(root) || !r.u64(next_node_id) ||
      !r.u64(live) || !r.u64(peak) || !r.u64(n_points))
    return corrupt("host record truncated");
  t.rng_.set_state(rng_state);
  t.root_ = root;
  t.live_ = static_cast<std::size_t>(live);
  t.peak_live_ = static_cast<std::size_t>(peak);
  t.all_points_.resize(static_cast<std::size_t>(n_points));
  for (Point& p : t.all_points_) {
    p = Point{};
    for (int d = 0; d < dim; ++d)
      if (!r.f64(p[d]))
        return corrupt("host record truncated (points)");
  }
  t.alive_.resize(static_cast<std::size_t>(n_points));
  for (char& a : t.alive_) {
    std::uint8_t b = 0;
    if (!r.u8(b)) return corrupt("host record truncated (alive bitmap)");
    a = b ? 1 : 0;
  }
  std::uint8_t has_prior = 0;
  if (!r.u8(has_prior)) return corrupt("host record truncated");
  if (has_prior) {
    t.priorities_.resize(static_cast<std::size_t>(n_points));
    for (double& p : t.priorities_)
      if (!r.f64(p)) return corrupt("host record truncated (priorities)");
  }
  std::uint64_t n_unf = 0;
  if (!r.u64(n_unf)) return corrupt("host record truncated");
  t.unfinished_.resize(static_cast<std::size_t>(n_unf));
  for (core::NodeId& id : t.unfinished_)
    if (!r.u64(id)) return corrupt("host record truncated (unfinished)");
  if (r.remaining() != 0) return corrupt("host record has trailing bytes");
  return Status::Ok();
}

Status Checkpoint::read_nodes(ByteReader& r, core::PimKdTree& t,
                  std::uint64_t next_node_id) {
  const int dim = t.cfg_.dim;
  std::uint64_t count = 0;
  if (!r.u64(count)) return corrupt("nodes record truncated");
  core::NodeId prev = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    core::NodeId id = 0;
    if (!r.u64(id)) return corrupt("nodes record truncated");
    if (id <= prev) return corrupt("nodes record: ids not ascending");
    prev = id;
    core::NodeRec& n = t.pool_.restore_node(id);
    std::uint8_t finished = 0;
    std::int32_t split_dim = 0;
    bool ok = r.u64(n.parent) && r.u64(n.left) && r.u64(n.right) &&
              r.u64(n.comp_root) && r.u64(n.exact_size) && r.f64(n.counter) &&
              r.f64(n.split_val) && r.i32(split_dim) && r.u8(finished) &&
              r.i32(n.group) && r.u32(n.depth);
    if (!ok) return corrupt("nodes record truncated");
    n.split_dim = static_cast<std::int16_t>(split_dim);
    n.comp_finished = finished != 0;
    for (int d = 0; d < dim; ++d)
      if (!r.f64(n.box.lo[d]))
        return corrupt("nodes record truncated (box)");
    for (int d = 0; d < dim; ++d)
      if (!r.f64(n.box.hi[d]))
        return corrupt("nodes record truncated (box)");
    core::NodeCold& c = t.pool_.cold(id);
    std::uint64_t n_pts = 0;
    if (!r.u64(n_pts)) return corrupt("nodes record truncated");
    c.leaf_pts.resize(static_cast<std::size_t>(n_pts));
    for (PointId& p : c.leaf_pts)
      if (!r.u32(p)) return corrupt("nodes record truncated (leaf points)");
    if (!r.f64(c.max_priority) || !r.u32(c.max_priority_id))
      return corrupt("nodes record truncated");
    // The points record precedes nodes in the checkpoint layout, so
    // all_points_ is already rehydrated and the SoA mirror can be rebuilt.
    core::refresh_leaf_soa(c, t.all_points_, dim);
  }
  if (r.remaining() != 0) return corrupt("nodes record has trailing bytes");
  if (next_node_id <= prev) return corrupt("next node id <= last restored id");
  t.pool_.finish_restore(next_node_id);
  return Status::Ok();
}

Status Checkpoint::read_storage(ByteReader& r, core::PimKdTree& t) {
  std::uint64_t P = 0;
  if (!r.u64(P)) return corrupt("storage record truncated");
  if (P != t.sys_.P()) return corrupt("storage record: module count mismatch");
  std::vector<std::uint8_t> alive(static_cast<std::size_t>(P));
  for (std::uint8_t& a : alive)
    if (!r.u8(a)) return corrupt("storage record truncated (alive bitmap)");
  // Kill dead modules first: crash_module zeroes their (still empty) storage
  // ledger, and the rehydration below then skips them — intent (the
  // registration lists) is restored, physical state stays missing, exactly
  // as before the save.
  for (std::size_t m = 0; m < P; ++m)
    if (!alive[m]) t.sys_.crash_module(m);

  std::vector<std::uint64_t> words(static_cast<std::size_t>(P), 0);
  std::uint64_t n_entries = 0;
  if (!r.u64(n_entries)) return corrupt("storage record truncated");
  core::NodeId prev = 0;
  for (std::uint64_t i = 0; i < n_entries; ++i) {
    core::NodeId id = 0;
    std::uint32_t n_mods = 0;
    if (!r.u64(id) || !r.u32(n_mods))
      return corrupt("storage record truncated (registry)");
    if (id <= prev) return corrupt("storage record: registry ids not ascending");
    prev = id;
    if (!t.pool_.contains(id))
      return corrupt("storage record: registry entry for unknown node");
    // Physical rehydration on alive modules, with DistStore::add_copy's
    // accounting: one node record per ref, the leaf payload once per module.
    core::CopyTable& table = t.pool_.cold(id).copies;
    for (std::uint32_t j = 0; j < n_mods; ++j) {
      std::uint32_t m = 0;
      if (!r.u32(m)) return corrupt("storage record truncated (registry)");
      if (m >= P) return corrupt("storage record: module index out of range");
      core::Replica& rep = t.store_.register_copy(table, m);
      if (alive[m]) words[m] += t.store_.install(id, rep);
    }
  }
  // Storage is charged (a restore re-materializes physically held words);
  // communication is not — rehydration is host-side, not a PIM transfer.
  for (std::size_t m = 0; m < P; ++m)
    if (words[m])
      t.sys_.metrics().add_storage(m, static_cast<std::int64_t>(words[m]));

  std::uint64_t n_stale = 0;
  if (!r.u64(n_stale)) return corrupt("storage record truncated");
  for (std::uint64_t i = 0; i < n_stale; ++i) {
    core::NodeId id = 0;
    std::uint32_t m = 0;
    double counter = 0;
    if (!r.u64(id) || !r.u32(m) || !r.f64(counter))
      return corrupt("storage record truncated (stale counters)");
    if (m >= P) return corrupt("storage record: stale-counter module range");
    if (!alive[m]) continue;
    core::Replica* rep = t.store_.mutable_copy(id, m);
    if (rep == nullptr)
      return corrupt("storage record: stale counter for absent copy");
    rep->counter = counter;
  }

  std::uint64_t n_overrides = 0;
  if (!r.u64(n_overrides))
    return corrupt("storage record truncated (placement overrides)");
  if (n_overrides != 0)
    return corrupt(
        "storage record carries placement overrides (live migration was "
        "removed)");
  if (r.remaining() != 0) return corrupt("storage record has trailing bytes");
  return Status::Ok();
}

Status Checkpoint::serialize(const core::PimKdTree& tree, std::uint64_t wal_seq,
                             std::vector<std::uint8_t>& out, Info* info) {
  out.clear();
  out.insert(out.end(), kMagic, kMagic + sizeof kMagic);
  ByteWriter meta, host, nodes, storage;
  write_meta(tree, wal_seq, meta);
  write_host(tree, host);
  write_nodes(tree, nodes);
  write_storage(tree, storage);

  append_record(out, kTagMeta, meta.bytes());
  append_record(out, kTagHost, host.bytes());
  append_record(out, kTagNodes, nodes.bytes());
  append_record(out, kTagStorage, storage.bytes());
  append_record(out, kTagEnd, {});

  if (info) {
    info->mutation_epoch = tree.mutation_epoch();
    info->wal_seq = wal_seq;
    std::uint64_t h = kFnvOffset;
    h = fnv1a(h, host.bytes().data(), host.size());
    h = fnv1a(h, nodes.bytes().data(), nodes.size());
    h = fnv1a(h, storage.bytes().data(), storage.size());
    info->state_hash = h;
    info->bytes = out.size();
  }
  return Status::Ok();
}

Status Checkpoint::save(const core::PimKdTree& tree, const std::string& path,
                        std::uint64_t wal_seq, Info* info) {
  std::vector<std::uint8_t> bytes;
  if (Status s = serialize(tree, wal_seq, bytes, info); !s.ok()) return s;
  return write_file_atomic(path, bytes);
}

std::uint64_t Checkpoint::hash(const core::PimKdTree& tree) {
  std::vector<std::uint8_t> bytes;
  Info info;
  if (!serialize(tree, 0, bytes, &info).ok()) return 0;
  return info.state_hash;
}

Status Checkpoint::load(const std::string& path,
                        std::unique_ptr<core::PimKdTree>& out, Info* info) {
  out.reset();
  std::vector<std::uint8_t> buf;
  if (Status s = read_file(path, buf); !s.ok()) return s;
  if (buf.size() < sizeof kMagic ||
      std::memcmp(buf.data(), kMagic, sizeof kMagic) != 0)
    return corrupt("bad magic");

  std::size_t pos = sizeof kMagic;
  const std::uint32_t order[] = {kTagMeta, kTagHost, kTagNodes, kTagStorage,
                                 kTagEnd};
  Record recs[5];
  for (std::size_t i = 0; i < 5; ++i) {
    if (!read_record(buf, pos, recs[i]))
      return corrupt("record framing or CRC failure");
    if (recs[i].tag != order[i]) return corrupt("records out of order");
  }

  Info local;
  core::PimKdConfig cfg;
  {
    ByteReader r(recs[0].body, recs[0].len);
    if (Status s = read_meta(r, cfg, local); !s.ok()) return s;
  }
  std::unique_ptr<core::PimKdTree> tree;
  try {
    tree = std::make_unique<core::PimKdTree>(cfg);
  } catch (const std::exception& ex) {
    return corrupt(std::string("config rejected: ") + ex.what());
  }
  std::uint64_t next_node_id = 0;
  {
    ByteReader r(recs[1].body, recs[1].len);
    if (Status s = read_host(r, *tree, next_node_id); !s.ok()) return s;
  }
  {
    ByteReader r(recs[2].body, recs[2].len);
    if (Status s = read_nodes(r, *tree, next_node_id); !s.ok()) return s;
  }
  {
    ByteReader r(recs[3].body, recs[3].len);
    if (Status s = read_storage(r, *tree); !s.ok()) return s;
  }
  if (tree->root_ != core::kNoNode && !tree->pool_.contains(tree->root_))
    return corrupt("root node missing from the pool");
  tree->mutation_epoch_ = local.mutation_epoch;

  if (info) {
    std::uint64_t h = kFnvOffset;
    h = fnv1a(h, recs[1].body, recs[1].len);
    h = fnv1a(h, recs[2].body, recs[2].len);
    h = fnv1a(h, recs[3].body, recs[3].len);
    local.state_hash = h;
    local.bytes = buf.size();
    *info = local;
  }
  out = std::move(tree);
  return Status::Ok();
}

}  // namespace pimkd::durability
