// Serving benchmark program (see perfbench/NOTES.md).
//
// One closed-loop client thread pushes a seeded request stream through the
// public serve entry points — serve::BatchScheduler over a PimKdTree (with a
// durability::Manager for update_wal) or router::Frontend over a
// router::Router — submitting one request at a time and calling pump() after
// every submit, so at most one 256-request epoch is outstanding.
//
//   --trace 0  set-up repeated kSetupRepeats times, an untimed warm-up, a
//              timed window of a fixed number of epochs (about --seconds
//              long), then untimed checks. Prints the end-to-end metrics.
//   --trace 1  three passes over the same epochs on separately built
//              instances: (A) untraced serve, (B) serve with spans around
//              submit/pump/flush, (C) a hand-batched replay that calls each
//              layer's public functions inside spans. Prints the per-layer
//              metrics and writes the spans as JSONL.
//
// Every run checks its answers; any mismatch throws CheckFailure, which
// exits 1 without printing metrics. The last stdout line is one JSON object;
// perfbench/run.py turns it into the benchmark's result line.
#include <sched.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "durability/manager.hpp"
#include "kdtree/bruteforce.hpp"
#include "parallel/thread_pool.hpp"
#include "router/frontend.hpp"
#include "serve/scheduler.hpp"
#include "serve/workload.hpp"
#include "util/kernels.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"

namespace {

using namespace pimkd;
namespace fs = std::filesystem;
using core::OpKind;
using core::Response;

// --- Fixed settings (NOTES.md "Common settings") ----------------------------
constexpr std::size_t kInitialPoints = 1u << 18;
constexpr std::size_t kModules = 64;
constexpr std::size_t kBatch = 256;
constexpr std::size_t kShards = 4;
constexpr int kDim = 2;
constexpr double kZipfTheta = 0.99;
// Untimed epochs before the timed window; they also fill caches and the
// allocator, and are what the --trace 0 replay check re-executes.
constexpr std::size_t kWarmupEpochs = 128;
// Minimum epochs the time metrics rest on, so >= 10 epochs lie beyond p99.
// The modeled metrics are taken over exactly the first this-many timed
// epochs, so they are a pure function of the seed and repeat bit for bit.
constexpr std::size_t kMinEpochs = 1000;
// The timed window is cut into blocks of about this length. On a shared VM
// the hypervisor steals CPU from the whole VM in bursts, and a few percent
// of steal slows these barrier-synchronized epochs by tens of percent, and
// their p99 several-fold. Time metrics are taken over the least-stolen
// blocks, at least kMinEpochs epochs of them (quiet_blocks).
constexpr std::uint64_t kBlockNs = 500'000'000;
constexpr std::size_t kSetupRepeats = 5;
// Untimed epochs after the window whose reads are checked against brute force.
constexpr std::size_t kCheckEpochs = 4;
constexpr std::size_t kCheckReadsPerEpoch = 48;
// Latency buffer, touched up front so its size does not follow throughput
// into peak RSS. A window that fills it ends early.
constexpr std::size_t kMaxTimedRequests = 6u << 20;

struct CheckFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

[[noreturn]] void fail(const std::string& what) { throw CheckFailure(what); }

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// --- Workloads ----------------------------------------------------------------

enum class Backend { kTree, kTreeWal, kRouter };

struct WorkloadDef {
  const char* name;
  serve::MixKind mix;
  double zipf_theta;  // 0 = uniform keys
  Backend backend;
  // Timed epochs per second of --seconds. A constant, not a measurement:
  // the work per epoch drifts as the stream runs (update_wal's modeled
  // words per op rise from ~60 to ~85 over its first 4000 epochs), so a
  // window of fixed time would time a later, costlier stretch on a faster
  // build. A fixed number of epochs times the same stretch on every build.
  // Set near the rates on a 4-vCPU Xeon (AVX2) VM, so a window lasts about
  // --seconds there.
  double epochs_per_s;
};

constexpr WorkloadDef kWorkloads[] = {
    {"knn_read", serve::MixKind::kReadHeavy, kZipfTheta, Backend::kTree, 560},
    {"update_wal", serve::MixKind::kUpdateHeavy, 0.0, Backend::kTreeWal, 110},
    {"scan_router", serve::MixKind::kScanHeavy, 0.0, Backend::kRouter, 110},
};

serve::WorkloadSpec make_spec(const WorkloadDef& w, std::uint64_t seed) {
  serve::WorkloadSpec s = serve::mix_spec(w.mix);
  s.initial_points = kInitialPoints;
  s.dim = kDim;
  s.seed = seed;
  s.zipf_theta = w.zipf_theta;
  return s;
}

// One epoch of the stream: kBatch requests in arrival order. Inserts are
// assigned ids first_insert_id, first_insert_id + 1, ... in that order, and
// every erase targets an id that is live when it arrives.
struct Epoch {
  std::vector<core::Request> ops;
  PointId first_insert_id = 0;
};

// The request stream, one epoch at a time. It makes exactly the draws
// serve::gen_serve_workload makes (same seeds, same order, same live-set
// model), but keeps 2-D coordinates per id instead of a materialized
// WorkloadOp (~0.5 KiB) per request, so a multi-million-request window costs
// a few MiB and generation stays outside the timed epochs.
class OpStream {
 public:
  OpStream(const serve::WorkloadSpec& spec, std::span<const Point> initial)
      : spec_(spec),
        rng_(spec.seed ^ 0x5e17e5e17eULL),
        zipf_(std::max<std::size_t>(spec.initial_points, 1024),
              spec.zipf_theta > 0 ? spec.zipf_theta : 0.99, spec.seed + 17) {
    coords_.reserve(initial.size());
    for (const Point& p : initial) coords_.push_back({p[0], p[1]});
    live_.resize(initial.size());
    std::iota(live_.begin(), live_.end(), PointId{0});
    const double sum = spec.f_knn + spec.f_range + spec.f_radius +
                       spec.f_radius_count + spec.f_insert + spec.f_erase;
    c_knn_ = spec.f_knn / sum;
    c_range_ = c_knn_ + spec.f_range / sum;
    c_radius_ = c_range_ + spec.f_radius / sum;
    c_rcount_ = c_radius_ + spec.f_radius_count / sum;
    c_insert_ = c_rcount_ + spec.f_insert / sum;
  }

  void next(Epoch& ep) {
    ep.ops.clear();
    ep.first_insert_id = static_cast<PointId>(coords_.size());
    for (std::size_t i = 0; i < kBatch; ++i) ep.ops.push_back(next_op());
  }

  Point point(PointId id) const {
    Point p;
    p[0] = coords_[id][0];
    p[1] = coords_[id][1];
    return p;
  }
  // Live ids, ascending (the state reads of the next epoch observe).
  std::vector<PointId> live_sorted() const {
    std::vector<PointId> v = live_;
    std::sort(v.begin(), v.end());
    return v;
  }
  std::size_t live_count() const { return live_.size(); }

 private:
  std::size_t pick_live_index() {
    if (spec_.zipf_theta > 0) return zipf_.pick(rng_) % live_.size();
    return static_cast<std::size_t>(rng_.next_below(live_.size()));
  }

  core::Request next_op() {
    const int dim = spec_.dim;
    double u = rng_.next_double();
    if (live_.empty() && u >= c_insert_) u = c_rcount_;
    if (u < c_rcount_) {
      const PointId key = live_.empty()
                              ? static_cast<PointId>(rng_.next_below(coords_.size()))
                              : live_[pick_live_index()];
      Point q = point(key);
      for (int d = 0; d < dim; ++d) q[d] += 0.01 * rng_.next_gaussian();
      if (u < c_knn_) return core::Request::knn(q, spec_.knn_k, spec_.knn_eps);
      if (u < c_range_) {
        Box b = Box::empty(dim);
        for (int d = 0; d < dim; ++d) {
          b.lo[d] = q[d] - spec_.scan_halfwidth;
          b.hi[d] = q[d] + spec_.scan_halfwidth;
        }
        return core::Request::range(b);
      }
      if (u < c_radius_) return core::Request::radius_report(q, spec_.radius);
      return core::Request::radius_count(q, spec_.radius);
    }
    if (u < c_insert_) {
      Point p;
      for (int d = 0; d < dim; ++d) p[d] = rng_.next_double();
      const PointId id = static_cast<PointId>(coords_.size());
      coords_.push_back({p[0], p[1]});
      live_.push_back(id);
      return core::Request::insert(p);
    }
    const std::size_t at = pick_live_index();
    const PointId id = live_[at];
    live_[at] = live_.back();
    live_.pop_back();
    return core::Request::erase(id);
  }

  serve::WorkloadSpec spec_;
  Rng rng_;
  ZipfPicker zipf_;
  std::vector<std::array<Coord, 2>> coords_;  // every id ever assigned
  std::vector<PointId> live_;
  double c_knn_ = 0, c_range_ = 0, c_radius_ = 0, c_rcount_ = 0, c_insert_ = 0;
};

bool same_request(const core::Request& x, const core::Request& y) {
  return x.kind == y.kind && x.point.x == y.point.x && x.id == y.id &&
         x.box.lo.x == y.box.lo.x && x.box.hi.x == y.box.hi.x && x.k == y.k &&
         x.eps == y.eps && x.radius == y.radius;
}

// OpStream must stay the repo's named mix: its first epochs must equal what
// serve::gen_serve_workload makes for the same spec.
void check_stream(serve::WorkloadSpec spec, std::span<const Point> initial,
                  std::size_t epochs) {
  spec.requests = epochs * kBatch;
  const serve::ServeWorkload ref = serve::gen_serve_workload(spec);
  const std::string what = std::string(serve::mix_name(spec.mix)) + " stream: ";
  if (ref.initial.size() != initial.size() ||
      !std::equal(initial.begin(), initial.end(), ref.initial.begin(),
                  [](const Point& p, const Point& q) { return p.x == q.x; }))
    fail(what + "initial points differ from serve::gen_serve_workload's");
  OpStream stream(spec, initial);
  Epoch ep;
  std::size_t i = 0;
  for (std::size_t e = 0; e < epochs; ++e) {
    stream.next(ep);
    for (const core::Request& r : ep.ops) {
      if (!same_request(r, serve::to_request(ref.ops[i])))
        fail(what + "request " + std::to_string(i) +
             " differs from serve::gen_serve_workload's");
      ++i;
    }
  }
}

// --- Spans --------------------------------------------------------------------

struct Span {
  const char* name;  // static string
  std::uint32_t epoch;
  std::int32_t parent;  // index of the parent span in this pass, -1 = root
  std::uint64_t start, end;  // steady_clock ns
  // An aggregate span covers several calls (serve.submit_loop: the epoch's
  // submits); busy_ns is the time inside them. Otherwise calls == 1 and
  // busy_ns == end - start.
  std::uint32_t calls;
  std::uint64_t busy_ns;
};

// In-memory span recorder for one pass; written out as JSONL at exit.
class Tracer {
 public:
  std::int32_t open(const char* name, std::uint32_t epoch, std::int32_t parent) {
    spans_.push_back(Span{name, epoch, parent, now_ns(), 0, 1, 0});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void close(std::int32_t id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end = now_ns();
    s.busy_ns = s.end - s.start;
  }
  void add(const Span& s) { spans_.push_back(s); }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

// RAII span; a null tracer makes it a no-op, so traced and untraced passes
// run the same code.
class Scope {
 public:
  Scope(Tracer* t, const char* name, std::uint32_t epoch, std::int32_t parent)
      : t_(t), id_(t ? t->open(name, epoch, parent) : -1) {}
  ~Scope() {
    if (t_) t_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::int32_t id() const { return id_; }

 private:
  Tracer* t_;
  std::int32_t id_;
};

// Busy time by span name over epochs [lo, hi).
std::map<std::string, std::uint64_t> totals(const Tracer& t, std::size_t lo,
                                            std::size_t hi) {
  std::map<std::string, std::uint64_t> out;
  for (const Span& s : t.spans())
    if (s.epoch >= lo && s.epoch < hi) out[s.name] += s.busy_ns;
  return out;
}

void write_spans(const std::string& path,
                 const std::vector<std::pair<const char*, const Tracer*>>& passes) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) fail("cannot write span file " + path);
  std::uint64_t origin = UINT64_MAX;
  for (const auto& [pass, t] : passes)
    for (const Span& s : t->spans()) origin = std::min(origin, s.start);
  for (const auto& [pass, t] : passes) {
    const auto& sp = t->spans();
    for (std::size_t i = 0; i < sp.size(); ++i) {
      const Span& s = sp[i];
      std::fprintf(f,
                   "{\"pass\":\"%s\",\"id\":%zu,\"parent\":%d,\"epoch\":%u,"
                   "\"name\":\"%s\",\"start_ns\":%" PRIu64 ",\"end_ns\":%" PRIu64
                   ",\"calls\":%u,\"busy_ns\":%" PRIu64 "}\n",
                   pass, i, s.parent, s.epoch, s.name, s.start - origin,
                   s.end - origin, s.calls, s.busy_ns);
    }
  }
  if (std::fclose(f) != 0) fail("cannot write span file " + path);
}

// --- Response checks ----------------------------------------------------------

struct Hash {
  std::uint64_t h = 0x243f6a8885a308d3ULL;
  void mix(std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
  }
  void mix_double(double d) {
    std::uint64_t b = 0;
    std::memcpy(&b, &d, sizeof b);
    mix(b);
  }
};

// Every payload field of a response plus its epoch stamp — everything but
// the wall-clock ticks, which differ between passes by construction.
void hash_response(Hash& h, const Response& r) {
  h.mix(static_cast<std::uint64_t>(r.kind));
  h.mix(r.epoch);
  h.mix(r.error.size());
  for (const char c : r.error) h.mix(static_cast<unsigned char>(c));
  h.mix(r.inserted_id);
  h.mix(r.erased);
  h.mix(r.neighbors.size());
  for (const Neighbor& n : r.neighbors) {
    h.mix(n.id);
    h.mix_double(n.sq_dist);
  }
  h.mix(r.ids.size());
  for (const PointId id : r.ids) h.mix(id);
  h.mix(r.count);
}

// Per-request checks that hold for every epoch of these workloads: no
// request fails, inserts get the next sequential id, and every erase hits a
// live id (the stream never erases an id twice).
void check_epoch(const Epoch& ep, const std::vector<Response>& resp,
                 std::size_t epoch) {
  PointId next_id = ep.first_insert_id;
  for (std::size_t i = 0; i < ep.ops.size(); ++i) {
    const Response& r = resp[i];
    const char* bad = nullptr;
    if (r.kind != ep.ops[i].kind) bad = "response kind mismatch";
    else if (!r.ok()) bad = r.error.c_str();
    else if (r.kind == OpKind::kInsert && r.inserted_id != next_id++)
      bad = "inserted id is not the next sequential id";
    else if (r.kind == OpKind::kErase && !r.erased)
      bad = "erase of a live id reported not erased";
    if (bad)
      fail("epoch " + std::to_string(epoch) + " request " + std::to_string(i) +
           " (" + core::op_name(ep.ops[i].kind) + "): " + bad);
  }
}

// Compares a seeded sample of an epoch's reads with kdtree/bruteforce over
// the live set the epoch's reads observe.
std::size_t check_brute(const Epoch& ep, const std::vector<Response>& resp,
                        const std::vector<PointId>& live_ids,
                        const OpStream& stream, Rng& rng, std::size_t epoch) {
  std::vector<Point> pts;
  pts.reserve(live_ids.size());
  for (const PointId id : live_ids) pts.push_back(stream.point(id));
  std::vector<std::size_t> reads;
  for (std::size_t i = 0; i < ep.ops.size(); ++i)
    if (!core::is_update(ep.ops[i].kind)) reads.push_back(i);
  std::size_t checked = 0;
  for (std::size_t s = 0; s < kCheckReadsPerEpoch && !reads.empty(); ++s) {
    const std::size_t i = reads[rng.next_below(reads.size())];
    const core::Request& q = ep.ops[i];
    const Response& r = resp[i];
    const std::string where = "brute-force check, epoch " + std::to_string(epoch) +
                              " request " + std::to_string(i) + " (" +
                              core::op_name(q.kind) + ")";
    const auto global = [&](std::vector<PointId> idx) {
      for (PointId& x : idx) x = live_ids[x];
      return idx;
    };
    switch (q.kind) {
      case OpKind::kKnn: {
        std::vector<Neighbor> want = brute_knn(pts, kDim, q.point, q.k);
        for (Neighbor& n : want) n.id = live_ids[n.id];
        if (want != r.neighbors) fail(where + ": kNN result differs");
        break;
      }
      case OpKind::kRange:
        if (global(brute_range(pts, kDim, q.box)) != r.ids)
          fail(where + ": range result differs");
        break;
      case OpKind::kRadius:
        if (global(brute_radius(pts, kDim, q.point, q.radius)) != r.ids)
          fail(where + ": radius result differs");
        break;
      case OpKind::kRadiusCount:
        if (brute_radius(pts, kDim, q.point, q.radius).size() != r.count)
          fail(where + ": radius count differs");
        break;
      default:
        break;
    }
    ++checked;
  }
  return checked;
}

// --- The system under test ----------------------------------------------------

// Removes the directory on construction and destruction.
class ScratchDir {
 public:
  explicit ScratchDir(std::string path) : path_(std::move(path)) {
    fs::remove_all(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

 private:
  std::string path_;
};

// Counters the ledger-side metrics are computed from, summed over shards.
struct Counters {
  pim::Snapshot snap;
  core::PimKdTree::OpStats ops;
  std::vector<pim::LoadReport> loads;  // one per ledger (shard)
  durability::ManagerStats wal;
  std::uint64_t storage_words = 0;
};

// One separately built instance: the index (a tree, or a router over K
// trees), its WAL manager, and — for serve passes — its serve front-end.
class System {
 public:
  System(const WorkloadDef& w, std::span<const Point> initial,
         const std::string& wal_dir) {
    const core::PimKdConfig cfg = bench::default_cfg(kModules, kDim);
    const std::uint64_t t0 = now_ns();
    if (w.backend == Backend::kRouter) {
      router::RouterConfig rc;
      rc.shards = kShards;
      rc.tree = cfg;
      router_ = std::make_unique<router::Router>(rc, initial);
    } else {
      tree_ = std::make_unique<core::PimKdTree>(cfg, initial);
    }
    const std::uint64_t t1 = now_ns();
    build_s_ = double(t1 - t0) * 1e-9;
    if (w.backend == Backend::kTreeWal) {
      wal_dir_ = std::make_unique<ScratchDir>(wal_dir);
      durability::ManagerConfig mc;
      mc.dir = wal_dir;
      mc.sync = durability::SyncPolicy::kEveryBatch;
      const Status s = durability::Manager::create(mc, *tree_, wal_);
      if (!s.ok()) fail("durability::Manager::create: " + s.message);
      create_s_ = double(now_ns() - t1) * 1e-9;
    }
  }

  double build_s() const { return build_s_; }
  double create_s() const { return create_s_; }
  double setup_s() const { return build_s_ + create_s_; }
  kernels::Isa isa() const {
    return tree_ ? tree_->kernel_isa() : router_->shard_tree(0).kernel_isa();
  }

  // --- Serve front-end ---------------------------------------------------------
  void start_serving() {
    if (router_) {
      router::FrontendConfig fc;
      fc.policy = serve::Policy::kFixedSize;
      fc.batch_size = kBatch;
      frontend_ = std::make_unique<router::Frontend>(*router_, fc);
    } else {
      serve::SchedulerConfig sc;
      sc.policy = serve::Policy::kFixedSize;
      sc.batch_size = kBatch;
      sc.clock = now_ns;
      sc.durability = wal_.get();
      sched_ = std::make_unique<serve::BatchScheduler>(*tree_, sc);
    }
  }
  std::future<Response> submit(serve::Request r, std::uint64_t tick) {
    return sched_ ? sched_->submit(std::move(r), tick)
                  : frontend_->submit(std::move(r), tick);
  }
  std::size_t pump(std::uint64_t tick) {
    return sched_ ? sched_->pump(tick) : frontend_->pump(tick);
  }
  void flush(std::uint64_t tick) {
    if (sched_) sched_->flush(tick);
    else frontend_->flush(tick);
  }
  struct FrontCounts {
    std::uint64_t submitted = 0, completed = 0, rejected = 0;
    std::uint64_t reads = 0, fanout_reads = 0, knn_second_phase = 0;
  };
  FrontCounts front_counts() const {
    FrontCounts c;
    if (sched_) {
      const serve::ServeStats s = sched_->stats();
      c = {s.submitted, s.completed, s.rejected, s.reads, 0, 0};
    } else {
      const router::FrontendStats s = frontend_->stats();
      c = {s.submitted, s.completed, s.rejected, s.reads, s.fanout_reads,
           s.knn_second_phase};
    }
    return c;
  }

  // --- Ledger side -------------------------------------------------------------
  std::vector<const core::PimKdTree*> trees() const {
    std::vector<const core::PimKdTree*> out;
    if (tree_) out.push_back(tree_.get());
    else
      for (std::size_t s = 0; s < router_->shards(); ++s)
        out.push_back(&router_->shard_tree(s));
    return out;
  }
  std::size_t live() const { return tree_ ? tree_->size() : router_->size(); }
  Counters counters() const {
    Counters c;
    for (const core::PimKdTree* t : trees()) {
      const pim::Snapshot s = t->metrics().snapshot();
      c.snap.cpu_work += s.cpu_work;
      c.snap.pim_work += s.pim_work;
      c.snap.pim_time += s.pim_time;
      c.snap.communication += s.communication;
      c.snap.comm_time += s.comm_time;
      c.snap.rounds += s.rounds;
      const core::PimKdTree::OpStats& o = t->op_stats();
      c.ops.rebuilds += o.rebuilds;
      c.ops.rebuild_points += o.rebuild_points;
      c.ops.words_materialize += o.words_materialize;
      c.ops.words_rebuild_collect += o.words_rebuild_collect;
      c.ops.words_counters += o.words_counters;
      c.loads.push_back(t->metrics().load_report());
      c.storage_words += t->storage_words();
    }
    if (wal_) c.wal = wal_->stats();
    return c;
  }

  // --- Hand-batched replay --------------------------------------------------------
  // Applies one epoch through the layers' public functions in the order the
  // serve path calls them: read groups as PimKdTree::query groups them (one
  // group per kind here: k, eps and radius are fixed per stream), then the
  // insert batch, the erase batch and the WAL frame. Responses are stamped
  // with epochs by the serving layer's rule, so they compare byte for byte.
  void replay(const Epoch& ep, Tracer* tr, std::uint32_t e, std::int32_t root,
              std::vector<Response>& out) {
    const auto& ops = ep.ops;
    out.assign(ops.size(), Response{});
    std::vector<std::size_t> idx[4];  // knn, range, radius, radius_count
    std::vector<std::size_t> ins, del;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      out[i].kind = ops[i].kind;
      switch (ops[i].kind) {
        case OpKind::kKnn: idx[0].push_back(i); break;
        case OpKind::kRange: idx[1].push_back(i); break;
        case OpKind::kRadius: idx[2].push_back(i); break;
        case OpKind::kRadiusCount: idx[3].push_back(i); break;
        case OpKind::kInsert: ins.push_back(i); break;
        case OpKind::kErase: del.push_back(i); break;
      }
    }
    for (std::size_t g = 0; g < 4; ++g)
      for (const std::size_t i : idx[g])
        if (ops[i].k != ops[idx[g][0]].k || ops[i].eps != ops[idx[g][0]].eps ||
            ops[i].radius != ops[idx[g][0]].radius)
          fail("replay: a read group with mixed parameters");
    const std::uint64_t read_epoch = epoch_;
    for (std::size_t i = 0; i < ops.size(); ++i) out[i].epoch = read_epoch;

    if (router_)
      replay_router_reads(ops, idx, tr, e, root, out);
    else
      replay_tree_reads(ops, idx, tr, e, root, out);

    bool changed = false;
    std::vector<Point> pts;
    for (const std::size_t i : ins) pts.push_back(ops[i].point);
    const std::uint64_t base = tree_ ? tree_->next_point_id() : 0;
    if (!pts.empty()) {
      std::vector<PointId> ids;
      {
        Scope s(tr, router_ ? "router.insert" : "core.insert", e, root);
        ids = router_ ? router_->insert(pts) : tree_->insert(pts);
      }
      for (std::size_t j = 0; j < ins.size(); ++j) out[ins[j]].inserted_id = ids[j];
      changed = true;
    }
    std::vector<PointId> erase_ids, erased;
    if (!del.empty()) {
      std::unordered_set<PointId> claimed;
      for (const std::size_t i : del) {
        const PointId id = ops[i].id;
        const bool live = router_ ? router_->is_live(id) : tree_->is_live(id);
        out[i].erased = live && claimed.insert(id).second;
        erase_ids.push_back(id);
        if (out[i].erased) erased.push_back(id);
      }
      {
        Scope s(tr, router_ ? "router.erase" : "core.erase", e, root);
        if (router_) router_->erase(erase_ids);
        else tree_->erase(erase_ids);
      }
      changed = changed || !erased.empty();
    }
    if (wal_) {
      Scope s(tr, "durability.log_batch", e, root);
      Status st = Status::Ok();
      if (!pts.empty() || !erased.empty())
        st = wal_->log_batch(tree_->mutation_epoch(), base, std::move(pts),
                             std::move(erased));
      if (st.ok()) st = wal_->maybe_checkpoint(*tree_);
      if (!st.ok()) fail("replay: durability: " + st.message);
    }
    if (changed) ++epoch_;
    for (const std::size_t i : ins) out[i].epoch = epoch_;
    for (const std::size_t i : del) out[i].epoch = epoch_;
  }

 private:
  void replay_tree_reads(const std::vector<core::Request>& ops,
                         const std::vector<std::size_t> (&idx)[4], Tracer* tr,
                         std::uint32_t e, std::int32_t root,
                         std::vector<Response>& out) {
    core::PimKdTree& t = *tree_;
    if (!idx[0].empty()) {
      std::vector<Point> qs;
      for (const std::size_t i : idx[0]) qs.push_back(ops[i].point);
      std::vector<std::vector<Neighbor>> r;
      {
        Scope s(tr, "core.knn", e, root);
        r = t.knn(qs, ops[idx[0][0]].k, ops[idx[0][0]].eps);
      }
      for (std::size_t j = 0; j < idx[0].size(); ++j)
        out[idx[0][j]].neighbors = std::move(r[j]);
    }
    if (!idx[1].empty()) {
      std::vector<Box> bs;
      for (const std::size_t i : idx[1]) bs.push_back(ops[i].box);
      std::vector<std::vector<PointId>> r;
      {
        Scope s(tr, "core.range", e, root);
        r = t.range(bs);
      }
      for (std::size_t j = 0; j < idx[1].size(); ++j)
        out[idx[1][j]].ids = std::move(r[j]);
    }
    if (!idx[2].empty()) {
      std::vector<Point> cs;
      for (const std::size_t i : idx[2]) cs.push_back(ops[i].point);
      std::vector<std::vector<PointId>> r;
      {
        Scope s(tr, "core.radius", e, root);
        r = t.radius(cs, ops[idx[2][0]].radius);
      }
      for (std::size_t j = 0; j < idx[2].size(); ++j)
        out[idx[2][j]].ids = std::move(r[j]);
    }
    if (!idx[3].empty()) {
      std::vector<Point> cs;
      for (const std::size_t i : idx[3]) cs.push_back(ops[i].point);
      std::vector<std::size_t> r;
      {
        Scope s(tr, "core.radius_count", e, root);
        r = t.radius_count(cs, ops[idx[3][0]].radius);
      }
      for (std::size_t j = 0; j < idx[3].size(); ++j) out[idx[3][j]].count = r[j];
    }
  }

  // Router::query once per read kind, in the same kind order, so each
  // kind's time is its own span.
  void replay_router_reads(const std::vector<core::Request>& ops,
                           const std::vector<std::size_t> (&idx)[4], Tracer* tr,
                           std::uint32_t e, std::int32_t root,
                           std::vector<Response>& out) {
    static const char* const kNames[4] = {"router.query.knn", "router.query.range",
                                          "router.query.radius",
                                          "router.query.radius_count"};
    for (std::size_t g = 0; g < 4; ++g) {
      if (idx[g].empty()) continue;
      std::vector<core::Request> sub;
      for (const std::size_t i : idx[g]) sub.push_back(ops[i]);
      std::vector<Response> r;
      {
        Scope s(tr, kNames[g], e, root);
        r = router_->query(sub);
      }
      for (std::size_t j = 0; j < idx[g].size(); ++j) {
        Response& o = out[idx[g][j]];
        o.error = std::move(r[j].error);
        o.neighbors = std::move(r[j].neighbors);
        o.ids = std::move(r[j].ids);
        o.count = r[j].count;
      }
    }
  }

  double build_s_ = 0, create_s_ = 0;
  // Declaration order is destruction order reversed: the front-ends go
  // before the index and the WAL they point to, the WAL before its directory.
  std::unique_ptr<core::PimKdTree> tree_;
  std::unique_ptr<router::Router> router_;
  std::unique_ptr<ScratchDir> wal_dir_;
  std::unique_ptr<durability::Manager> wal_;
  std::unique_ptr<serve::BatchScheduler> sched_;
  std::unique_ptr<router::Frontend> frontend_;
  std::uint64_t epoch_ = 0;  // replay: the serving layer's epoch counter
};

// --- Driving --------------------------------------------------------------------

struct EpochTiming {
  std::uint64_t t0 = 0;      // first submit
  std::uint64_t t_done = 0;  // the pump that completed the epoch returned
  std::vector<std::uint64_t> submit;  // per request
};

// One epoch through the serve front-end, closed loop: submit, pump, repeat.
// Responses are collected after the clock stops.
void serve_epoch(System& sys, const Epoch& ep, Tracer* tr, std::uint32_t e,
                 EpochTiming& tm, std::vector<Response>& resp) {
  std::vector<std::future<Response>> futs;
  futs.reserve(ep.ops.size());
  tm.submit.resize(ep.ops.size());
  std::size_t done = 0;
  const std::int32_t root = tr ? tr->open("serve.epoch", e, -1) : -1;
  tm.t0 = now_ns();
  std::uint64_t t = tm.t0, tp = t, submit_ns = 0;
  for (std::size_t i = 0; i < ep.ops.size(); ++i) {
    tm.submit[i] = t;
    futs.push_back(sys.submit(serve::Request(ep.ops[i]), t));
    tp = now_ns();
    submit_ns += tp - t;
    const std::size_t n = sys.pump(tp);
    t = now_ns();
    if (tr && n) tr->add(Span{"serve.pump", e, root, tp, t, 1, t - tp});
    done += n;
  }
  tm.t_done = t;
  if (tr) {
    // One aggregate span for the submits (and the pumps between them that
    // found no full batch): 256 spans per epoch would dwarf everything else.
    tr->add(Span{"serve.submit_loop", e, root, tm.t0, tp,
                 static_cast<std::uint32_t>(ep.ops.size()), submit_ns});
    tr->close(root);
  }
  if (done != ep.ops.size())
    fail("epoch " + std::to_string(e) + ": " + std::to_string(done) +
         " requests completed by its pumps, expected " +
         std::to_string(ep.ops.size()));
  resp.clear();
  for (auto& f : futs) {
    if (f.wait_for(std::chrono::seconds(0)) != std::future_status::ready)
      fail("epoch " + std::to_string(e) + ": a future was not ready after the "
           "pump that completed its epoch");
    resp.push_back(f.get());
  }
}

std::uint64_t hash_epoch(const std::vector<Response>& resp) {
  Hash h;
  for (const Response& r : resp) hash_response(h, r);
  return h.h;
}

void check_front_counts(const System& sys, std::uint64_t expect_submitted) {
  const System::FrontCounts c = sys.front_counts();
  if (c.submitted != expect_submitted)
    fail("front-end counted " + std::to_string(c.submitted) +
         " submitted, the client submitted " + std::to_string(expect_submitted));
  if (c.completed + c.rejected != c.submitted)
    fail("completed + rejected != submitted (" + std::to_string(c.completed) +
         " + " + std::to_string(c.rejected) + " != " +
         std::to_string(c.submitted) + ")");
  if (c.rejected != 0) fail(std::to_string(c.rejected) + " requests rejected");
}

void check_same_ledger(const Counters& a, const Counters& b, const char* what) {
  const auto& x = a.snap;
  const auto& y = b.snap;
  if (x.cpu_work != y.cpu_work || x.pim_work != y.pim_work ||
      x.pim_time != y.pim_time || x.communication != y.communication ||
      x.comm_time != y.comm_time || x.rounds != y.rounds)
    fail(std::string(what) + ": Metrics::snapshot() differs: " + x.to_string() +
         " vs " + y.to_string());
  if (a.ops.rebuilds != b.ops.rebuilds ||
      a.ops.rebuild_points != b.ops.rebuild_points ||
      a.ops.words_counters != b.ops.words_counters ||
      a.ops.words_materialize != b.ops.words_materialize ||
      a.ops.words_rebuild_collect != b.ops.words_rebuild_collect)
    fail(std::string(what) + ": OpStats differ");
  if (a.storage_words != b.storage_words)
    fail(std::string(what) + ": storage words differ");
  if (a.wal.frames != b.wal.frames || a.wal.wal_bytes != b.wal.wal_bytes ||
      a.wal.syncs != b.wal.syncs)
    fail(std::string(what) + ": WAL frames/bytes/syncs differ");
}

// --- Output -----------------------------------------------------------------------

struct Metric {
  std::string name, unit;
  double value;
};

std::string metrics_json(const std::vector<Metric>& ms) {
  bench::Json o;
  for (const Metric& m : ms)
    o.raw(m.name, bench::Json().set("value", m.value).set("unit", m.unit).str());
  return o.str();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string out_dir = ".";
};

std::string fs_type(const std::string& dir) {
  struct statfs st {};
  if (statfs(dir.c_str(), &st) != 0) return "unknown";
  return st.f_type == 0x01021994 ? "tmpfs" : "other";
}

// CPUs this process may run on (its affinity mask), as `nproc` counts them.
std::uint64_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0)
    return static_cast<std::uint64_t>(sysconf(_SC_NPROCESSORS_ONLN));
  return static_cast<std::uint64_t>(CPU_COUNT(&set));
}

bench::Json meta(const Args& a, const WorkloadDef& w, kernels::Isa isa) {
  bench::Json m;
  const char* threads = std::getenv("PIMKD_THREADS");
  m.set("workload", w.name)
      .set("seed", a.seed)
      .set("seconds", a.seconds)
      .set("nproc", usable_cpus())
      .set("PIMKD_THREADS", threads ? threads : "")
      .set("pool_threads", ThreadPool::instance().size())
      .set("simd_isa", kernels::isa_name(isa))
      .set("build_type", PERFBENCH_BUILD_TYPE)
      .set("compiler", PERFBENCH_COMPILER)
      .set("n", kInitialPoints)
      .set("P", kModules)
      .set("batch", kBatch)
      .set("knn_k", make_spec(w, a.seed).knn_k)
      .set("mix", serve::mix_name(w.mix))
      .set("zipf_theta", w.zipf_theta)
      .set("warmup_epochs", kWarmupEpochs);
  if (w.backend == Backend::kRouter) m.set("shards", kShards);
  if (w.backend == Backend::kTreeWal)
    m.set("wal_sync", durability::sync_policy_name(durability::SyncPolicy::kEveryBatch))
        .set("wal_fs", fs_type(a.out_dir));
  return m;
}

// --- --trace 0: end-to-end run --------------------------------------------------

// Cumulative (steal, total) CPU ticks of the whole VM from the kernel's
// accounting; {0, 0} where /proc/stat is unavailable.
std::pair<std::uint64_t, std::uint64_t> vm_steal_ticks() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  std::uint64_t v[8] = {};
  if (!(f >> cpu) || cpu != "cpu") return {0, 0};
  std::uint64_t total = 0;
  for (std::uint64_t& x : v) {
    if (!(f >> x)) return {0, 0};
    total += x;
  }
  return {v[7], total};
}

struct Block {
  std::size_t first = 0, epochs = 0;  // timed epoch range
  std::uint64_t busy_ns = 0;
  double steal = 0;  // share of the VM's CPU ticks stolen during the block
};

// The blocks the time metrics use: every block stolen from no more than the
// block at which the least-stolen blocks first hold kMinEpochs epochs. So
// kMinEpochs is a floor, and on a quiet host (all blocks tied at 0 steal)
// the whole window counts. Without steal accounting every block counts.
std::vector<Block> quiet_blocks(const std::vector<Block>& blocks, bool have_steal) {
  if (!have_steal) return blocks;
  std::vector<Block> by_steal = blocks;
  std::stable_sort(by_steal.begin(), by_steal.end(),
                   [](const Block& x, const Block& y) { return x.steal < y.steal; });
  double limit = by_steal.back().steal;
  std::size_t epochs = 0;
  for (const Block& b : by_steal) {
    epochs += b.epochs;
    if (epochs >= kMinEpochs) {
      limit = b.steal;
      break;
    }
  }
  std::vector<Block> out;
  for (const Block& b : blocks)
    if (b.steal <= limit) out.push_back(b);
  return out;
}

int run_e2e(const Args& a, const WorkloadDef& w) {
  const serve::WorkloadSpec spec = make_spec(w, a.seed);
  const std::vector<Point> initial =
      gen_uniform({.n = kInitialPoints, .dim = kDim, .seed = a.seed});
  const std::string wal_dir = a.out_dir + "/wal-" + w.name + "-" +
                              std::to_string(getpid());

  // Set-up, repeated; the last instance serves.
  std::vector<double> setup;
  std::unique_ptr<System> sys;
  for (std::size_t r = 0; r < kSetupRepeats; ++r) {
    sys.reset();
    sys = std::make_unique<System>(w, initial, wal_dir);
    setup.push_back(sys->setup_s());
  }
  sys->start_serving();
  std::vector<std::uint32_t> lat(kMaxTimedRequests, 0);  // touched up front

  OpStream stream(spec, initial);
  Epoch ep;
  EpochTiming tm;
  std::vector<Response> resp;
  std::uint64_t submitted = 0;
  std::uint32_t e = 0;

  std::vector<std::uint64_t> warm_hash;
  for (; e < kWarmupEpochs; ++e) {
    stream.next(ep);
    serve_epoch(*sys, ep, nullptr, e, tm, resp);
    submitted += ep.ops.size();
    check_epoch(ep, resp, e);
    warm_hash.push_back(hash_epoch(resp));
  }
  const Counters warm = sys->counters();

  // Timed window.
  std::size_t timed = 0, nlat = 0;
  std::uint64_t busy_ns = 0;
  std::vector<std::uint64_t> epoch_busy;  // = its first (slowest) request's latency
  Counters model_end;
  std::size_t model_live = 0;
  std::vector<Block> blocks;
  auto ticks = vm_steal_ticks();
  const bool have_steal = ticks.second != 0;
  const std::uint64_t window_start = now_ns();
  const std::size_t window_epochs =
      std::max(kMinEpochs, static_cast<std::size_t>(a.seconds * w.epochs_per_s));
  const std::uint64_t max_window_ns =
      static_cast<std::uint64_t>(3e9 * double(window_epochs) / w.epochs_per_s);
  std::uint64_t block_start = window_start;
  bool capped = false;
  const auto close_block = [&](std::uint64_t now) {
    const auto t = vm_steal_ticks();
    Block b;
    b.first = blocks.empty() ? 0 : blocks.back().first + blocks.back().epochs;
    b.epochs = timed - b.first;
    b.busy_ns = std::accumulate(epoch_busy.begin() + static_cast<std::ptrdiff_t>(b.first),
                                epoch_busy.end(), std::uint64_t{0});
    b.steal = t.second > ticks.second
                  ? double(t.first - ticks.first) / double(t.second - ticks.second)
                  : 0.0;
    blocks.push_back(b);
    ticks = t;
    block_start = now;
  };
  while (true) {
    stream.next(ep);
    serve_epoch(*sys, ep, nullptr, e, tm, resp);
    submitted += ep.ops.size();
    check_epoch(ep, resp, e);
    busy_ns += tm.t_done - tm.t0;
    for (const std::uint64_t s : tm.submit)
      lat[nlat++] = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(tm.t_done - s, UINT32_MAX));
    epoch_busy.push_back(tm.t_done - tm.t0);
    ++timed;
    ++e;
    if (timed == kMinEpochs) {
      model_end = sys->counters();
      model_live = sys->live();
    }
    // On a machine that needs over 3x the nominal time for the window's
    // epochs, the window ends early (window_capped); below kMinEpochs it fails.
    const std::uint64_t now = now_ns();
    capped = nlat + kBatch > lat.size() || now - window_start >= max_window_ns;
    if (capped || timed == window_epochs) {
      close_block(now);
      break;
    }
    if (now - block_start >= kBlockNs) close_block(now);
  }
  const double window_s = double(now_ns() - window_start) * 1e-9;
  const std::uint64_t timed_requests = nlat;
  const double rss = peak_rss_mib();
  if (timed < kMinEpochs)
    fail("only " + std::to_string(timed) + " epochs timed; at least " +
         std::to_string(kMinEpochs) + " are needed (>= 10 beyond p99)");

  // Untimed brute-force check epochs.
  Rng check_rng(a.seed ^ 0xc0ffee5eedULL);
  std::size_t brute_checked = 0;
  for (std::size_t c = 0; c < kCheckEpochs; ++c, ++e) {
    const std::vector<PointId> live = stream.live_sorted();
    stream.next(ep);
    serve_epoch(*sys, ep, nullptr, e, tm, resp);
    submitted += ep.ops.size();
    check_epoch(ep, resp, e);
    brute_checked += check_brute(ep, resp, live, stream, check_rng, e);
  }
  sys->flush(now_ns());
  check_front_counts(*sys, submitted);
  const kernels::Isa isa = sys->isa();
  sys.reset();

  // Replay the warm-up epochs on a fresh instance: same responses, same
  // ledger, same WAL bytes.
  {
    System rsys(w, initial, wal_dir + "-replay");
    OpStream rstream(spec, initial);
    for (std::uint32_t r = 0; r < kWarmupEpochs; ++r) {
      rstream.next(ep);
      rsys.replay(ep, nullptr, r, -1, resp);
      if (hash_epoch(resp) != warm_hash[r])
        fail("replay: epoch " + std::to_string(r) +
             " responses differ from the serve run's");
    }
    check_same_ledger(warm, rsys.counters(), "replay after warm-up");
  }
  // After peak RSS is read, so the reference stream does not count in it.
  check_stream(spec, initial, kWarmupEpochs);

  // Time metrics over the quiet blocks' epochs, pooled.
  const std::vector<Block> used = quiet_blocks(blocks, have_steal);
  std::vector<double> lv, ev;  // request latencies; epoch (= max) latencies, ns
  std::uint64_t used_busy = 0;
  double used_steal = 0, all_steal = 0;
  for (const Block& b : used) {
    lv.insert(lv.end(), lat.begin() + static_cast<std::ptrdiff_t>(b.first * kBatch),
              lat.begin() + static_cast<std::ptrdiff_t>((b.first + b.epochs) * kBatch));
    ev.insert(ev.end(), epoch_busy.begin() + static_cast<std::ptrdiff_t>(b.first),
              epoch_busy.begin() + static_cast<std::ptrdiff_t>(b.first + b.epochs));
    used_busy += b.busy_ns;
    used_steal += b.steal * double(b.busy_ns);
  }
  for (const Block& b : blocks) all_steal += b.steal * double(b.busy_ns);
  const std::size_t used_epochs = ev.size();
  const double p50_ns = percentile(lv, 0.50), p99_ns = percentile(lv, 0.99);
  const std::size_t beyond = static_cast<std::size_t>(
      std::count_if(ev.begin(), ev.end(), [&](double m) { return m >= p99_ns; }));
  if (beyond < 10)
    fail("only " + std::to_string(beyond) + " epochs lie at or beyond p99");
  const pim::Snapshot d = model_end.snap - warm.snap;
  const double model_ops = double(kMinEpochs * kBatch);

  const std::vector<Metric> ms = {
      {"setup_s", "s", percentile(setup, 0.5)},
      {"throughput_ops", "ops/s", double(used_epochs * kBatch) / (double(used_busy) * 1e-9)},
      {"latency_p50_us", "us", p50_ns / 1e3},
      {"latency_p99_us", "us", p99_ns / 1e3},
      {"peak_rss_mb", "MiB", rss},
      {"comm_words_per_op", "words/op", double(d.communication) / model_ops},
      {"comm_time_per_op", "words/op", double(d.comm_time) / model_ops},
      {"rounds_per_batch", "rounds", double(d.rounds) / double(kMinEpochs)},
      {"storage_words_per_point", "words/point",
       double(model_end.storage_words) / double(model_live)},
  };
  bench::Json model;
  model.set("epochs", kMinEpochs)
      .set("communication", d.communication)
      .set("comm_time", d.comm_time)
      .set("rounds", d.rounds)
      .set("storage_words", model_end.storage_words)
      .set("live", model_live);
  bench::Json m = meta(a, w, isa);
  m.set("timed_epochs", timed)
      .set("timed_requests", timed_requests)
      .set("timed_busy_s", double(busy_ns) * 1e-9)
      .set("window_epochs", window_epochs)
      .set("window_s", window_s)
      .set("blocks", blocks.size())
      .set("blocks_used", used.size())
      .set("epochs_used", used_epochs)
      .set("epochs_at_or_beyond_p99", beyond)
      .set("steal_frac_window", all_steal / double(busy_ns))
      .set("steal_frac_used", used_steal / double(used_busy))
      .set("brute_force_reads_checked", brute_checked)
      .set("replayed_epochs", kWarmupEpochs)
      .set("window_capped", capped);
  std::printf("%s\n", bench::Json()
                          .raw("correct", "true")
                          .set("attempted", timed_requests)
                          .set("failed", 0)
                          .raw("metrics", metrics_json(ms))
                          .raw("meta", m.str())
                          .raw("model", model.str())
                          .str()
                          .c_str());
  return 0;
}

// --- --trace 1: traced run ------------------------------------------------------

int run_traced(const Args& a, const WorkloadDef& w) {
  const serve::WorkloadSpec spec = make_spec(w, a.seed);
  const std::vector<Point> initial =
      gen_uniform({.n = kInitialPoints, .dim = kDim, .seed = a.seed});
  const std::string wal_base = a.out_dir + "/wal-" + w.name + "-" +
                               std::to_string(getpid());
  const bool router = w.backend == Backend::kRouter;
  check_stream(spec, initial, kWarmupEpochs);

  // Three separately built instances: (A) untraced serve, (B) traced serve,
  // (C) traced hand-batched replay. They run interleaved epoch by epoch,
  // rotating which goes first, so a change in machine load hits all three
  // alike and the per-epoch differences between them mean something.
  std::vector<double> build_s, create_s;
  const auto make = [&](const char* tag) {
    auto s = std::make_unique<System>(w, initial, wal_base + tag);
    build_s.push_back(s->build_s());
    create_s.push_back(s->create_s());
    return s;
  };
  std::unique_ptr<System> sa = make("-a"), sb = make("-b"), sc = make("-c");
  sa->start_serving();
  sb->start_serving();
  Tracer tb, tc;

  OpStream stream(spec, initial);
  Rng check_rng(a.seed ^ 0xc0ffee5eedULL);
  Epoch ep;
  EpochTiming tm;
  std::vector<Response> ra, rb, rc;
  std::uint64_t submitted_a = 0, submitted_b = 0, busy_a = 0, busy_b = 0;
  double cpu_a = 0;
  std::size_t brute_checked = 0;
  std::uint32_t e = 0;

  // Runs epoch e on every pass; A only while `with_a`. Returns the index of
  // the first span C recorded for it.
  const auto step = [&](bool with_a, bool brute) {
    std::vector<PointId> live;
    if (brute) live = stream.live_sorted();
    stream.next(ep);
    std::size_t first_c = 0;
    for (std::uint32_t k = 0; k < 3; ++k) {
      switch ((e + k) % 3) {
        case 0:
          if (with_a) {
            const double c0 = cpu_seconds();
            serve_epoch(*sa, ep, nullptr, e, tm, ra);
            cpu_a += cpu_seconds() - c0;
            busy_a += tm.t_done - tm.t0;
          }
          break;
        case 1:
          serve_epoch(*sb, ep, &tb, e, tm, rb);
          busy_b += tm.t_done - tm.t0;
          break;
        default: {
          first_c = tc.spans().size();
          Scope root(&tc, "replay.epoch", e, -1);
          sc->replay(ep, &tc, e, root.id(), rc);
        }
      }
    }
    submitted_b += ep.ops.size();
    check_epoch(ep, rb, e);
    const std::uint64_t h = hash_epoch(rb);
    if (with_a) {
      submitted_a += ep.ops.size();
      if (hash_epoch(ra) != h)
        fail("epoch " + std::to_string(e) +
             ": traced and untraced serve responses differ");
    }
    if (hash_epoch(rc) != h)
      fail("replay: epoch " + std::to_string(e) +
           " responses differ from the serve run's");
    if (brute) brute_checked += check_brute(ep, rb, live, stream, check_rng, e);
    return first_c;
  };

  for (; e < kWarmupEpochs; ++e) step(true, false);
  busy_a = busy_b = 0;
  cpu_a = 0;
  const Counters a0 = sa->counters();
  const System::FrontCounts f0 = sa->front_counts();
  std::vector<double> queue_wait;
  std::vector<double> update_ns;  // per measured epoch: insert + erase
  std::uint64_t knns = 0, ranges = 0, radii = 0, inserts = 0, erases = 0;
  const std::uint64_t start = now_ns();
  const std::uint64_t budget = static_cast<std::uint64_t>(a.seconds * 1e9);
  std::size_t N = 0;
  do {
    const std::size_t first_c = step(true, false);
    for (const Response& r : ra)
      queue_wait.push_back(double(r.dispatch_tick - r.submit_tick));
    std::uint64_t u = 0;
    for (std::size_t i = first_c; i < tc.spans().size(); ++i) {
      const std::string n = tc.spans()[i].name;
      if (n == "core.insert" || n == "core.erase" || n == "router.insert" ||
          n == "router.erase")
        u += tc.spans()[i].busy_ns;
    }
    update_ns.push_back(double(u));
    for (const core::Request& r : ep.ops) {
      switch (r.kind) {
        case OpKind::kKnn: ++knns; break;
        case OpKind::kRange: ++ranges; break;
        case OpKind::kRadius: case OpKind::kRadiusCount: ++radii; break;
        case OpKind::kInsert: ++inserts; break;
        case OpKind::kErase: ++erases; break;
      }
    }
    ++N;
    ++e;
  } while (now_ns() - start < budget);
  const std::size_t lo = kWarmupEpochs, hi = kWarmupEpochs + N;
  const Counters a1 = sa->counters();
  const System::FrontCounts f1 = sa->front_counts();
  check_same_ledger(a1, sb->counters(), "traced vs untraced serve pass");
  check_same_ledger(a1, sc->counters(), "replay vs serve pass");
  sa->flush(now_ns());
  check_front_counts(*sa, submitted_a);
  const kernels::Isa isa = sa->isa();
  sa.reset();

  // Brute-force check epochs, after the measured ones.
  for (std::size_t c = 0; c < kCheckEpochs; ++c, ++e) step(false, true);
  {
    Scope s(&tb, "serve.flush", e, -1);
    sb->flush(now_ns());
  }
  check_front_counts(*sb, submitted_b);
  check_same_ledger(sb->counters(), sc->counters(), "replay vs serve pass");
  sb.reset();
  sc.reset();

  const std::string span_path = a.out_dir + "/spans-" + w.name + ".jsonl";
  write_spans(span_path, {{"serve", &tb}, {"replay", &tc}});

  // Per-layer metrics over the N measured epochs.
  std::map<std::string, std::uint64_t> sbt = totals(tb, lo, hi), sct = totals(tc, lo, hi);
  const double ops = double(N * kBatch);
  const double reads = double(knns + ranges + radii);
  const double updates = double(inserts + erases);
  const double us = 1e-3, ms = 1e-6;
  std::uint64_t replay_layers = 0;  // every span under replay.epoch
  for (const auto& [n, v] : sct)
    if (n != "replay.epoch") replay_layers += v;
  const double pump_ms = double(sbt["serve.pump"]) * ms / double(N);
  const double self_ms =
      (double(sbt["serve.pump"]) - double(replay_layers)) * ms / double(N);
  // Per-kind time: the tree call, or Router::query for that kind.
  const auto per = [&](std::initializer_list<const char*> names, double count) {
    std::uint64_t t = 0;
    for (const char* n : names) t += sct[n];
    return ratio(double(t) * us, count);
  };

  // Ledger-side counters over pass A's measured epochs.
  double module_imb = 0, shard_max = 0, shard_sum = 0;
  for (std::size_t s = 0; s < a1.loads.size(); ++s) {
    const pim::LoadReport dl = a1.loads[s].delta_since(a0.loads[s]);
    module_imb = std::max(module_imb, dl.comm_summary().imbalance);
    const double tot = double(std::accumulate(dl.comm.begin(), dl.comm.end(),
                                              std::uint64_t{0}));
    shard_max = std::max(shard_max, tot);
    shard_sum += tot;
  }
  const double shard_imb =
      router ? ratio(shard_max, shard_sum / double(a1.loads.size())) : 0.0;
  const auto op_delta = [&](std::uint64_t core::PimKdTree::OpStats::*f) {
    return double(a1.ops.*f - a0.ops.*f);
  };
  using OS = core::PimKdTree::OpStats;

  const std::vector<Metric> ms_out = {
      {"serve.submit_ns_per_op", "ns", double(sbt["serve.submit_loop"]) / ops},
      {"serve.pump_ms_per_epoch", "ms", pump_ms},
      {"serve.self_ms_per_epoch", "ms", self_ms},
      {"serve.queue_wait_us_p50", "us", percentile(queue_wait, 0.5) * us},
      {"router.frontend_self_ms_per_epoch", "ms", router ? self_ms : 0.0},
      {"router.query_us_per_read", "us",
       router ? per({"router.query.knn", "router.query.range", "router.query.radius",
                     "router.query.radius_count"},
                    reads)
              : 0.0},
      {"router.update_us_per_op", "us",
       router ? per({"router.insert", "router.erase"}, updates) : 0.0},
      {"router.fanout_read_frac", "fraction",
       ratio(double(f1.fanout_reads - f0.fanout_reads), double(f1.reads - f0.reads))},
      {"router.knn_second_phase_frac", "fraction",
       ratio(double(f1.knn_second_phase - f0.knn_second_phase), double(knns))},
      {"router.shard_comm_imbalance", "max/mean", shard_imb},
      {"core.knn_us_per_query", "us", per({"core.knn", "router.query.knn"}, double(knns))},
      {"core.range_us_per_query", "us",
       per({"core.range", "router.query.range"}, double(ranges))},
      {"core.radius_us_per_query", "us",
       per({"core.radius", "core.radius_count", "router.query.radius",
            "router.query.radius_count"},
           double(radii))},
      {"core.insert_us_per_point", "us",
       per({"core.insert", "router.insert"}, double(inserts))},
      {"core.erase_us_per_point", "us", per({"core.erase", "router.erase"}, double(erases))},
      {"core.rebuild_points_per_update", "points/op",
       ratio(op_delta(&OS::rebuild_points), updates)},
      {"core.update_ms_p99_per_epoch", "ms", percentile(update_ns, 0.99) * ms},
      {"core.rebuilds_per_epoch", "rebuilds", op_delta(&OS::rebuilds) / double(N)},
      {"core.build_s", "s", percentile(build_s, 0.5)},
      {"pim.module_comm_imbalance", "max/mean", module_imb},
      {"pim.words_counters_per_op", "words/op", op_delta(&OS::words_counters) / ops},
      {"pim.words_materialize_per_op", "words/op", op_delta(&OS::words_materialize) / ops},
      {"pim.words_rebuild_per_op", "words/op", op_delta(&OS::words_rebuild_collect) / ops},
      {"parallel.cpu_per_wall", "cpu_s/s", cpu_a / (double(busy_a) * 1e-9)},
      {"durability.log_batch_us_per_epoch", "us",
       double(sct["durability.log_batch"]) * us / double(N)},
      {"durability.wal_bytes_per_update", "bytes/op",
       ratio(double(a1.wal.wal_bytes - a0.wal.wal_bytes), updates)},
      {"durability.syncs_per_epoch", "syncs", double(a1.wal.syncs - a0.wal.syncs) / double(N)},
      {"durability.create_s", "s", percentile(create_s, 0.5)},
      {"trace.overhead_ratio", "traced/untraced", ratio(double(busy_b), double(busy_a))},
  };
  bench::Json m = meta(a, w, isa);
  m.set("traced_epochs", N)
      .set("peak_rss_mb", peak_rss_mib())
      .set("spans", tb.spans().size() + tc.spans().size())
      .set("span_file", span_path)
      .set("brute_force_reads_checked", brute_checked)
      .set("replayed_epochs", e);
  std::printf("%s\n", bench::Json()
                          .raw("correct", "true")
                          .set("attempted", submitted_a + submitted_b)
                          .set("failed", 0)
                          .raw("metrics", metrics_json(ms_out))
                          .raw("meta", m.str())
                          .str()
                          .c_str());
  return 0;
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = std::stoi(v);
    else if (k == "--out-dir") a.out_dir = v;
    else throw std::invalid_argument("unknown argument " + k);
  }
  if (argc % 2 == 0) throw std::invalid_argument("arguments come in pairs");
  if (!(a.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse(argc, argv);
    const WorkloadDef* w = nullptr;
    for (const WorkloadDef& d : kWorkloads)
      if (a.workload == d.name) w = &d;
    if (!w) throw std::invalid_argument("unknown workload '" + a.workload + "'");
    return a.trace ? run_traced(a, *w) : run_e2e(a, *w);
  } catch (const CheckFailure& e) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 2;
  }
}
