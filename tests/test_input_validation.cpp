// Always-on input validation: non-finite points, inverted boxes and bad
// radii are rejected at the API boundary with std::invalid_argument, and
// every tree type's Config::validate() fires from its constructor even in
// NDEBUG builds (this used to be assert-only).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "btree/pim_btree.hpp"
#include "core/pim_kdtree.hpp"
#include "kdtree/pkdtree.hpp"
#include "kdtree/static_kdtree.hpp"
#include "util/generators.hpp"
#include "util/geometry.hpp"

namespace pimkd {
namespace {

constexpr Coord kNaN = std::numeric_limits<Coord>::quiet_NaN();
constexpr Coord kInf = std::numeric_limits<Coord>::infinity();

core::PimKdConfig small_cfg() {
  core::PimKdConfig cfg;
  cfg.dim = 2;
  cfg.leaf_cap = 8;
  cfg.system.num_modules = 4;
  return cfg;
}

Point pt(Coord x, Coord y) {
  Point p;
  p[0] = x;
  p[1] = y;
  return p;
}

// Expect an invalid_argument whose message mentions the operation name, so
// errors stay attributable when validation fires deep inside a pipeline.
template <class Fn>
void expect_rejected(Fn&& fn, const std::string& op) {
  try {
    fn();
    FAIL() << op << ": expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(op), std::string::npos)
        << "message '" << e.what() << "' does not name the operation";
  }
}

// --- Point / box / radius validation on the PIM-kd-tree -------------------------

TEST(InputValidation, InsertRejectsNonFinitePoints) {
  core::PimKdTree tree(small_cfg());
  const std::vector<Point> ok = {pt(0.1, 0.2), pt(0.3, 0.4)};
  EXPECT_NO_THROW(tree.insert(ok));
  expect_rejected([&] { tree.insert({{pt(0.5, kNaN)}}); }, "insert");
  expect_rejected([&] { tree.insert({{pt(kInf, 0.5)}}); }, "insert");
  // The failed batch must not have been partially applied.
  EXPECT_EQ(tree.size(), ok.size());
  EXPECT_TRUE(tree.check_invariants());
}

TEST(InputValidation, QueriesRejectNonFinitePoints) {
  const auto pts = gen_uniform({.n = 256, .dim = 2, .seed = 1});
  core::PimKdTree tree(small_cfg(), pts);
  const std::vector<Point> bad = {pt(0.5, 0.5), pt(kNaN, 0.5)};
  expect_rejected([&] { tree.leaf_search(bad); }, "leaf_search");
  expect_rejected([&] { tree.knn(bad, 3); }, "knn");
  expect_rejected([&] { tree.radius(bad, 0.1); }, "radius");
  expect_rejected([&] { tree.radius_count(bad, 0.1); }, "radius_count");
}

TEST(InputValidation, ValidationNamesTheOffendingPointAndDimension) {
  const auto pts = gen_uniform({.n = 64, .dim = 2, .seed = 2});
  core::PimKdTree tree(small_cfg(), pts);
  try {
    tree.knn({{pt(0.5, 0.5), pt(0.5, kNaN)}}, 3);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("point 1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("dimension 1"), std::string::npos) << msg;
  }
}

TEST(InputValidation, RangeRejectsBadBoxes) {
  const auto pts = gen_uniform({.n = 256, .dim = 2, .seed = 3});
  core::PimKdTree tree(small_cfg(), pts);
  Box inverted = Box::empty(2);
  inverted.lo = pt(0.8, 0.1);
  inverted.hi = pt(0.2, 0.9);  // lo[0] > hi[0]
  expect_rejected([&] { tree.range({{inverted}}); }, "range");
  Box nan_box;
  nan_box.lo = pt(0.1, kNaN);
  nan_box.hi = pt(0.9, 0.9);
  expect_rejected([&] { tree.range({{nan_box}}); }, "range");
  // Unbounded-but-ordered boxes are legitimate queries.
  EXPECT_NO_THROW(tree.range({{Box::whole(2)}}));
}

TEST(InputValidation, RadiusRejectsBadRadii) {
  const auto pts = gen_uniform({.n = 128, .dim = 2, .seed = 4});
  core::PimKdTree tree(small_cfg(), pts);
  const std::vector<Point> qs = {pt(0.5, 0.5)};
  expect_rejected([&] { tree.radius(qs, -0.1); }, "radius");
  expect_rejected([&] { tree.radius(qs, kNaN); }, "radius");
  expect_rejected([&] { tree.radius_count(qs, kInf); }, "radius_count");
  EXPECT_NO_THROW(tree.radius(qs, 0.0));
}

TEST(InputValidation, KnnRejectsBadKAndEps) {
  const auto pts = gen_uniform({.n = 256, .dim = 2, .seed = 5});
  core::PimKdTree tree(small_cfg(), pts);
  const std::vector<Point> qs = {pt(0.5, 0.5)};
  const auto before = tree.metrics().snapshot();
  // k = 0 used to read the front of an empty heap; a NaN eps made every
  // "<= worst" descend test false and returned wrong neighbors.
  expect_rejected([&] { tree.knn(qs, 0); }, "knn: k");
  expect_rejected([&] { tree.knn(qs, 3, kNaN); }, "knn: eps");
  expect_rejected([&] { tree.knn(qs, 3, -0.5); }, "knn: eps");
  expect_rejected([&] { tree.knn(qs, 3, kInf); }, "knn: eps");
  // Rejected before any round opens: nothing is charged.
  EXPECT_EQ(tree.metrics().snapshot().rounds, before.rounds);
  EXPECT_NO_THROW(tree.knn(qs, 1, 0.0));
}

TEST(InputValidation, DependentPointsRejectsMismatchedSpans) {
  const auto pts = gen_uniform({.n = 256, .dim = 2, .seed = 6});
  core::PimKdTree tree(small_cfg(), pts);
  const std::vector<Point> qs = {pt(0.5, 0.5), pt(0.25, 0.75)};
  const std::vector<double> qprio = {0.5, 0.5};
  const std::vector<PointId> self = {0, 1};
  expect_rejected([&] { tree.dependent_points(qs, qprio, self); },
                  "dependent_points: priorities");
  expect_rejected([&] { tree.set_priorities(std::vector<double>(10, 1.0)); },
                  "set_priorities: priority_by_id");
  tree.set_priorities(std::vector<double>(pts.size(), 1.0));
  expect_rejected(
      [&] { tree.dependent_points(qs, std::span(qprio).first(1), self); },
      "dependent_points: query_priority");
  expect_rejected(
      [&] { tree.dependent_points(qs, qprio, std::span(self).first(1)); },
      "dependent_points: self_id");
  EXPECT_NO_THROW(tree.dependent_points(qs, qprio, self));
}

TEST(InputValidation, QueryFailsOnlyTheInvalidKnnGroup) {
  const auto pts = gen_uniform({.n = 256, .dim = 2, .seed = 7});
  core::PimKdTree tree(small_cfg(), pts);
  const Point q = pt(0.5, 0.5);
  const std::vector<core::Request> reqs = {core::Request::knn(q, 0),
                                           core::Request::knn(q, 3),
                                           core::Request::range(Box::whole(2))};
  const auto resp = tree.query(reqs);
  ASSERT_EQ(resp.size(), reqs.size());
  EXPECT_FALSE(resp[0].ok());
  EXPECT_NE(resp[0].error.find("k must be >= 1"), std::string::npos)
      << resp[0].error;
  ASSERT_TRUE(resp[1].ok()) << resp[1].error;
  EXPECT_EQ(resp[1].neighbors.size(), 3u);
  ASSERT_TRUE(resp[2].ok()) << resp[2].error;
  EXPECT_EQ(resp[2].ids.size(), pts.size());
}

// --- Config validation, per tree type -------------------------------------------

TEST(ConfigValidation, PimKdTreeRejectsBadFields) {
  {
    auto cfg = small_cfg();
    cfg.dim = 0;
    EXPECT_THROW(core::PimKdTree{cfg}, std::invalid_argument);
  }
  {
    auto cfg = small_cfg();
    cfg.dim = kMaxDim + 1;
    EXPECT_THROW(core::PimKdTree{cfg}, std::invalid_argument);
  }
  {
    auto cfg = small_cfg();
    cfg.alpha = 0.0;
    EXPECT_THROW(core::PimKdTree{cfg}, std::invalid_argument);
  }
  {
    auto cfg = small_cfg();
    cfg.beta = kNaN;
    EXPECT_THROW(core::PimKdTree{cfg}, std::invalid_argument);
  }
  {
    auto cfg = small_cfg();
    cfg.leaf_cap = 0;
    EXPECT_THROW(core::PimKdTree{cfg}, std::invalid_argument);
  }
  {
    auto cfg = small_cfg();
    cfg.sigma = 0;
    EXPECT_THROW(core::PimKdTree{cfg}, std::invalid_argument);
  }
  {
    auto cfg = small_cfg();
    cfg.push_pull_c = -1.0;
    EXPECT_THROW(core::PimKdTree{cfg}, std::invalid_argument);
  }
  {
    auto cfg = small_cfg();
    cfg.cached_groups = -2;
    EXPECT_THROW(core::PimKdTree{cfg}, std::invalid_argument);
  }
  {
    auto cfg = small_cfg();
    cfg.delayed_finish_multiplier = 0;
    EXPECT_THROW(core::PimKdTree{cfg}, std::invalid_argument);
  }
  {
    auto cfg = small_cfg();
    cfg.system.num_modules = 0;
    EXPECT_THROW(core::PimKdTree{cfg}, std::invalid_argument);
  }
  {
    auto cfg = small_cfg();
    cfg.system.cache_words = 0;
    EXPECT_THROW(core::PimKdTree{cfg}, std::invalid_argument);
  }
  EXPECT_NO_THROW(core::PimKdTree{small_cfg()});
}

TEST(ConfigValidation, ValidationErrorNamesTheField) {
  auto cfg = small_cfg();
  cfg.alpha = -3.0;
  try {
    cfg.validate();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("alpha"), std::string::npos)
        << e.what();
  }
}

TEST(ConfigValidation, PkdTreeRejectsBadFields) {
  PkdTree::Config cfg;
  EXPECT_NO_THROW(PkdTree{cfg});
  cfg.dim = 0;
  EXPECT_THROW(PkdTree{cfg}, std::invalid_argument);
  cfg.dim = 2;
  cfg.alpha = kNaN;
  EXPECT_THROW(PkdTree{cfg}, std::invalid_argument);
  cfg.alpha = 1.0;
  cfg.leaf_cap = 0;
  EXPECT_THROW(PkdTree{cfg}, std::invalid_argument);
  cfg.leaf_cap = 16;
  cfg.sigma = 0;
  EXPECT_THROW(PkdTree{cfg}, std::invalid_argument);
}

TEST(ConfigValidation, StaticKdTreeRejectsBadFields) {
  const auto pts = gen_uniform({.n = 32, .dim = 2, .seed = 5});
  StaticKdTree::Config cfg;
  EXPECT_NO_THROW((StaticKdTree{cfg, pts}));
  cfg.dim = kMaxDim + 1;
  EXPECT_THROW((StaticKdTree{cfg, pts}), std::invalid_argument);
  cfg.dim = 2;
  cfg.leaf_cap = 0;
  EXPECT_THROW((StaticKdTree{cfg, pts}), std::invalid_argument);
}

TEST(ConfigValidation, PimBTreeRejectsBadFields) {
  btree::BTreeConfig cfg;
  cfg.system.num_modules = 4;
  EXPECT_NO_THROW(btree::PimBTree{cfg});
  cfg.fanout = 3;  // minimum is 4
  EXPECT_THROW(btree::PimBTree{cfg}, std::invalid_argument);
  cfg.fanout = 16;
  cfg.push_pull_c = 0.0;
  EXPECT_THROW(btree::PimBTree{cfg}, std::invalid_argument);
  cfg.push_pull_c = 2.0;
  cfg.cached_groups = -2;
  EXPECT_THROW(btree::PimBTree{cfg}, std::invalid_argument);
  cfg.cached_groups = -1;
  cfg.system.num_modules = 0;
  EXPECT_THROW(btree::PimBTree{cfg}, std::invalid_argument);
}

}  // namespace
}  // namespace pimkd
