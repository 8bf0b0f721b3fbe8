/**
 * @file
 * Property tests for the flattened-forest hot path.
 *
 * The solver-facing fast paths (flat preorder walk, branchless
 * quantile network, box-tracked prediction, forest restriction and
 * per-tree tracked leaf walks) all promise *bitwise* equality with the
 * original recursive walk — not approximate agreement. Every test
 * here asserts exact double equality against an independent
 * reference, over randomised forests, ensemble sizes and queries.
 */

#include "predictor/random_forest.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

namespace qoserve {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/** Nonlinear 4-feature target: forces deep, varied splits so the
 *  flat walk exercises real branch diversity, not one hot path. */
std::vector<TrainSample>
makeData(int n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<TrainSample> data;
    data.reserve(n);
    for (int i = 0; i < n; ++i) {
        double x0 = rng.uniform(0.0, 10.0);
        double x1 = rng.uniform(0.0, 10.0);
        double x2 = rng.uniform(0.0, 10.0);
        double x3 = rng.uniform(0.0, 10.0);
        TrainSample s;
        s.x = {x0, x1, x2, x3};
        s.y = x0 * x1 + 3.0 * (x2 > 5.0) + 0.2 * x3 * x3 +
              0.3 * rng.normal();
        data.push_back(std::move(s));
    }
    return data;
}

std::vector<double>
randomQuery(Rng &rng)
{
    return {rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0),
            rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)};
}

/**
 * Independent quantile reference: per-tree recursive predictions,
 * fully sorted, then the documented interpolation
 *   pos = q (n-1); v_lo (1-frac) + v_hi frac.
 * Shares no code with quantileOfPreds — in particular not the sorting
 * network or the nth_element selection it validates.
 */
double
refQuantile(const RandomForest &forest, const std::vector<double> &x,
            double q)
{
    std::vector<double> preds;
    preds.reserve(forest.numTrees());
    for (std::size_t t = 0; t < forest.numTrees(); ++t)
        preds.push_back(forest.tree(t).predict(x));
    std::sort(preds.begin(), preds.end());
    double pos = q * static_cast<double>(preds.size() - 1);
    auto lo = static_cast<std::size_t>(pos);
    auto hi = std::min(lo + 1, preds.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return preds[lo] * (1.0 - frac) + preds[hi] * frac;
}

TEST(HotPath, FlatMeanMatchesRecursiveReferenceBitwise)
{
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        auto data = makeData(1500, seed);
        RandomForest forest;
        forest.fit(data, ForestParams{}, 100 + seed);
        Rng probe(500 + seed);
        for (int i = 0; i < 400; ++i) {
            auto x = randomQuery(probe);
            // EXPECT_EQ, not NEAR: the flat walk must visit the exact
            // leaves the recursive walk does and sum in tree order.
            EXPECT_EQ(forest.predict(x), forest.predictReference(x));
        }
    }
}

TEST(HotPath, QuantileMatchesSortedReferenceAcrossEnsembleSizes)
{
    // Sizes straddle every quantile-kernel regime: n == 1 (no sort),
    // 2..64 (Batcher network), > 64 (nth_element + min_element).
    const int sizes[] = {1, 2, 3, 5, 8, 16, 20, 31, 33, 48, 64, 65, 80};
    auto data = makeData(1200, 7);
    for (int n : sizes) {
        ForestParams params;
        params.numTrees = n;
        RandomForest forest;
        forest.fit(data, params, 11);
        Rng probe(1000 + static_cast<std::uint64_t>(n));
        for (double q : {0.0, 0.1, 0.25, 0.5, 0.6, 0.9, 1.0}) {
            auto x = randomQuery(probe);
            EXPECT_EQ(forest.predictQuantile(x, q), refQuantile(forest, x, q))
                << "n=" << n << " q=" << q;
        }
    }
}

TEST(HotPath, TrackedSupportCertifiesBitwiseReplay)
{
    auto data = makeData(1500, 23);
    RandomForest forest;
    forest.fit(data, ForestParams{}, 29);

    Rng probe(31);
    int replays = 0;
    for (int i = 0; i < 200; ++i) {
        auto x = randomQuery(probe);
        FeatureSupport support;
        double base =
            forest.predictQuantileTracked(x.data(), 4, 0.6, support);
        ASSERT_EQ(support.dims, 4);
        EXPECT_TRUE(support.contains(x.data(), 4));

        // Any point strictly inside the box must reproduce the
        // prediction bit for bit — that is the contract the solver
        // cache's correctness rests on.
        for (int j = 0; j < 8; ++j) {
            std::vector<double> y(4);
            for (int f = 0; f < 4; ++f) {
                double lo = std::max(support.lo[f], -50.0);
                double hi = std::min(support.hi[f], 50.0);
                y[f] = lo + (hi - lo) * probe.uniform(0.25, 0.99);
            }
            if (!support.contains(y.data(), 4))
                continue;
            ++replays;
            EXPECT_EQ(forest.predictQuantile(y.data(), 4, 0.6), base);
        }
    }
    // The boxes are narrow but not degenerate: the sampler must have
    // actually exercised the replay property.
    EXPECT_GT(replays, 100);
}

TEST(HotPath, RestrictedForestExactInsideBox)
{
    auto data = makeData(1500, 37);
    RandomForest forest;
    forest.fit(data, ForestParams{}, 41);

    Rng probe(43);
    for (int trial = 0; trial < 40; ++trial) {
        // Random box: axes 2 and 3 pinned to a narrow window, axes
        // 0 and 1 left free (the solver's chunk/context plane shape).
        double lo[4] = {-kInf, -kInf, 0.0, 0.0};
        double hi[4] = {kInf, kInf, 0.0, 0.0};
        for (int f = 2; f < 4; ++f) {
            double c = probe.uniform(1.0, 9.0);
            lo[f] = c - probe.uniform(0.1, 1.5);
            hi[f] = c + probe.uniform(0.1, 1.5);
        }

        RestrictedForest restricted;
        FeatureSupport support;
        forest.restrictToBox(lo, hi, 4, restricted, support);
        ASSERT_TRUE(restricted.valid());
        EXPECT_LE(restricted.numNodes(), forest.numFlatNodes());

        for (int i = 0; i < 25; ++i) {
            double x[4];
            x[0] = probe.uniform(0.0, 10.0);
            x[1] = probe.uniform(0.0, 10.0);
            for (int f = 2; f < 4; ++f)
                x[f] = lo[f] + (hi[f] - lo[f]) * probe.uniform(0.05, 1.0);
            ASSERT_TRUE(support.contains(x, 4));
            EXPECT_EQ(restricted.predictQuantile(x, 4, 0.6),
                      forest.predictQuantile(x, 4, 0.6));
        }
    }
}

TEST(HotPath, RestrictedLeafPathMatchesLockstepAndCertifiesItsBox)
{
    // The chunk solver's leaf-path memo rests on two properties of
    // RestrictedForest::leafTracked: the leaf it returns is the value
    // the lockstep walk collects for that tree, and every point
    // inside its box (and the restriction box) reaches that leaf.
    auto data = makeData(1500, 47);
    RandomForest forest;
    forest.fit(data, ForestParams{}, 53);

    Rng probe(59);
    int certified = 0;
    for (int trial = 0; trial < 25; ++trial) {
        // The solver's plane shape: axes 0 and 1 free, 2 and 3 boxed.
        double lo[4] = {-kInf, -kInf, 0.0, 0.0};
        double hi[4] = {kInf, kInf, 0.0, 0.0};
        for (int f = 2; f < 4; ++f) {
            double c = probe.uniform(2.0, 8.0);
            lo[f] = c - 2.0;
            hi[f] = c + 2.0;
        }
        RestrictedForest plane;
        FeatureSupport plane_box;
        forest.restrictToBox(lo, hi, 4, plane, plane_box);
        ASSERT_EQ(plane.numTrees(), forest.numTrees());

        for (int i = 0; i < 8; ++i) {
            std::vector<double> x(4);
            x[0] = probe.uniform(0.0, 10.0);
            x[1] = probe.uniform(0.0, 10.0);
            for (int f = 2; f < 4; ++f)
                x[f] = lo[f] + (hi[f] - lo[f]) * probe.uniform(0.05, 1.0);

            std::vector<double> leaves(plane.numTrees());
            for (std::size_t t = 0; t < plane.numTrees(); ++t) {
                FeatureSupport box;
                box.reset(4);
                leaves[t] = plane.leafTracked(t, x.data(), box);
                EXPECT_EQ(leaves[t], forest.tree(t).predict(x));
                EXPECT_TRUE(box.contains(x.data(), 4));

                for (int j = 0; j < 4; ++j) {
                    std::vector<double> y(4);
                    for (int f = 0; f < 4; ++f) {
                        double a = std::max({box.lo[f], plane_box.lo[f],
                                             -50.0});
                        double b = std::min({box.hi[f], plane_box.hi[f],
                                             50.0});
                        y[f] = a + (b - a) * probe.uniform(0.01, 1.0);
                    }
                    if (!box.contains(y.data(), 4) ||
                        !plane_box.contains(y.data(), 4))
                        continue;
                    ++certified;
                    EXPECT_EQ(forest.tree(t).predict(y), leaves[t]);
                }
            }
            // Per-tree leaves fed through the shared quantile kernel
            // reproduce the lockstep quantile bit for bit.
            EXPECT_EQ(quantileOfPreds(leaves, 0.6),
                      plane.predictQuantile(x.data(), 4, 0.6));
        }
    }
    EXPECT_GT(certified, 1000);
}

} // namespace
} // namespace qoserve
