/**
 * @file
 * CART / random-forest implementation.
 */

#include "predictor/random_forest.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "simcore/logging.hh"
#include "simcore/thread_pool.hh"

namespace qoserve {

void
FeatureSupport::reset(int d)
{
    QOSERVE_ASSERT(d > 0 && d <= kMaxForestFeatures,
                   "unsupported feature count ", d);
    dims = d;
    for (int i = 0; i < d; ++i) {
        lo[i] = -std::numeric_limits<double>::infinity();
        hi[i] = std::numeric_limits<double>::infinity();
    }
}

bool
FeatureSupport::contains(const double *x, int d) const
{
    if (d != dims || dims == 0)
        return false;
    for (int i = 0; i < d; ++i) {
        if (!(lo[i] < x[i] && x[i] <= hi[i]))
            return false;
    }
    return true;
}

namespace {

/** Mean of targets over an index range. */
double
targetMean(const std::vector<TrainSample> &samples,
           const std::vector<std::uint32_t> &idx, int lo, int hi)
{
    double sum = 0.0;
    for (int i = lo; i < hi; ++i)
        sum += samples[idx[i]].y;
    return sum / (hi - lo);
}

/** Sum of squared error around the mean over an index range. */
double
targetSse(const std::vector<TrainSample> &samples,
          const std::vector<std::uint32_t> &idx, int lo, int hi)
{
    double mean = targetMean(samples, idx, lo, hi);
    double sse = 0.0;
    for (int i = lo; i < hi; ++i) {
        double d = samples[idx[i]].y - mean;
        sse += d * d;
    }
    return sse;
}

} // namespace

int
RegressionTree::build(const std::vector<TrainSample> &samples,
                      std::vector<std::uint32_t> &idx, int lo, int hi,
                      int depth, const ForestParams &params, Rng &rng,
                      SplitScratch &scratch)
{
    int node_id = static_cast<int>(nodes_.size());
    nodes_.emplace_back();
    nodes_[node_id].value = targetMean(samples, idx, lo, hi);

    int n = hi - lo;
    if (depth >= params.maxDepth || n < 2 * params.minSamplesLeaf)
        return node_id;

    double parent_sse = targetSse(samples, idx, lo, hi);
    if (parent_sse <= 1e-30)
        return node_id;

    int num_features = static_cast<int>(samples[idx[lo]].x.size());
    int best_feature = -1;
    double best_threshold = 0.0;
    double best_sse = parent_sse;

    for (int f = 0; f < num_features; ++f) {
        // Sort the node's samples by this feature once, then every
        // candidate threshold resolves to a split position by binary
        // search against prefix sums of (y, y²) — O((n + C) log n)
        // per feature instead of rescanning all n samples for each
        // of the C candidates. The RNG draw sequence is unchanged.
        // Sorting (value, index) pairs on the value alone makes
        // std::sort see the same comparison outcomes it would
        // sorting indices through samples[i].x[f], so the permutation
        // is identical without a double indirection per comparison.
        scratch.keyed.clear();
        for (int i = lo; i < hi; ++i)
            scratch.keyed.emplace_back(samples[idx[i]].x[f], idx[i]);
        std::sort(scratch.keyed.begin(), scratch.keyed.end(),
                  [](const auto &a, const auto &b) {
                      return a.first < b.first;
                  });

        double fmin = scratch.keyed.front().first;
        double fmax = scratch.keyed.back().first;
        if (fmin >= fmax)
            continue;

        scratch.values.resize(n);
        scratch.prefY.resize(n + 1);
        scratch.prefY2.resize(n + 1);
        scratch.prefY[0] = 0.0;
        scratch.prefY2[0] = 0.0;
        for (int i = 0; i < n; ++i) {
            const auto [value, j] = scratch.keyed[i];
            const double y = samples[j].y;
            scratch.values[i] = value;
            scratch.prefY[i + 1] = scratch.prefY[i] + y;
            scratch.prefY2[i + 1] = scratch.prefY2[i] + y * y;
        }
        double total_y = scratch.prefY[n];
        double total_y2 = scratch.prefY2[n];

        for (int c = 0; c < params.splitCandidates; ++c) {
            double thr = rng.uniform(fmin, fmax);
            // Left side takes values <= thr.
            int ln = static_cast<int>(
                std::upper_bound(scratch.values.begin(),
                                 scratch.values.end(), thr) -
                scratch.values.begin());
            int rn = n - ln;
            if (ln < params.minSamplesLeaf || rn < params.minSamplesLeaf)
                continue;
            double ls = scratch.prefY[ln];
            double lss = scratch.prefY2[ln];
            double rs = total_y - ls;
            double rss = total_y2 - lss;
            double sse = (lss - ls * ls / ln) + (rss - rs * rs / rn);
            if (sse < best_sse) {
                best_sse = sse;
                best_feature = f;
                best_threshold = thr;
            }
        }
    }

    if (best_feature < 0)
        return node_id;

    auto mid_it = std::partition(
        idx.begin() + lo, idx.begin() + hi,
        [&](std::uint32_t i) {
            return samples[i].x[best_feature] <= best_threshold;
        });
    int mid = static_cast<int>(mid_it - idx.begin());
    QOSERVE_ASSERT(mid > lo && mid < hi, "degenerate partition");

    nodes_[node_id].feature = best_feature;
    nodes_[node_id].threshold = best_threshold;
    int left =
        build(samples, idx, lo, mid, depth + 1, params, rng, scratch);
    int right =
        build(samples, idx, mid, hi, depth + 1, params, rng, scratch);
    nodes_[node_id].left = left;
    nodes_[node_id].right = right;
    return node_id;
}

void
RegressionTree::fit(const std::vector<TrainSample> &samples,
                    const ForestParams &params, Rng &rng)
{
    QOSERVE_ASSERT(!samples.empty(), "empty training set");
    nodes_.clear();
    std::vector<std::uint32_t> idx(samples.size());
    for (std::size_t i = 0; i < idx.size(); ++i)
        idx[i] = static_cast<std::uint32_t>(i);
    SplitScratch scratch;
    build(samples, idx, 0, static_cast<int>(idx.size()), 0, params, rng,
          scratch);
}

void
RegressionTree::flattenInto(std::vector<FlatNode> &out) const
{
    QOSERVE_ASSERT(!nodes_.empty(), "flattenInto() before fit()");
    auto base = static_cast<std::uint32_t>(out.size());
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        const Node &n = nodes_[i];
        FlatNode f;
        if (n.feature < 0) {
            f.key = n.value;
        } else {
            // Preorder invariant from build(): the left child is the
            // next node, so only the right index needs storing.
            QOSERVE_ASSERT(n.left == static_cast<int>(i) + 1,
                           "tree is not in preorder");
            f.key = n.threshold;
            f.feature = n.feature;
            f.right = base + static_cast<std::uint32_t>(n.right);
        }
        out.push_back(f);
    }
}

double
RegressionTree::predict(const std::vector<double> &x) const
{
    QOSERVE_ASSERT(!nodes_.empty(), "predict() before fit()");
    int node = 0;
    while (nodes_[node].feature >= 0) {
        const Node &n = nodes_[node];
        QOSERVE_ASSERT(n.feature < static_cast<int>(x.size()),
                       "feature vector too short");
        node = x[n.feature] <= n.threshold ? n.left : n.right;
    }
    return nodes_[node].value;
}

void
RandomForest::fit(const std::vector<TrainSample> &samples,
                  ForestParams params, std::uint64_t seed, int jobs)
{
    QOSERVE_ASSERT(!samples.empty(), "empty training set");
    QOSERVE_ASSERT(params.numTrees > 0, "need at least one tree");

    trees_.assign(params.numTrees, RegressionTree{});
    Rng root(seed);
    std::size_t draw =
        std::max<std::size_t>(1, static_cast<std::size_t>(
            params.bootstrapFraction * samples.size()));

    // Each tree's randomness is split from (seed, t) rather than
    // drawn from a shared stream, so the trees can be grown in any
    // order — or concurrently — with bit-identical results.
    par::parallelFor(
        jobs, static_cast<std::size_t>(params.numTrees),
        [&](std::size_t t) {
            Rng tree_rng = root.split("tree" + std::to_string(t));
            std::vector<TrainSample> boot;
            boot.reserve(draw);
            for (std::size_t i = 0; i < draw; ++i) {
                auto j = static_cast<std::size_t>(tree_rng.uniformInt(
                    0, static_cast<std::int64_t>(samples.size()) - 1));
                boot.push_back(samples[j]);
            }
            trees_[t].fit(boot, params, tree_rng);
        });

    // Flatten the trained ensemble into one contiguous node array so
    // the hot evaluation path walks cache-friendly 16-byte records
    // instead of pointer-chasing per-tree vectors.
    flat_.clear();
    roots_.clear();
    roots_.reserve(trees_.size());
    std::size_t total = 0;
    for (const auto &t : trees_)
        total += t.numNodes();
    flat_.reserve(total);
    for (const auto &t : trees_) {
        roots_.push_back(static_cast<std::uint32_t>(flat_.size()));
        t.flattenInto(flat_);
    }

    // Depth bound and feature width for the lockstep walk: the walk
    // runs a fixed number of levels (leaves self-loop), and the query
    // width is validated once per evaluation instead of per node.
    maxTreeDepth_ = 0;
    featureDims_ = 0;
    for (std::size_t t = 0; t < roots_.size(); ++t) {
        std::uint32_t begin = roots_[t];
        std::uint32_t end = t + 1 < roots_.size()
                                ? roots_[t + 1]
                                : static_cast<std::uint32_t>(flat_.size());
        // Preorder layout: a node's depth is its parent's plus one,
        // and every node's parent precedes it, so one forward pass
        // with a depth stack suffices.
        std::vector<int> depth(end - begin, 0);
        for (std::uint32_t i = begin; i < end; ++i) {
            const FlatNode &n = flat_[i];
            maxTreeDepth_ = std::max(maxTreeDepth_, depth[i - begin]);
            if (n.feature < 0)
                continue;
            featureDims_ = std::max(featureDims_, n.feature + 1);
            depth[i + 1 - begin] = depth[i - begin] + 1;
            depth[n.right - begin] = depth[i - begin] + 1;
        }
    }
}

double
RandomForest::evalTree(std::uint32_t root, const double *x,
                       int dims) const
{
    QOSERVE_ASSERT(dims >= featureDims_, "feature vector too short");
    const FlatNode *nodes = flat_.data();
    std::uint32_t node = root;
    std::int32_t f;
    while ((f = nodes[node].feature) >= 0) {
        // Branchless child select: left child is node + 1 by layout.
        node = x[f] <= nodes[node].key ? node + 1 : nodes[node].right;
    }
    return nodes[node].key;
}

namespace {

/** Largest ensemble sorted with the branchless network. */
constexpr std::size_t kMaxNetworkSort = 64;

/**
 * Batcher odd-even compare-exchange schedules for every size up to
 * kMaxNetworkSort, built once. A fixed network sorts with min/max
 * selects only — no data-dependent branches — which matters because
 * the quantile sort runs once per chunk-solver probe and mispredicted
 * comparison sorts dominated that path.
 */
const std::vector<std::pair<int, int>> &
sortNetwork(std::size_t n)
{
    static const auto table = [] {
        std::vector<std::vector<std::pair<int, int>>> nets(
            kMaxNetworkSort + 1);
        for (int size = 2; size <= static_cast<int>(kMaxNetworkSort);
             ++size) {
            auto &net = nets[static_cast<std::size_t>(size)];
            for (int p = 1; p < size; p <<= 1) {
                for (int k = p; k >= 1; k >>= 1) {
                    for (int j = k % p; j + k < size; j += 2 * k) {
                        for (int i = 0;
                             i < k && i + j + k < size; ++i) {
                            if ((i + j) / (2 * p) ==
                                (i + j + k) / (2 * p))
                                net.emplace_back(i + j, i + j + k);
                        }
                    }
                }
            }
        }
        return nets;
    }();
    return table[n];
}

/**
 * Lockstep walk over a flattened forest: each tree's node chain is
 * serially dependent, but steps of *different* trees are independent,
 * so advancing every tree one level per pass keeps many node fetches
 * in flight instead of draining one 12-deep chain at a time. Leaves
 * self-loop (their feature is negative) until the deepest tree
 * finishes; all selects compile to conditional moves.
 */
void
lockstepFill(const FlatNode *nodes, const std::uint32_t *roots,
             std::size_t n, int max_depth, const double *x,
             double *preds)
{
    constexpr std::size_t kBlock = 32;
    for (std::size_t base = 0; base < n; base += kBlock) {
        std::size_t m = std::min(kBlock, n - base);
        std::uint32_t cur[kBlock];
        for (std::size_t t = 0; t < m; ++t)
            cur[t] = roots[base + t];
        for (int level = 0; level < max_depth; ++level) {
            for (std::size_t t = 0; t < m; ++t) {
                const FlatNode &nd = nodes[cur[t]];
                bool leaf = nd.feature < 0;
                std::int32_t f = leaf ? 0 : nd.feature;
                std::uint32_t next =
                    x[f] <= nd.key ? cur[t] + 1 : nd.right;
                cur[t] = leaf ? cur[t] : next;
            }
        }
        for (std::size_t t = 0; t < m; ++t)
            preds[base + t] = nodes[cur[t]].key;
    }
}

} // namespace

double
quantileOfPreds(std::vector<double> &preds, double q)
{
    // The interpolation reads only the lo-th and hi-th smallest
    // values; any correct sort or selection produces exactly the
    // doubles the original sort-and-interpolate placed there, so both
    // paths below stay bitwise identical to it.
    const QuantileRank rank = quantileRank(preds.size(), q);
    double v_lo, v_hi;
    if (preds.size() >= 2 && preds.size() <= kMaxNetworkSort) {
        double *v = preds.data();
        for (auto [a, b] : sortNetwork(preds.size())) {
            double x = v[a], y = v[b];
            v[a] = std::min(x, y);
            v[b] = std::max(x, y);
        }
        v_lo = v[rank.lo];
        v_hi = v[rank.hi];
    } else {
        auto pivot = preds.begin() + static_cast<std::ptrdiff_t>(rank.lo);
        std::nth_element(preds.begin(), pivot, preds.end());
        v_lo = *pivot;
        v_hi = rank.hi > rank.lo
                   ? *std::min_element(pivot + 1, preds.end())
                   : v_lo;
    }
    return rank.interp(v_lo, v_hi);
}

double
RandomForest::leafTracked(std::size_t tree, const double *x,
                          FeatureSupport &support) const
{
    QOSERVE_ASSERT(tree < roots_.size(), "tree ", tree, " out of range");
    QOSERVE_ASSERT(support.dims >= featureDims_,
                   "support tracks too few features");
    const FlatNode *nodes = flat_.data();
    std::uint32_t node = roots_[tree];
    std::int32_t f;
    while ((f = nodes[node].feature) >= 0) {
        double thr = nodes[node].key;
        if (x[f] <= thr) {
            support.hi[f] = std::min(support.hi[f], thr);
            node = node + 1;
        } else {
            support.lo[f] = std::max(support.lo[f], thr);
            node = nodes[node].right;
        }
    }
    return nodes[node].key;
}

void
RandomForest::fillTreePreds(const double *x, int dims,
                            std::vector<double> &preds) const
{
    QOSERVE_ASSERT(dims >= featureDims_, "feature vector too short");
    preds.resize(roots_.size());
    lockstepFill(flat_.data(), roots_.data(), roots_.size(),
                 maxTreeDepth_, x, preds.data());
}

double
RandomForest::predict(const std::vector<double> &x) const
{
    QOSERVE_ASSERT(trained(), "predict() before fit()");
    auto dims = static_cast<int>(x.size());
    double sum = 0.0;
    for (std::uint32_t root : roots_)
        sum += evalTree(root, x.data(), dims);
    return sum / static_cast<double>(trees_.size());
}

double
RandomForest::predictQuantile(const std::vector<double> &x, double q) const
{
    return predictQuantile(x.data(), static_cast<int>(x.size()), q);
}

double
RandomForest::predictQuantile(const double *x, int dims, double q) const
{
    QOSERVE_ASSERT(trained(), "predictQuantile() before fit()");
    QOSERVE_ASSERT(q >= 0.0 && q <= 1.0, "quantile out of range");
    static thread_local std::vector<double> preds;
    fillTreePreds(x, dims, preds);
    return quantileOfPreds(preds, q);
}

double
RandomForest::predictQuantileTracked(const double *x, int dims, double q,
                                     FeatureSupport &support) const
{
    QOSERVE_ASSERT(trained(), "predictQuantileTracked() before fit()");
    QOSERVE_ASSERT(q >= 0.0 && q <= 1.0, "quantile out of range");
    QOSERVE_ASSERT(dims >= featureDims_, "feature vector too short");
    support.reset(dims);
    static thread_local std::vector<double> preds;
    std::size_t n = roots_.size();
    preds.resize(n);
    // Same lockstep walk as fillTreePreds, with branch-free support
    // narrowing folded in: every level conditionally tightens the box
    // on the tested feature (leaves write their old bounds back).
    const FlatNode *nodes = flat_.data();
    constexpr std::size_t kBlock = 32;
    for (std::size_t base = 0; base < n; base += kBlock) {
        std::size_t m = std::min(kBlock, n - base);
        std::uint32_t cur[kBlock];
        for (std::size_t t = 0; t < m; ++t)
            cur[t] = roots_[base + t];
        for (int level = 0; level < maxTreeDepth_; ++level) {
            for (std::size_t t = 0; t < m; ++t) {
                const FlatNode &nd = nodes[cur[t]];
                bool leaf = nd.feature < 0;
                std::int32_t f = leaf ? 0 : nd.feature;
                double key = nd.key;
                bool left = x[f] <= key;
                double lo = support.lo[f];
                double hi = support.hi[f];
                support.hi[f] = !leaf && left && key < hi ? key : hi;
                support.lo[f] = !leaf && !left && key > lo ? key : lo;
                std::uint32_t next = left ? cur[t] + 1 : nd.right;
                cur[t] = leaf ? cur[t] : next;
            }
        }
        for (std::size_t t = 0; t < m; ++t)
            preds[base + t] = nodes[cur[t]].key;
    }
    return quantileOfPreds(preds, q);
}

double
RandomForest::predictReference(const std::vector<double> &x) const
{
    QOSERVE_ASSERT(trained(), "predictReference() before fit()");
    double sum = 0.0;
    for (const auto &t : trees_)
        sum += t.predict(x);
    return sum / static_cast<double>(trees_.size());
}

double
RandomForest::predictQuantileReference(const std::vector<double> &x,
                                       double q) const
{
    QOSERVE_ASSERT(trained(), "predictQuantileReference() before fit()");
    QOSERVE_ASSERT(q >= 0.0 && q <= 1.0, "quantile out of range");
    std::vector<double> preds;
    preds.reserve(trees_.size());
    for (const auto &t : trees_)
        preds.push_back(t.predict(x));
    return quantileOfPreds(preds, q);
}

} // namespace qoserve
