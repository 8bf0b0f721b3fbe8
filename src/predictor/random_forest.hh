/**
 * @file
 * CART regression trees and a bagged random-forest regressor.
 *
 * The paper's dynamic-chunking predictor is "a lightweight random
 * forest model which predicts the execution time of a given batch"
 * (§3.6.1), trained on latency profiles collected from the Vidur
 * simulator harness. This is that component, built from scratch:
 * variance-reduction CART trees plus bootstrap aggregation, with
 * quantile prediction so the ensemble can be biased toward
 * under-predicting chunk latency (the paper tunes the model "to err
 * on the side of under-predicting").
 */

#ifndef QOSERVE_PREDICTOR_RANDOM_FOREST_HH
#define QOSERVE_PREDICTOR_RANDOM_FOREST_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "simcore/rng.hh"

namespace qoserve {

/** Feature-dimension cap for FeatureSupport tracking. */
inline constexpr int kMaxForestFeatures = 8;

/**
 * Axis-aligned region of feature space over which a forest
 * evaluation is provably constant.
 *
 * Every comparison a forest walk performs is `x[f] <= threshold`.
 * Recording, per feature, the tightest threshold passed on each side
 * yields a box (lo, hi] per axis: any query inside the box takes the
 * exact same branch at every node of every tree and therefore lands
 * on the exact same leaves — its prediction is bitwise identical to
 * the recorded one. This is what makes prediction memoisation safe
 * under drifting context features (the chunk-budget solver's cache
 * keys on these boxes rather than on exact feature equality).
 */
struct FeatureSupport
{
    /** Exclusive lower bounds per feature. */
    double lo[kMaxForestFeatures];

    /** Inclusive upper bounds per feature. */
    double hi[kMaxForestFeatures];

    /** Tracked feature count; 0 marks an invalid (unusable) support. */
    int dims = 0;

    /** Reset to the full space over @p d features. */
    void reset(int d);

    /** True if @p x lies strictly inside the box (lo < x[i] <= hi). */
    bool contains(const double *x, int d) const;
};

/**
 * One node of a flattened tree.
 *
 * Trees are stored in preorder, so an internal node's left child is
 * always the next array slot — only the right-child index is stored.
 * A leaf keeps its value in @ref key; an internal node keeps its split
 * threshold there.
 */
struct FlatNode
{
    double key = 0.0;          ///< Split threshold, or leaf value.
    std::uint32_t right = 0;   ///< Right-child index (internal only).
    std::int32_t feature = -1; ///< Split feature; -1 marks a leaf.
};

/** A training/evaluation sample: feature vector plus target. */
struct TrainSample
{
    std::vector<double> x;
    double y = 0.0;
};

/** Hyper-parameters shared by trees and forests. */
struct ForestParams
{
    /** Number of trees in the ensemble. */
    int numTrees = 20;

    /** Maximum tree depth. */
    int maxDepth = 12;

    /** Minimum samples required in a leaf. */
    int minSamplesLeaf = 4;

    /** Candidate split thresholds evaluated per feature per node. */
    int splitCandidates = 16;

    /** Fraction of the training set drawn (with replacement) per tree. */
    double bootstrapFraction = 1.0;
};

/**
 * A single CART regression tree, grown by greedy variance reduction.
 */
class RegressionTree
{
  public:
    /**
     * Fit the tree.
     *
     * @param samples Training data; all x must share one length.
     * @param params Growth limits.
     * @param rng Source of randomness for split-candidate sampling.
     */
    void fit(const std::vector<TrainSample> &samples,
             const ForestParams &params, Rng &rng);

    /** Predict the target for a feature vector. */
    double predict(const std::vector<double> &x) const;

    /** Number of nodes in the fitted tree (0 before fit). */
    std::size_t numNodes() const { return nodes_.size(); }

    /**
     * Append this tree's nodes to a flat preorder array.
     *
     * The builder already emits nodes in preorder (left child is
     * parent + 1), so flattening is a direct re-encoding with indices
     * rebased to @p out's current size.
     */
    void flattenInto(std::vector<FlatNode> &out) const;

  private:
    struct Node
    {
        int feature = -1;     ///< -1 marks a leaf.
        double threshold = 0.0;
        int left = -1;
        int right = -1;
        double value = 0.0;   ///< Leaf mean.
    };

    /** Reusable per-node buffers for the split scan. */
    struct SplitScratch
    {
        /** (feature value, sample index), sorted by value. */
        std::vector<std::pair<double, std::uint32_t>> keyed;
        std::vector<double> values;       ///< Feature values, sorted.
        std::vector<double> prefY;        ///< Prefix sums of y.
        std::vector<double> prefY2;       ///< Prefix sums of y².
    };

    int build(const std::vector<TrainSample> &samples,
              std::vector<std::uint32_t> &idx, int lo, int hi, int depth,
              const ForestParams &params, Rng &rng,
              SplitScratch &scratch);

    std::vector<Node> nodes_;
};

/**
 * Where a quantile falls among n sorted values: interp() of the lo-th
 * and hi-th smallest. The quantile kernel and the chunk solver's
 * feasibility count share it, so the count's bounds use the exact
 * arithmetic of the value they bound; both weights are non-negative,
 * so under monotone IEEE rounding interp() never decreases as either
 * argument grows.
 */
struct QuantileRank
{
    std::size_t lo;
    std::size_t hi;
    double frac;

    double interp(double v_lo, double v_hi) const
    {
        return v_lo * (1.0 - frac) + v_hi * frac;
    }
};

/** Rank of quantile @p q in [0, 1] over @p n >= 1 values. */
inline QuantileRank
quantileRank(std::size_t n, double q)
{
    double pos = q * static_cast<double>(n - 1);
    auto lo = static_cast<std::size_t>(pos);
    return {lo, lo + 1 < n ? lo + 1 : lo, pos - static_cast<double>(lo)};
}

/**
 * Quantile of per-tree predictions: the kernel every forest quantile
 * path shares. Reorders @p preds.
 *
 * @param preds Per-tree predictions in tree order (non-empty).
 * @param q Quantile in [0, 1].
 */
double quantileOfPreds(std::vector<double> &preds, double q);

/**
 * Bagged ensemble of regression trees.
 */
class RandomForest
{
  public:
    /**
     * Fit the ensemble on @p samples with seed-derived randomness.
     *
     * Each tree's bootstrap draw and growth randomness come from an
     * independent stream split from (seed, tree index), so trees can
     * be trained concurrently: the fitted ensemble is bit-identical
     * for every @p jobs value.
     *
     * @param jobs Worker threads training trees (0 = hardware
     *        concurrency, 1 = serial).
     */
    void fit(const std::vector<TrainSample> &samples, ForestParams params,
             std::uint64_t seed, int jobs = 1);

    /** Mean prediction across trees (flattened fast path). */
    double predict(const std::vector<double> &x) const;

    /**
     * Quantile of the per-tree predictions (flattened fast path).
     *
     * Quantiles below 0.5 bias the ensemble toward under-prediction,
     * which the chunk solver uses for conservatism.
     *
     * @param x Feature vector.
     * @param q Quantile in [0, 1].
     */
    double predictQuantile(const std::vector<double> &x, double q) const;

    /** Zero-allocation quantile prediction over a raw feature array. */
    double predictQuantile(const double *x, int dims, double q) const;

    /**
     * Quantile prediction that also reports its leaf-stability box.
     *
     * @p support is reset to the full space and narrowed at every
     * comparison the walk performs; on return, any query strictly
     * inside the box is guaranteed to produce a bitwise-identical
     * prediction.
     */
    double predictQuantileTracked(const double *x, int dims, double q,
                                  FeatureSupport &support) const;

    /**
     * Leaf value tree @p tree reaches at @p x, narrowing a
     * caller-initialised @p support to the (lo, hi] box of that one
     * root-to-leaf path.
     *
     * The value is the one the lockstep walk of predictQuantile()
     * collects for that tree, and any query inside the final box
     * takes the same path to the same leaf. @p support must track at
     * least the features this forest tests (reset() it first).
     */
    double leafTracked(std::size_t tree, const double *x,
                       FeatureSupport &support) const;

    /**
     * Mean prediction via the original per-tree recursive walk.
     *
     * Kept as the ground truth for bitwise-equivalence tests of the
     * flattened path.
     */
    double predictReference(const std::vector<double> &x) const;

    /** Quantile prediction via the original per-tree walk. */
    double predictQuantileReference(const std::vector<double> &x,
                                    double q) const;

    /** Number of fitted trees. */
    std::size_t numTrees() const { return trees_.size(); }

    /** Individual fitted tree — with predictReference(), the ground
     *  truth for bitwise-equivalence tests of the flattened path. */
    const RegressionTree &tree(std::size_t t) const { return trees_[t]; }

    /** Total nodes in the flattened forest (diagnostics). */
    std::size_t numFlatNodes() const { return flat_.size(); }

    /** True once fit() has run. */
    bool trained() const { return !trees_.empty(); }

  private:
    double evalTree(std::uint32_t root, const double *x, int dims) const;
    void fillTreePreds(const double *x, int dims,
                       std::vector<double> &preds) const;

    std::vector<RegressionTree> trees_;

    /** All trees' nodes, concatenated; tree t starts at roots_[t]. */
    std::vector<FlatNode> flat_;
    std::vector<std::uint32_t> roots_;

    /** Deepest root-to-leaf edge count across trees: the lockstep
     *  walk runs exactly this many levels. */
    int maxTreeDepth_ = 0;

    /** 1 + max feature index any node tests: evaluation validates the
     *  query width once instead of per node. */
    int featureDims_ = 0;
};

} // namespace qoserve

#endif // QOSERVE_PREDICTOR_RANDOM_FOREST_HH
