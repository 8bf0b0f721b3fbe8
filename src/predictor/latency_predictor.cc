/**
 * @file
 * Latency predictor implementations.
 */

#include "predictor/latency_predictor.hh"

#include <algorithm>
#include <limits>

#include "simcore/logging.hh"

namespace qoserve {

OracleLatencyPredictor::OracleLatencyPredictor(PerfModel model,
                                               double margin)
    : model_(std::move(model)), margin_(margin)
{
    QOSERVE_ASSERT(margin_ > 0.0, "margin must be positive");
}

SimDuration
OracleLatencyPredictor::predict(const BatchFeatures &features) const
{
    return margin_ * model_.iterationTime(features.toWork());
}

ForestLatencyPredictor::ForestLatencyPredictor(const PerfModel &model)
    : ForestLatencyPredictor(model, Options{})
{
}

ForestLatencyPredictor::ForestLatencyPredictor(const PerfModel &model,
                                               Options options)
    : options_(std::move(options))
{
    auto samples = collectProfile(model, options_.grid, options_.seed);
    forest_.fit(samples, options_.forest, options_.seed,
                options_.trainJobs);
}

SimDuration
ForestLatencyPredictor::predict(const BatchFeatures &features) const
{
    auto x = features.toArray();
    double est = forest_.predictQuantile(x.data(), BatchFeatures::kCount,
                                         options_.quantile);
    return est * options_.safetyMargin;
}

SimDuration
ForestLatencyPredictor::predictSupported(const BatchFeatures &features,
                                         FeatureSupport &support) const
{
    auto x = features.toArray();
    double est = forest_.predictQuantileTracked(
        x.data(), BatchFeatures::kCount, options_.quantile, support);
    return est * options_.safetyMargin;
}

namespace {

/**
 * Largest unit in [0, units] whose probe is feasible, assuming
 * feasibility is monotone: probes units first, then bisects. A fitted
 * forest is not guaranteed monotone, so the result depends on the
 * probe order; the memoised and uncached solves share this search to
 * probe identically.
 */
template <typename Feasible>
int
largestFeasibleUnit(int units, Feasible &&feasible)
{
    int lo = 0; // feasible (empty chunk) by definition
    int hi = units;
    if (feasible(hi))
        return hi;
    // Invariant: lo feasible, hi infeasible.
    while (hi - lo > 1) {
        int mid = lo + (hi - lo) / 2;
        if (feasible(mid))
            lo = mid;
        else
            hi = mid;
    }
    return lo;
}

} // namespace

bool
ForestLatencyPredictor::buildChunkPlane(const BatchFeatures & /*features*/,
                                        ChunkPlane &out,
                                        ChunkPlane * /*super_scratch*/) const
{
    out.forest = &forest_;
    out.quantile = options_.quantile;
    out.safetyMargin = options_.safetyMargin;
    return true;
}

void
ChunkSolverCache::bind(const LatencyPredictor &predictor,
                       const BatchFeatures &features)
{
    ++stats_.evaluations;
    bound_ = &predictor;
    plane_ = ChunkPlane{};
    if (!predictor.buildChunkPlane(features, plane_))
        plane_.forest = nullptr;
    if (plane_.valid())
        rank_ = quantileRank(plane_.forest->numTrees(), plane_.quantile);
    step_ = 0; // the next shapeRows() resets every row
}

void
ChunkSolverCache::shapeRows(int units, int step)
{
    auto rows = static_cast<std::size_t>(units) + 1;
    std::size_t trees = plane_.forest->numTrees();
    if (step != step_ || trees != trees_) {
        // A new step, tree count or forest changes what every entry
        // means, so all rows restart empty.
        step_ = step;
        trees_ = trees;
        paths_.clear();
        stale_.resize(trees);
        preds_.resize(trees);
    }
    // New rows get +inf in every field: lo = +inf fails each
    // containment test.
    const std::size_t size = rows * kRowFields * trees_;
    if (size > paths_.size())
        paths_.resize(size, std::numeric_limits<double>::infinity());
}

bool
ChunkSolverCache::fits(int unit, double *x, SimDuration budget)
{
    ++stats_.queries;
    ++stats_.hits;
    x[0] = static_cast<double>(unit * step_);
    const std::size_t n = trees_;
    double *row = &paths_[static_cast<std::size_t>(unit) * kRowFields * n];
    const double *lo0 = row + (kLoField + 0) * n;
    const double *lo1 = row + (kLoField + 1) * n;
    const double *lo2 = row + (kLoField + 2) * n;
    const double *hi0 = row + (kHiField + 0) * n;
    const double *hi1 = row + (kHiField + 1) * n;
    const double *hi2 = row + (kHiField + 2) * n;
    double *h = row + kHField * n;
    double *leaf = row + kLeafField * n;
    static_assert(kPathDims == 3, "the validity pass names each axis");

    // With the kernel's interpolation g and h(v) = g(v, v) * margin,
    // monotone rounding gives h(v_lo) <= latency <= h(v_hi) for the
    // lo-th and hi-th smallest values v_lo, v_hi. Let `below` count
    // the values with h(v) <= budget: below >= hi + 1 proves
    // h(v_hi) <= budget (feasible), below <= lo proves
    // h(v_lo) > budget (infeasible). Unwalked trees may each still
    // add one to the count.
    const double x1 = x[1], x2 = x[2], x3 = x[3];
    std::size_t below = 0;
    std::size_t stale = 0;
    for (std::size_t t = 0; t < n; ++t) {
        const bool inside = (lo0[t] < x1) & (x1 <= hi0[t]) &
                            (lo1[t] < x2) & (x2 <= hi1[t]) &
                            (lo2[t] < x3) & (x3 <= hi2[t]);
        below += inside & (h[t] <= budget);
        stale_[stale] = static_cast<std::uint32_t>(t);
        stale += !inside;
    }
    stats_.leafHits += n - stale;
    for (std::size_t k = 0;; ++k) {
        const std::size_t unwalked = stale - k;
        if (below >= rank_.hi + 1 || below + unwalked <= rank_.lo) {
            stats_.earlyDecisions += unwalked > 0;
            return below >= rank_.hi + 1;
        }
        if (unwalked == 0)
            break;
        ++stats_.leafWalks;
        const std::size_t t = stale_[k];
        FeatureSupport box;
        box.reset(BatchFeatures::kCount);
        const double v = plane_.forest->leafTracked(t, x, box);
        for (std::size_t i = 0; i < kPathDims; ++i) {
            row[(kLoField + i) * n + t] = box.lo[i + 1];
            row[(kHiField + i) * n + t] = box.hi[i + 1];
        }
        h[t] = rank_.interp(v, v) * plane_.safetyMargin;
        leaf[t] = v;
        below += h[t] <= budget;
    }

    // Every value known and the count still undecided: the quantile
    // kernel and margin of ForestLatencyPredictor::predict, over the
    // same per-tree values in the same order, give the exact latency.
    ++stats_.fullQuantiles;
    std::copy(leaf, leaf + n, preds_.begin());
    return quantileOfPreds(preds_, plane_.quantile) *
               plane_.safetyMargin <=
           budget;
}

int
ChunkSolverCache::solve(const LatencyPredictor &predictor,
                        const BatchFeatures &decode_state,
                        SimDuration budget, int max_chunk, int step)
{
    ++stats_.solves;
    const int units = max_chunk / step;
    if (bound_ != &predictor)
        bind(predictor, decode_state);

    if (!plane_.valid()) {
        // No forest to walk: plain cold search with per-probe
        // predictions.
        return step * largestFeasibleUnit(units, [&](int unit) {
                   BatchFeatures f = decode_state;
                   f.chunkTokens = static_cast<double>(unit * step);
                   ++stats_.queries;
                   return predictor.predict(f) <= budget;
               });
    }

    shapeRows(units, step);
    auto x = decode_state.toArray();
    return step * largestFeasibleUnit(units, [&](int unit) {
               return fits(unit, x.data(), budget);
           });
}

int
solveChunkBudget(const LatencyPredictor &predictor,
                 BatchFeatures decode_state, SimDuration budget,
                 int max_chunk, int step, ChunkSolverCache *cache)
{
    QOSERVE_ASSERT(max_chunk >= 0 && step > 0, "bad solver bounds");
    if (budget <= 0.0 || max_chunk < step)
        return 0;

    if (cache != nullptr)
        return cache->solve(predictor, decode_state, budget, max_chunk,
                            step);

    return step * largestFeasibleUnit(max_chunk / step, [&](int unit) {
               BatchFeatures f = decode_state;
               f.chunkTokens = static_cast<double>(unit * step);
               return predictor.predict(f) <= budget;
           });
}

} // namespace qoserve
