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
ForestLatencyPredictor::buildChunkPlane(const BatchFeatures &features,
                                        ChunkPlane &out,
                                        ChunkPlane * /*super_scratch*/) const
{
    // chunkTokens and prefillContext stay fully free: the solver
    // varies the former per probe and the latter drifts by the
    // granted chunk every iteration. The composition features get a
    // slack box around their current values so small drifts (decodes
    // joining/leaving, contexts growing) don't force a rebuild.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const double lo[BatchFeatures::kCount] = {
        -kInf, -kInf, features.numDecodes - options_.planeDecodeSlack,
        features.decodeCtxSum - options_.planeContextSlack};
    const double hi[BatchFeatures::kCount] = {
        kInf, kInf, features.numDecodes + options_.planeDecodeSlack,
        features.decodeCtxSum + options_.planeContextSlack};
    forest_.restrictToBox(lo, hi, BatchFeatures::kCount, out.forest,
                          out.support);
    out.quantile = options_.quantile;
    out.safetyMargin = options_.safetyMargin;
    return true;
}

void
ChunkSolverCache::invalidate()
{
    plane_.forest.clear();
    ++stats_.invalidations;
}

SimDuration
ChunkSolverCache::lookupOrPredict(const LatencyPredictor &predictor,
                                  BatchFeatures features, int chunk,
                                  int step)
{
    QOSERVE_ASSERT(chunk >= 0 && step > 0, "bad cache key");
    features.chunkTokens = static_cast<double>(chunk);
    auto x = features.toArray();

    ++stats_.queries;
    if (plane_.valid() &&
        plane_.support.contains(x.data(), BatchFeatures::kCount)) {
        ++stats_.hits;
        return plane_.predict(x.data(), BatchFeatures::kCount);
    }
    if (ensurePlane(predictor, features, x.data()))
        return plane_.predict(x.data(), BatchFeatures::kCount);
    return predictor.predict(features);
}

bool
ChunkSolverCache::ensurePlane(const LatencyPredictor &predictor,
                              const BatchFeatures &features,
                              const double *x)
{
    if (plane_.valid()) {
        if (plane_.support.contains(x, BatchFeatures::kCount))
            return true;
    }
    ++stats_.evaluations;
    if (!predictor.buildChunkPlane(features, plane_))
        return false;
    ++generation_;
    return true;
}

void
ChunkSolverCache::shapeRows(int units, int step)
{
    auto rows = static_cast<std::size_t>(units) + 1;
    std::size_t trees = plane_.forest.numTrees();
    if (step == step_ && trees == trees_ && rows <= rowGeneration_.size())
        return;
    // A new step or tree count changes what every entry means, so all
    // rows restart stale (stamp 0 precedes the first plane).
    step_ = step;
    trees_ = trees;
    rowGeneration_.assign(std::max(rows, rowGeneration_.size()), 0);
    paths_.resize(rowGeneration_.size() * trees);
    stale_.resize(trees);
    preds_.resize(trees);
}

bool
ChunkSolverCache::fits(int unit, double *x, SimDuration budget)
{
    ++stats_.queries;
    ++stats_.hits;
    x[0] = static_cast<double>(unit * step_);
    LeafPath *row = &paths_[static_cast<std::size_t>(unit) * trees_];
    std::uint64_t &stamp = rowGeneration_[static_cast<std::size_t>(unit)];
    if (stamp != generation_) {
        // Walked against an older plane: empty every box first, so an
        // entry this probe leaves unwalked stays a miss.
        for (std::size_t t = 0; t < trees_; ++t)
            row[t].lo[0] = std::numeric_limits<double>::infinity();
        stamp = generation_;
    }

    // With the kernel's interpolation g and h(v) = g(v, v) * margin,
    // monotone rounding gives h(v_lo) <= latency <= h(v_hi) for the
    // lo-th and hi-th smallest values v_lo, v_hi. Let `below` count
    // the values with h(v) <= budget: below >= hi + 1 proves
    // h(v_hi) <= budget (feasible), below <= lo proves
    // h(v_lo) > budget (infeasible). Unwalked trees may each still
    // add one to the count.
    const QuantileRank rank = quantileRank(trees_, plane_.quantile);
    const double margin = plane_.safetyMargin;
    auto low = [&](double v) {
        return rank.interp(v, v) * margin <= budget;
    };
    std::size_t below = 0;
    std::size_t stale = 0;
    for (std::size_t t = 0; t < trees_; ++t) {
        const LeafPath &path = row[t];
        bool inside = true;
        for (int i = 0; i < kPathDims; ++i)
            inside &= path.lo[i] < x[i + 1] && x[i + 1] <= path.hi[i];
        below += inside && low(path.leaf);
        stale_[stale] = static_cast<std::uint32_t>(t);
        stale += !inside;
    }
    stats_.leafHits += trees_ - stale;
    for (std::size_t k = 0;; ++k) {
        const std::size_t unwalked = stale - k;
        if (below >= rank.hi + 1 || below + unwalked <= rank.lo) {
            stats_.earlyDecisions += unwalked > 0;
            return below >= rank.hi + 1;
        }
        if (unwalked == 0)
            break;
        ++stats_.leafWalks;
        LeafPath &path = row[stale_[k]];
        FeatureSupport box;
        box.reset(BatchFeatures::kCount);
        path.leaf = plane_.forest.leafTracked(stale_[k], x, box);
        for (int i = 0; i < kPathDims; ++i) {
            path.lo[i] = box.lo[i + 1];
            path.hi[i] = box.hi[i + 1];
        }
        below += low(path.leaf);
    }

    // Every value known and the count still undecided: the same
    // kernel and margin as ChunkPlane::predict, over the same per-tree
    // values in the same order, gives the exact latency.
    ++stats_.fullQuantiles;
    for (std::size_t t = 0; t < trees_; ++t)
        preds_[t] = row[t].leaf;
    return quantileOfPreds(preds_, plane_.quantile) * margin <= budget;
}

int
ChunkSolverCache::solve(const LatencyPredictor &predictor,
                        const BatchFeatures &decode_state,
                        SimDuration budget, int max_chunk, int step)
{
    ++stats_.solves;
    const int units = max_chunk / step;

    BatchFeatures features = decode_state;
    // The chunk axis is free in the plane's box, so any value
    // validates the composition check below.
    features.chunkTokens = 0.0;
    auto x = features.toArray();

    if (!ensurePlane(predictor, features, x.data())) {
        // Predictor cannot partially evaluate: plain cold search with
        // per-probe predictions.
        return step * largestFeasibleUnit(units, [&](int unit) {
                   BatchFeatures f = decode_state;
                   f.chunkTokens = static_cast<double>(unit * step);
                   ++stats_.queries;
                   return predictor.predict(f) <= budget;
               });
    }

    shapeRows(units, step);
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
