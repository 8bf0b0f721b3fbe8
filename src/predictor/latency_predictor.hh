/**
 * @file
 * Batch-latency predictors and the dynamic chunk-budget solver.
 *
 * The QoServe scheduler consults a predictor each iteration to find
 * the largest prefill chunk whose predicted execution time fits the
 * minimum slack of the decoding requests (§3.3, §3.6.1, Algorithm 1's
 * GET_PREFILL_BUDGET). Two implementations are provided: the trained
 * random-forest predictor the paper describes, and an oracle that
 * queries the execution model directly (useful for tests and for
 * isolating predictor error in ablations).
 */

#ifndef QOSERVE_PREDICTOR_LATENCY_PREDICTOR_HH
#define QOSERVE_PREDICTOR_LATENCY_PREDICTOR_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "predictor/profiler.hh"

namespace qoserve {

/**
 * A predictor partially evaluated over the (chunkTokens,
 * prefillContext) plane.
 *
 * The chunk-budget solver probes many chunk sizes per iteration, and
 * the prefill head's context drifts by exactly the granted chunk
 * every iteration — but the rest of the batch composition (decode
 * count, decode context sum) changes slowly. Fixing the slow features
 * and leaving the per-probe ones free yields a tiny restricted forest
 * whose predictions are bitwise identical to the full predictor's for
 * as long as the fixed features stay inside @ref support.
 */
struct ChunkPlane
{
    RestrictedForest forest;

    /** Box over the fixed features; free axes are unbounded, so one
     *  contains() on the full feature vector validates reuse. */
    FeatureSupport support;

    double quantile = 0.5;
    double safetyMargin = 1.0;

    bool valid() const { return forest.valid(); }

    /** Predicted latency at @p x (flattened BatchFeatures). */
    SimDuration predict(const double *x, int dims) const
    {
        return forest.predictQuantile(x, dims, quantile) * safetyMargin;
    }
};

/**
 * Predicts the execution time of one iteration's batch.
 */
class LatencyPredictor
{
  public:
    virtual ~LatencyPredictor() = default;

    /** Predicted iteration time, seconds. */
    virtual SimDuration predict(const BatchFeatures &features) const = 0;

    /**
     * Predict and, when possible, report a leaf-stability box.
     *
     * The default forwards to predict() and marks the support invalid
     * (dims = 0). The chunk solver does not call this; it stays
     * because the simulator benchmark's TimedPredictor overrides it.
     */
    virtual SimDuration
    predictSupported(const BatchFeatures &features,
                     FeatureSupport &support) const
    {
        support.dims = 0;
        return predict(features);
    }

    /**
     * Partially evaluate over the (chunkTokens, prefillContext) plane
     * at @p features' remaining coordinates.
     *
     * Returns false (the default) when the predictor cannot partially
     * evaluate; the solver then falls back to per-probe predict().
     *
     * @p super_scratch is unused (the solver passes null); decorators
     * simply forward it.
     */
    virtual bool buildChunkPlane(const BatchFeatures &features,
                                 ChunkPlane &out,
                                 ChunkPlane *super_scratch = nullptr) const
    {
        (void)features;
        (void)out;
        (void)super_scratch;
        return false;
    }
};

/**
 * Ground-truth predictor backed directly by the execution model.
 */
class OracleLatencyPredictor : public LatencyPredictor
{
  public:
    /**
     * @param model Execution model to query.
     * @param margin Multiplier applied to the truth (e.g. 1.05 for a
     *        conservative oracle).
     */
    explicit OracleLatencyPredictor(PerfModel model, double margin = 1.0);

    SimDuration predict(const BatchFeatures &features) const override;

  private:
    PerfModel model_;
    double margin_;
};

/**
 * Random-forest predictor trained on profiler data (§3.6.1).
 *
 * Uses a sub-median quantile of the per-tree predictions scaled by a
 * small factor so the predictor errs toward under-predicting the
 * feasible chunk size — i.e. over-predicting latency — never causing
 * an inadvertent latency increase.
 */
class ForestLatencyPredictor : public LatencyPredictor
{
  public:
    /** Knobs for training and conservatism. */
    struct Options
    {
        ForestParams forest;
        ProfileGrid grid;
        std::uint64_t seed = 7;

        /** Quantile of tree outputs used as the estimate. */
        double quantile = 0.6;

        /** Extra multiplicative safety margin on the estimate. */
        double safetyMargin = 1.05;

        /**
         * Worker threads used to train the forest (0 = hardware
         * concurrency). The fitted predictor is bit-identical for
         * every value; 1 trains serially.
         */
        int trainJobs = 0;

        /**
         * Half-width of the chunk plane's validity box on the decode
         * batch-size axis. Pure performance knob: splits inside the
         * box are kept and re-evaluated per query, so predictions are
         * identical for every value — wider boxes mean rarer plane
         * rebuilds but a larger restricted forest.
         */
        double planeDecodeSlack = 16.0;

        /** Half-width of the validity box on the decode context-sum
         *  axis (same trade-off as planeDecodeSlack). */
        double planeContextSlack = 32768.0;
    };

    /** Train on profiles of @p model with default options. */
    explicit ForestLatencyPredictor(const PerfModel &model);

    /** Train on profiles of @p model. */
    ForestLatencyPredictor(const PerfModel &model, Options options);

    SimDuration predict(const BatchFeatures &features) const override;

    SimDuration predictSupported(const BatchFeatures &features,
                                 FeatureSupport &support) const override;

    /** Builds the plane from the full forest; @p super_scratch is
     *  ignored. */
    bool buildChunkPlane(const BatchFeatures &features, ChunkPlane &out,
                         ChunkPlane *super_scratch = nullptr)
        const override;

    /** Access the fitted ensemble (tests, diagnostics). */
    const RandomForest &forest() const { return forest_; }

    /** Options used at construction. */
    const Options &options() const { return options_; }

  private:
    RandomForest forest_;
    Options options_;
};

/**
 * Memoises the chunk-budget search at two levels.
 *
 * Plane level: holds one ChunkPlane — the predictor partially
 * evaluated over the (chunkTokens, prefillContext) axes the solver
 * actually varies. The plane is reused iff the remaining composition
 * features (decode batch size, context sum) still fall inside its
 * box, which makes every plane answer provably bitwise identical to
 * a fresh forest evaluation. Chunk probes and the head prefill's
 * context drift never force a rebuild, only genuine composition
 * changes do.
 *
 * Leaf level: one entry per (chunk unit u = chunk / step, plane tree
 * t) remembers the leaf tree t reached at chunk u and the (lo, hi]
 * box of that root-to-leaf path over the three non-chunk features.
 * A later probe at unit u whose features lie inside the box takes the
 * same path and reaches the same leaf, so the stored value is reused
 * and only the trees whose box was left are walked again. Each row
 * (unit) carries the plane generation its entries were walked
 * against; a plane rebuild therefore retires every row at once.
 *
 * A probe only decides `latency(u) <= budget`: it counts the values
 * that fit on their own, walks stale trees until that count settles
 * the answer (see fits()), and runs the full quantile only when it
 * cannot. Every answer — and hence every solve — is exactly the
 * uncached search's.
 *
 * No explicit invalidation is required at either level — the box
 * proofs alone guard reuse.
 */
class ChunkSolverCache
{
  public:
    /** Hit/miss counters (diagnostics and the perf benchmarks). */
    struct Stats
    {
        std::uint64_t solves = 0;      ///< solve() calls.
        /** Always 0: the cache never replays a whole solve. Kept
         *  for readers of the counter set (the simulator benchmark
         *  reports it). */
        std::uint64_t replayHits = 0;
        std::uint64_t queries = 0;     ///< Individual probe lookups.
        std::uint64_t hits = 0;        ///< Probes served by the plane.
        std::uint64_t evaluations = 0; ///< Plane rebuilds + fallbacks.
        std::uint64_t invalidations = 0; ///< invalidate() calls.
        std::uint64_t leafHits = 0;  ///< Tree values reused from a path.
        std::uint64_t leafWalks = 0; ///< Tree values walked afresh.
        /** Probes decided while some tree was still unwalked. */
        std::uint64_t earlyDecisions = 0;
        /** Probes that needed the full quantile of every tree. */
        std::uint64_t fullQuantiles = 0;
    };

    /** Drop the cached plane (forces a rebuild on the next query,
     *  which retires every leaf path with it). */
    void invalidate();

    /**
     * Latency for @p chunk from the cached plane, or from a freshly
     * rebuilt plane (or plain predict() for predictors that cannot
     * partially evaluate) when the composition escaped the box.
     */
    SimDuration lookupOrPredict(const LatencyPredictor &predictor,
                                BatchFeatures features, int chunk,
                                int step);

    /**
     * Largest feasible chunk for @p budget — the memoised equivalent
     * of solveChunkBudget()'s cold search, returning a bitwise
     * identical result.
     *
     * @param decode_state Batch composition (chunkTokens ignored).
     * @param budget Latency budget, seconds (> 0).
     * @param max_chunk Upper bound on the chunk (>= step).
     * @param step Chunk granularity.
     */
    int solve(const LatencyPredictor &predictor,
              const BatchFeatures &decode_state, SimDuration budget,
              int max_chunk, int step);

    const Stats &stats() const { return stats_; }

  private:
    /** Features a leaf path is boxed over: all but chunkTokens, which
     *  the row fixes. */
    static constexpr int kPathDims = BatchFeatures::kCount - 1;

    /** Memoised root-to-leaf path of one plane tree at one unit. */
    struct LeafPath
    {
        /** (lo, hi] per feature 1..kCount-1 of the flattened query. */
        double lo[kPathDims];
        double hi[kPathDims];
        double leaf;
    };

    /** Rebuild plane_ for @p x if its box no longer covers it; true
     *  when a valid plane is available afterwards. */
    bool ensurePlane(const LatencyPredictor &predictor,
                     const BatchFeatures &features, const double *x);

    /** Size the leaf-path rows for units 0..@p units of @p step
     *  against the current plane. */
    void shapeRows(int units, int step);

    /** True iff the plane latency at chunk @p unit * step_, features
     *  @p x (x[0] is overwritten), is <= @p budget. */
    bool fits(int unit, double *x, SimDuration budget);

    ChunkPlane plane_;

    /** Bumped on every plane_ rebuild; a row is current only while
     *  its stamp equals it. */
    std::uint64_t generation_ = 0;

    /** Chunk step and plane tree count the rows were shaped for. */
    int step_ = 0;
    std::size_t trees_ = 0;

    /** Row u holds entries [u * trees_, (u + 1) * trees_). */
    std::vector<LeafPath> paths_;
    std::vector<std::uint64_t> rowGeneration_;

    /** Trees of the current probe whose path must be walked. */
    std::vector<std::uint32_t> stale_;

    /** Per-tree values of an undecided probe (the quantile kernel
     *  reorders them, so they cannot alias paths_). */
    std::vector<double> preds_;

    Stats stats_;
};

/**
 * Find the largest chunk size whose predicted latency fits a budget.
 *
 * Searches multiples of @p step in [0, max_chunk], assuming latency
 * is non-decreasing in chunk size.
 *
 * @param predictor Latency predictor to consult.
 * @param decode_state Batch composition; the chunkTokens field is
 *        ignored and overwritten during the search.
 * @param budget Latency budget, seconds.
 * @param max_chunk Upper bound on the chunk.
 * @param step Chunk granularity.
 * @param cache Optional prediction memo shared across solves; hits
 *        are bitwise identical to fresh evaluations, so the solve
 *        result is unchanged.
 * @return Largest feasible chunk (multiple of step), or 0 when even
 *         the smallest step exceeds the budget.
 */
int solveChunkBudget(const LatencyPredictor &predictor,
                     BatchFeatures decode_state, SimDuration budget,
                     int max_chunk, int step = 64,
                     ChunkSolverCache *cache = nullptr);

} // namespace qoserve

#endif // QOSERVE_PREDICTOR_LATENCY_PREDICTOR_HH
