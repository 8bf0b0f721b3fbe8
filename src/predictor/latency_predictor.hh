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
 * The forest the chunk solver's leaf-path memo walks: a view of the
 * predictor's own flattened forest (no copy) plus the quantile and
 * margin that turn its per-tree values into a latency. A
 * ChunkSolverCache fills one on its first solve and keeps it until it
 * is handed a different predictor.
 */
struct ChunkPlane
{
    const RandomForest *forest = nullptr;
    double quantile = 0.5;
    double safetyMargin = 1.0;

    bool valid() const { return forest != nullptr; }
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
     * Bind @p out to the forest behind this predictor, for the chunk
     * solver's leaf-path memo to walk.
     *
     * Returns false (the default) when the predictor has no forest;
     * the solver then falls back to per-probe predict(). @p features
     * is the batch composition at bind time and @p super_scratch is
     * unused (the solver passes null); the forest predictor ignores
     * both, and decorators simply forward them.
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
    };

    /** Train on profiles of @p model with default options. */
    explicit ForestLatencyPredictor(const PerfModel &model);

    /** Train on profiles of @p model. */
    ForestLatencyPredictor(const PerfModel &model, Options options);

    SimDuration predict(const BatchFeatures &features) const override;

    SimDuration predictSupported(const BatchFeatures &features,
                                 FeatureSupport &support) const override;

    /** Binds @p out to forest() with the configured quantile and
     *  margin; @p features and @p super_scratch are ignored. */
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
 * Memoises the chunk-budget search's per-tree leaf values.
 *
 * The first solve binds the cache to the predictor's own flattened
 * forest through LatencyPredictor::buildChunkPlane(); it rebinds only
 * when it is handed a different predictor object, and a predictor
 * without a forest is searched with plain per-probe predict() calls.
 * The cache keeps the predictor's address and forest, so it must not
 * outlive any predictor it has been handed.
 *
 * One entry per (chunk unit u = chunk / step, tree t) remembers the
 * leaf tree t reached at chunk u and the (lo, hi] box of that
 * root-to-leaf path over the three non-chunk features. A later probe
 * at unit u whose features lie inside the box takes the same path
 * and reaches the same leaf, so the stored value is reused and only
 * the trees whose box was left are walked again. The box comes from
 * the full forest, so it is exact whatever the batch composition:
 * entries are never retired, only reset when the step, the tree
 * count or the bound predictor changes.
 *
 * A probe only decides `latency(u) <= budget`: it counts the values
 * that fit on their own, walks stale trees until that count settles
 * the answer (see fits()), and runs the full quantile only when it
 * cannot. Every answer — and hence every solve — is exactly the
 * uncached search's.
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
        std::uint64_t hits = 0;        ///< Probes served by the memo.
        std::uint64_t evaluations = 0; ///< Predictor binds.
        /** Always 0: nothing invalidates the cache (kept, like
         *  replayHits, for the simulator benchmark). */
        std::uint64_t invalidations = 0;
        std::uint64_t leafHits = 0;  ///< Tree values reused from a path.
        std::uint64_t leafWalks = 0; ///< Tree values walked afresh.
        /** Probes decided while some tree was still unwalked. */
        std::uint64_t earlyDecisions = 0;
        /** Probes that needed the full quantile of every tree. */
        std::uint64_t fullQuantiles = 0;
    };

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

    /**
     * Arrays per row, each one double per tree (field-major, so the
     * validity pass streams every array once): lo per path feature,
     * then hi per path feature, then h(leaf) — the leaf value through
     * the quantile interpolation and margin, see fits() — then the
     * leaf value itself.
     */
    static constexpr std::size_t kLoField = 0;
    static constexpr std::size_t kHiField = kPathDims;
    static constexpr std::size_t kHField = 2 * kPathDims;
    static constexpr std::size_t kLeafField = kHField + 1;
    static constexpr std::size_t kRowFields = kLeafField + 1;

    /** Bind plane_ to @p predictor's forest and reset every row. */
    void bind(const LatencyPredictor &predictor,
              const BatchFeatures &features);

    /** Size the rows for units 0..@p units of @p step; rows created
     *  here, or all rows when the step or tree count changed, start
     *  empty. */
    void shapeRows(int units, int step);

    /** True iff the latency at chunk @p unit * step_, features @p x
     *  (x[0] is overwritten), is <= @p budget. */
    bool fits(int unit, double *x, SimDuration budget);

    /** Predictor plane_ was bound from (null before the first solve). */
    const LatencyPredictor *bound_ = nullptr;
    ChunkPlane plane_;

    /** Rank of plane_.quantile over the forest's trees. */
    QuantileRank rank_{0, 0, 0.0};

    /** Chunk step and tree count the rows were shaped for (step 0:
     *  unshaped). */
    int step_ = 0;
    std::size_t trees_ = 0;

    /** Row u holds kRowFields arrays of trees_ doubles, starting at
     *  u * kRowFields * trees_. An empty entry has lo = +inf. */
    std::vector<double> paths_;

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
