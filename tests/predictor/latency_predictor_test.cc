/**
 * @file
 * Tests for latency predictors and the chunk-budget solver,
 * including the paper's accuracy and conservatism claims (§3.6.1).
 */

#include "predictor/latency_predictor.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace qoserve {
namespace {

class PredictorTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        model_ = new PerfModel(llama3_8b_a100_tp1());
        forest_ = new ForestLatencyPredictor(*model_);
    }

    static void
    TearDownTestSuite()
    {
        delete forest_;
        delete model_;
        forest_ = nullptr;
        model_ = nullptr;
    }

    static BatchFeatures
    features(double chunk, double pctx, double nd, double dctx)
    {
        BatchFeatures f;
        f.chunkTokens = chunk;
        f.prefillContext = pctx;
        f.numDecodes = nd;
        f.decodeCtxSum = dctx;
        return f;
    }

    static PerfModel *model_;
    static ForestLatencyPredictor *forest_;
};

PerfModel *PredictorTest::model_ = nullptr;
ForestLatencyPredictor *PredictorTest::forest_ = nullptr;

TEST_F(PredictorTest, OracleReturnsModelTruth)
{
    OracleLatencyPredictor oracle(*model_);
    BatchFeatures f = features(512, 1000, 16, 16 * 2000);
    EXPECT_DOUBLE_EQ(oracle.predict(f),
                     model_->iterationTime(f.toWork()));
}

TEST_F(PredictorTest, OracleMarginScales)
{
    OracleLatencyPredictor conservative(*model_, 1.2);
    OracleLatencyPredictor exact(*model_);
    BatchFeatures f = features(512, 1000, 16, 16 * 2000);
    EXPECT_NEAR(conservative.predict(f), 1.2 * exact.predict(f), 1e-12);
}

TEST_F(PredictorTest, ForestErrorWithin10Percent)
{
    // §3.6.1: "< 10% error margin". Measured as median relative
    // error over off-grid batch compositions.
    Rng rng(101);
    std::vector<double> rel_errors;
    for (int i = 0; i < 300; ++i) {
        BatchFeatures f = features(
            rng.uniform(64, 3000), rng.uniform(0, 8000),
            std::floor(rng.uniform(0, 128)), 0.0);
        f.decodeCtxSum = f.numDecodes * rng.uniform(200, 4000);
        double truth = model_->iterationTime(f.toWork());
        double pred = forest_->predict(f);
        rel_errors.push_back(std::abs(pred - truth) / truth);
    }
    std::sort(rel_errors.begin(), rel_errors.end());
    EXPECT_LT(rel_errors[rel_errors.size() / 2], 0.10);
}

TEST_F(PredictorTest, ForestBiasedTowardOverPredictingLatency)
{
    // The paper tunes the model to "err on the side of
    // under-predicting chunk size", i.e. over-predicting latency,
    // so a chunk chosen from the prediction never blows the budget.
    Rng rng(103);
    int over = 0, total = 300;
    for (int i = 0; i < total; ++i) {
        BatchFeatures f = features(
            rng.uniform(64, 3000), rng.uniform(0, 8000),
            std::floor(rng.uniform(0, 128)), 0.0);
        f.decodeCtxSum = f.numDecodes * rng.uniform(200, 4000);
        double truth = model_->iterationTime(f.toWork());
        over += forest_->predict(f) >= truth;
    }
    EXPECT_GT(over, total * 7 / 10);
}

TEST_F(PredictorTest, ForestMonotonicEnoughInChunk)
{
    // Coarse monotonicity: predictions at 4x the chunk exceed
    // predictions at the base chunk.
    for (double base : {128.0, 256.0, 512.0}) {
        BatchFeatures lo = features(base, 0, 32, 32 * 1500);
        BatchFeatures hi = features(4 * base, 0, 32, 32 * 1500);
        EXPECT_GT(forest_->predict(hi), forest_->predict(lo));
    }
}

TEST_F(PredictorTest, DefaultForestIsPinned)
{
    // The trained forest itself, pinned bit for bit: an FNV-1a hash
    // over the flattened node count and the exact bits of the
    // quantile and mean predictions on a fixed grid, for the default
    // options (seed 7). Any change to training — split scan, sort,
    // bootstrap draw — that alters a single threshold or leaf moves
    // it.
    std::uint64_t hash = 14695981039346656037ull;
    auto mix = [&hash](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            hash ^= (v >> (8 * i)) & 0xffu;
            hash *= 1099511628211ull;
        }
    };
    mix(forest_->forest().numFlatNodes());
    for (double chunk : {0.0, 64.0, 256.0, 1024.0, 2560.0, 4096.0}) {
        for (double pctx : {0.0, 1000.0, 4000.0, 12000.0}) {
            for (double nd : {0.0, 8.0, 32.0, 96.0}) {
                for (double per_decode : {500.0, 2000.0}) {
                    BatchFeatures f =
                        features(chunk, pctx, nd, nd * per_decode);
                    mix(std::bit_cast<std::uint64_t>(forest_->predict(f)));
                    mix(std::bit_cast<std::uint64_t>(
                        forest_->forest().predict(f.toVector())));
                }
            }
        }
    }
    EXPECT_EQ(hash, 0x396be7766c306eb8ull);
}

TEST_F(PredictorTest, SolverFindsLargestFeasibleChunkAgainstOracle)
{
    OracleLatencyPredictor oracle(*model_);
    BatchFeatures state = features(0, 0, 32, 32 * 1500);
    double budget = 0.05;

    int chunk = solveChunkBudget(oracle, state, budget, 4096, 64);
    ASSERT_GT(chunk, 0);

    BatchFeatures at = state;
    at.chunkTokens = chunk;
    EXPECT_LE(oracle.predict(at), budget);

    BatchFeatures next = state;
    next.chunkTokens = chunk + 64;
    EXPECT_GT(oracle.predict(next), budget);
}

TEST_F(PredictorTest, SolverZeroWhenBudgetTooTight)
{
    OracleLatencyPredictor oracle(*model_);
    BatchFeatures state = features(0, 0, 64, 64 * 3000);
    EXPECT_EQ(solveChunkBudget(oracle, state, 1e-4, 4096, 64), 0);
    EXPECT_EQ(solveChunkBudget(oracle, state, -1.0, 4096, 64), 0);
}

TEST_F(PredictorTest, SolverCapsAtMaxChunk)
{
    OracleLatencyPredictor oracle(*model_);
    BatchFeatures state = features(0, 0, 0, 0);
    EXPECT_EQ(solveChunkBudget(oracle, state, 1e9, 2560, 64), 2560);
}

TEST_F(PredictorTest, SolverRespectsStepGranularity)
{
    OracleLatencyPredictor oracle(*model_);
    BatchFeatures state = features(0, 0, 16, 16 * 1000);
    int chunk = solveChunkBudget(oracle, state, 0.06, 4096, 128);
    EXPECT_EQ(chunk % 128, 0);
}

TEST_F(PredictorTest, SolvedChunkNeverExceedsTrueBudget)
{
    // End-to-end conservatism: a chunk solved with the *forest* must
    // fit the budget when priced by the *true* model — this is the
    // property that protects TBT SLOs during dynamic chunking.
    Rng rng(107);
    int violations = 0;
    for (int i = 0; i < 100; ++i) {
        BatchFeatures state = features(
            0, rng.uniform(0, 4000), std::floor(rng.uniform(4, 96)), 0);
        state.decodeCtxSum = state.numDecodes * rng.uniform(500, 3000);
        double budget = rng.uniform(0.03, 0.2);
        int chunk = solveChunkBudget(*forest_, state, budget, 4096, 64);
        if (chunk == 0)
            continue;
        BatchFeatures at = state;
        at.chunkTokens = chunk;
        double truth = model_->iterationTime(at.toWork());
        violations += truth > budget * 1.10;
    }
    // Allow rare small overshoots (< 10% of cases beyond a 10%
    // latency margin would indicate a broken conservatism bias).
    EXPECT_LE(violations, 10);
}

TEST_F(PredictorTest, SolveMemoisedBitwiseEqualUnderDrift)
{
    // The leaf-path memo under a scheduler-shaped workload: the
    // prefill context drifts by exactly the granted chunk, the batch
    // composition changes on admit/finish boundaries, and the budget
    // wobbles with the decode slack. At every step the cached solve
    // must equal the uncached search exactly.
    ChunkSolverCache cache;
    Rng rng(113);
    double pctx = 0.0;
    double nd = 24.0;
    double dctx = 24.0 * 1800.0;
    for (int i = 0; i < 1500; ++i) {
        if (i % 97 == 0) {
            // Admission / completion: composition jumps.
            nd = std::floor(rng.uniform(4, 96));
            dctx = nd * rng.uniform(500, 3000);
        }
        if (i % 53 == 0)
            pctx = 0.0; // New prefill head (or preemption restart).
        BatchFeatures state = features(0, pctx, nd, dctx);
        double budget = 0.08 + 0.02 * std::sin(0.05 * i);

        int fresh = solveChunkBudget(*forest_, state, budget, 4096, 64);
        int cached = cache.solve(*forest_, state, budget, 4096, 64);
        ASSERT_EQ(cached, fresh) << "step " << i;

        pctx += cached; // Context advances by the granted chunk.
        dctx += nd;     // Decodes each grew by one token.
    }
    const ChunkSolverCache::Stats &st = cache.stats();
    EXPECT_EQ(st.solves, 1500u);
    // Both memo levels must actually fire on this workload — the
    // equality above would pass vacuously if every solve ran cold.
    EXPECT_GT(st.hits, 0u);
    EXPECT_GT(st.leafHits, 0u);
    EXPECT_GT(st.leafWalks, 0u);
    EXPECT_EQ(st.replayHits, 0u);
    // Both ways a probe is answered must have been taken: the count
    // deciding with trees unwalked, and the full quantile.
    EXPECT_GT(st.earlyDecisions, 0u);
    EXPECT_GT(st.fullQuantiles, 0u);
}

TEST_F(PredictorTest, LeafPathMemoMatchesColdSolveAcrossRebuildsAndSizes)
{
    // The leaf-path memo against the uncached search under the
    // conditions that stress it: composition jumps of 40 decodes
    // (rows memoised before a jump must be walked again wherever the
    // jump left their path boxes, with no rebuild to retire them),
    // ensembles on both sides of the quantile kernel's sorting-network
    // limit (65 trees take the nth_element path), and a 4096-token max
    // chunk (64 units).
    for (int trees : {7, 65}) {
        ForestLatencyPredictor::Options opts;
        opts.forest.numTrees = trees;
        ForestLatencyPredictor predictor(*model_, opts);
        for (int max_chunk : {2560, 4096}) {
            ChunkSolverCache cache;
            Rng rng(127 + static_cast<std::uint64_t>(trees + max_chunk));
            double pctx = 0.0;
            double nd = 24.0;
            double dctx = 24.0 * 1800.0;
            int jumps = 0;
            for (int i = 0; i < 600; ++i) {
                if (i > 0 && i % 41 == 0) {
                    // 40 decodes in or out.
                    nd = nd > 64.0 ? nd - 40.0 : nd + 40.0;
                    dctx = nd * rng.uniform(500, 3000);
                    ++jumps;
                }
                if (i % 29 == 0)
                    pctx = 0.0;
                BatchFeatures state = features(0, pctx, nd, dctx);
                double budget = rng.uniform(0.03, 0.15);

                int fresh = solveChunkBudget(predictor, state, budget,
                                             max_chunk, 64);
                int cached =
                    cache.solve(predictor, state, budget, max_chunk, 64);
                ASSERT_EQ(cached, fresh)
                    << "trees " << trees << " max_chunk " << max_chunk
                    << " step " << i;

                pctx += cached;
                dctx += nd;
            }
            const ChunkSolverCache::Stats &st = cache.stats();
            // One bind for the cache's one predictor; the jumps
            // happened but rebuild nothing.
            EXPECT_GT(jumps, 10);
            EXPECT_EQ(st.evaluations, 1u);
            EXPECT_GT(st.leafHits, 0u);
            EXPECT_GT(st.leafWalks, 0u);
            EXPECT_GT(st.earlyDecisions, 0u);
            EXPECT_GT(st.fullQuantiles, 0u);
        }
    }
}

TEST_F(PredictorTest, MemoRowsResetOnStepAndPredictorChanges)
{
    // Memo rows are never retired by composition, so the lifecycle
    // events must reset them instead: a new chunk step (row u then
    // means a different chunk), a different predictor (a different
    // forest, quantile and margin), and rows added when the max chunk
    // grows must start empty. One cache sees all three, each on its
    // own schedule so every event also happens alone, and every solve
    // must equal the uncached search.
    ForestLatencyPredictor::Options opts;
    opts.seed = 11;
    opts.quantile = 0.9;
    ForestLatencyPredictor other(*model_, opts);
    const LatencyPredictor *predictors[] = {forest_, &other};

    ChunkSolverCache cache;
    Rng rng(131);
    double pctx = 0.0;
    double nd = 24.0;
    double dctx = 24.0 * 1800.0;
    std::uint64_t binds = 0;
    const LatencyPredictor *last = nullptr;
    for (int i = 0; i < 600; ++i) {
        const LatencyPredictor &predictor = *predictors[(i / 7) % 2];
        const int step = (i / 11) % 2 == 0 ? 64 : 32;
        const int max_chunk = i < 300 ? 2560 : 4096;
        binds += &predictor != last;
        last = &predictor;
        if (i % 41 == 0) {
            nd = std::floor(rng.uniform(4, 96));
            dctx = nd * rng.uniform(500, 3000);
        }
        if (i % 29 == 0)
            pctx = 0.0;
        BatchFeatures state = features(0, pctx, nd, dctx);
        double budget = rng.uniform(0.03, 0.15);

        int fresh =
            solveChunkBudget(predictor, state, budget, max_chunk, step);
        int cached = cache.solve(predictor, state, budget, max_chunk, step);
        ASSERT_EQ(cached, fresh) << "step " << i;

        pctx += cached;
        dctx += nd;
    }
    const ChunkSolverCache::Stats &st = cache.stats();
    EXPECT_EQ(st.evaluations, binds);
    EXPECT_GT(st.leafHits, 0u);
    EXPECT_GT(st.leafWalks, 0u);
}

TEST_F(PredictorTest, EarlyDecisionMatchesColdSolveAtExactTies)
{
    // A probe decides `latency <= budget` from a count over per-tree
    // values before it knows the latency; a boundary error there shows
    // only when the budget equals a probe's latency exactly, which
    // continuous random budgets never hit. So every unit's cold
    // latency, and the adjacent doubles on both sides, serve as the
    // budget. Tree counts cover a single tree, frac = 0 with an odd
    // count (q = 0.5 over 7), lo == hi (q = 1), and the nth_element
    // path (65 trees); the odd counts also reach the one-tree scalar
    // tail after the validity pass's two-lane steps.
    constexpr int kMaxChunk = 2560;
    constexpr int kStep = 64;
    const BatchFeatures states[] = {
        features(0, 0, 24, 24 * 1800),
        features(0, 3000, 80, 80 * 900),
    };
    for (int trees : {1, 2, 7, 20, 65}) {
        for (double q : {0.0, 0.5, 0.6, 1.0}) {
            ForestLatencyPredictor::Options opts;
            opts.forest.numTrees = trees;
            opts.quantile = q;
            ForestLatencyPredictor predictor(*model_, opts);
            ChunkSolverCache cache;
            std::uint64_t solves = 0;
            for (const BatchFeatures &state : states) {
                for (int unit = 0; unit <= kMaxChunk / kStep; ++unit) {
                    BatchFeatures at = state;
                    at.chunkTokens = unit * kStep;
                    const SimDuration tie = predictor.predict(at);
                    const double inf =
                        std::numeric_limits<double>::infinity();
                    for (SimDuration budget :
                         {std::nextafter(tie, -inf), tie,
                          std::nextafter(tie, inf)}) {
                        int fresh = solveChunkBudget(
                            predictor, state, budget, kMaxChunk, kStep);
                        int cached = cache.solve(predictor, state, budget,
                                                 kMaxChunk, kStep);
                        ASSERT_EQ(cached, fresh)
                            << "trees " << trees << " q " << q
                            << " unit " << unit << " budget " << budget;
                        ++solves;
                    }
                }
            }
            EXPECT_EQ(cache.stats().solves, solves);
        }
    }
}

} // namespace
} // namespace qoserve
