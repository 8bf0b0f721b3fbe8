/**
 * @file
 * Cross-cutting determinism tests for the parallel runner.
 *
 * The whole point of qoserve::par is that parallelism is an execution
 * detail: every artifact — sweep summaries, goodput searches, trained
 * forests — must be bit-identical whether computed with jobs = 1 or
 * jobs = 4. These tests drive the real pipelines (ServingSystem
 * sweeps, measureMaxGoodput, RandomForest::fit) at both job counts
 * and compare results with exact equality, never tolerances.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <mutex>
#include <string>
#include <vector>

#include "cluster/capacity.hh"
#include "app/serving_system.hh"
#include "fault/fault_injector.hh"
#include "predictor/random_forest.hh"
#include "simcore/thread_pool.hh"

namespace qoserve {
namespace {

/** Exact (bitwise) equality of every field we report from a run. */
void
expectIdentical(const RunSummary &a, const RunSummary &b,
                const std::string &what)
{
    EXPECT_EQ(a.count, b.count) << what;
    EXPECT_EQ(a.violationRate, b.violationRate) << what;
    EXPECT_EQ(a.violationRateWithTbt, b.violationRateWithTbt) << what;
    EXPECT_EQ(a.importantViolationRate, b.importantViolationRate)
        << what;
    EXPECT_EQ(a.shortViolationRate, b.shortViolationRate) << what;
    EXPECT_EQ(a.longViolationRate, b.longViolationRate) << what;
    EXPECT_EQ(a.relegatedFraction, b.relegatedFraction) << what;
    EXPECT_EQ(a.p50Latency, b.p50Latency) << what;
    EXPECT_EQ(a.p95Latency, b.p95Latency) << what;
    EXPECT_EQ(a.p99Latency, b.p99Latency) << what;
    EXPECT_EQ(a.availability, b.availability) << what;
    EXPECT_EQ(a.retryExhaustedFraction, b.retryExhaustedFraction)
        << what;
    EXPECT_EQ(a.meanRetries, b.meanRetries) << what;
    EXPECT_EQ(a.failureAffectedFraction, b.failureAffectedFraction)
        << what;
    EXPECT_EQ(a.failureViolationRate, b.failureViolationRate) << what;
}

/**
 * A fig02-style sweep — (policy, load) grid of independent
 * simulations — executed through parallelMap, the exact shape the
 * benches use.
 */
std::vector<RunSummary>
policySweep(int jobs)
{
    const Policy policies[] = {Policy::QoServe, Policy::SarathiFcfs,
                               Policy::SarathiEdf};
    const double loads[] = {2.0, 4.0};
    struct Point
    {
        Policy policy;
        double qps;
    };
    std::vector<Point> points;
    for (Policy p : policies)
        for (double q : loads)
            points.push_back({p, q});

    return par::parallelMap(jobs, points.size(), [&](std::size_t i) {
        ServingConfig cfg;
        cfg.policy = points[i].policy;
        cfg.useForestPredictor = false; // oracle keeps tests fast
        Trace trace = TraceBuilder()
                          .dataset(azureCode())
                          .seed(7)
                          .buildCount(
                              PoissonArrivals(points[i].qps), 150);
        return ServingSystem(cfg).serve(trace);
    });
}

TEST(ParallelDeterminism, PolicySweepIsIdenticalAcrossJobCounts)
{
    std::vector<RunSummary> serial = policySweep(1);
    std::vector<RunSummary> parallel = policySweep(4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        expectIdentical(serial[i], parallel[i],
                        "sweep point " + std::to_string(i));
    // Sanity: the sweep produced real runs, not empty summaries.
    for (const RunSummary &s : serial)
        EXPECT_EQ(s.count, 150u);
}

/**
 * A fault sweep: independent simulations with crash/straggler
 * injection fanned across the pool. Same seed + same fault schedule
 * must give bit-identical reports at every job count — recovery
 * (snapshot, backoff, re-dispatch) introduces no nondeterminism.
 */
std::vector<RunSummary>
faultSweep(int jobs)
{
    const std::uint64_t fault_seeds[] = {1, 2, 3, 4};
    return par::parallelMap(
        jobs, std::size(fault_seeds), [&](std::size_t i) {
            Trace trace = TraceBuilder()
                              .dataset(azureCode())
                              .seed(13)
                              .buildCount(PoissonArrivals(4.0), 200);
            ServingConfig cfg;
            cfg.policy = Policy::QoServe;
            cfg.useForestPredictor = false;
            auto predictor = makePredictor(cfg);
            ClusterSim::Config ccfg;
            ccfg.replica.hw = cfg.hw;
            ccfg.predictor = predictor.get();
            ClusterSim sim(ccfg, trace);
            sim.addReplicaGroup(2, makeSchedulerFactory(cfg));

            FaultConfig fc;
            fc.crashMtbf = 12.0;
            fc.crashMttr = 4.0;
            fc.stragglerMtbf = 25.0;
            fc.seed = fault_seeds[i];
            fc.horizon = trace.requests.back().arrival;
            FaultInjector injector(fc, sim);
            return summarize(sim.run());
        });
}

TEST(ParallelDeterminism, FaultSweepIsIdenticalAcrossJobCounts)
{
    std::vector<RunSummary> serial = faultSweep(1);
    std::vector<RunSummary> parallel = faultSweep(4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        expectIdentical(serial[i], parallel[i],
                        "fault seed " + std::to_string(i + 1));
    // The sweep exercised the recovery path, not a quiet cluster.
    bool saw_faults = false;
    for (const RunSummary &s : serial)
        saw_faults |= s.failureAffectedFraction > 0.0;
    EXPECT_TRUE(saw_faults);
}

/**
 * A prefix-cache sweep: (capacity fraction, affinity routing) grid
 * over a heavily shared trace. Cache state — radix tree, LRU order,
 * eviction victims — lives entirely inside each simulation, so the
 * summaries (including the cache-derived rows) must be bit-identical
 * at every job count.
 */
std::vector<RunSummary>
prefixCacheSweep(int jobs)
{
    const double fracs[] = {0.2, 0.6};
    const bool affinity[] = {false, true};
    struct Point
    {
        double frac;
        bool affinity;
    };
    std::vector<Point> points;
    for (double f : fracs)
        for (bool a : affinity)
            points.push_back({f, a});

    return par::parallelMap(jobs, points.size(), [&](std::size_t i) {
        SharedPrefixConfig sp;
        sp.shareRatio = 0.6;
        sp.numPools = 4;
        Trace trace = TraceBuilder()
                          .dataset(azureCode())
                          .seed(17)
                          .sharedPrefix(sp)
                          .buildCount(PoissonArrivals(4.0), 150);
        ServingConfig cfg;
        cfg.policy = Policy::QoServe;
        cfg.useForestPredictor = false;
        cfg.numReplicas = 2;
        cfg.prefixCache.enabled = true;
        cfg.prefixCache.capacityFrac = points[i].frac;
        cfg.cacheAffinityRouting = points[i].affinity;
        return ServingSystem(cfg).serve(trace);
    });
}

TEST(ParallelDeterminism, PrefixCacheSweepIsIdenticalAcrossJobCounts)
{
    std::vector<RunSummary> serial = prefixCacheSweep(1);
    std::vector<RunSummary> parallel = prefixCacheSweep(4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        const std::string what = "cache point " + std::to_string(i);
        expectIdentical(serial[i], parallel[i], what);
        EXPECT_EQ(serial[i].prefixHitFraction,
                  parallel[i].prefixHitFraction)
            << what;
        EXPECT_EQ(serial[i].prefixTokensSavedFraction,
                  parallel[i].prefixTokensSavedFraction)
            << what;
        EXPECT_EQ(serial[i].meanCachedPrefixTokens,
                  parallel[i].meanCachedPrefixTokens)
            << what;
    }
    // The sweep really exercised the cache: shared prompts hit.
    for (const RunSummary &s : serial) {
        EXPECT_EQ(s.count, 150u);
        EXPECT_GT(s.prefixHitFraction, 0.0);
    }
}

/** Noisy nonlinear training set for the forest tests. */
std::vector<TrainSample>
makeTrainingData(int n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<TrainSample> data;
    data.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        double x0 = rng.uniform(0.0, 8.0);
        double x1 = rng.uniform(0.0, 8.0);
        double x2 = rng.uniform(0.0, 1.0);
        TrainSample s;
        s.x = {x0, x1, x2};
        s.y = 3.0 * x0 + x0 * x1 * 0.25 + 0.3 * rng.normal();
        data.push_back(std::move(s));
    }
    return data;
}

TEST(ParallelDeterminism, ForestFitIsIdenticalAcrossJobCounts)
{
    std::vector<TrainSample> data = makeTrainingData(400, 5);
    ForestParams params;
    params.numTrees = 16;

    RandomForest serial, parallel;
    serial.fit(data, params, 99, /*jobs=*/1);
    parallel.fit(data, params, 99, /*jobs=*/4);
    ASSERT_EQ(serial.numTrees(), 16u);
    ASSERT_EQ(parallel.numTrees(), 16u);

    // Every prediction — mean and quantile — must be bit-identical:
    // the per-tree RNG streams derive from (seed, tree index), never
    // from thread schedule.
    Rng probe(123);
    for (int i = 0; i < 200; ++i) {
        std::vector<double> x = {probe.uniform(0.0, 8.0),
                                 probe.uniform(0.0, 8.0),
                                 probe.uniform(0.0, 1.0)};
        EXPECT_EQ(serial.predict(x), parallel.predict(x));
        EXPECT_EQ(serial.predictQuantile(x, 0.25),
                  parallel.predictQuantile(x, 0.25));
    }
}

TEST(ParallelDeterminism, ForestGeneralizesAfterSplitScanRewrite)
{
    // Quality guard for the prefix-sum split scan: trained on noisy
    // data, the forest must still track the underlying function on
    // held-out points (the split search is exact, only the SSE
    // summation order changed).
    std::vector<TrainSample> train = makeTrainingData(600, 11);
    RandomForest forest;
    forest.fit(train, ForestParams{}, 31, /*jobs=*/2);

    std::vector<TrainSample> test = makeTrainingData(150, 12);
    double sse = 0.0, var = 0.0, mean = 0.0;
    for (const TrainSample &s : test)
        mean += s.y / static_cast<double>(test.size());
    for (const TrainSample &s : test) {
        double err = forest.predict(s.x) - s.y;
        sse += err * err;
        var += (s.y - mean) * (s.y - mean);
    }
    // R^2 well above zero: the model explains most of the variance.
    EXPECT_LT(sse, 0.15 * var);
}

/** Probe points a load runner saw; safe to record from pool
 *  threads. */
class ProbeLog
{
  public:
    void
    record(double qps)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        points_.push_back(qps);
    }

    /** The recorded points, sorted: parallel evaluation fixes which
     *  points are probed, not the order they arrive in. */
    std::vector<double>
    sorted() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::vector<double> out = points_;
        std::sort(out.begin(), out.end());
        return out;
    }

  private:
    mutable std::mutex mutex_;
    std::vector<double> points_; ///< Guarded by mutex_.
};

TEST(ParallelDeterminism, GoodputSearchIsIdenticalAcrossJobCounts)
{
    // Synthetic load runner with a crisp capacity knee; the search
    // result and the set of probed points must not depend on jobs.
    auto make_runner = [](double capacity, ProbeLog *probes) {
        return [capacity, probes](double qps) {
            probes->record(qps);
            RunSummary s;
            s.count = 100;
            s.violationRate = qps <= capacity ? 0.0 : 0.5;
            return s;
        };
    };

    for (double capacity : {0.3, 1.0, 3.7, 17.2, 63.0, 200.0}) {
        GoodputSearch serial_search;
        serial_search.jobs = 1;
        GoodputSearch parallel_search;
        parallel_search.jobs = 4;

        ProbeLog serial_probes, parallel_probes, again;
        double serial = measureMaxGoodput(
            make_runner(capacity, &serial_probes), {}, serial_search);
        double parallel = measureMaxGoodput(
            make_runner(capacity, &parallel_probes), {}, parallel_search);

        EXPECT_EQ(serial, parallel) << "capacity=" << capacity;
        // Every probe lies on the same deterministic grid, so a re-run
        // probes the same set of points (arrival order is up to the
        // pool's threads).
        measureMaxGoodput(make_runner(capacity, &again), {},
                          parallel_search);
        EXPECT_EQ(parallel_probes.sorted(), again.sorted())
            << "capacity=" << capacity;
        // The parallel probe set is a superset of the serial one: the
        // same brackets, without the serial scan's early exit.
        std::vector<double> s = serial_probes.sorted();
        std::vector<double> p = parallel_probes.sorted();
        EXPECT_TRUE(std::includes(p.begin(), p.end(), s.begin(), s.end()))
            << "capacity=" << capacity;
    }
}

TEST(ParallelDeterminism, GoodputSearchRespectsResolutionAtAnyJobs)
{
    auto runner = [](double qps) {
        RunSummary s;
        s.count = 100;
        s.violationRate = qps <= 5.3 ? 0.0 : 1.0;
        return s;
    };
    for (int jobs : {1, 2, 4}) {
        GoodputSearch search;
        search.resolutionQps = 0.05;
        search.jobs = jobs;
        double got = measureMaxGoodput(runner, {}, search);
        EXPECT_LE(got, 5.3);
        EXPECT_GE(got, 5.3 - 2.0 * search.resolutionQps);
    }
}

} // namespace
} // namespace qoserve
