/**
 * @file
 * End-to-end contract of the chunk-solver memo: a run with
 * QoServeConfig::enableSolverMemo on produces exactly the request
 * records of the same run with it off (the `--no-solver-cache`
 * switch), field by field. Covers one replica driven past its knee —
 * deep queues, the solver on every iteration — and an eight-replica
 * shared cluster.
 */

#include "app/serving_system.hh"

#include <gtest/gtest.h>

#include <vector>

namespace qoserve {
namespace {

/** Records of @p trace served with the forest predictor, memo on or
 *  off; also reports the memo's solve count summed over replicas. */
std::vector<RequestRecord>
serveRecords(const Trace &trace, int replicas, bool memo,
             std::uint64_t &memo_solves)
{
    ServingConfig cfg;
    cfg.policy = Policy::QoServe;
    cfg.numReplicas = replicas;
    cfg.qoserve.enableSolverMemo = memo;
    cfg.trainJobs = 1;
    ServingSystem system(cfg);
    auto sim = system.serveForInspection(trace);
    memo_solves = 0;
    for (std::size_t i = 0; i < sim->numReplicas(); ++i) {
        const auto &sched = dynamic_cast<const QoServeScheduler &>(
            sim->replica(i).scheduler());
        memo_solves += sched.solverCacheStats().solves;
    }
    return sim->metrics().records();
}

void
expectSameRecords(const std::vector<RequestRecord> &on,
                  const std::vector<RequestRecord> &off)
{
    ASSERT_EQ(on.size(), off.size());
    for (std::size_t i = 0; i < on.size(); ++i) {
        const RequestRecord &a = on[i];
        const RequestRecord &b = off[i];
        SCOPED_TRACE(testing::Message() << "record " << i);
        EXPECT_EQ(a.spec.id, b.spec.id);
        EXPECT_EQ(a.spec.arrival, b.spec.arrival);
        EXPECT_EQ(a.spec.promptTokens, b.spec.promptTokens);
        EXPECT_EQ(a.spec.decodeTokens, b.spec.decodeTokens);
        EXPECT_EQ(a.spec.tierId, b.spec.tierId);
        EXPECT_EQ(a.spec.important, b.spec.important);
        EXPECT_EQ(a.spec.appId, b.spec.appId);
        EXPECT_EQ(a.spec.promptSegments.size(),
                  b.spec.promptSegments.size());
        EXPECT_EQ(a.firstTokenTime, b.firstTokenTime);
        EXPECT_EQ(a.finishTime, b.finishTime);
        EXPECT_EQ(a.maxTbt, b.maxTbt);
        EXPECT_EQ(a.tbtDeadlineMisses, b.tbtDeadlineMisses);
        EXPECT_EQ(a.wasRelegated, b.wasRelegated);
        EXPECT_EQ(a.rejected, b.rejected);
        EXPECT_EQ(a.kvPreemptions, b.kvPreemptions);
        EXPECT_EQ(a.retries, b.retries);
        EXPECT_EQ(a.cachedPrefixTokens, b.cachedPrefixTokens);
        EXPECT_EQ(a.retryExhausted, b.retryExhausted);
    }
}

void
checkMemoInvariance(double qps, std::size_t count, int replicas,
                    std::uint64_t seed)
{
    Trace trace = TraceBuilder()
                      .dataset(azureCode())
                      .seed(seed)
                      .buildCount(PoissonArrivals(qps), count);
    std::uint64_t solves_on = 0, solves_off = 0;
    auto on = serveRecords(trace, replicas, true, solves_on);
    auto off = serveRecords(trace, replicas, false, solves_off);
    // The comparison is only meaningful if the memo actually served
    // the solves of the memoised run.
    EXPECT_GT(solves_on, 0u);
    EXPECT_EQ(solves_off, 0u);
    expectSameRecords(on, off);
}

TEST(SolverMemoE2E, KneeReplicaRecordsIdenticalWithMemoOnAndOff)
{
    // Just past one replica's knee (the simulator benchmark's
    // knee_single shape, shortened): queues stay deep, so batch
    // formation solves a chunk almost every iteration. A stale memo
    // entry shows only after the plane has been rebuilt under a row
    // that a probe then decides early, which takes thousands of
    // requests; a memo that skips retiring such rows first diverges
    // near record 7,700 of this trace, and 1,500 requests missed it.
    checkMemoInvariance(5.0, 12000, 1, 3);
}

TEST(SolverMemoE2E, EightReplicaRecordsIdenticalWithMemoOnAndOff)
{
    checkMemoInvariance(24.0, 2500, 8, 4);
}

} // namespace
} // namespace qoserve
