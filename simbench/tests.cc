/**
 * @file
 * Tests of the benchmark's own logic: span self-time arithmetic, the
 * duration histogram, the record check, and that the timing
 * subclasses and predictor decorator leave every workload's records
 * byte-identical.
 *
 *   python3 simbench/run.py --self-test
 */

#include <gtest/gtest.h>

#include "host_probe.hh"
#include "spans.hh"
#include "workloads.hh"

namespace simbench {
namespace {

TEST(SpanRecorder, NestedSpansSubtractDirectChildrenOnly)
{
    SpanRecorder r;
    int run = r.nameId("run");
    int sched = r.nameId("sched");
    int pred = r.nameId("pred");

    r.begin(run, 0);
    r.begin(sched, 10);
    r.begin(pred, 12);
    r.end(15); // pred: 3
    r.begin(pred, 20);
    r.end(24); // pred: 4
    r.end(30); // sched: 20, self 13
    r.begin(sched, 40);
    r.end(45); // sched: 5, self 5
    r.end(100); // run: 100, self 75

    EXPECT_EQ(r.totals(run).totalNs, 100);
    EXPECT_EQ(r.totals(run).selfNs, 75);
    EXPECT_EQ(r.totals(sched).calls, 2u);
    EXPECT_EQ(r.totals(sched).totalNs, 25);
    EXPECT_EQ(r.totals(sched).selfNs, 18);
    EXPECT_EQ(r.totals(pred).totalNs, 7);
    EXPECT_EQ(r.totals(pred).selfNs, 7);
    // Self times partition the root span.
    EXPECT_EQ(r.totals(run).selfNs + r.totals(sched).selfNs +
                  r.totals(pred).selfNs,
              r.totals(run).totalNs);
    EXPECT_EQ(r.openDepth(), 0u);
}

TEST(SpanRecorder, ZeroLengthSpans)
{
    SpanRecorder r;
    int outer = r.nameId("outer");
    int inner = r.nameId("inner");
    r.begin(outer, 5);
    r.begin(inner, 5);
    r.end(5);
    r.begin(inner, 7);
    r.end(7);
    r.end(9);
    EXPECT_EQ(r.totals(inner).calls, 2u);
    EXPECT_EQ(r.totals(inner).totalNs, 0);
    EXPECT_EQ(r.totals(inner).selfNs, 0);
    EXPECT_EQ(r.totals(outer).selfNs, 4);

    r.begin(outer, 20);
    r.end(20);
    EXPECT_EQ(r.totals(outer).totalNs, 4);
    EXPECT_EQ(r.totals(outer).selfNs, 4);
}

TEST(SpanRecorder, ChildCoveringWholeParentLeavesNoSelfTime)
{
    SpanRecorder r;
    int parent = r.nameId("parent");
    int child = r.nameId("child");
    r.begin(parent, 100);
    r.begin(child, 100);
    r.end(160);
    r.end(160);
    EXPECT_EQ(r.totals(parent).totalNs, 60);
    EXPECT_EQ(r.totals(parent).selfNs, 0);
    EXPECT_EQ(r.totals(child).selfNs, 60);
}

TEST(SpanRecorder, KeepsParentLinksAndDropsPastBudget)
{
    SpanRecorder r(2);
    int root = r.nameId("root");
    int leaf = r.nameId("leaf");
    r.begin(root, 0, -1, -1);
    for (int i = 0; i < 3; ++i) {
        r.begin(leaf, 10 * i, 4, 100 + i);
        r.end(10 * i + 5);
    }
    r.end(50);
    ASSERT_EQ(r.kept().size(), 3u);
    EXPECT_EQ(r.kept()[0].parent, -1);
    EXPECT_EQ(r.kept()[1].parent, 0);
    EXPECT_EQ(r.kept()[1].replica, 4);
    EXPECT_EQ(r.kept()[2].request, 101);
    EXPECT_EQ(r.dropped(), 1u);
    // Dropped spans still count in the totals.
    EXPECT_EQ(r.totals(leaf).calls, 3u);
    EXPECT_EQ(r.totals(root).selfNs, 35);
}

TEST(SpanRecorder, EndWithoutBeginThrows)
{
    SpanRecorder r;
    EXPECT_THROW(r.end(1), std::logic_error);
}

TEST(DurationHistogram, QuantilesWithinBucketError)
{
    DurationHistogram h;
    EXPECT_EQ(h.quantile(0.5), 0.0);
    for (int i = 1; i <= 1000; ++i)
        h.record(i * 100);
    EXPECT_EQ(h.count(), 1000u);
    EXPECT_NEAR(h.quantile(0.5), 50000.0, 50000.0 * 0.045);
    EXPECT_NEAR(h.quantile(0.99), 99000.0, 99000.0 * 0.045);
    EXPECT_NEAR(h.quantile(1.0), 100000.0, 100000.0 * 0.045);
}

TEST(HostProbe, SameWorkEveryRunAndInstance)
{
    HostProbe a, b;
    EXPECT_GT(a.run(), 0.0);
    const std::uint64_t sum = a.checksum();
    a.run();
    b.run();
    EXPECT_EQ(a.checksum(), sum);
    EXPECT_EQ(b.checksum(), sum);
}

qoserve::RequestRecord
served(std::uint64_t id)
{
    qoserve::RequestRecord r;
    r.spec.id = id;
    r.firstTokenTime = qoserve::SimTime{1.0};
    r.finishTime = qoserve::SimTime{2.0};
    return r;
}

TEST(RecordCheck, CountsMissingDuplicateAndNonTerminalRecords)
{
    std::vector<qoserve::RequestRecord> recs = {served(0), served(2),
                                                served(2)};
    qoserve::RequestRecord shed;
    shed.spec.id = 3;
    shed.rejected = true;
    recs.push_back(shed);
    qoserve::RequestRecord unfinished;
    unfinished.spec.id = 4;
    recs.push_back(unfinished);
    recs.push_back(served(9));

    RecordCheck c = checkRecords(5, recs);
    EXPECT_EQ(c.finished, 2u);
    EXPECT_EQ(c.rejected, 1u);
    EXPECT_EQ(c.missing, 1u);   // id 1
    EXPECT_EQ(c.duplicate, 1u); // second id 2
    EXPECT_EQ(c.malformed, 2u); // id 4 unfinished, id 9 out of range
    EXPECT_EQ(c.failed(), 4u);

    RecordCheck same = checkRecords(5, recs);
    EXPECT_EQ(same.digest, c.digest);
    recs[0].finishTime = qoserve::SimTime{2.5};
    EXPECT_NE(checkRecords(5, recs).digest, c.digest);
}

/** A small instance of each workload: same shape, shorter trace. */
class ReadOnlyInstrumentation : public testing::TestWithParam<std::string>
{
};

TEST_P(ReadOnlyInstrumentation, TracedRecordsAreByteIdentical)
{
    WorkloadSpec spec = *findWorkload(GetParam());
    spec.duration = spec.chaos ? 60.0 : std::min(spec.duration, 20.0);
    if (spec.replicas == 1)
        spec.duration = 600.0;

    std::string plain_csv, traced_csv;
    RepResult plain = runRep(spec, 3, nullptr, &plain_csv);
    LayerLedger ledger;
    RepResult traced = runRep(spec, 3, &ledger, &traced_csv);

    ASSERT_GT(plain.check.attempted, 0u);
    EXPECT_EQ(plain.check.failed(), 0u);
    EXPECT_EQ(traced.check.failed(), 0u);
    EXPECT_EQ(plain.check.terminal(), plain.check.attempted);
    EXPECT_EQ(plain_csv, traced_csv);
    EXPECT_EQ(plain.check.digest, traced.check.digest);
    EXPECT_EQ(plain.events, traced.events);

    // The instrumentation saw the run.
    EXPECT_GT(ledger.spans.totals(ledger.schedFormBatch).calls, 0u);
    EXPECT_EQ(ledger.spans.openDepth(), 0u);
    EXPECT_EQ(ledger.sched.batchesFormed,
              ledger.spans.totals(ledger.schedFormBatch).calls);
    if (spec.policy == qoserve::Policy::QoServe) {
        EXPECT_GT(ledger.spans.totals(ledger.predictorBuildChunkPlane).calls +
                      ledger.spans.totals(ledger.predictorPredict).calls,
                  0u);
    }
}

INSTANTIATE_TEST_SUITE_P(Workloads, ReadOnlyInstrumentation,
                         testing::Values("fleet_wide", "knee_single",
                                         "prefix_affinity",
                                         "chaos_observed"),
                         [](const auto &info) { return info.param; });

} // namespace
} // namespace simbench
