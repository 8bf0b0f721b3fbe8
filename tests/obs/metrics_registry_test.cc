/**
 * @file
 * Tests for the metrics registry, histogram cells, and the sim-time
 * sampler.
 */

#include "obs/metrics_registry.hh"

#include <gtest/gtest.h>

#include <sstream>

#include "obs_test_streams.hh"

namespace qoserve {
namespace {

TEST(MetricsHistogram, CumulativeBucketsAndTotals)
{
    MetricsHistogram h({1.0, 4.0, 16.0});
    for (double v : {0.5, 1.0, 3.0, 20.0})
        h.observe(v);
    EXPECT_EQ(h.bucketCount(0), 2); // <= 1
    EXPECT_EQ(h.bucketCount(1), 3); // <= 4
    EXPECT_EQ(h.bucketCount(2), 3); // <= 16
    EXPECT_EQ(h.count(), 4);
    EXPECT_EQ(h.sum(), 24.5);
}

TEST(MetricsHistogramDeathTest, NonAscendingBoundsPanic)
{
    EXPECT_DEATH(MetricsHistogram({1.0, 1.0}), "strictly ascending");
}

TEST(MetricsRegistry, CellsCreateAtZeroAndPersist)
{
    MetricsRegistry reg;
    EXPECT_EQ(reg.counter("requests"), 0);
    reg.counter("requests") += 3;
    EXPECT_EQ(reg.counter("requests"), 3);
    reg.gauge("depth") = 2.5;
    EXPECT_EQ(reg.gauge("depth"), 2.5);
    // Later histogram() calls ignore the bounds argument.
    reg.histogram("occ", {1.0, 2.0}).observe(1.5);
    EXPECT_EQ(reg.histogram("occ", {99.0}).count(), 1);
}

TEST(MetricsRegistry, CsvColumnsAreNameOrderedWithHistogramExpansion)
{
    MetricsRegistry reg;
    reg.gauge("z_depth") = 1.0;
    reg.counter("a_count") = 2;
    reg.histogram("m_occ", {1.0, 4.0}).observe(3.0);
    reg.snapshot(SimTime{0.0});

    std::stringstream out;
    reg.writeCsv(out);
    std::string header;
    ASSERT_TRUE(std::getline(out, header));
    EXPECT_EQ(header,
              "time,a_count,m_occ_count,m_occ_le_1,m_occ_le_4,"
              "m_occ_le_inf,m_occ_sum,z_depth");
    std::string row;
    ASSERT_TRUE(std::getline(out, row));
    EXPECT_EQ(row, "0,2,1,0,1,1,3,1");
}

TEST(MetricsRegistry, LateRegisteredCellsBackfillZero)
{
    MetricsRegistry reg;
    reg.gauge("early") = 1.0;
    reg.snapshot(SimTime{0.0});
    reg.gauge("late") = 5.0;
    reg.snapshot(SimTime{1.0});

    std::stringstream out;
    reg.writeCsv(out);
    std::string line;
    ASSERT_TRUE(std::getline(out, line));
    EXPECT_EQ(line, "time,early,late");
    ASSERT_TRUE(std::getline(out, line));
    EXPECT_EQ(line, "0,1,0"); // `late` backfills as 0
    ASSERT_TRUE(std::getline(out, line));
    EXPECT_EQ(line, "1,1,5");
}

TEST(MetricsSampler, SamplesOnCadenceAndStopsWithTheSimulation)
{
    EventQueue eq;
    MetricsRegistry reg;
    // The "simulation": events at t = 0.5, 3.5, 9.0.
    int work = 0;
    for (SimTime t : {SimTime{0.5}, SimTime{3.5}, SimTime{9.0}})
        eq.schedule(t, [&] { ++work; });

    MetricsSampler sampler(eq, reg, 2.0, [&](MetricsRegistry &r,
                                             SimTime) {
        r.gauge("work") = static_cast<double>(work);
    });
    sampler.start();
    eq.run();

    EXPECT_EQ(work, 3);
    // Samples at 0, 2, 4, 6, 8, 10; the t=10 firing finds the queue
    // empty and stops rearming — the cadence never outlives the run.
    EXPECT_EQ(sampler.samples(), 6u);
    EXPECT_EQ(reg.snapshots(), 6u);
    EXPECT_TRUE(eq.empty());
}

TEST(MetricsSamplerDeathTest, NonPositiveIntervalPanics)
{
    EventQueue eq;
    MetricsRegistry reg;
    EXPECT_DEATH(
        MetricsSampler(eq, reg, 0.0, [](MetricsRegistry &, SimTime) {}),
        "must be positive");
}

/** MetricsRegistry::writeCsv after test::fillCoverageRegistry(), as
 *  written by the ostringstream-based writer this output is pinned
 *  against. */
const char kPinnedCsv[] = R"(time,depth,lat_count,lat_le_0.001,lat_le_0.5,lat_le_1e+20,lat_le_2.5,lat_le_inf,lat_sum,requests,tiny
0,0.33333333333333331,1,0,1,1,1,1,0.25,3,0
0.33333333333333331,-0,2,0,1,2,1,2,3.25,9007199254740992,9.9999999999999995e-08
86400.100000000006,0.30000000000000004,3,0,1,2,1,3,1e+21,9007199254740992,4.9406564584124654e-324
)";

TEST(MetricsRegistry, CsvBytesArePinned)
{
    MetricsRegistry reg;
    test::fillCoverageRegistry(reg);
    std::stringstream out;
    reg.writeCsv(out);
    EXPECT_EQ(out.str(), kPinnedCsv);
}

TEST(MetricsRegistry, EmptyRegistryCsvIsHeaderOnly)
{
    MetricsRegistry reg;
    std::stringstream out;
    reg.writeCsv(out);
    EXPECT_EQ(out.str(), "time\n");
}

} // namespace
} // namespace qoserve
