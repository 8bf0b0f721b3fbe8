/**
 * @file
 * Tests that dataset models reproduce the published Table 2
 * quantiles.
 */

#include "workload/dataset.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <vector>

#include "metrics/percentile.hh"

namespace qoserve {
namespace {

TEST(LengthDistribution, FittedQuantilesAreExact)
{
    LengthDistribution d(1000, 4000);
    EXPECT_NEAR(d.p50(), 1000.0, 1e-6);
    EXPECT_NEAR(d.p90(), 4000.0, 1e-6);
}

TEST(LengthDistribution, SamplesRespectClamp)
{
    LengthDistribution d(100, 5000, 10, 1000);
    Rng rng(3);
    for (int i = 0; i < 10000; ++i) {
        int v = d.sample(rng);
        EXPECT_GE(v, 10);
        EXPECT_LE(v, 1000);
    }
}

TEST(LengthDistribution, MeanExceedsMedianForHeavyTail)
{
    LengthDistribution d(100, 800);
    EXPECT_GT(d.mean(), d.p50());
    EXPECT_GT(d.stddev(), 0.0);
}

struct DatasetCase
{
    std::string name;
    double prompt_p50, prompt_p90, decode_p50, decode_p90;
};

// Without this, gtest names each case by dumping the struct's bytes,
// which include the string's heap pointer and so change from run to
// run.
void PrintTo(const DatasetCase &c, std::ostream *os)
{
    *os << c.name;
}

class DatasetQuantiles : public ::testing::TestWithParam<DatasetCase>
{
};

TEST_P(DatasetQuantiles, EmpiricalQuantilesMatchTable2)
{
    const DatasetCase &c = GetParam();
    Dataset ds = datasetByName(c.name);
    Rng rng(17);

    constexpr int n = 60000;
    std::vector<double> prompts(n), decodes(n);
    for (int i = 0; i < n; ++i) {
        prompts[i] = ds.prompt.sample(rng);
        decodes[i] = ds.decode.sample(rng);
    }

    // Sampling + integer rounding justify a ~6% tolerance.
    EXPECT_NEAR(percentile(prompts, 50), c.prompt_p50,
                0.06 * c.prompt_p50);
    EXPECT_NEAR(percentile(prompts, 90), c.prompt_p90,
                0.06 * c.prompt_p90);
    EXPECT_NEAR(percentile(decodes, 50), c.decode_p50,
                std::max(1.0, 0.06 * c.decode_p50));
    EXPECT_NEAR(percentile(decodes, 90), c.decode_p90,
                std::max(1.0, 0.06 * c.decode_p90));
}

INSTANTIATE_TEST_SUITE_P(
    Table2, DatasetQuantiles,
    ::testing::Values(
        DatasetCase{"sharegpt", 1730, 5696, 415, 834},
        DatasetCase{"azure-conv", 928, 3830, 41, 342},
        DatasetCase{"azure-code", 1930, 6251, 8, 43}),
    [](const ::testing::TestParamInfo<DatasetCase> &info) {
        std::string n = info.param.name;
        std::replace(n.begin(), n.end(), '-', '_');
        return n;
    });

TEST(Dataset, AzCodeHasShortestDecodes)
{
    // Table 2: Az-Code decodes (p50=8) are far shorter than ShareGPT
    // (p50=415) — this asymmetry drives the dataset differences in
    // Fig. 7.
    EXPECT_LT(azureCode().decode.p50(), azureConv().decode.p50());
    EXPECT_LT(azureConv().decode.p50(), sharegpt().decode.p50());
}

} // namespace
} // namespace qoserve
