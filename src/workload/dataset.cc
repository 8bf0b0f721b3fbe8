/**
 * @file
 * Dataset model implementation and Table 2 presets.
 */

#include "workload/dataset.hh"

#include <algorithm>
#include <cmath>

#include "simcore/logging.hh"

namespace qoserve {

namespace {

/** Standard normal quantile at p = 0.9. */
constexpr double kZ90 = 1.2815515655446004;

} // namespace

LengthDistribution::LengthDistribution(double p50, double p90, int min_len,
                                       int max_len)
    : minLen_(min_len), maxLen_(max_len)
{
    QOSERVE_ASSERT(p50 > 0 && p90 > p50, "quantiles must satisfy 0<p50<p90");
    QOSERVE_ASSERT(min_len >= 1 && max_len > min_len, "bad length bounds");
    // For a lognormal, ln X ~ N(mu, sigma): median = e^mu and
    // p90 = e^(mu + z90 * sigma).
    mu_ = std::log(p50);
    sigma_ = std::log(p90 / p50) / kZ90;
}

int
LengthDistribution::sample(Rng &rng) const
{
    double v = rng.lognormal(mu_, sigma_);
    int len = static_cast<int>(std::lround(v));
    return std::clamp(len, minLen_, maxLen_);
}

double
LengthDistribution::p50() const
{
    return std::exp(mu_);
}

double
LengthDistribution::p90() const
{
    return std::exp(mu_ + kZ90 * sigma_);
}

double
LengthDistribution::mean() const
{
    return std::exp(mu_ + 0.5 * sigma_ * sigma_);
}

double
LengthDistribution::stddev() const
{
    double s2 = sigma_ * sigma_;
    return mean() * std::sqrt(std::exp(s2) - 1.0);
}

namespace {

// Prompts are clamped to the serving context window of the Table 1
// models (8K for Llama3-8B): real traces cannot exceed what the
// model accepts, and the unclamped lognormal tail would otherwise
// overweight multi-10K prompts the fitted quantiles say are rare.
constexpr int kMaxPromptTokens = 8192;
constexpr int kMaxDecodeTokens = 2048;

} // namespace

Dataset
sharegpt()
{
    return Dataset{
        "ShareGPT",
        LengthDistribution(1730, 5696, 1, kMaxPromptTokens),
        LengthDistribution(415, 834, 1, kMaxDecodeTokens),
    };
}

Dataset
azureConv()
{
    return Dataset{
        "Az-Conv",
        LengthDistribution(928, 3830, 1, kMaxPromptTokens),
        LengthDistribution(41, 342, 1, kMaxDecodeTokens),
    };
}

Dataset
azureCode()
{
    return Dataset{
        "Az-Code",
        LengthDistribution(1930, 6251, 1, kMaxPromptTokens),
        LengthDistribution(8, 43, 1, kMaxDecodeTokens),
    };
}

const flags::Choices<Dataset> &
datasetPresets()
{
    static const flags::Choices<Dataset> presets{
        "dataset preset",
        {{"azure-code", azureCode()},
         {"azure-conv", azureConv()},
         {"sharegpt", sharegpt()}},
        [](const Dataset &a, const Dataset &b) { return a.name == b.name; },
    };
    return presets;
}

} // namespace qoserve
