/**
 * @file
 * Shared helpers for the figure/table reproduction benches.
 *
 * Each bench binary regenerates one table or figure from the paper's
 * evaluation (see DESIGN.md §3): it builds the workload the paper
 * describes, runs the schedulers under test in the simulator, and
 * prints the same rows/series the paper reports. Scales (request
 * counts, durations) are reduced relative to the paper's 4-hour GPU
 * runs to keep the full suite executable in minutes; EXPERIMENTS.md
 * records the mapping and the measured-vs-published comparison.
 *
 * Sweep benches fan their independent (policy, QPS, seed) runs across
 * a worker pool via runMany(). Every bench parses its flags with
 * parseBenchArgs() and accepts:
 *   --jobs N   worker threads (default hardware concurrency; 1 =
 *              serial). Output is bit-identical for every N.
 *   --json P   dump per-run wall-clock and simulation throughput as
 *              JSON (the perf-trajectory record, see
 *              BENCH_parallel.json).
 * Benches that run their points one after another (no runMany() or
 * parallelMap() fan-out) ignore --jobs, and their --json record holds
 * only the total wall time.
 */

#ifndef QOSERVE_BENCH_BENCH_COMMON_HH
#define QOSERVE_BENCH_BENCH_COMMON_HH

#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "app/qoserve.hh"
#include "simcore/flags.hh"

namespace qoserve {
namespace bench {

/** Default seed for bench workloads. */
inline constexpr std::uint64_t kSeed = 42;

/**
 * Cache of trained forest predictors keyed by hardware config, so
 * sweeps pay the training cost once per (model, GPU, TP) like the
 * paper's per-configuration profiling (§3.6.1). get() is safe to
 * call from concurrent sweep tasks.
 */
class PredictorCache
{
  public:
    /** Get (or train) the predictor for @p hw. */
    const LatencyPredictor *get(const ReplicaHwConfig &hw);

    /** Singleton shared by a bench binary. */
    static PredictorCache &instance();

  private:
    std::mutex mutex_;
    std::map<std::string, std::unique_ptr<ForestLatencyPredictor>> cache_;
};

/**
 * One simulation run: @p policy at @p qps on a fresh trace.
 */
struct RunConfig
{
    Policy policy = Policy::QoServe;
    ReplicaHwConfig hw = llama3_8b_a100_tp1();
    Dataset dataset = azureCode();
    TierTable tiers = paperTierTable();
    std::vector<double> tierMix{};
    double lowPriorityFraction = 0.0;
    int numReplicas = 1;
    std::uint64_t seed = kSeed;
    QoServeConfig qoserve{};
    MedhaScheduler::Options medha{};
    ChunkedSchedulerConfig base{};

    /** Trace length in requests when running at fixed QPS. */
    std::size_t requestCount = 1000;

    /**
     * Trace length in seconds; when positive it overrides
     * requestCount. Load sweeps use durations long enough for TTLT
     * deadlines (600/1800 s) to bind under sustained overload, as in
     * the paper's multi-hour runs.
     */
    SimDuration traceDuration = 0.0;
};

/** Common bench command-line options. */
struct BenchOptions
{
    /** Bench binary name (used in the JSON record). */
    std::string benchName;

    /** Sweep worker threads; 0 = hardware concurrency. */
    int jobs = 0;

    /** When set, write the per-run perf JSON here. */
    std::optional<std::string> jsonOut;

    /** jobs with 0 resolved to the hardware concurrency. */
    int effectiveJobs() const;
};

/**
 * Parse the shared bench flags (--jobs, --json, --help) plus a bench's
 * own @p extra entries. --help exits 0, errors are fatal (exit 1).
 */
BenchOptions parseBenchArgs(const std::string &bench_name, int argc,
                            char **argv,
                            std::vector<flags::Flag> extra = {});

/** Build the ServingConfig for a RunConfig (predictor-cached). */
ServingConfig toServingConfig(const RunConfig &cfg);

/** Build this run's trace at the given QPS (Poisson arrivals). */
Trace makeTrace(const RunConfig &cfg, double qps);

/** Run once and summarize. */
RunSummary runOnce(const RunConfig &cfg, double qps);

/** Run once and return the cluster for detailed inspection. */
std::unique_ptr<ClusterSim> runForInspection(const RunConfig &cfg,
                                             const Trace &trace);

/** One point of a sweep fan-out. */
struct RunPoint
{
    RunConfig cfg;
    double qps = 0.0;

    /** Row/series label, carried into the perf JSON. */
    std::string label;
};

/** Result of one fan-out point. */
struct RunResult
{
    RunSummary summary;

    /** Wall-clock of this run (trace build + simulate + summarize). */
    double wallSeconds = 0.0;
};

/**
 * Run every point, fanning across @p jobs worker threads (0 =
 * hardware concurrency), and join the results in point order.
 * Metrics are bit-identical for every job count: each point's trace
 * is derived from its own config seed and points share no mutable
 * state. Only the recorded wall-clock varies between runs.
 */
std::vector<RunResult> runMany(const std::vector<RunPoint> &points,
                               int jobs);

/**
 * Per-replica goodput of a config (paper §4.1.2: max QPS with <= 1%
 * violations), via bracket + parallel grid refinement. Probe
 * parallelism comes from @p search.jobs.
 */
double goodput(const RunConfig &cfg, const GoodputSearch &search = {},
               const GoodputCriteria &criteria = {});

/** One row of the perf-trajectory JSON. */
struct JsonRun
{
    std::string label;
    double qps = 0.0;
    double wallSeconds = 0.0;
    std::size_t requests = 0;

    /** Kernel events fired during the run; 0 (the default) omits the
     *  per-event columns, so only scale benches report them. */
    std::uint64_t events = 0;
};

/** Convert a fan-out's points + results into JSON rows. */
std::vector<JsonRun> toJsonRuns(const std::vector<RunPoint> &points,
                                const std::vector<RunResult> &results);

/**
 * Write the perf JSON (per-run wall-clock and simulated-request
 * throughput plus suite totals) to opts.jsonOut if set; no-op
 * otherwise.
 */
void writeBenchJson(const BenchOptions &opts,
                    const std::vector<JsonRun> &runs,
                    double total_wall_seconds);

/**
 * Wall-clock stopwatch. The bench harness measures how long the
 * simulator itself takes to run — that is a property of the host, not
 * of the simulation, so wall-clock here never feeds back into
 * simulated results.
 */
class WallTimer
{
  public:
    // qoserve-lint: allow(no-wall-clock)
    WallTimer() : start_(std::chrono::steady_clock::now()) {}

    /** Seconds since construction. */
    double seconds() const
    {
        // qoserve-lint: allow(no-wall-clock)
        auto now = std::chrono::steady_clock::now();
        return std::chrono::duration<double>(now - start_).count();
    }

  private:
    // qoserve-lint: allow(no-wall-clock)
    std::chrono::steady_clock::time_point start_;
};

/** Print a rule line. */
void printRule(int width = 78);

/** Print a bench banner. */
void printBanner(const std::string &title, const std::string &paper_ref);

} // namespace bench
} // namespace qoserve

#endif // QOSERVE_BENCH_BENCH_COMMON_HH
