/**
 * @file
 * Shared bench helper implementation.
 */

#include "bench_common.hh"

#include <cstdlib>
#include <fstream>
#include <set>

#include "bench_build_info.hh"

namespace qoserve {
namespace bench {

namespace {

/** True when a config consults the trained forest predictor. */
bool
needsPredictor(const RunConfig &cfg)
{
    return cfg.policy == Policy::QoServe &&
           cfg.qoserve.enableDynamicChunking;
}

/** Cache key of a hardware config. */
std::string
hwKey(const ReplicaHwConfig &hw)
{
    return hw.model.name + "/" + hw.gpu.name + "/tp" +
           std::to_string(hw.tpDegree);
}

} // namespace

PredictorCache &
PredictorCache::instance()
{
    static PredictorCache cache;
    return cache;
}

const LatencyPredictor *
PredictorCache::get(const ReplicaHwConfig &hw)
{
    // Training runs under the lock: concurrent sweep tasks needing
    // the same (model, GPU, TP) block until the first finishes, then
    // share the result. Training itself is seed-deterministic, so
    // whichever task trains produces the same predictor.
    std::lock_guard<std::mutex> lock(mutex_);
    std::string key = hwKey(hw);
    auto it = cache_.find(key);
    if (it == cache_.end()) {
        std::fprintf(stderr, "[bench] training forest predictor for %s\n",
                     key.c_str());
        PerfModel model(hw);
        it = cache_
                 .emplace(key,
                          std::make_unique<ForestLatencyPredictor>(model))
                 .first;
    }
    return it->second.get();
}

int
BenchOptions::effectiveJobs() const
{
    return par::resolveJobs(jobs);
}

BenchOptions
parseBenchArgs(const std::string &bench_name, int argc, char **argv,
               std::vector<flags::Flag> extra)
{
    BenchOptions opts;
    opts.benchName = bench_name;
    std::vector<flags::Flag> table = std::move(extra);
    table.push_back(flags::integer(
        "--jobs", "N",
        "sweep worker threads; 0 = hardware concurrency, 1 = serial. "
        "Bench output is identical for every N.",
        opts.jobs, 0));
    table.push_back(flags::text(
        "--json", "PATH", "write per-run wall-clock/throughput JSON here",
        opts.jsonOut));
    flags::parseMain("usage: " + bench_name + " [flags]", table, argc,
                     argv);
    return opts;
}

ServingConfig
toServingConfig(const RunConfig &cfg)
{
    ServingConfig sc;
    sc.hw = cfg.hw;
    sc.numReplicas = cfg.numReplicas;
    sc.policy = cfg.policy;
    sc.qoserve = cfg.qoserve;
    sc.medha = cfg.medha;
    sc.base = cfg.base;
    return sc;
}

Trace
makeTrace(const RunConfig &cfg, double qps)
{
    TraceBuilder builder = TraceBuilder()
                               .dataset(cfg.dataset)
                               .tiers(cfg.tiers)
                               .tierMix(cfg.tierMix)
                               .lowPriorityFraction(
                                   cfg.lowPriorityFraction)
                               .seed(cfg.seed);
    PoissonArrivals arrivals(qps);
    if (cfg.traceDuration > 0.0)
        return builder.build(arrivals, cfg.traceDuration);
    return builder.buildCount(arrivals, cfg.requestCount);
}

std::unique_ptr<ClusterSim>
runForInspection(const RunConfig &cfg, const Trace &trace)
{
    ServingConfig sc = toServingConfig(cfg);

    ClusterSim::Config cc;
    cc.replica.hw = cfg.hw;
    cc.predictor = needsPredictor(cfg)
                       ? PredictorCache::instance().get(cfg.hw)
                       : nullptr;

    auto sim = std::make_unique<ClusterSim>(cc, trace);
    sim->addReplicaGroup(cfg.numReplicas, makeSchedulerFactory(sc));
    sim->run();
    return sim;
}

RunSummary
runOnce(const RunConfig &cfg, double qps)
{
    return summarize(runForInspection(cfg, makeTrace(cfg, qps))->metrics());
}

std::vector<RunResult>
runMany(const std::vector<RunPoint> &points, int jobs)
{
    // Train each distinct predictor before the fan-out, so sweep
    // tasks never serialize on the cache lock and the per-run wall
    // clocks measure simulation, not training waits. The training
    // itself parallelizes over trees.
    std::set<std::string> trained;
    for (const RunPoint &pt : points) {
        if (needsPredictor(pt.cfg) && trained.insert(hwKey(pt.cfg.hw)).second)
            PredictorCache::instance().get(pt.cfg.hw);
    }

    return par::parallelMap(
        jobs, points.size(), [&points](std::size_t i) {
            const RunPoint &pt = points[i];
            WallTimer timer;
            RunResult res;
            res.summary = runOnce(pt.cfg, pt.qps);
            res.wallSeconds = timer.seconds();
            return res;
        });
}

double
goodput(const RunConfig &cfg, const GoodputSearch &search,
        const GoodputCriteria &criteria)
{
    if (needsPredictor(cfg))
        PredictorCache::instance().get(cfg.hw); // pre-train, see runMany
    LoadRunner runner = [&cfg](double qps) { return runOnce(cfg, qps); };
    return measureMaxGoodput(runner, criteria, search);
}

std::vector<JsonRun>
toJsonRuns(const std::vector<RunPoint> &points,
           const std::vector<RunResult> &results)
{
    std::vector<JsonRun> runs;
    runs.reserve(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        JsonRun jr;
        jr.label = points[i].label;
        jr.qps = points[i].qps;
        jr.wallSeconds = results[i].wallSeconds;
        jr.requests = results[i].summary.count;
        runs.push_back(jr);
    }
    return runs;
}

namespace {

/** Minimal JSON string escape (labels are plain ASCII). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

} // namespace

void
writeBenchJson(const BenchOptions &opts, const std::vector<JsonRun> &runs,
               double total_wall_seconds)
{
    if (!opts.jsonOut)
        return;
    std::ofstream out(*opts.jsonOut);
    if (!out) {
        std::fprintf(stderr, "[bench] cannot write %s\n",
                     opts.jsonOut->c_str());
        std::exit(1);
    }

    std::size_t total_requests = 0;
    for (const JsonRun &r : runs)
        total_requests += r.requests;

    out << "{\n";
    out << "  \"bench\": \"" << jsonEscape(opts.benchName) << "\",\n";
    out << "  \"git_describe\": \"" << jsonEscape(QOSERVE_GIT_DESCRIBE)
        << "\",\n";
    out << "  \"git_commit\": \"" << jsonEscape(QOSERVE_GIT_COMMIT)
        << "\",\n";
    out << "  \"build_type\": \"" << jsonEscape(QOSERVE_BUILD_TYPE)
        << "\",\n";
    out << "  \"jobs\": " << opts.effectiveJobs() << ",\n";
    out << "  \"total_wall_s\": " << total_wall_seconds << ",\n";
    out << "  \"total_requests\": " << total_requests << ",\n";
    out << "  \"requests_per_s\": "
        << (total_wall_seconds > 0.0
                ? static_cast<double>(total_requests) / total_wall_seconds
                : 0.0)
        << ",\n";
    out << "  \"runs\": [\n";
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const JsonRun &r = runs[i];
        out << "    {\"label\": \"" << jsonEscape(r.label)
            << "\", \"qps\": " << r.qps << ", \"wall_s\": "
            << r.wallSeconds << ", \"requests\": " << r.requests
            << ", \"requests_per_s\": "
            << (r.wallSeconds > 0.0
                    ? static_cast<double>(r.requests) / r.wallSeconds
                    : 0.0);
        if (r.events > 0) {
            out << ", \"events\": " << r.events << ", \"ns_per_event\": "
                << (r.events > 0
                        ? 1e9 * r.wallSeconds /
                              static_cast<double>(r.events)
                        : 0.0);
        }
        out << "}" << (i + 1 < runs.size() ? "," : "") << "\n";
    }
    out << "  ]\n";
    out << "}\n";
    std::fprintf(stderr, "[bench] wrote perf JSON to %s\n",
                 opts.jsonOut->c_str());
}

void
printRule(int width)
{
    for (int i = 0; i < width; ++i)
        std::putchar('-');
    std::putchar('\n');
}

void
printBanner(const std::string &title, const std::string &paper_ref)
{
    printRule();
    std::printf("%s\n(reproduces %s of \"QoServe: Breaking the Silos of "
                "LLM Inference Serving\", ASPLOS'26)\n",
                title.c_str(), paper_ref.c_str());
    printRule();
}

} // namespace bench
} // namespace qoserve
