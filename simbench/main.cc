/**
 * @file
 * simbench — the simulator benchmark (one workload, one seed per run).
 *
 *   simbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * --trace 0 measures the end-to-end metrics: it repeats full
 * repetitions (set-up + timed window) for S seconds, at least three,
 * then set-up alone for up to S/10 seconds, and reports medians.
 * --trace 1 alternates traced and untraced repetitions for S seconds
 * and reports the per-layer metrics; end-to-end numbers never come
 * from traced repetitions. A host-speed probe runs around every
 * repetition, and the rates and set-up times are scaled by it
 * (host_probe.hh); per-layer span times are plain host time.
 *
 * Every repetition checks that each trace request ended in exactly
 * one terminal record, and that the record digest equals the first
 * repetition's. The last stdout line is the JSON result; the exit code
 * is non-zero when any check failed.
 *
 * Normally started through simbench/run.py, which builds this binary
 * and passes the source revision in --git-commit / --git-dirty.
 */

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <climits>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "host_probe.hh"
#include "workloads.hh"

namespace simbench {
namespace {

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string gitCommit = "unknown";
    std::string gitDirty = "unknown";
    /** Directory for the full result JSON and the span file; empty
     *  writes neither. */
    std::string outDir;
};

[[noreturn]] void
usage(const std::string &error)
{
    std::cerr << "simbench: " << error << "\n"
              << "usage: simbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--git-commit SHA] [--git-dirty 0|1] "
                 "[--out-dir DIR]\nworkloads:";
    for (const WorkloadSpec &w : workloads())
        std::cerr << " " << w.name;
    std::cerr << "\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_workload = false, have_seed = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                a.workload = value;
                have_workload = true;
            } else if (flag == "--seed") {
                a.seed = std::stoull(value);
                have_seed = true;
            } else if (flag == "--seconds") {
                a.seconds = std::stod(value);
            } else if (flag == "--trace") {
                if (value != "0" && value != "1")
                    usage("--trace takes 0 or 1");
                a.trace = value == "1";
            } else if (flag == "--git-commit") {
                a.gitCommit = value;
            } else if (flag == "--git-dirty") {
                a.gitDirty = value;
            } else if (flag == "--out-dir") {
                a.outDir = value;
            } else {
                usage("unknown flag " + flag);
            }
        } catch (const std::logic_error &) {
            usage("bad value for " + flag + ": " + value);
        }
    }
    if (!have_workload || !have_seed)
        usage("--workload and --seed are required");
    if (!(a.seconds > 0.0) || a.seconds > 3600.0)
        usage("--seconds must be in (0, 3600]");
    return a;
}

/** Set-up samples wanted per run (full repetitions included). */
constexpr std::size_t kSetupSamples = 25;

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Shortest round-trip decimal form of @p v (every digit measured). */
std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

std::string
numList(const std::vector<double> &v)
{
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i)
        out += (i == 0 ? "" : ", ") + num(v[i]);
    return out + "]";
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

/** Ordered metric list: name -> (value, unit). */
struct Metrics
{
    std::vector<std::pair<std::string, std::pair<double, std::string>>> items;

    void
    add(const std::string &name, double value, const std::string &unit)
    {
        items.push_back({name, {value, unit}});
    }

    std::string
    json() const
    {
        std::string out = "{";
        for (std::size_t i = 0; i < items.size(); ++i) {
            out += (i == 0 ? "" : ", ") + quoted(items[i].first) +
                   ": {\"value\": " + num(items[i].second.first) +
                   ", \"unit\": " + quoted(items[i].second.second) + "}";
        }
        return out + "}";
    }

    bool
    allFinite() const
    {
        return std::all_of(items.begin(), items.end(), [](const auto &m) {
            return std::isfinite(m.second.first);
        });
    }
};

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

double
sec(std::int64_t ns)
{
    return static_cast<double>(ns) * 1e-9;
}

/** Running correctness state across repetitions. */
struct Verdict
{
    std::size_t attempted = 0;
    std::size_t failed = 0;
    bool haveDigest = false;
    std::uint64_t digest = 0;
    std::vector<std::string> errors;

    void
    note(const RepResult &r, const char *kind)
    {
        attempted += r.check.attempted;
        failed += r.check.failed();
        if (r.check.failed() > 0) {
            errors.push_back(
                std::string(kind) + " repetition: " +
                std::to_string(r.check.missing) + " missing, " +
                std::to_string(r.check.duplicate) + " duplicate, " +
                std::to_string(r.check.malformed) + " malformed records");
        }
        if (!haveDigest) {
            haveDigest = true;
            digest = r.check.digest;
        } else if (r.check.digest != digest) {
            errors.push_back(std::string(kind) +
                             " repetition: record digest differs from "
                             "the first repetition's");
        }
        if (r.interactiveTier < 0)
            errors.push_back("no interactive tier in the summary");
    }

    bool ok() const { return errors.empty() && failed == 0; }
};

/** The end-to-end metrics' simulated part (identical in every
 *  repetition of one seed; checked through the digest). */
void
addSimulated(Metrics &m, const RepResult &r)
{
    m.add("slo_violation_pct", 100.0 * r.summary.violationRateWithTbt, "%");
    const qoserve::TierSummary &t = r.summary.tiers.at(
        static_cast<std::size_t>(std::max(0, r.interactiveTier)));
    m.add("sim_ttft_p50_s", t.p50Ttft, "s");
    m.add("sim_ttft_p99_s", t.p99Ttft, "s");
}

/** Per-layer metrics of one traced repetition. */
Metrics
layerMetrics(const RepResult &r, const LayerLedger &l)
{
    const SpanRecorder &s = l.spans;
    auto self = [&](int id) { return sec(s.totals(id).selfNs); };
    auto total = [&](int id) { return sec(s.totals(id).totalNs); };
    const int predictor_ids[] = {l.predictorPredict,
                                 l.predictorPredictSupported,
                                 l.predictorBuildChunkPlane};
    double predictor_calls = 0.0, predictor_self = 0.0;
    for (int id : predictor_ids) {
        predictor_calls += static_cast<double>(s.totals(id).calls);
        predictor_self += self(id);
    }
    auto count = [](auto v) { return static_cast<double>(v); };
    auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };

    Metrics m;
    m.add("workload.synth_s", r.synthS, "s");
    m.add("predictor.train_s", r.trainS, "s");
    m.add("predictor.calls", predictor_calls, "count");
    m.add("predictor.self_s", predictor_self, "s");
    m.add("predictor.call_ns_p50", l.predictorCallNs.quantile(0.5), "ns");
    m.add("predictor.call_ns_p99", l.predictorCallNs.quantile(0.99), "ns");
    m.add("predictor.memo.solves", count(l.memo.solves), "count");
    m.add("predictor.memo.replay_hits", count(l.memo.replayHits), "count");
    m.add("predictor.memo.queries", count(l.memo.queries), "count");
    m.add("predictor.memo.plane_hits", count(l.memo.hits), "count");
    m.add("predictor.memo.evaluations", count(l.memo.evaluations), "count");
    m.add("predictor.memo.hit_ratio",
          ratio(count(l.memo.hits), count(l.memo.queries)), "ratio");
    m.add("sched.enqueue.self_s", self(l.schedEnqueue), "s");
    m.add("sched.form_batch.calls", count(s.totals(l.schedFormBatch).calls),
          "count");
    m.add("sched.form_batch.self_s", self(l.schedFormBatch), "s");
    m.add("sched.form_batch.ns_p50", l.formBatchNs.quantile(0.5), "ns");
    m.add("sched.form_batch.ns_p99", l.formBatchNs.quantile(0.99), "ns");
    m.add("sched.on_complete.self_s", self(l.schedOnComplete), "s");
    m.add("sched.batches_formed", count(l.sched.batchesFormed), "count");
    m.add("sched.avg_chunk_tokens", l.sched.averageChunkTokens(), "tokens");
    m.add("sched.relegations", count(l.sched.relegations), "count");
    m.add("sched.prefill_queue_max", count(l.prefillQueueMax), "count");
    m.add("kvcache.preemptions", count(l.sched.kvPreemptions), "count");
    m.add("kvcache.peak_used_frac", l.kvPeakUsedFrac, "ratio");
    m.add("prefixcache.lookups", count(r.prefix.lookups), "count");
    m.add("prefixcache.hits", count(r.prefix.hits), "count");
    m.add("prefixcache.hit_ratio",
          ratio(count(r.prefix.hits), count(r.prefix.lookups)), "ratio");
    m.add("prefixcache.tokens_reused", count(r.prefix.tokensAttached),
          "tokens");
    m.add("prefixcache.blocks_inserted", count(r.prefix.blocksInserted),
          "count");
    m.add("prefixcache.blocks_evicted", count(r.prefix.blocksEvicted),
          "count");
    m.add("prefixcache.tree_drops", count(r.prefix.treeDrops), "count");
    m.add("simcore.events", count(r.events), "count");
    m.add("cluster.construct_s", total(l.clusterConstruct), "s");
    m.add("cluster.run_s", total(l.clusterRun), "s");
    m.add("cluster.residual_s", self(l.clusterRun), "s");
    m.add("cluster.iterations", count(r.iterations), "count");
    m.add("cluster.redispatches", count(r.redispatches), "count");
    m.add("cluster.retries_exhausted", count(r.retriesExhausted), "count");
    m.add("cluster.breaker_trips", count(r.breakerTrips), "count");
    m.add("cluster.deadline_cancelled", count(r.deadlineCancelled), "count");
    m.add("cluster.brownout_shed", count(r.brownoutShed), "count");
    m.add("cluster.brownout_capped", count(r.brownoutCapped), "count");
    m.add("cluster.brownout_steps", count(r.brownoutSteps), "count");
    m.add("fault.crashes", count(r.crashes), "count");
    m.add("fault.stragglers", count(r.stragglers), "count");
    m.add("fault.zone_outages", count(r.zoneOutages), "count");
    m.add("fault.partitions", count(r.partitions), "count");
    m.add("obs.trace_events", count(r.traceEvents), "count");
    m.add("obs.export_s", total(l.obsExport), "s");
    m.add("obs.export_bytes", count(r.exportBytes), "bytes");
    m.add("obs.slo_alerts", count(r.sloAlerts), "count");
    m.add("metrics.records", count(r.check.terminal()), "count");
    m.add("metrics.summarize_s", total(l.metricsSummarize), "s");
    return m;
}

/**
 * Layer accounting of one traced repetition: the layer self times
 * below cluster.run must add up to its span, and no self time may be
 * negative. Returns the relative error of the sum.
 */
double
layerAccountingError(const LayerLedger &l, std::vector<std::string> &errors)
{
    const SpanRecorder &s = l.spans;
    if (s.openDepth() != 0)
        errors.push_back("traced repetition left spans open");
    for (std::size_t id = 0; id < s.names(); ++id) {
        if (s.totals(static_cast<int>(id)).selfNs < 0)
            errors.push_back("negative self time in " +
                             s.name(static_cast<int>(id)));
    }
    const int layers[] = {l.clusterRun,
                          l.schedEnqueue,
                          l.schedFormBatch,
                          l.schedOnComplete,
                          l.predictorPredict,
                          l.predictorPredictSupported,
                          l.predictorBuildChunkPlane};
    std::int64_t sum = 0;
    for (int id : layers)
        sum += s.totals(id).selfNs;
    const std::int64_t run = s.totals(l.clusterRun).totalNs;
    double err = run > 0 ? std::fabs(static_cast<double>(sum - run)) /
                               static_cast<double>(run)
                         : 1.0;
    // Integer nanosecond arithmetic: anything beyond rounding means a
    // span escaped the tree.
    constexpr double kTolerance = 1e-6;
    if (err > kTolerance)
        errors.push_back("layer self times do not sum to cluster.run");
    return err;
}

void
printTable(const char *title, const Metrics &m)
{
    std::printf("%s\n", title);
    for (const auto &[name, vu] : m.items)
        std::printf("  %-32s %14.6g %s\n", name.c_str(), vu.first,
                    vu.second.c_str());
}

int
run(const Args &args)
{
    const WorkloadSpec *spec = findWorkload(args.workload);
    if (spec == nullptr)
        usage("unknown workload " + args.workload);

    Verdict verdict;
    const std::int64_t deadline =
        nowNs() + static_cast<std::int64_t>(args.seconds * 1e9);

    std::optional<RepResult> first;
    std::vector<double> rates, setups, events_ns;
    std::vector<Metrics> layer_reps;
    std::vector<double> traced_rates;
    std::vector<double> accounting_errors;
    std::vector<double> unspanned;
    std::unique_ptr<LayerLedger> last_ledger;

    // Host-speed probe before the first and after every repetition
    // (host_probe.hh). A repetition's host times are scaled by the
    // geometric mean of the probe times just before and after it,
    // relative to HostProbe::kReferenceS.
    HostProbe probe;
    probe.run(); // warm-up
    const std::uint64_t probe_checksum = probe.checksum();
    std::vector<double> probe_s{probe.run()}, host_rates, host_setups;
    auto hostSpeed = [&]() {
        probe_s.push_back(probe.run());
        if (probe.checksum() != probe_checksum)
            verdict.errors.push_back("host probe checksum changed");
        return std::sqrt(probe_s[probe_s.size() - 2] * probe_s.back()) /
               HostProbe::kReferenceS;
    };

    // Untraced: at least three timed repetitions, so the medians
    // shrug off a slow first one (cold caches, heap growth). Traced:
    // alternate untraced and traced, at least two of each.
    const std::size_t min_reps = args.trace ? 2 : 3;
    // Peak memory over the first min_reps repetitions: a fixed amount
    // of work, so it does not grow with the number of repetitions a
    // fast host fits into the run (heap fragmentation).
    double peak_rss_mb = 0.0;
    while (rates.size() < min_reps || nowNs() < deadline) {
        RepResult r = runRep(*spec, args.seed, nullptr);
        const double speed = hostSpeed();
        verdict.note(r, "untraced");
        if (!first)
            first = r;
        host_rates.push_back(static_cast<double>(r.check.terminal()) /
                             r.windowS());
        rates.push_back(host_rates.back() * speed);
        host_setups.push_back(r.setupS());
        setups.push_back(r.setupS() / speed);
        events_ns.push_back(r.runS * 1e9 / static_cast<double>(r.events));
        if (rates.size() == min_reps)
            peak_rss_mb = peakRssMb();
        if (!args.trace)
            continue;

        auto ledger = std::make_unique<LayerLedger>();
        RepResult tr = runRep(*spec, args.seed, ledger.get());
        const double traced_speed = hostSpeed();
        verdict.note(tr, "traced");
        traced_rates.push_back(static_cast<double>(tr.check.terminal()) /
                               tr.windowS() * traced_speed);
        accounting_errors.push_back(
            layerAccountingError(*ledger, verdict.errors));
        // Host time between the first and last phase that no phase
        // span covers.
        std::int64_t first_ns = INT64_MAX, last_ns = 0, spanned = 0;
        for (const Span &s : ledger->spans.kept()) {
            if (s.parent >= 0)
                continue;
            first_ns = std::min(first_ns, s.startNs);
            last_ns = std::max(last_ns, s.endNs);
            spanned += s.endNs - s.startNs;
        }
        unspanned.push_back(sec(last_ns - first_ns - spanned));
        layer_reps.push_back(layerMetrics(tr, *ledger));
        last_ledger = std::move(ledger);
    }

    // More set-up samples for the setup_s median: set-up alone, for
    // up to a tenth of the measured time.
    const std::int64_t setup_deadline =
        nowNs() + static_cast<std::int64_t>(args.seconds * 0.1e9);
    while (setups.size() < kSetupSamples && nowNs() < setup_deadline) {
        host_setups.push_back(
            runRep(*spec, args.seed, nullptr, nullptr, true).setupS());
        setups.push_back(host_setups.back() / hostSpeed());
    }

    // --- report ---------------------------------------------------
    Metrics e2e;
    e2e.add("sim_req_per_s", median(rates), "1/s");
    e2e.add("setup_s", median(setups), "s");
    e2e.add("peak_rss_mb", peak_rss_mb, "MB");
    addSimulated(e2e, *first);

    Metrics layers;
    if (args.trace) {
        // Median of each per-layer value over the traced repetitions
        // (counters repeat exactly; times vary).
        for (std::size_t k = 0; k < layer_reps.front().items.size(); ++k) {
            std::vector<double> v;
            for (const Metrics &m : layer_reps)
                v.push_back(m.items[k].second.first);
            layers.add(layer_reps.front().items[k].first, median(v),
                       layer_reps.front().items[k].second.second);
        }
        layers.add("simcore.ns_per_event", median(events_ns), "ns");
        layers.add("trace_overhead_pct",
                   100.0 * (median(rates) / median(traced_rates) - 1.0),
                   "%");
        layers.add("bench.untraced_sim_req_per_s", median(rates), "1/s");
        layers.add("bench.traced_sim_req_per_s", median(traced_rates), "1/s");
        layers.add("bench.host_probe_ms", 1e3 * median(probe_s), "ms");
        layers.add("bench.layer_sum_error", median(accounting_errors),
                   "ratio");
        layers.add("bench.unspanned_s", median(unspanned), "s");
    }
    const Metrics &reported = args.trace ? layers : e2e;
    if (!reported.allFinite())
        verdict.errors.push_back("a reported metric is not finite");

    const qoserve::TierSummary &it = first->summary.tiers.at(
        static_cast<std::size_t>(std::max(0, first->interactiveTier)));
    const std::size_t reps = rates.size() + traced_rates.size();
    std::ostringstream prov;
    prov << "{\"workload\": " << quoted(spec->name)
         << ", \"seed\": " << args.seed
         << ", \"git_commit\": " << quoted(args.gitCommit)
         << ", \"git_dirty\": " << quoted(args.gitDirty)
         << ", \"build_type\": " << quoted(SIMBENCH_BUILD_TYPE)
         << ", \"check_level\": " << quoted(SIMBENCH_CHECK_LEVEL)
         << ", \"compiler\": " << quoted(__VERSION__)
         << ", \"nproc\": " << std::thread::hardware_concurrency()
         << ", \"params\": {\"policy\": "
         << quoted(qoserve::policyName(spec->policy))
         << ", \"replicas\": " << spec->replicas
         << ", \"qps_per_replica\": " << num(spec->qpsPerReplica)
         << ", \"duration_s\": " << num(spec->duration)
         << ", \"share_ratio\": " << num(spec->shareRatio)
         << ", \"prefix_cache\": " << (spec->prefixCache ? "true" : "false")
         << ", \"chaos\": " << (spec->chaos ? "true" : "false") << "}"
         << ", \"trace_requests\": " << first->check.attempted
         << ", \"record_digest\": \"" << std::hex << verdict.digest
         << std::dec << "\""
         << ", \"terminal\": {\"finished\": " << first->check.finished
         << ", \"rejected_or_shed\": " << first->check.rejected
         << ", \"retry_exhausted_or_cancelled\": " << first->check.abandoned
         << "}, \"ttft_samples\": " << it.count
         << ", \"repetitions\": " << reps
         << ", \"host_sim_req_per_s\": " << numList(host_rates)
         << ", \"host_setup_s\": " << numList(host_setups)
         << ", \"host_probe_s\": " << numList(probe_s)
         << ", \"traced\": " << (args.trace ? "true" : "false") << "}";

    std::printf("simbench %s seed %llu (%s, %zu requests, %zu "
                "repetitions, %zu set-up samples)\n",
                spec->name.c_str(),
                static_cast<unsigned long long>(args.seed),
                args.trace ? "traced" : "untraced", first->check.attempted,
                reps, setups.size());
    printTable("end-to-end (untraced repetitions):", e2e);
    std::printf("  sim_ttft_* cover the interactive tier: n=%zu requests\n",
                it.count);
    if (args.trace) {
        printTable("per-layer (median over traced repetitions):", layers);
        std::printf(
            "  notes: predictor.* time the virtual predict / "
            "predictSupported / buildChunkPlane calls; ChunkPlane::predict "
            "probes are not virtual, so their time is in "
            "sched.form_batch.self_s. KV-cache, prefix-cache insert/evict "
            "and record collection run inside the sched.* spans. "
            "memo.hit_ratio = plane_hits / queries; prefixcache.hit_ratio "
            "= hits / lookups. *_ns_p* are per-call durations including "
            "children. cluster.residual_s = cluster.run minus its sched "
            "and predictor children.\n");
    }
    for (const std::string &e : verdict.errors)
        std::printf("CHECK FAILED: %s\n", e.c_str());
    std::printf("{\"provenance\": %s}\n", prov.str().c_str());

    const bool correct = verdict.ok();
    if (!args.outDir.empty()) {
        std::string stem = args.outDir + "/" + spec->name + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0");
        std::ofstream result(stem + ".json");
        result << "{\"provenance\": " << prov.str()
               << ", \"end_to_end\": " << e2e.json()
               << ", \"per_layer\": " << layers.json()
               << ", \"correct\": " << (correct ? "true" : "false") << "}\n";
        if (last_ledger) {
            std::ofstream spans(stem + ".spans.json");
            last_ledger->spans.writeJson(spans);
        }
    }

    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false", verdict.attempted, verdict.failed,
                reported.json().c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

} // namespace
} // namespace simbench

int
main(int argc, char **argv)
{
    return simbench::run(simbench::parseArgs(argc, argv));
}
