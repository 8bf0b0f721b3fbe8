/**
 * @file
 * Workload table and the one-repetition runner.
 */

#include "workloads.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <sstream>
#include <streambuf>

#include "cluster/brownout.hh"
#include "fault/failure_domains.hh"
#include "fault/fault_injector.hh"
#include "metrics/report_io.hh"
#include "obs/metrics_registry.hh"
#include "obs/slo_monitor.hh"
#include "obs/trace_export.hh"
#include "obs/trace_sink.hh"

namespace simbench {

using namespace qoserve;

const std::vector<WorkloadSpec> &
workloads()
{
    // Lengths are chosen so one repetition takes 0.5 to 2.5 s of host
    // time, which gives several repetitions per measured run, while
    // each trace is long enough for the simulated metrics to repeat
    // within a few percent from seed to seed. simbench/README.md gives
    // the reasons behind each shape and the measured spreads.
    static const std::vector<WorkloadSpec> table = [] {
        std::vector<WorkloadSpec> t;

        // Not in BENCHMARK.json: its host throughput follows a kind of
        // host contention the speed probe does not see (README.md).
        WorkloadSpec fleet;
        fleet.name = "fleet_wide";
        fleet.policy = Policy::QoServe;
        fleet.replicas = 256;
        fleet.qpsPerReplica = 3.5;
        fleet.duration = 120.0;
        t.push_back(fleet);

        WorkloadSpec knee;
        knee.name = "knee_single";
        knee.policy = Policy::QoServe;
        knee.replicas = 1;
        knee.qpsPerReplica = 5.0;
        knee.duration = 7200.0;
        t.push_back(knee);

        // Not in BENCHMARK.json: its simulated tail metrics do not
        // repeat across seeds at an affordable length (README.md).
        WorkloadSpec prefix;
        prefix.name = "prefix_affinity";
        prefix.policy = Policy::SarathiFcfs;
        prefix.replicas = 16;
        prefix.qpsPerReplica = 1.0;
        prefix.duration = 60.0;
        prefix.shareRatio = 0.6;
        prefix.multiTurnFrac = 0.5;
        prefix.prefixCache = true;
        t.push_back(prefix);

        WorkloadSpec chaos;
        chaos.name = "chaos_observed";
        chaos.policy = Policy::QoServe;
        chaos.replicas = 32;
        chaos.qpsPerReplica = 3.0;
        chaos.duration = 300.0;
        chaos.chaos = true;
        t.push_back(chaos);
        return t;
    }();
    return table;
}

const WorkloadSpec *
findWorkload(const std::string &name)
{
    for (const WorkloadSpec &w : workloads()) {
        if (w.name == name)
            return &w;
    }
    return nullptr;
}

namespace {

/** FNV-1a over raw bytes. */
struct Fnv1a
{
    std::uint64_t h = 1469598103934665603ull;

    template <class T>
    void
    add(const T &v)
    {
        unsigned char bytes[sizeof(T)];
        std::memcpy(bytes, &v, sizeof(T));
        for (unsigned char b : bytes) {
            h ^= b;
            h *= 1099511628211ull;
        }
    }
};

/** Output stream that formats everything and keeps only the byte
 *  count: the export is done in memory, never to disk. */
class CountingBuf : public std::streambuf
{
  public:
    std::uint64_t bytes = 0;

  protected:
    int_type
    overflow(int_type ch) override
    {
        if (ch != traits_type::eof())
            ++bytes;
        return traits_type::not_eof(ch);
    }

    std::streamsize
    xsputn(const char *, std::streamsize n) override
    {
        bytes += static_cast<std::uint64_t>(n);
        return n;
    }
};

/** One set-up or window phase: timed always, and recorded as a span
 *  when the repetition is traced. */
class Phase
{
  public:
    Phase(LayerLedger *ledger, int LayerLedger::*name)
        : ledger_(ledger), startNs_(nowNs())
    {
        if (ledger_ != nullptr)
            ledger_->spans.begin(ledger_->*name, startNs_);
    }

    /** End the phase; returns its host seconds. */
    double
    stop()
    {
        std::int64_t end = nowNs();
        if (ledger_ != nullptr)
            ledger_->spans.end(end);
        return static_cast<double>(end - startNs_) * 1e-9;
    }

  private:
    LayerLedger *ledger_;
    std::int64_t startNs_;
};

ServingConfig
servingConfig(const WorkloadSpec &spec)
{
    ServingConfig cfg;
    cfg.policy = spec.policy;
    cfg.numReplicas = spec.replicas;
    // Predictor training runs on one thread. The trained forest is
    // bit-identical for any thread count, but on a shared machine the
    // parallel training time swings with other processes' load (23 to
    // 84 ms on 4 cores, against 56 to 82 ms serially), which would
    // make setup_s bimodal.
    cfg.trainJobs = 1;
    cfg.prefixCache.enabled = spec.prefixCache;
    cfg.cacheAffinityRouting = spec.prefixCache;
    return cfg;
}

Trace
synthesize(const WorkloadSpec &spec, std::uint64_t seed)
{
    SharedPrefixConfig shared;
    shared.shareRatio = spec.shareRatio;
    shared.multiTurnFrac = spec.multiTurnFrac;
    return TraceBuilder()
        .dataset(azureCode())
        .tiers(paperTierTable())
        .seed(seed)
        .sharedPrefix(shared)
        .build(PoissonArrivals(spec.qpsPerReplica * spec.replicas),
               spec.duration);
}

/** Per-replica gauges sampled by the chaos workload's metrics
 *  observer. */
void
sampleReplicas(const ClusterSim &sim, MetricsRegistry &reg)
{
    for (std::size_t i = 0; i < sim.numReplicas(); ++i) {
        const Replica &rep = sim.replica(i);
        const std::string tag = "replica" + std::to_string(i);
        reg.gauge(tag + "_prefill_queue") =
            static_cast<double>(rep.scheduler().prefillQueueSize());
        reg.gauge(tag + "_decode_queue") =
            static_cast<double>(rep.scheduler().decodeQueueSize());
        reg.gauge(tag + "_kv_blocks_used") =
            static_cast<double>(rep.kv().usedBlocks());
        reg.gauge(tag + "_up") =
            rep.health() == ReplicaHealth::Down ? 0.0 : 1.0;
    }
    reg.counter("redispatches") =
        static_cast<std::int64_t>(sim.redispatches());
    reg.counter("brownout_shed") =
        static_cast<std::int64_t>(sim.brownoutShed());
    reg.counter("requests_completed") =
        static_cast<std::int64_t>(sim.metrics().size());
}

} // namespace

RecordCheck
checkRecords(std::size_t trace_requests,
             const std::vector<RequestRecord> &records)
{
    RecordCheck out;
    out.attempted = trace_requests;
    std::vector<unsigned char> seen(trace_requests, 0);
    Fnv1a fnv;
    for (const RequestRecord &r : records) {
        fnv.add(r.spec.id);
        fnv.add(r.spec.tierId);
        fnv.add(r.spec.promptTokens);
        fnv.add(r.spec.decodeTokens);
        fnv.add(r.firstTokenTime.seconds());
        fnv.add(r.finishTime.seconds());
        fnv.add(r.maxTbt);
        fnv.add(r.tbtDeadlineMisses);
        fnv.add(r.wasRelegated);
        fnv.add(r.rejected);
        fnv.add(r.kvPreemptions);
        fnv.add(r.retries);
        fnv.add(r.cachedPrefixTokens);
        fnv.add(r.retryExhausted);

        if (r.spec.id >= trace_requests) {
            ++out.malformed;
            continue;
        }
        if (seen[r.spec.id]++ > 0) {
            ++out.duplicate;
            continue;
        }
        bool served = std::isfinite(r.finishTime.seconds()) &&
                      std::isfinite(r.firstTokenTime.seconds());
        if (r.rejected && !r.retryExhausted)
            ++out.rejected;
        else if (r.retryExhausted && !r.rejected)
            ++out.abandoned;
        else if (served && !r.rejected && !r.retryExhausted)
            ++out.finished;
        else
            ++out.malformed;
    }
    out.missing = static_cast<std::size_t>(
        std::count(seen.begin(), seen.end(), 0));
    out.digest = fnv.h;
    return out;
}

RepResult
runRep(const WorkloadSpec &spec, std::uint64_t seed, LayerLedger *ledger,
       std::string *records_csv, bool setup_only)
{
    RepResult out;
    const ServingConfig serving = servingConfig(spec);

    // --- set-up ---------------------------------------------------
    Phase synth(ledger, &LayerLedger::workloadSynthesize);
    const Trace trace = synthesize(spec, seed);
    out.synthS = synth.stop();

    Phase train(ledger, &LayerLedger::predictorTrain);
    std::shared_ptr<const LatencyPredictor> predictor =
        makePredictor(serving);
    out.trainS = train.stop();

    Phase construct(ledger, &LayerLedger::clusterConstruct);
    std::optional<TimedPredictor> timedPredictor;
    if (ledger != nullptr && predictor != nullptr)
        timedPredictor.emplace(*predictor, *ledger);

    ClusterSim::Config cc;
    cc.replica.hw = serving.hw;
    cc.replica.perfParams = serving.perfParams;
    cc.replica.prefixCache = serving.prefixCache;
    cc.cacheAffinityRouting = serving.cacheAffinityRouting;
    cc.predictor = timedPredictor ? &*timedPredictor : predictor.get();
    if (spec.chaos) {
        cc.breaker.failureThreshold = 3;
        cc.breaker.cooldown = 0.5;
        cc.deadlineCancel = true;
    }

    ClusterSim sim(cc, trace);
    sim.addReplicaGroup(spec.replicas,
                        ledger != nullptr
                            ? makeTimedSchedulerFactory(serving, *ledger)
                            : makeSchedulerFactory(serving));
    if (ledger != nullptr) {
        for (std::size_t i = 0; i < sim.numReplicas(); ++i)
            ledger->replicaOfKv[&sim.replica(i).kv()] = static_cast<int>(i);
    }

    // Chaos: failures on the arrival horizon, the degradation stack,
    // and three observers that write as the run goes.
    TraceSink sink;
    MetricsRegistry registry;
    std::optional<MetricsSampler> sampler;
    std::optional<SloMonitor> monitor;
    std::optional<FaultInjector> faults;
    std::optional<DomainInjector> domains;
    BrownoutConfig bc;
    bc.enabled = spec.chaos;
    // Backlog thresholds (prompt tokens per live replica) at which the
    // brownout steps in during zone outages and steps back out after
    // them; at the library defaults it would shed a tier all run.
    bc.enterBacklog = 100000.0;
    bc.exitBacklog = 30000.0;
    BrownoutController brownout(bc, sim);
    if (spec.chaos) {
        const SimTime horizon = trace.requests.back().arrival;
        sim.setTraceSink(&sink);

        TraceScope monitor_scope;
        monitor_scope.sink = &sink;
        monitor_scope.clock = &sim.eventQueue();
        SloMonitorConfig mc;
        mc.shortWindow = 30.0;
        mc.longWindow = 120.0;
        mc.interval = 5.0;
        monitor.emplace(sim.eventQueue(), monitor_scope, mc);
        sim.metricsCollector().addRecordObserver(
            [&monitor, &sim, &trace](const RequestRecord &rec) {
                monitor->observe(
                    rec.spec.tierId, sim.eventQueue().now(),
                    violatedSlo(rec, trace.tiers[rec.spec.tierId]));
            });
        monitor->start();

        sampler.emplace(sim.eventQueue(), registry, 5.0,
                        [&sim](MetricsRegistry &reg, SimTime) {
                            sampleReplicas(sim, reg);
                        });
        sampler->start();

        FaultConfig fc;
        fc.crashMtbf = 600.0;
        fc.crashMttr = 20.0;
        fc.stragglerMtbf = 300.0;
        fc.stragglerDuration = 10.0;
        // The failure schedule is part of the workload, not of the
        // traffic: it stays fixed while the seed varies the trace.
        fc.seed = 1;
        fc.horizon = horizon;
        faults.emplace(fc, sim);

        DomainConfig dc;
        dc.zones = 4;
        dc.zoneMtbf = 600.0;
        dc.zoneMttr = 30.0;
        dc.partitionMtbf = 120.0;
        dc.partitionMttr = 10.0;
        dc.seed = 7;
        dc.horizon = horizon;
        domains.emplace(dc, sim);

        brownout.start();
    }
    out.constructS = construct.stop();
    if (setup_only)
        return out;

    // --- timed window ---------------------------------------------
    Phase run(ledger, &LayerLedger::clusterRun);
    sim.run();
    out.runS = run.stop();

    Phase summarize_phase(ledger, &LayerLedger::metricsSummarize);
    out.summary = summarize(sim.metrics());
    out.summarizeS = summarize_phase.stop();

    // Export what the observers recorded, in memory. Without observers
    // there is nothing to write and the phase is empty.
    Phase export_phase(ledger, &LayerLedger::obsExport);
    if (spec.chaos) {
        CountingBuf buf;
        std::ostream os(&buf);
        writePerfettoJson(sink.events(), os);
        registry.writeCsv(os);
        out.exportBytes = buf.bytes;
    }
    out.exportS = export_phase.stop();

    // --- read-back (untimed) --------------------------------------
    out.check = checkRecords(trace.requests.size(), sim.metrics().records());
    if (records_csv != nullptr) {
        std::ostringstream csv;
        writeRecordsCsv(sim.metrics(), csv);
        *records_csv = csv.str();
    }
    for (std::size_t i = 0; i < out.summary.tiers.size(); ++i) {
        if (trace.tiers[out.summary.tiers[i].tierId].interactive) {
            out.interactiveTier = static_cast<int>(i);
            break;
        }
    }
    out.events = sim.eventQueue().firedEvents();
    for (std::size_t i = 0; i < sim.numReplicas(); ++i) {
        const Replica &rep = sim.replica(i);
        out.iterations += rep.iterations();
        const PrefixCacheStats &s = rep.prefixCache().stats();
        out.prefix.lookups += s.lookups;
        out.prefix.hits += s.hits;
        out.prefix.tokensAttached += s.tokensAttached;
        out.prefix.cowCopies += s.cowCopies;
        out.prefix.blocksInserted += s.blocksInserted;
        out.prefix.blocksEvicted += s.blocksEvicted;
        out.prefix.treeDrops += s.treeDrops;
    }
    out.redispatches = sim.redispatches();
    out.retriesExhausted = sim.retriesExhausted();
    out.breakerTrips = sim.breakerTrips();
    out.deadlineCancelled = sim.deadlineCancelled();
    out.brownoutShed = sim.brownoutShed();
    out.brownoutCapped = sim.brownoutCapped();
    out.brownoutSteps = brownout.steps();
    if (faults) {
        out.crashes = faults->stats().crashes;
        out.stragglers = faults->stats().stragglerEpisodes;
    }
    if (domains) {
        out.zoneOutages = domains->stats().zoneOutages;
        out.partitions = domains->stats().partitions;
    }
    out.traceEvents = sink.size();
    if (monitor)
        out.sloAlerts = monitor->alerts().size();
    return out;
}

} // namespace simbench
