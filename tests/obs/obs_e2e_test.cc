/**
 * @file
 * End-to-end observability tests: a traced faulted cluster run emits
 * a well-formed lifecycle stream, the phase tiling covers every
 * served request's lifetime, the Perfetto export balances, and
 * installing the sink never perturbs the simulation.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <sstream>
#include <utility>

#include "fault/failure_domains.hh"
#include "fault/fault_injector.hh"
#include "metrics/report_io.hh"
#include "obs/explain.hh"
#include "obs/metrics_registry.hh"
#include "obs/slo_monitor.hh"
#include "obs/trace_export.hh"
#include "obs/trace_sink.hh"
#include "sched/baseline_schedulers.hh"
#include "workload/arrival.hh"

namespace qoserve {
namespace {

SchedulerFactory
fcfsFactory()
{
    return [](const SchedulerEnv &env) {
        return std::make_unique<FcfsScheduler>(env);
    };
}

ClusterSim::Config
defaultConfig()
{
    ClusterSim::Config cfg;
    cfg.replica.hw = llama3_8b_a100_tp1();
    return cfg;
}

Trace
smallTrace(double qps, std::size_t count, std::uint64_t seed = 5)
{
    return TraceBuilder()
        .dataset(azureCode())
        .seed(seed)
        .buildCount(PoissonArrivals(qps), count);
}

TEST(ObsE2e, TracedRunEmitsOrderedCompleteStream)
{
    Trace trace = smallTrace(4.0, 200);
    ClusterSim sim(defaultConfig(), trace);
    sim.addReplicaGroup(2, fcfsFactory());
    TraceSink sink;
    sim.setTraceSink(&sink);
    const MetricsCollector &metrics = sim.run();

    ASSERT_FALSE(sink.empty());
    // Time-ordered by construction (the sink asserts it, but check
    // the invariant the exporters actually rely on).
    for (std::size_t i = 1; i < sink.size(); ++i)
        ASSERT_GE(sink.events()[i].time, sink.events()[i - 1].time);

    // One arrival per trace request, one finish per finished record.
    std::size_t arrivals = 0, finishes = 0;
    for (const TraceEvent &ev : sink.events()) {
        arrivals += ev.kind == TraceEventKind::Arrival;
        finishes += ev.kind == TraceEventKind::Finish;
    }
    EXPECT_EQ(arrivals, trace.requests.size());
    std::size_t finishedRecords = 0;
    for (const RequestRecord &rec : metrics.records())
        finishedRecords += rec.finishTime != kTimeNever;
    EXPECT_EQ(finishes, finishedRecords);
}

TEST(ObsE2e, PhaseTilingCoversEveryServedRequest)
{
    Trace trace = smallTrace(5.0, 200, 7);
    ClusterSim sim(defaultConfig(), trace);
    sim.addReplicaGroup(2, fcfsFactory());
    FaultInjector injector(
        [&] {
            FaultConfig fc;
            fc.crashMtbf = 20.0;
            fc.crashMttr = 5.0;
            fc.seed = 13;
            fc.horizon = trace.requests.back().arrival;
            return fc;
        }(),
        sim);
    TraceSink sink;
    sim.setTraceSink(&sink);
    const MetricsCollector &metrics = sim.run();
    ASSERT_GT(injector.stats().crashes, 0u);

    auto timelines = buildRequestTimelines(sink.events());
    std::size_t served = 0;
    for (const RequestRecord &rec : metrics.records()) {
        if (rec.rejected)
            continue;
        auto it = timelines.find(RequestId{rec.spec.id});
        ASSERT_NE(it, timelines.end()) << rec.spec.id;
        const RequestTimeline &tl = it->second;
        if (tl.spans.empty())
            continue;
        ++served;
        PhaseBreakdown bd = breakdownFor(tl, rec.spec.arrival);
        // The tiling is gap-free, so attribution is structurally
        // complete — the explainer's >=95% bar with margin.
        EXPECT_GE(bd.coverage(), 0.999) << "request " << rec.spec.id;
        for (std::size_t i = 1; i < tl.spans.size(); ++i)
            EXPECT_EQ(tl.spans[i].begin, tl.spans[i - 1].end)
                << "gap in request " << rec.spec.id;
    }
    EXPECT_GT(served, 0u);
}

/** Count Perfetto duration-begin/end markers in exported JSON. */
std::pair<std::size_t, std::size_t>
countPerfettoPairs(const std::string &json)
{
    std::size_t begins = 0, ends = 0;
    for (std::size_t pos = 0;
         (pos = json.find("\"ph\":\"", pos)) != std::string::npos;
         pos += 6) {
        begins += json.compare(pos + 6, 1, "B") == 0;
        ends += json.compare(pos + 6, 1, "E") == 0;
    }
    return {begins, ends};
}

TEST(ObsE2e, PerfettoBalancesWhenCrashesCancelBatchesMidIteration)
{
    // Aggressive crash schedule: replicas die with batches in
    // flight, so engine iteration spans are cancelled mid-iteration
    // and request spans are force-closed. Every B must still find
    // its E.
    Trace trace = smallTrace(6.0, 250, 11);
    ClusterSim sim(defaultConfig(), trace);
    sim.addReplicaGroup(3, fcfsFactory());
    FaultConfig fc;
    fc.crashMtbf = 8.0;
    fc.crashMttr = 3.0;
    fc.seed = 29;
    fc.horizon = trace.requests.back().arrival;
    FaultInjector injector(fc, sim);
    TraceSink sink;
    sim.setTraceSink(&sink);
    sim.run();
    ASSERT_GT(injector.stats().crashes, 1u)
        << "schedule too gentle to exercise crash cancellation";

    std::stringstream out;
    writePerfettoJson(sink.events(), out);
    auto [begins, ends] = countPerfettoPairs(out.str());
    EXPECT_GT(begins, 0u);
    EXPECT_EQ(begins, ends);
}

TEST(ObsE2e, PerfettoBalancesWhenAZoneOutageKillsReplicasTogether)
{
    // A zone outage downs several replicas at the same sim instant —
    // the exporter has to close all their in-flight spans at one
    // timestamp without dropping or double-closing any.
    Trace trace = smallTrace(6.0, 250, 13);
    ClusterSim sim(defaultConfig(), trace);
    sim.addReplicaGroup(4, fcfsFactory());
    DomainConfig dc;
    dc.zones = 2; // two replicas per zone go down together
    dc.zoneMtbf = 15.0;
    dc.zoneMttr = 5.0;
    dc.seed = 31;
    dc.horizon = trace.requests.back().arrival;
    DomainInjector injector(dc, sim);
    TraceSink sink;
    sim.setTraceSink(&sink);
    sim.run();
    ASSERT_GT(injector.stats().zoneOutages, 0u);
    ASSERT_GT(injector.stats().replicasDowned,
              injector.stats().zoneOutages)
        << "outages should down whole zones, not single replicas";

    std::stringstream out;
    writePerfettoJson(sink.events(), out);
    auto [begins, ends] = countPerfettoPairs(out.str());
    EXPECT_GT(begins, 0u);
    EXPECT_EQ(begins, ends);
}

TEST(ObsE2e, PerfettoExportOfRealRunBalances)
{
    Trace trace = smallTrace(4.0, 150, 3);
    ClusterSim sim(defaultConfig(), trace);
    sim.addReplicaGroup(2, fcfsFactory());
    TraceSink sink;
    sim.setTraceSink(&sink);
    sim.run();

    std::stringstream out;
    writePerfettoJson(sink.events(), out);
    const std::string json = out.str();
    std::size_t begins = 0, ends = 0;
    for (std::size_t pos = 0;
         (pos = json.find("\"ph\":\"", pos)) != std::string::npos;
         pos += 6) {
        begins += json.compare(pos + 6, 1, "B") == 0;
        ends += json.compare(pos + 6, 1, "E") == 0;
    }
    EXPECT_GT(begins, 0u);
    EXPECT_EQ(begins, ends);
}

TEST(ObsE2e, TracingDoesNotPerturbTheSimulation)
{
    Trace trace = smallTrace(4.0, 200, 9);

    auto run = [&](TraceSink *sink) {
        ClusterSim sim(defaultConfig(), trace);
        sim.addReplicaGroup(2, fcfsFactory());
        if (sink != nullptr)
            sim.setTraceSink(sink);
        sim.run();
        std::stringstream out;
        writeRecordsCsv(sim.metrics(), out);
        return out.str();
    };

    TraceSink sink;
    std::string traced = run(&sink);
    std::string untraced = run(nullptr);
    EXPECT_FALSE(sink.empty());
    EXPECT_EQ(traced, untraced);
}

TEST(ObsE2e, SloMonitorDoesNotPerturbTheSimulation)
{
    // The read-only contract: a monitored (and traced) run must
    // produce byte-identical records and summary CSVs to a bare run
    // of the same trace. An overloaded single replica guarantees the
    // monitor actually raises alerts along the way.
    Trace trace = smallTrace(8.0, 200, 21);

    SloMonitorConfig cfg;
    cfg.budget = 0.05;
    cfg.burn = 1.0;
    cfg.shortWindow = 5.0;
    cfg.longWindow = 10.0;
    cfg.interval = 1.0;

    std::size_t alertEpisodes = 0;
    auto run = [&](bool monitored) {
        ClusterSim sim(defaultConfig(), trace);
        sim.addReplicaGroup(1, fcfsFactory());
        TraceSink sink;
        std::optional<SloMonitor> mon;
        if (monitored) {
            sim.setTraceSink(&sink);
            mon.emplace(sim.eventQueue(),
                        TraceScope{&sink, &sim.eventQueue(), -1}, cfg);
            sim.metricsCollector().addRecordObserver(
                [&](const RequestRecord &rec) {
                    mon->observe(rec.spec.tierId,
                                 sim.eventQueue().now(),
                                 violatedSlo(rec,
                                             sim.metrics().tiers()
                                                 [static_cast<std::size_t>(
                                                     rec.spec.tierId)]));
                });
            mon->start();
        }
        sim.run();
        if (monitored)
            alertEpisodes = mon->alerts().size();
        std::stringstream out;
        writeRecordsCsv(sim.metrics(), out);
        writeSummaryCsv(summarize(sim.metrics()), out);
        return out.str();
    };

    std::string monitored = run(true);
    std::string bare = run(false);
    EXPECT_GT(alertEpisodes, 0u)
        << "an overloaded run should raise at least one alert";
    EXPECT_EQ(monitored, bare);
}

TEST(ObsE2e, ExplainReportNamesEveryViolatedRequest)
{
    Trace trace = smallTrace(8.0, 200, 17);
    ClusterSim sim(defaultConfig(), trace);
    sim.addReplicaGroup(1, fcfsFactory());
    TraceSink sink;
    sim.setTraceSink(&sink);
    const MetricsCollector &metrics = sim.run();

    std::vector<ExplainRecord> records;
    std::size_t violated = 0;
    for (const RequestRecord &rec : metrics.records()) {
        const QosTier &tier = metrics.tiers()[static_cast<std::size_t>(
            rec.spec.tierId)];
        ExplainRecord er;
        er.id = rec.spec.id;
        er.arrival = SimTime{rec.spec.arrival};
        er.tierId = rec.spec.tierId;
        er.ttft = rec.firstTokenTime - rec.spec.arrival;
        er.ttlt = rec.finishTime - rec.spec.arrival;
        er.violated = violatedSlo(rec, tier);
        er.rejected = rec.rejected;
        er.retryExhausted = rec.retryExhausted;
        er.retries = rec.retries;
        violated += er.violated;
        records.push_back(er);
    }
    ASSERT_GT(violated, 0u) << "overloaded run should violate SLOs";

    std::stringstream out;
    writeExplainReport(sink.events(), records, out, 5);
    const std::string report = out.str();
    for (const ExplainRecord &er : records) {
        if (er.violated) {
            EXPECT_NE(report.find("req " + std::to_string(er.id)),
                      std::string::npos)
                << er.id;
        }
    }
    EXPECT_NE(report.find("min coverage 100.000%"), std::string::npos)
        << report.substr(0, 400);
}

/** FNV-1a 64 of a byte string, as 16 hex digits. */
std::string
digestOf(const std::string &bytes)
{
    std::uint64_t h = 14695981039346656037ull;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 1099511628211ull;
    }
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(h));
    return hex;
}

TEST(ObsE2e, WriterDigestsOfAFaultedZonedRunArePinned)
{
    // A small seeded run with crashes, stragglers, zone outages,
    // partitions, a metrics cadence and the SLO monitor. The digests
    // pin the bytes of all three obs writers on real data; they were
    // taken from the string-concatenating writers and must survive
    // any rewrite of the formatting.
    Trace trace = smallTrace(6.0, 300, 19);
    ClusterSim sim(defaultConfig(), trace);
    sim.addReplicaGroup(4, fcfsFactory());
    const SimTime horizon = trace.requests.back().arrival;
    FaultConfig fc;
    fc.crashMtbf = 20.0;
    fc.crashMttr = 5.0;
    fc.stragglerMtbf = 15.0;
    fc.stragglerDuration = 5.0;
    fc.stragglerFactor = 1.2345;
    fc.seed = 3;
    fc.horizon = horizon;
    FaultInjector faults(fc, sim);
    DomainConfig dc;
    dc.zones = 2;
    dc.zoneMtbf = 30.0;
    dc.zoneMttr = 5.0;
    dc.partitionMtbf = 20.0;
    dc.partitionMttr = 4.0;
    dc.seed = 5;
    dc.horizon = horizon;
    DomainInjector domains(dc, sim);

    TraceSink sink;
    sim.setTraceSink(&sink);
    MetricsRegistry registry;
    MetricsSampler sampler(
        sim.eventQueue(), registry, 2.5,
        [&sim](MetricsRegistry &reg, SimTime) {
            std::size_t prefill = 0;
            for (std::size_t i = 0; i < sim.numReplicas(); ++i) {
                const Replica &rep = sim.replica(i);
                prefill += rep.scheduler().prefillQueueSize();
                reg.gauge("replica" + std::to_string(i) + "_kv_used") =
                    static_cast<double>(rep.kv().usedBlocks());
                reg.histogram("queue_depth", {0.5, 2.0, 8.0})
                    .observe(static_cast<double>(
                        rep.scheduler().prefillQueueSize()));
            }
            reg.counter("redispatches") =
                static_cast<std::int64_t>(sim.redispatches());
            reg.gauge("mean_prefill_queue") =
                static_cast<double>(prefill) /
                static_cast<double>(sim.numReplicas());
        });
    sampler.start();
    SloMonitorConfig mc;
    mc.budget = 0.05;
    mc.burn = 1.0;
    mc.shortWindow = 5.0;
    mc.longWindow = 10.0;
    mc.interval = 1.0;
    SloMonitor monitor(sim.eventQueue(),
                       TraceScope{&sink, &sim.eventQueue(), -1}, mc);
    sim.metricsCollector().addRecordObserver(
        [&](const RequestRecord &rec) {
            monitor.observe(
                rec.spec.tierId, sim.eventQueue().now(),
                violatedSlo(rec, sim.metrics().tiers()[static_cast<
                                     std::size_t>(rec.spec.tierId)]));
        });
    monitor.start();
    sim.run();
    ASSERT_GT(faults.stats().crashes, 0u);
    ASSERT_GT(faults.stats().stragglerEpisodes, 0u);
    ASSERT_GT(domains.stats().zoneOutages, 0u);
    ASSERT_GT(domains.stats().partitions, 0u);
    ASSERT_GT(monitor.alerts().size(), 0u);

    std::stringstream perfetto, events, metrics;
    writePerfettoJson(sink.events(), perfetto);
    sink.writeCsv(events);
    registry.writeCsv(metrics);
    EXPECT_EQ(digestOf(perfetto.str()), "b75974a8c366cfe0");
    EXPECT_EQ(digestOf(events.str()), "71ea3c45395f5ead");
    EXPECT_EQ(digestOf(metrics.str()), "15a2a82d36a4c05c");
    EXPECT_EQ(perfetto.str().size(), 1866995u);
    EXPECT_EQ(events.str().size(), 677410u);
    EXPECT_EQ(metrics.str().size(), 1633u);
}

} // namespace
} // namespace qoserve
