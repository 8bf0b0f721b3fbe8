/**
 * @file
 * Extension study: replica failures, stragglers and recovery.
 *
 * The paper's evaluation assumes healthy replicas; production
 * clusters lose them. This study injects deterministic crash/restart
 * cycles (exponential MTBF/MTTR) and straggler episodes into a
 * 4-replica QoServe deployment and measures how much of the lost
 * capacity the recovery path wins back: health-aware routing (skip
 * down replicas, de-weight stragglers) plus re-dispatch of the
 * requests a crash orphaned, against a blind round-robin baseline
 * that never retries.
 *
 * Availability here is request-level: the fraction of trace requests
 * fully served (neither rejected nor abandoned after the retry
 * budget). Machine availability — replica-seconds up — is reported
 * alongside so the two are not conflated.
 */

#include "bench_common.hh"

namespace qoserve {
namespace {

struct Scenario
{
    const char *name;
    LoadBalancePolicy lb;
    bool healthAware;
    int maxRetries;
};

constexpr Scenario kScenarios[] = {
    {"rr blind no-retry", LoadBalancePolicy::RoundRobin, false, 0},
    {"rr health+retry", LoadBalancePolicy::RoundRobin, true, 3},
    {"least-loaded h+r", LoadBalancePolicy::LeastLoaded, true, 3},
    {"jsq health+retry", LoadBalancePolicy::ShortestQueue, true, 3},
};

struct FaultRun
{
    RunSummary summary;
    FaultStats faults;
    double machineAvailability = 1.0;
    std::uint64_t redispatches = 0;
};

FaultRun
runWith(const Scenario &sc, FaultConfig fault,
        const LatencyPredictor *predictor)
{
    Trace trace = TraceBuilder()
                      .dataset(azureCode())
                      .seed(83)
                      .build(PoissonArrivals(12.0), 600.0);

    ServingConfig serving;
    serving.policy = Policy::QoServe;

    ClusterSim::Config cc;
    cc.replica.hw = llama3_8b_a100_tp1();
    cc.predictor = predictor;
    cc.healthAwareRouting = sc.healthAware;
    cc.retry.maxRetries = sc.maxRetries;

    ClusterSim sim(cc, trace);
    sim.addReplicaGroup(4, makeSchedulerFactory(serving), sc.lb);

    std::optional<FaultInjector> injector;
    if (fault.enabled()) {
        fault.horizon = trace.requests.back().arrival;
        injector.emplace(fault, sim);
    }

    FaultRun out;
    out.summary = summarize(sim.run());
    if (injector) {
        out.faults = injector->stats();
        out.machineAvailability = injector->machineAvailability();
    }
    out.redispatches = sim.redispatches();
    return out;
}

void
crashSweep(const LatencyPredictor *predictor)
{
    // 0 disables crashes: the fault-free sanity column.
    const double mtbfs[] = {0.0, 120.0, 60.0, 30.0};

    std::printf("\nrequest availability (%%) vs crash MTBF "
                "(MTTR 20 s, 4 replicas, Az-Code @ 12 QPS)\n");
    std::printf("%-20s", "scenario \\ MTBF (s)");
    for (double mtbf : mtbfs) {
        if (mtbf <= 0.0)
            std::printf("%10s", "none");
        else
            std::printf("%10.0f", mtbf);
    }
    std::printf("\n");
    bench::printRule(60);

    for (const Scenario &sc : kScenarios) {
        std::printf("%-20s", sc.name);
        for (double mtbf : mtbfs) {
            FaultConfig fault;
            fault.crashMtbf = mtbf;
            fault.crashMttr = 20.0;
            FaultRun r = runWith(sc, fault, predictor);
            std::printf("%10.2f", 100.0 * r.summary.availability);
        }
        std::printf("\n");
    }

    std::printf("\ndetail at MTBF 60 s\n");
    std::printf("%-20s%10s%10s%12s%10s%10s\n", "scenario", "avail%",
                "viol%", "redispatch", "retries", "mach%");
    bench::printRule(72);
    for (const Scenario &sc : kScenarios) {
        FaultConfig fault;
        fault.crashMtbf = 60.0;
        fault.crashMttr = 20.0;
        FaultRun r = runWith(sc, fault, predictor);
        std::printf("%-20s%10.2f%10.2f%12llu%10.3f%10.2f\n", sc.name,
                    100.0 * r.summary.availability,
                    100.0 * r.summary.violationRate,
                    static_cast<unsigned long long>(r.redispatches),
                    r.summary.meanRetries,
                    100.0 * r.machineAvailability);
    }
}

void
stragglerSweep(const LatencyPredictor *predictor)
{
    std::printf("\np99 latency (s) vs straggler factor "
                "(episode MTBF 60 s, mean length 10 s, no crashes)\n");
    std::printf("%-20s%10s%10s%10s\n", "scenario \\ factor", "none",
                "2x", "4x");
    bench::printRule(50);

    for (const Scenario &sc : kScenarios) {
        std::printf("%-20s", sc.name);
        for (double factor : {0.0, 2.0, 4.0}) {
            FaultConfig fault;
            if (factor > 0.0) {
                fault.stragglerMtbf = 60.0;
                fault.stragglerDuration = 10.0;
                fault.stragglerFactor = factor;
            }
            FaultRun r = runWith(sc, fault, predictor);
            std::printf("%10.2f", r.summary.p99Latency);
        }
        std::printf("\n");
    }
}

void
run(const bench::BenchOptions &opts)
{
    bench::WallTimer timer;
    bench::printBanner("Replica failures, stragglers and recovery",
                       "fault-injection extension (DESIGN.md §8)");

    const LatencyPredictor *predictor =
        bench::PredictorCache::instance().get(llama3_8b_a100_tp1());

    crashSweep(predictor);
    stragglerSweep(predictor);
    bench::writeBenchJson(opts, {}, timer.seconds());
}

} // namespace
} // namespace qoserve

int
main(int argc, char **argv)
{
    qoserve::run(qoserve::bench::parseBenchArgs("ext_failures", argc, argv));
    return 0;
}
