/**
 * @file
 * Extension study: load-balancing policies across replicas.
 *
 * The paper's deployments use round-robin balancing (§4.1.1). This
 * ablation measures what smarter balancing adds on top of QoServe:
 * round-robin vs least-loaded vs shortest-queue (by pending prefill
 * tokens) on a 4-replica shared cluster across loads. Because
 * request sizes are heavy-tailed, round-robin occasionally stacks
 * two huge prompts on one replica; queue-aware balancing smooths
 * that out and trims tail latency near saturation.
 */

#include "bench_common.hh"

namespace qoserve {
namespace {

RunSummary
runWith(LoadBalancePolicy lb, double qps,
        const LatencyPredictor *predictor)
{
    Trace trace = TraceBuilder()
                      .dataset(azureCode())
                      .seed(79)
                      .build(PoissonArrivals(qps), 900.0);

    ServingConfig sc;
    sc.policy = Policy::QoServe;

    ClusterSim::Config cc;
    cc.replica.hw = llama3_8b_a100_tp1();
    cc.predictor = predictor;

    ClusterSim sim(cc, trace);
    sim.addReplicaGroup(4, makeSchedulerFactory(sc), lb);
    return summarize(sim.run());
}

void
run(const bench::BenchOptions &opts)
{
    bench::WallTimer timer;
    bench::printBanner("Load balancing across replicas",
                       "round-robin baseline of §4.1.1 (extension)");

    const LatencyPredictor *predictor =
        bench::PredictorCache::instance().get(llama3_8b_a100_tp1());

    const LoadBalancePolicy policies[] = {
        LoadBalancePolicy::RoundRobin,
        LoadBalancePolicy::LeastLoaded,
        LoadBalancePolicy::ShortestQueue,
    };

    for (const char *metric : {"p99 latency (s)", "violations (%)"}) {
        std::printf("\n%s — QoServe on 4 shared replicas (Az-Code)\n",
                    metric);
        std::printf("%-16s", "policy \\ QPS");
        for (double qps : {12.0, 16.0, 20.0, 24.0})
            std::printf("%10.0f", qps);
        std::printf("\n");
        bench::printRule(58);
        for (LoadBalancePolicy lb : policies) {
            std::printf("%-16s", loadBalanceName(lb));
            for (double qps : {12.0, 16.0, 20.0, 24.0}) {
                RunSummary s = runWith(lb, qps, predictor);
                double v = metric[0] == 'p'
                               ? s.p99Latency
                               : 100.0 * s.violationRate;
                std::printf("%10.2f", v);
            }
            std::printf("\n");
        }
    }
    bench::writeBenchJson(opts, {}, timer.seconds());
}

} // namespace
} // namespace qoserve

int
main(int argc, char **argv)
{
    qoserve::run(
        qoserve::bench::parseBenchArgs("ext_load_balancer", argc, argv));
    return 0;
}
