/**
 * @file
 * Figure 4: throughput and latency as a function of chunk size.
 *
 * Sweeps the prefill chunk size with a representative standing
 * decode batch on Llama3-8B / A100 (TP1) and prints the
 * throughput-latency tradeoff curve, the chunk size that meets the
 * 50 ms TBT SLO, and the saturation chunk. The paper's annotations:
 * "Chunk size = 330, SLO = 50 ms"; throughput saturates ~10K
 * tokens/s around chunk 2500, ~2x the chunk-256 throughput.
 */

#include "bench_common.hh"

namespace qoserve {
namespace {

void
run(const bench::BenchOptions &opts)
{
    bench::WallTimer timer;
    bench::printBanner("Chunk-size throughput/latency tradeoff",
                       "Figure 4 and Section 4.1.4");

    PerfModel model(llama3_8b_a100_tp1());

    // Standing decode batch matching a loaded replica.
    auto iter_time = [&](int chunk) {
        BatchWork w;
        w.prefillTokens = chunk;
        w.prefillCtxProduct =
            static_cast<double>(chunk) * (chunk / 2.0);
        w.numDecodes = 32;
        w.decodeCtxSum = 32 * 1500;
        return model.iterationTime(w);
    };

    std::printf("%-12s %-22s %-16s\n", "chunk", "throughput (tokens/s)",
                "latency (ms)");
    bench::printRule(52);

    int slo_chunk = 0;
    double best_tput = 0.0;
    int best_chunk = 0;
    for (int chunk = 64; chunk <= 2560; chunk += 64) {
        double t = iter_time(chunk);
        double tput = chunk / t;
        if (t <= 0.050)
            slo_chunk = chunk;
        if (tput > best_tput) {
            best_tput = tput;
            best_chunk = chunk;
        }
        if (chunk % 256 == 0 || chunk == 64) {
            std::printf("%-12d %-22.0f %-16.1f\n", chunk, tput,
                        toMillis(t));
        }
    }

    double tput_256 = 256.0 / iter_time(256);
    double tput_2500 = 2500.0 / iter_time(2500);

    bench::printRule(52);
    std::printf("largest chunk meeting the 50 ms SLO : %d "
                "(paper: ~330)\n",
                slo_chunk);
    std::printf("throughput-optimal chunk            : %d "
                "(paper: ~2500)\n",
                best_chunk);
    std::printf("peak throughput                     : %.0f tokens/s "
                "(paper: ~10000)\n",
                best_tput);
    std::printf("throughput ratio chunk 2500 vs 256  : %.2fx "
                "(paper: ~2x)\n",
                tput_2500 / tput_256);
    bench::writeBenchJson(opts, {}, timer.seconds());
}

} // namespace
} // namespace qoserve

int
main(int argc, char **argv)
{
    qoserve::run(
        qoserve::bench::parseBenchArgs("fig04_chunk_tradeoff", argc, argv));
    return 0;
}
