/**
 * @file
 * Traced-run instrumentation.
 */

#include "instrument.hh"

#include <stdexcept>

namespace simbench {

using namespace qoserve;

LayerLedger::LayerLedger()
    : workloadSynthesize(spans.nameId("workload.synthesize")),
      predictorTrain(spans.nameId("predictor.train")),
      clusterConstruct(spans.nameId("cluster.construct")),
      clusterRun(spans.nameId("cluster.run")),
      schedEnqueue(spans.nameId("sched.enqueue")),
      schedFormBatch(spans.nameId("sched.form_batch")),
      schedOnComplete(spans.nameId("sched.on_complete")),
      predictorPredict(spans.nameId("predictor.predict")),
      predictorPredictSupported(
          spans.nameId("predictor.predict_supported")),
      predictorBuildChunkPlane(spans.nameId("predictor.build_chunk_plane")),
      metricsSummarize(spans.nameId("metrics.summarize")),
      obsExport(spans.nameId("obs.export"))
{
}

int
LayerLedger::replicaOf(const BlockManager *kv) const
{
    auto it = replicaOfKv.find(kv);
    return it == replicaOfKv.end() ? -1 : it->second;
}

void
LayerLedger::fold(const SchedulerStats &stats)
{
    sched.batchesFormed += stats.batchesFormed;
    sched.prefillTokensScheduled += stats.prefillTokensScheduled;
    sched.decodeTokensScheduled += stats.decodeTokensScheduled;
    sched.relegations += stats.relegations;
    sched.kvPreemptions += stats.kvPreemptions;
}

void
LayerLedger::fold(const ChunkSolverCache::Stats &stats)
{
    memo.solves += stats.solves;
    memo.replayHits += stats.replayHits;
    memo.queries += stats.queries;
    memo.hits += stats.hits;
    memo.evaluations += stats.evaluations;
    memo.invalidations += stats.invalidations;
}

void
TimedPredictor::begin(int name) const
{
    ledger_.spans.beginNow(name);
}

void
TimedPredictor::end() const
{
    ledger_.predictorCallNs.record(ledger_.spans.endNow());
}

SimDuration
TimedPredictor::predict(const BatchFeatures &features) const
{
    begin(ledger_.predictorPredict);
    SimDuration out = inner_.predict(features);
    end();
    return out;
}

SimDuration
TimedPredictor::predictSupported(const BatchFeatures &features,
                                 FeatureSupport &support) const
{
    begin(ledger_.predictorPredictSupported);
    SimDuration out = inner_.predictSupported(features, support);
    end();
    return out;
}

bool
TimedPredictor::buildChunkPlane(const BatchFeatures &features,
                                ChunkPlane &out,
                                ChunkPlane *super_scratch) const
{
    begin(ledger_.predictorBuildChunkPlane);
    bool built = inner_.buildChunkPlane(features, out, super_scratch);
    end();
    return built;
}

SchedulerFactory
makeTimedSchedulerFactory(const ServingConfig &cfg, LayerLedger &ledger)
{
    switch (cfg.policy) {
      case Policy::QoServe:
        return [&ledger, qos = cfg.qoserve, base = cfg.base](
                   const SchedulerEnv &env) -> std::unique_ptr<Scheduler> {
            return std::make_unique<TimedScheduler<QoServeScheduler>>(
                ledger, env, qos, base);
        };
      case Policy::SarathiFcfs:
        return [&ledger, base = cfg.base](
                   const SchedulerEnv &env) -> std::unique_ptr<Scheduler> {
            return std::make_unique<TimedScheduler<FcfsScheduler>>(
                ledger, env, base);
        };
      default:
        throw std::invalid_argument(
            std::string("no timed scheduler for policy ") +
            policyName(cfg.policy));
    }
}

} // namespace simbench
