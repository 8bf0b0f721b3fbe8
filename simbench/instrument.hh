/**
 * @file
 * Timing instrumentation for the traced run, built only from the
 * simulator's public extension points.
 *
 *  - TimedScheduler<Policy> subclasses a concrete policy class and
 *    times enqueue / formBatchInto / onBatchComplete. It must be a
 *    subclass, not a wrapper around a Scheduler: the replica requires
 *    its scheduler to be a ChunkedScheduler (it installs the
 *    completion handler through a dynamic_cast).
 *  - TimedPredictor is a forwarding LatencyPredictor decorator timing
 *    the three virtual calls. ChunkPlane::predict probes are not
 *    virtual, so their time stays in the enclosing scheduler span.
 *
 * Both only read: every call forwards unchanged, and the benchmark
 * checks that the traced run's record digest equals the untraced
 * runs'.
 */

#ifndef SIMBENCH_INSTRUMENT_HH
#define SIMBENCH_INSTRUMENT_HH

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <unordered_map>

#include "app/serving_system.hh"
#include "spans.hh"

namespace simbench {

/**
 * Everything the traced run accumulates: spans, per-call histograms,
 * and the counters of schedulers that have been destroyed (a replica
 * rebuilds its scheduler on every crash, so counters are folded in as
 * each instance dies).
 */
struct LayerLedger
{
    LayerLedger();

    SpanRecorder spans;

    /** Span name ids, registered up front. */
    int workloadSynthesize;
    int predictorTrain;
    int clusterConstruct;
    int clusterRun;
    int schedEnqueue;
    int schedFormBatch;
    int schedOnComplete;
    int predictorPredict;
    int predictorPredictSupported;
    int predictorBuildChunkPlane;
    int metricsSummarize;
    int obsExport;

    DurationHistogram predictorCallNs;
    DurationHistogram formBatchNs;

    qoserve::SchedulerStats sched;
    qoserve::ChunkSolverCache::Stats memo;
    std::size_t prefillQueueMax = 0;
    double kvPeakUsedFrac = 0.0;

    /** Replica index by its KV manager, filled once the replicas
     *  exist; schedulers look themselves up through SchedulerEnv::kv. */
    std::unordered_map<const qoserve::BlockManager *, int> replicaOfKv;

    int replicaOf(const qoserve::BlockManager *kv) const;

    /** Fold a dying scheduler's counters in. */
    void fold(const qoserve::SchedulerStats &stats);
    void fold(const qoserve::ChunkSolverCache::Stats &stats);
};

/** Forwarding predictor decorator that times every virtual call. */
class TimedPredictor final : public qoserve::LatencyPredictor
{
  public:
    TimedPredictor(const qoserve::LatencyPredictor &inner,
                   LayerLedger &ledger)
        : inner_(inner), ledger_(ledger)
    {
    }

    qoserve::SimDuration
    predict(const qoserve::BatchFeatures &features) const override;

    qoserve::SimDuration
    predictSupported(const qoserve::BatchFeatures &features,
                     qoserve::FeatureSupport &support) const override;

    bool buildChunkPlane(const qoserve::BatchFeatures &features,
                         qoserve::ChunkPlane &out,
                         qoserve::ChunkPlane *super_scratch) const override;

  private:
    void begin(int name) const;
    void end() const;

    const qoserve::LatencyPredictor &inner_;
    LayerLedger &ledger_;
};

/**
 * Policy subclass that times the three scheduler entry points and
 * samples queue depth and KV occupancy between calls (outside the
 * timed spans).
 */
template <class Policy>
class TimedScheduler final : public Policy
{
  public:
    template <class... Args>
    TimedScheduler(LayerLedger &ledger, const qoserve::SchedulerEnv &env,
                   Args &&...args)
        : Policy(env, std::forward<Args>(args)...), ledger_(ledger)
    {
    }

    ~TimedScheduler() override
    {
        ledger_.fold(this->stats());
        if constexpr (std::is_base_of_v<qoserve::QoServeScheduler, Policy>)
            ledger_.fold(this->solverCacheStats());
    }

    void
    enqueue(qoserve::Request *req, qoserve::SimTime now) override
    {
        ledger_.spans.beginNow(ledger_.schedEnqueue, replica(),
                               static_cast<std::int64_t>(req->id()));
        Policy::enqueue(req, now);
        ledger_.spans.endNow();
        noteQueue();
    }

    void
    formBatchInto(qoserve::Batch &batch, qoserve::SimTime now) override
    {
        ledger_.spans.beginNow(ledger_.schedFormBatch, replica());
        Policy::formBatchInto(batch, now);
        ledger_.formBatchNs.record(ledger_.spans.endNow());
        noteQueue();
        const qoserve::BlockManager &kv = *this->env().kv;
        ledger_.kvPeakUsedFrac = std::max(
            ledger_.kvPeakUsedFrac,
            static_cast<double>(kv.usedBlocks()) /
                static_cast<double>(kv.totalBlocks()));
    }

    void
    onBatchComplete(const qoserve::Batch &batch,
                    qoserve::SimTime end) override
    {
        ledger_.spans.beginNow(ledger_.schedOnComplete, replica());
        Policy::onBatchComplete(batch, end);
        ledger_.spans.endNow();
    }

  private:
    int
    replica()
    {
        if (replica_ < 0)
            replica_ = ledger_.replicaOf(this->env().kv);
        return replica_;
    }

    void
    noteQueue()
    {
        ledger_.prefillQueueMax =
            std::max(ledger_.prefillQueueMax, this->prefillQueueSize());
    }

    LayerLedger &ledger_;
    int replica_ = -1;
};

/**
 * Scheduler factory for @p cfg's policy whose schedulers are timed
 * into @p ledger. Only the policies the workloads use are supported
 * (QoServe and Sarathi-FCFS); any other is a programming error.
 */
qoserve::SchedulerFactory
makeTimedSchedulerFactory(const qoserve::ServingConfig &cfg,
                          LayerLedger &ledger);

} // namespace simbench

#endif // SIMBENCH_INSTRUMENT_HH
