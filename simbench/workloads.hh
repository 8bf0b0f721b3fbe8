/**
 * @file
 * The benchmark's workloads and the one-repetition runner.
 *
 * A repetition synthesises the trace from the seed, trains the
 * predictor, constructs the cluster (with injectors and observers
 * where the workload has them), then runs, summarises and exports.
 * The first three steps are set-up; the last three are the timed
 * window that sim_req_per_s divides by.
 *
 * Why each workload exists, and which layers it exercises or
 * bypasses, is documented in simbench/README.md.
 */

#ifndef SIMBENCH_WORKLOADS_HH
#define SIMBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "app/serving_system.hh"
#include "instrument.hh"

namespace simbench {

/** Shape of one workload. Arrivals are open-loop Poisson in
 *  simulated time at replicas x qpsPerReplica. */
struct WorkloadSpec
{
    std::string name;
    qoserve::Policy policy = qoserve::Policy::QoServe;
    int replicas = 1;
    double qpsPerReplica = 1.0;
    /** Simulated seconds of arrivals. */
    double duration = 60.0;
    /** Shared-prefix synthesis (0 = every prompt unique). */
    double shareRatio = 0.0;
    double multiTurnFrac = 0.5;
    /** Prefix cache plus cache-affinity routing. */
    bool prefixCache = false;
    /** Crashes, stragglers, zones, partitions, breaker, deadline
     *  cancel, brownout, and the trace / metrics / SLO observers. */
    bool chaos = false;
};

/** The four benchmark workloads. */
const std::vector<WorkloadSpec> &workloads();

/** Workload by name, or nullptr. */
const WorkloadSpec *findWorkload(const std::string &name);

/** Per-request record check of one repetition. */
struct RecordCheck
{
    std::size_t attempted = 0;
    std::size_t missing = 0;
    std::size_t duplicate = 0;
    /** Records outside the trace, or in no terminal state. */
    std::size_t malformed = 0;
    std::size_t finished = 0;
    /** Refused at the front door or shed by the brownout. */
    std::size_t rejected = 0;
    /** Retry budget exhausted or deadline-cancelled. */
    std::size_t abandoned = 0;
    /** FNV-1a digest of every record field, in completion order. */
    std::uint64_t digest = 0;

    std::size_t failed() const { return missing + duplicate + malformed; }
    std::size_t terminal() const { return finished + rejected + abandoned; }
};

/** Check that every trace request ended in exactly one terminal
 *  record, and digest the records. */
RecordCheck checkRecords(std::size_t trace_requests,
                         const std::vector<qoserve::RequestRecord> &records);

/** Everything one repetition measures. */
struct RepResult
{
    // Set-up, host seconds.
    double synthS = 0.0;
    double trainS = 0.0;
    double constructS = 0.0;
    double setupS() const { return synthS + trainS + constructS; }

    // Timed window, host seconds.
    double runS = 0.0;
    double summarizeS = 0.0;
    double exportS = 0.0;
    double windowS() const { return runS + summarizeS + exportS; }

    RecordCheck check;
    qoserve::RunSummary summary;
    /** Index of the interactive (TTFT-SLO) tier in summary.tiers. */
    int interactiveTier = -1;

    // Counters read from public accessors after the run.
    std::uint64_t events = 0;
    std::uint64_t iterations = 0;
    std::uint64_t redispatches = 0;
    std::uint64_t retriesExhausted = 0;
    std::uint64_t breakerTrips = 0;
    std::uint64_t deadlineCancelled = 0;
    std::uint64_t brownoutShed = 0;
    std::uint64_t brownoutCapped = 0;
    std::uint64_t brownoutSteps = 0;
    std::uint64_t crashes = 0;
    std::uint64_t stragglers = 0;
    std::uint64_t zoneOutages = 0;
    std::uint64_t partitions = 0;
    qoserve::PrefixCacheStats prefix;
    std::uint64_t traceEvents = 0;
    std::uint64_t exportBytes = 0;
    std::uint64_t sloAlerts = 0;
};

/**
 * Run one repetition of @p spec on the trace of @p seed.
 *
 * @param ledger Null for an untraced repetition; otherwise every
 *        phase, scheduler call and predictor call is recorded into it
 *        through the timing subclasses and the predictor decorator.
 * @param records_csv When non-null, receives the per-request records
 *        as CSV (after the timed window).
 * @param setup_only Stop after set-up: only the set-up times are
 *        filled in.
 */
RepResult runRep(const WorkloadSpec &spec, std::uint64_t seed,
                 LayerLedger *ledger, std::string *records_csv = nullptr,
                 bool setup_only = false);

} // namespace simbench

#endif // SIMBENCH_WORKLOADS_HH
