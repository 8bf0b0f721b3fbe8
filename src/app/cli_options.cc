/**
 * @file
 * CLI option parsing implementation.
 */

#include "app/cli_options.hh"

#include <algorithm>

#include "simcore/logging.hh"

namespace qoserve {

namespace {

const flags::Choices<Policy> kPolicies{
    "policy",
    {{"qoserve", Policy::QoServe}, {"fcfs", Policy::SarathiFcfs},
     {"edf", Policy::SarathiEdf}, {"sjf", Policy::SarathiSjf},
     {"srpf", Policy::SarathiSrpf}, {"medha", Policy::Medha},
     {"dp", Policy::SlosServeDp}},
};

const flags::Choices<ReplicaHwConfig> kHwPresets{
    "hardware preset",
    {{"llama3-8b-a100-tp1", llama3_8b_a100_tp1()},
     {"qwen-7b-a100-tp2", qwen_7b_a100_tp2()},
     {"llama3-70b-h100-tp4", llama3_70b_h100_tp4()}},
    [](const ReplicaHwConfig &a, const ReplicaHwConfig &b) {
        return a.model.name == b.model.name && a.gpu.name == b.gpu.name &&
               a.tpDegree == b.tpDegree;
    },
};

const flags::Choices<LoadBalancePolicy> kBalancers{
    "load balancer",
    {{"rr", LoadBalancePolicy::RoundRobin},
     {"round-robin", LoadBalancePolicy::RoundRobin},
     {"least-loaded", LoadBalancePolicy::LeastLoaded},
     {"jsq", LoadBalancePolicy::ShortestQueue},
     {"shortest-queue", LoadBalancePolicy::ShortestQueue}},
};

const flags::Choices<TierTable> kTierTables{
    "tier table",
    {{"paper", paperTierTable()}, {"strict", strictTierTable()}},
    [](const TierTable &a, const TierTable &b) {
        auto same_slos = [](const QosTier &x, const QosTier &y) {
            return x.ttftSlo == y.ttftSlo && x.tbtSlo == y.tbtSlo &&
                   x.ttltSlo == y.ttltSlo;
        };
        return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                          same_slos);
    },
};

} // namespace

Policy
parsePolicyName(const std::string &name)
{
    return kPolicies.lookup(name);
}

ReplicaHwConfig
parseHwName(const std::string &name)
{
    return kHwPresets.lookup(name);
}

std::vector<flags::Flag>
cliFlags(CliOptions &o)
{
    using namespace flags;
    ServingConfig &s = o.serving;
    FaultConfig &f = o.fault;
    DomainConfig &d = o.domains;
    BrownoutConfig &b = o.brownout;
    SloMonitorConfig &slo = o.sloAlert;
    return {
        section("workload"),
        choice("--dataset", "NAME", "length distributions", o.dataset,
               datasetPresets()),
        choice("--tiers", "NAME", "QoS tiers (paper = Table 3)", o.tiers,
               kTierTables),
        realList("--mix", "A,B,...",
                 "tier fractions summing to 1; empty = equal", o.tierMix),
        real("--low-priority", "F", "fraction hinted low-priority",
             o.lowPriorityFraction, kUnitInterval),
        real("--qps", "X", "Poisson arrival rate", o.qps, kPositive),
        real("--duration", "S", "trace length", o.duration, kPositive),
        integer("--seed", "N", "workload seed", o.seed),
        text("--trace-in", "FILE", "replay a CSV trace", o.traceIn),

        section("deployment"),
        choice("--policy", "NAME", "scheduler", s.policy, kPolicies),
        choice("--hw", "NAME", "hardware", s.hw, kHwPresets),
        integer("--replicas", "N", "replica count", s.numReplicas, 1),
        choice("--lb", "NAME", "load balancer", o.loadBalance,
               kBalancers),
        integer("--chunk", "N", "fixed chunk tokens for baselines",
                s.base.fixedChunkTokens, 1),
        real("--alpha", "MS", "hybrid alpha, ms/token",
             s.qoserve.alphaMsPerToken, kNonNegative),
        toggle("--adaptive-alpha", "enable load-adaptive alpha",
               s.qoserve.adaptiveAlpha),
        integer("--max-chunk", "N", "QoServe dynamic chunk cap",
                s.qoserve.maxChunkTokens, s.qoserve.chunkStep),
        toggle("--no-solver-cache", "disable the chunk-solver memo "
               "(same results, slower)", s.qoserve.enableSolverMemo, false),
        toggle("--oracle-predictor", "use the oracle, not the forest",
               s.useForestPredictor, false),
        integer("--jobs", "N", "training threads, 0 = all cores (same "
                "results for any value)", s.trainJobs, 0),

        section("prefix cache"),
        toggle("--prefix-cache", "enable shared-prefix KV cache reuse",
               s.prefixCache.enabled),
        real("--cache-capacity-frac", "F", "fraction of KV blocks cached",
             s.prefixCache.capacityFrac),
        toggle("--cache-affinity", "route to the longest cached prefix "
               "(requires --prefix-cache)", s.cacheAffinityRouting),
        real("--share-ratio", "F", "fraction with a shared prefix",
             o.sharedPrefix.shareRatio),
        integer("--prefix-pools", "N", "system-prompt pool count",
                o.sharedPrefix.numPools, 0),
        real("--multi-turn", "F", "shared fraction continuing a chat",
             o.sharedPrefix.multiTurnFrac),

        section("faults"),
        real("--fault-mtbf", "S", "mean time between crashes; 0 = none",
             f.crashMtbf, kNonNegative),
        real("--fault-mttr", "S", "mean time to repair a crash",
             f.crashMttr, kPositive),
        real("--straggler-mtbf", "S", "mean time between stragglers; "
             "0 = none", f.stragglerMtbf, kNonNegative),
        real("--straggler-duration", "S", "mean straggler episode length",
             f.stragglerDuration, kPositive),
        real("--straggler-factor", "X", "latency multiplier when slow",
             f.stragglerFactor, {1.0, false, "must be at least 1"}),
        integer("--fault-seed", "N", "fault-schedule seed", f.seed),
        integer("--max-retries", "N", "re-dispatches per failed request",
                o.retry.maxRetries, 0),
        real("--retry-backoff", "S", "first re-dispatch backoff, doubled "
             "per attempt", o.retry.initialBackoff, kPositive),
        toggle("--no-health-aware", "route ignoring replica health",
               o.healthAwareRouting, false),

        section("failure domains"),
        integer("--zones", "N", "failure zones (replica ranges); 0 = none",
                d.zones, 0),
        real("--zone-mtbf", "S", "mean time between zone outages; 0 = "
             "off (requires --zones)", d.zoneMtbf, kNonNegative),
        real("--zone-mttr", "S", "mean time to restore a zone",
             d.zoneMttr, kPositive),
        real("--partition-mtbf", "S", "mean time between control-plane "
             "partitions; 0 = off", d.partitionMtbf, kNonNegative),
        real("--partition-mttr", "S", "mean partition duration",
             d.partitionMttr, kPositive),
        real("--partition-frac", "F", "fraction of replicas blinded",
             d.partitionFrac, {0.0, true, "must be in (0, 1]", 1.0}),
        integer("--domain-seed", "N", "failure-domain seed", d.seed),

        section("graceful degradation"),
        integer("--breaker-threshold", "N", "dispatch failures that trip "
                "a breaker; 0 = off", o.breaker.failureThreshold, 0),
        real("--breaker-cooldown", "S", "seconds a breaker stays open",
             o.breaker.cooldown, kPositive),
        toggle("--deadline-cancel", "abandon retries that cannot make "
               "their deadline", o.deadlineCancel),
        toggle("--brownout", "enable the brownout controller", b.enabled),
        real("--brownout-enter", "T", "backlog per replica that deepens "
             "a level", b.enterBacklog, kPositive),
        real("--brownout-exit", "T", "backlog that steps back, < enter",
             b.exitBacklog, kNonNegative),
        real("--brownout-interval", "S", "controller sampling cadence",
             b.interval, kPositive),
        integer("--brownout-cap", "N", "decode-token cap at level >= 1",
                b.capTokens, 1),
        integer("--brownout-shed-tier", "N", "tier shed at level >= 2; "
                "-1 = the last", b.shedTier, -1),

        section("output"),
        text("--trace-out", "FILE", "workload CSV", o.traceOut),
        text("--records-out", "FILE", "per-request records CSV",
             o.recordsOut),
        text("--telemetry-out", "FILE", "per-iteration telemetry CSV",
             o.telemetryOut),
        text("--summary-out", "FILE", "run summary CSV", o.summaryOut),
        text("--trace", "FILE", "lifecycle trace, Perfetto JSON",
             o.traceJsonOut),
        text("--trace-csv", "FILE", "lifecycle events CSV",
             o.traceEventsOut),
        text("--metrics-out", "FILE", "metrics time-series CSV",
             o.metricsOut),
        real("--metrics-interval", "S", "metrics cadence (requires "
             "--metrics-out)", o.metricsInterval, kPositive),
        text("--sketch-out", "FILE", "per-tier latency sketches CSV",
             o.sketchOut),
        real("--sketch-alpha", "E", "sketch relative error (requires "
             "--sketch-out)", o.sketchAlpha,
             {0.0, true, "must be in (0, 1)", 1.0, true}),

        section("SLO monitoring (--slo-alert-* require --slo-monitor)"),
        toggle("--slo-monitor", "run the burn-rate alert monitor",
               o.sloMonitor),
        real("--slo-alert-budget", "F", "per-tier violation budget",
             slo.budget, {0.0, true, "must be in (0, 1]", 1.0}),
        real("--slo-alert-burn", "X", "burn rate that fires an alert",
             slo.burn, kPositive),
        real("--slo-alert-short", "S", "short window, <= the long one",
             slo.shortWindow, kPositive),
        real("--slo-alert-long", "S", "long window", slo.longWindow,
             kPositive),
        real("--slo-alert-interval", "S", "evaluation cadence",
             slo.interval, kPositive),
        text("--slo-alerts-out", "FILE", "alert timeline CSV",
             o.sloAlertsOut),
    };
}

std::string
cliUsage()
{
    CliOptions defaults;
    return flags::usage("qoserve_sim — QoS-driven LLM serving simulator",
                        cliFlags(defaults));
}

CliOptions
parseCliOptions(const std::vector<std::string> &args)
{
    CliOptions opts;
    const std::set<std::string> given = flags::parse(cliFlags(opts), args);
    if (given.count("--help")) {
        opts.helpRequested = true;
        return opts;
    }

    // Checks a single flag's bounds cannot express. First the
    // "requires" rules: a flag that only tunes what another enables.
    const bool slo_alert_given =
        std::any_of(given.begin(), given.end(), [](const std::string &f) {
            return f.starts_with("--slo-alert-");
        });
    const std::pair<bool, const char *> requires_rules[] = {
        {opts.domains.zoneMtbf > 0.0 && opts.domains.zones == 0,
         "--zone-mtbf requires --zones"},
        {given.count("--metrics-interval") && !opts.metricsOut,
         "--metrics-interval requires --metrics-out"},
        {given.count("--sketch-alpha") && !opts.sketchOut,
         "--sketch-alpha requires --sketch-out"},
        {slo_alert_given && !opts.sloMonitor,
         "--slo-alert-* flags require --slo-monitor"},
        {opts.sloAlertsOut && !opts.sloMonitor,
         "--slo-alerts-out requires --slo-monitor"},
        {opts.serving.cacheAffinityRouting &&
             !opts.serving.prefixCache.enabled,
         "--cache-affinity requires --prefix-cache"},
    };
    for (const auto &[broken, rule] : requires_rules)
        if (broken)
            QOSERVE_FATAL(rule, ": without it the setting has no effect");
    if (opts.domains.zones > opts.serving.numReplicas)
        QOSERVE_FATAL("--zones (", opts.domains.zones,
                      ") exceeds --replicas (",
                      opts.serving.numReplicas, ")");
    if (opts.brownout.exitBacklog >= opts.brownout.enterBacklog)
        QOSERVE_FATAL("--brownout-exit (", opts.brownout.exitBacklog,
                      ") must be below --brownout-enter (",
                      opts.brownout.enterBacklog,
                      "): the hysteresis band must exist");
    if (opts.brownout.shedTier >= static_cast<int>(opts.tiers.size()))
        QOSERVE_FATAL("--brownout-shed-tier ", opts.brownout.shedTier,
                      " outside the tier table (", opts.tiers.size(),
                      " tiers)");
    if (opts.sloAlert.shortWindow > opts.sloAlert.longWindow)
        QOSERVE_FATAL("--slo-alert-short (", opts.sloAlert.shortWindow,
                      ") must not exceed --slo-alert-long (",
                      opts.sloAlert.longWindow, ")");
    opts.serving.prefixCache.validate();
    opts.sharedPrefix.validate();
    return opts;
}

} // namespace qoserve
