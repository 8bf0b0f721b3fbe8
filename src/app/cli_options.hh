/**
 * @file
 * Command-line configuration for the qoserve_sim driver.
 *
 * Parses the flag set of the standalone simulator binary into a
 * ServingConfig plus workload/output settings. Kept in the library
 * (rather than the tool's main) so the parsing rules are unit-
 * testable and reusable by downstream drivers.
 */

#ifndef QOSERVE_APP_CLI_OPTIONS_HH
#define QOSERVE_APP_CLI_OPTIONS_HH

#include <optional>
#include <string>
#include <vector>

#include "app/serving_system.hh"
#include "cluster/brownout.hh"
#include "fault/failure_domains.hh"
#include "fault/fault_injector.hh"
#include "obs/slo_monitor.hh"
#include "simcore/flags.hh"

namespace qoserve {

/**
 * Parsed qoserve_sim invocation.
 */
struct CliOptions
{
    /** Serving deployment configuration. */
    ServingConfig serving;

    /** Workload shape. */
    Dataset dataset = azureCode();
    TierTable tiers = paperTierTable();
    std::vector<double> tierMix{};
    double lowPriorityFraction = 0.0;
    SharedPrefixConfig sharedPrefix{};
    double qps = 3.0;
    SimDuration duration = 600.0;
    std::uint64_t seed = 42;

    /** Load-balancing policy. */
    LoadBalancePolicy loadBalance = LoadBalancePolicy::RoundRobin;

    /** Fault injection (horizon is filled in from the workload). */
    FaultConfig fault{};

    /** Correlated failure domains (horizon filled in like fault's). */
    DomainConfig domains{};

    /** Re-dispatch policy for requests lost to replica failures. */
    RetryPolicy retry{};

    /** Per-replica circuit breaker (off by default). */
    CircuitBreakerConfig breaker{};

    /** Deadline-aware cancellation of futile retries. */
    bool deadlineCancel = false;

    /** Brownout controller (off by default). */
    BrownoutConfig brownout{};

    /** Skip down replicas / de-weight stragglers when routing. */
    bool healthAwareRouting = true;

    /** Optional trace replay input (overrides synthesis). */
    std::optional<std::string> traceIn;

    /** Optional file sinks. */
    std::optional<std::string> traceOut;
    std::optional<std::string> recordsOut;
    std::optional<std::string> telemetryOut;
    std::optional<std::string> summaryOut;

    /** Lifecycle trace sinks (--trace Perfetto JSON, --trace-csv
     *  flat events). Either one enables tracing. */
    std::optional<std::string> traceJsonOut;
    std::optional<std::string> traceEventsOut;

    /** Metrics time-series sink and sampling cadence. */
    std::optional<std::string> metricsOut;
    double metricsInterval = 5.0;

    /** Streaming latency sketch bank (--sketch-out enables) and
     *  sketch accuracy. */
    std::optional<std::string> sketchOut;
    double sketchAlpha = 0.01;

    /** SLO burn-rate monitor (--slo-monitor enables), its alerting
     *  policy, and the alert-timeline sink. */
    bool sloMonitor = false;
    SloMonitorConfig sloAlert{};
    std::optional<std::string> sloAlertsOut;

    /** True when --help was requested. */
    bool helpRequested = false;
};

/** The flag table (with each flag's bounds) bound to @p opts. */
std::vector<flags::Flag> cliFlags(CliOptions &opts);

/**
 * Parse argv into options.
 *
 * Unknown flags, missing values, malformed or out-of-bounds values
 * and cross-flag conflicts are fatal (user) errors with a message
 * naming the offending flag.
 *
 * @param args Arguments excluding argv[0].
 */
CliOptions parseCliOptions(const std::vector<std::string> &args);

/** Usage text for --help, rendered from cliFlags over the defaults. */
std::string cliUsage();

/** Parse a policy name ("qoserve", "fcfs", "edf", ...). Fatal on
 *  unknown names. */
Policy parsePolicyName(const std::string &name);

/** Parse a hardware preset name ("llama3-8b-a100-tp1", ...). */
ReplicaHwConfig parseHwName(const std::string &name);

} // namespace qoserve

#endif // QOSERVE_APP_CLI_OPTIONS_HH
