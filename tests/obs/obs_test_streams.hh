/**
 * @file
 * Handcrafted inputs for the obs writers' exact-bytes tests.
 *
 * coverageStream() is a short lifecycle stream built to reach every
 * branch of the three text writers: all TraceEventKinds, a negative
 * replica, request ids at and above 2^40 first seen out of id order,
 * spans and an engine iteration still open at stream end, spurious
 * IterEnds, straggler factors and alert burn rates that need
 * rounding at the third decimal, and CSV doubles that exercise every
 * branch of 17-digit general formatting. fillCoverageRegistry() does
 * the same for the metrics registry. The tests compare the writers'
 * output against strings committed alongside them, so any byte the
 * writers change shows up as a test failure.
 */

#ifndef QOSERVE_TESTS_OBS_OBS_TEST_STREAMS_HH
#define QOSERVE_TESTS_OBS_OBS_TEST_STREAMS_HH

#include <cstdint>
#include <limits>
#include <vector>

#include "obs/metrics_registry.hh"
#include "obs/trace_event.hh"

namespace qoserve {
namespace test {

/** Request ids of the coverage stream (tid = id + 1 in Perfetto). */
inline constexpr std::uint64_t kBigA = (std::uint64_t{1} << 40) + 7;
inline constexpr std::uint64_t kBigB = (std::uint64_t{1} << 40) + 3;
inline constexpr std::uint64_t kHuge = (std::uint64_t{1} << 62) + 1;

/** Every TraceEventKind at least once; see the file comment. */
inline std::vector<TraceEvent>
coverageStream()
{
    using K = TraceEventKind;
    const std::uint64_t none = kNoTraceRequest;
    const double inf = std::numeric_limits<double>::infinity();
    auto ev = [](K kind, double t, std::uint64_t request, int replica,
                 std::int64_t arg = 0, double value = 0.0) {
        return TraceEvent{kind, SimTime{t}, request, replica, arg, value};
    };
    return {
        // Ids first seen out of order: 2^40+7 before 2^40+3 before 5.
        ev(K::Arrival, 0.0, kBigA, -1),
        ev(K::Arrival, 0.0, kBigB, -1, 0, 1.0 / 3.0),
        ev(K::AdmissionReject, 0.0000015, kBigB, -1),
        ev(K::Arrival, 0.0000015, 5, -1, 0, 0.1),
        ev(K::Dispatch, 0.0000025, kBigA, 1),
        ev(K::Dispatch, 0.0000025, 5, 0, 0, -0.0),
        ev(K::IterStart, 0.001, none, 1, 512, 3.0),
        ev(K::ChunkStart, 0.001, kBigA, 1, 512),
        ev(K::CacheHit, 0.001, kBigA, 1, 256, 1e-7),
        ev(K::ChunkEnd, 0.0012345675, kBigA, 1, 100),
        ev(K::IterEnd, 0.0012345675, none, 1),
        // Spurious: replica 1's engine is already closed, replica 3's
        // never opened.
        ev(K::IterEnd, 0.0012345675, none, 1, 1),
        ev(K::IterEnd, 0.002, none, 3),
        // An iteration on a negative replica, left open at stream end.
        ev(K::IterStart, 0.002, none, -1, 7, -2.7),
        ev(K::IterStart, 0.0025, none, 0, 64, 7.9),
        ev(K::Relegate, 0.0025, 5, 0, 0, 1e21),
        ev(K::Preempt, 0.003, 5, 0),
        // A request-less lifecycle event is ignored by the span fold.
        ev(K::Preempt, 0.003, none, 0),
        ev(K::CacheEvict, 0.003, none, 0, 4),
        ev(K::Crash, 0.0035, none, 1),
        ev(K::RequestFailed, 0.0035, kBigA, 1),
        ev(K::RetryQueued, 0.0035, kBigA, -1, 1),
        ev(K::RetryQueued, 0.004, kBigA, -1, 2),
        ev(K::Recover, 0.5, none, 1),
        // Factors needing rounding: a binary tie at the third decimal,
        // a plain round-up, and a just-below-half case.
        ev(K::StragglerStart, 0.5, none, 0, 0, 1.0625),
        ev(K::StragglerStart, 0.5, none, 1, 0, 2.34567),
        ev(K::StragglerStart, 0.5, none, 2, 0, 1.0005),
        ev(K::StragglerEnd, 0.75, none, 0),
        ev(K::ZoneOutage, 0.75, none, -1, 1),
        ev(K::ZoneRestore, 1.0, none, -1, 1),
        ev(K::PartitionStart, 1.0, none, -1, 3),
        ev(K::PartitionEnd, 1.25, none, -1, 0, inf),
        ev(K::BreakerOpen, 1.25, none, 2, 3),
        ev(K::BreakerClose, 1.5, none, 2),
        ev(K::BrownoutStep, 1.5, none, -1, 2, 0.30000000000000004),
        ev(K::Arrival, 2.0, kHuge, -1),
        ev(K::Dispatch, 2.0, kHuge, 0),
        ev(K::ChunkStart, 2.0, kHuge, 0, 64),
        ev(K::ChunkEnd, 2.1, kHuge, 0, 0),
        ev(K::Finish, 3.0000000005, kHuge, 0),
        ev(K::Arrival, 3.0000000005, 9, -1),
        ev(K::BrownoutShed, 3.0000000005, 9, -1),
        ev(K::Arrival, 4.0, 11, -1),
        ev(K::Dispatch, 4.0, 11, 1),
        ev(K::DeadlineCancel, 4.5, 11, -1),
        ev(K::RetryExhausted, 5.0, kBigA, -1),
        ev(K::AlertRaised, 60.0, none, -1, 1, 14.4445),
        ev(K::AlertRaised, 60.0, none, -1, 0, 0.0005),
        ev(K::AlertCleared, 120.0, none, -1, 1),
        // Left open at stream end: a queued span on replica 5 and a
        // prefill span on replica 2, plus request 5's preempted span.
        ev(K::Arrival, 86400.123456789, kBigB + 10, -1),
        ev(K::Dispatch, 86400.123456789, kBigB + 10, 5, 1),
        ev(K::Arrival, 86400.123456789, 2, -1),
        ev(K::Dispatch, 86400.123456789, 2, 2),
        ev(K::ChunkStart, 86400.5, 2, 2, 128, 1e15),
    };
}

/** Registry cells and snapshots covering the CSV writer: late cells,
 *  histogram expansion with fractional and huge bounds, and doubles
 *  that need 17 significant digits or scientific notation. */
inline void
fillCoverageRegistry(MetricsRegistry &reg)
{
    reg.counter("requests") = 3;
    reg.gauge("depth") = 1.0 / 3.0;
    reg.histogram("lat", {1e-3, 0.5, 2.5, 1e20}).observe(0.25);
    reg.snapshot(SimTime{0.0});

    reg.counter("requests") = (std::int64_t{1} << 53) + 1;
    reg.gauge("depth") = -0.0;
    reg.gauge("tiny") = 1e-7;
    reg.histogram("lat", {}).observe(3.0);
    reg.snapshot(SimTime{1.0 / 3.0});

    reg.gauge("depth") = 0.1 + 0.2;
    reg.gauge("tiny") = 4.9406564584124654e-324;
    reg.histogram("lat", {}).observe(1e21);
    reg.snapshot(SimTime{86400.1});
}

} // namespace test
} // namespace qoserve

#endif // QOSERVE_TESTS_OBS_OBS_TEST_STREAMS_HH
