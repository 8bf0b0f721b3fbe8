/**
 * @file
 * Tests for the trace sink, the TraceScope handle, and the CSV
 * round trip.
 */

#include "obs/trace_sink.hh"

#include <gtest/gtest.h>

#include <sstream>

#include "obs_test_streams.hh"

namespace qoserve {
namespace {

TEST(TraceSink, ScopeWithoutSinkIsInert)
{
    // No clock either: emit() must not dereference anything.
    TraceScope scope;
    EXPECT_FALSE(scope.on());
    scope.emit(TraceEventKind::Arrival, 7);
    scope.emitOn(ReplicaId{3}, TraceEventKind::Dispatch, 7);
}

TEST(TraceSink, ScopeStampsClockAndReplica)
{
    TraceSink sink;
    EventQueue eq;
    TraceScope scope{&sink, &eq, 2};
    ASSERT_TRUE(scope.on());

    eq.schedule(SimTime{1.5}, [&] {
        scope.emit(TraceEventKind::ChunkStart, 9, 256);
        scope.emitOn(ReplicaId{5}, TraceEventKind::Dispatch, 9, 1);
    });
    eq.run();

    ASSERT_EQ(sink.size(), 2u);
    const TraceEvent &chunk = sink.events()[0];
    EXPECT_EQ(chunk.kind, TraceEventKind::ChunkStart);
    EXPECT_EQ(chunk.time, SimTime{1.5});
    EXPECT_EQ(chunk.request, 9u);
    EXPECT_EQ(chunk.replica, 2);
    EXPECT_EQ(chunk.arg, 256);
    const TraceEvent &dispatch = sink.events()[1];
    EXPECT_EQ(dispatch.replica, 5); // emitOn overrides the scope's.
    EXPECT_EQ(dispatch.arg, 1);
}

TEST(TraceSinkDeathTest, OutOfOrderEmitPanics)
{
    TraceSink sink;
    sink.emit({TraceEventKind::Arrival, SimTime{2.0}, 1, -1, 0, 0.0});
    EXPECT_DEATH(
        sink.emit({TraceEventKind::Arrival, SimTime{1.0}, 2, -1, 0, 0.0}),
        "precedes the stream tail");
}

TEST(TraceSink, CsvRoundTripsExactly)
{
    TraceSink sink;
    sink.emit({TraceEventKind::Arrival, SimTime{0.0}, 4, -1, 0, 0.0});
    sink.emit({TraceEventKind::Dispatch, SimTime{1.0 / 3.0}, 4, 1, 2, 0.0});
    sink.emit(
        {TraceEventKind::IterStart, SimTime{0.5}, kNoTraceRequest, 1, 512, 3.0});
    sink.emit({TraceEventKind::StragglerStart, SimTime{0.75}, kNoTraceRequest, 0,
               0, 2.5});

    std::stringstream buffer;
    sink.writeCsv(buffer);
    std::vector<TraceEvent> parsed = readTraceCsv(buffer);
    ASSERT_EQ(parsed.size(), sink.size());
    for (std::size_t i = 0; i < parsed.size(); ++i)
        EXPECT_TRUE(parsed[i] == sink.events()[i]) << "event " << i;
}

TEST(TraceSink, CsvEncodesNoRequestAsMinusOne)
{
    TraceSink sink;
    sink.emit({TraceEventKind::Crash, SimTime{1.0}, kNoTraceRequest, 2, 0, 0.0});
    std::stringstream buffer;
    sink.writeCsv(buffer);
    EXPECT_NE(buffer.str().find("crash,1,-1,2,0,0"), std::string::npos)
        << buffer.str();
}

TEST(TraceSink, EveryKindNameRoundTrips)
{
    TraceSink sink;
    for (int k = 0; k < kTraceEventKinds; ++k) {
        sink.emit({static_cast<TraceEventKind>(k),
                   SimTime{static_cast<double>(k)}, 1, 0, 0, 0.0});
    }
    std::stringstream buffer;
    sink.writeCsv(buffer);
    std::vector<TraceEvent> parsed = readTraceCsv(buffer);
    ASSERT_EQ(parsed.size(), static_cast<std::size_t>(kTraceEventKinds));
    for (int k = 0; k < kTraceEventKinds; ++k)
        EXPECT_EQ(parsed[k].kind, static_cast<TraceEventKind>(k)) << k;
}

TEST(TraceSinkDeathTest, CsvBadHeaderIsFatal)
{
    std::stringstream in("kind,when\narrival,1\n");
    EXPECT_DEATH(readTraceCsv(in), "unexpected header");
}

TEST(TraceSinkDeathTest, CsvUnknownKindIsFatalWithLineNumber)
{
    std::stringstream in(
        "event,time,request,replica,arg,value\nwarp,1,0,0,0,0\n");
    EXPECT_DEATH(readTraceCsv(in), "line 2.*unknown event kind");
}

TEST(TraceSinkDeathTest, CsvWrongFieldCountIsFatal)
{
    std::stringstream in(
        "event,time,request,replica,arg,value\narrival,1,0\n");
    EXPECT_DEATH(readTraceCsv(in), "expected 6 fields");
}

/** TraceSink::writeCsv of test::coverageStream(), as written by the
 *  ostringstream-based writer this output is pinned against. */
const char kPinnedCsv[] = R"(event,time,request,replica,arg,value
arrival,0,1099511627783,-1,0,0
arrival,0,1099511627779,-1,0,0.33333333333333331
admission-reject,1.5e-06,1099511627779,-1,0,0
arrival,1.5e-06,5,-1,0,0.10000000000000001
dispatch,2.5000000000000002e-06,1099511627783,1,0,0
dispatch,2.5000000000000002e-06,5,0,0,-0
iter-start,0.001,-1,1,512,3
chunk-start,0.001,1099511627783,1,512,0
cache-hit,0.001,1099511627783,1,256,9.9999999999999995e-08
chunk-end,0.0012345675,1099511627783,1,100,0
iter-end,0.0012345675,-1,1,0,0
iter-end,0.0012345675,-1,1,1,0
iter-end,0.002,-1,3,0,0
iter-start,0.002,-1,-1,7,-2.7000000000000002
iter-start,0.0025000000000000001,-1,0,64,7.9000000000000004
relegate,0.0025000000000000001,5,0,0,1e+21
preempt,0.0030000000000000001,5,0,0,0
preempt,0.0030000000000000001,-1,0,0,0
cache-evict,0.0030000000000000001,-1,0,4,0
crash,0.0035000000000000001,-1,1,0,0
request-failed,0.0035000000000000001,1099511627783,1,0,0
retry-queued,0.0035000000000000001,1099511627783,-1,1,0
retry-queued,0.0040000000000000001,1099511627783,-1,2,0
recover,0.5,-1,1,0,0
straggler-start,0.5,-1,0,0,1.0625
straggler-start,0.5,-1,1,0,2.3456700000000001
straggler-start,0.5,-1,2,0,1.0004999999999999
straggler-end,0.75,-1,0,0,0
zone-outage,0.75,-1,-1,1,0
zone-restore,1,-1,-1,1,0
partition-start,1,-1,-1,3,0
partition-end,1.25,-1,-1,0,inf
breaker-open,1.25,-1,2,3,0
breaker-close,1.5,-1,2,0,0
brownout-step,1.5,-1,-1,2,0.30000000000000004
arrival,2,4611686018427387905,-1,0,0
dispatch,2,4611686018427387905,0,0,0
chunk-start,2,4611686018427387905,0,64,0
chunk-end,2.1000000000000001,4611686018427387905,0,0,0
finish,3.0000000005,4611686018427387905,0,0,0
arrival,3.0000000005,9,-1,0,0
brownout-shed,3.0000000005,9,-1,0,0
arrival,4,11,-1,0,0
dispatch,4,11,1,0,0
deadline-cancel,4.5,11,-1,0,0
retry-exhausted,5,1099511627783,-1,0,0
slo-alert-raised,60,-1,-1,1,14.4445
slo-alert-raised,60,-1,-1,0,0.00050000000000000001
slo-alert-cleared,120,-1,-1,1,0
arrival,86400.123456789006,1099511627789,-1,0,0
dispatch,86400.123456789006,1099511627789,5,1,0
arrival,86400.123456789006,2,-1,0,0
dispatch,86400.123456789006,2,2,0,0
chunk-start,86400.5,2,2,128,1000000000000000
)";

TEST(TraceSink, CsvBytesArePinned)
{
    TraceSink sink;
    for (const TraceEvent &e : test::coverageStream())
        sink.emit(e);
    std::stringstream out;
    sink.writeCsv(out);
    EXPECT_EQ(out.str(), kPinnedCsv);
}

} // namespace
} // namespace qoserve
