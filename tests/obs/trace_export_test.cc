/**
 * @file
 * Tests for timeline reconstruction and the Perfetto exporter.
 */

#include "obs/trace_export.hh"

#include <gtest/gtest.h>

#include <sstream>

#include "obs/explain.hh"
#include "obs_test_streams.hh"

namespace qoserve {
namespace {

TraceEvent
ev(TraceEventKind kind, SimTime t, std::uint64_t request, int replica,
   std::int64_t arg = 0, double value = 0.0)
{
    return {kind, t, request, replica, arg, value};
}

/** The canonical served request: queue, two chunks, decode, finish. */
std::vector<TraceEvent>
servedStream()
{
    return {
        ev(TraceEventKind::Arrival, SimTime{0.0}, 1, -1),
        ev(TraceEventKind::Dispatch, SimTime{0.0}, 1, 0),
        ev(TraceEventKind::ChunkStart, SimTime{1.0}, 1, 0, 512),
        ev(TraceEventKind::ChunkEnd, SimTime{2.0}, 1, 0, 100), // 100 left
        ev(TraceEventKind::ChunkStart, SimTime{3.0}, 1, 0, 100),
        ev(TraceEventKind::ChunkEnd, SimTime{4.0}, 1, 0, 0), // prefill done
        ev(TraceEventKind::Finish, SimTime{6.0}, 1, 0),
    };
}

TEST(TraceExport, TimelineTilesServedLifetimeWithoutGaps)
{
    auto timelines = buildRequestTimelines(servedStream());
    ASSERT_EQ(timelines.size(), 1u);
    const RequestTimeline &tl = timelines.at(RequestId{1});

    EXPECT_EQ(tl.arrival, SimTime{0.0});
    EXPECT_EQ(tl.finish, SimTime{6.0});
    EXPECT_FALSE(tl.rejected);
    EXPECT_EQ(tl.failures, 0);

    ASSERT_EQ(tl.spans.size(), 5u);
    EXPECT_EQ(tl.spans[0].phase, TracePhase::Queued);
    EXPECT_EQ(tl.spans[1].phase, TracePhase::Prefill);
    EXPECT_EQ(tl.spans[2].phase, TracePhase::Starved);
    EXPECT_EQ(tl.spans[3].phase, TracePhase::Prefill);
    EXPECT_EQ(tl.spans[4].phase, TracePhase::Decode);

    // Gap-free: every span opens where the previous one closed.
    EXPECT_EQ(tl.spans.front().begin, SimTime{0.0});
    for (std::size_t i = 1; i < tl.spans.size(); ++i)
        EXPECT_EQ(tl.spans[i].begin, tl.spans[i - 1].end) << i;
    EXPECT_EQ(tl.spans.back().end, SimTime{6.0});
}

TEST(TraceExport, BreakdownAttributesEverything)
{
    auto timelines = buildRequestTimelines(servedStream());
    PhaseBreakdown bd = breakdownFor(timelines.at(RequestId{1}), SimTime{0.0});
    EXPECT_TRUE(bd.served);
    EXPECT_EQ(bd.endToEnd, 6.0);
    EXPECT_EQ(bd.seconds[static_cast<int>(TracePhase::Queued)], 1.0);
    EXPECT_EQ(bd.seconds[static_cast<int>(TracePhase::Prefill)], 2.0);
    EXPECT_EQ(bd.seconds[static_cast<int>(TracePhase::Starved)], 1.0);
    EXPECT_EQ(bd.seconds[static_cast<int>(TracePhase::Decode)], 2.0);
    EXPECT_EQ(bd.residual, 0.0);
    EXPECT_EQ(bd.coverage(), 1.0);
}

TEST(TraceExport, PreemptionOpensStalledSpan)
{
    auto timelines = buildRequestTimelines({
        ev(TraceEventKind::Dispatch, SimTime{0.0}, 1, 0),
        ev(TraceEventKind::ChunkStart, SimTime{1.0}, 1, 0, 256),
        ev(TraceEventKind::Preempt, SimTime{2.0}, 1, 0),
        ev(TraceEventKind::ChunkStart, SimTime{5.0}, 1, 0, 256),
        ev(TraceEventKind::ChunkEnd, SimTime{6.0}, 1, 0, 0),
        ev(TraceEventKind::Finish, SimTime{7.0}, 1, 0),
    });
    const RequestTimeline &tl = timelines.at(RequestId{1});
    ASSERT_EQ(tl.spans.size(), 5u);
    EXPECT_EQ(tl.spans[2].phase, TracePhase::Preempted);
    EXPECT_EQ(tl.spans[2].begin, SimTime{2.0});
    EXPECT_EQ(tl.spans[2].end, SimTime{5.0});
}

TEST(TraceExport, CrashRetryOpensRetrySpanAndCountsFailures)
{
    auto timelines = buildRequestTimelines({
        ev(TraceEventKind::Dispatch, SimTime{0.0}, 1, 0),
        ev(TraceEventKind::RequestFailed, SimTime{2.0}, 1, 0),
        ev(TraceEventKind::RetryQueued, SimTime{2.0}, 1, -1, 1),
        // A second RetryQueued from inside the retry phase (all
        // replicas down) must extend, not restart, the span.
        ev(TraceEventKind::RetryQueued, SimTime{3.0}, 1, -1, 2),
        ev(TraceEventKind::Dispatch, SimTime{4.0}, 1, 1, 2),
        ev(TraceEventKind::ChunkStart, SimTime{4.5}, 1, 1, 64),
        ev(TraceEventKind::ChunkEnd, SimTime{5.0}, 1, 1, 0),
        ev(TraceEventKind::Finish, SimTime{5.5}, 1, 1),
    });
    const RequestTimeline &tl = timelines.at(RequestId{1});
    EXPECT_EQ(tl.failures, 1);
    EXPECT_FALSE(tl.abandoned);
    ASSERT_EQ(tl.spans.size(), 5u);
    EXPECT_EQ(tl.spans[0].phase, TracePhase::Queued);
    EXPECT_EQ(tl.spans[1].phase, TracePhase::Retry);
    EXPECT_EQ(tl.spans[1].begin, SimTime{2.0});
    EXPECT_EQ(tl.spans[1].end, SimTime{4.0});
    EXPECT_EQ(tl.spans[1].replica, -1);
    EXPECT_EQ(tl.spans[2].phase, TracePhase::Queued);
    EXPECT_EQ(tl.spans[2].replica, 1);
}

TEST(TraceExport, AbandonmentClosesTheTimeline)
{
    auto timelines = buildRequestTimelines({
        ev(TraceEventKind::Dispatch, SimTime{0.0}, 1, 0),
        ev(TraceEventKind::RequestFailed, SimTime{1.0}, 1, 0),
        ev(TraceEventKind::RetryQueued, SimTime{1.0}, 1, -1, 1),
        ev(TraceEventKind::RetryExhausted, SimTime{3.0}, 1, -1, 1),
    });
    const RequestTimeline &tl = timelines.at(RequestId{1});
    EXPECT_TRUE(tl.abandoned);
    ASSERT_EQ(tl.spans.size(), 2u);
    EXPECT_EQ(tl.spans.back().phase, TracePhase::Retry);
    EXPECT_EQ(tl.spans.back().end, SimTime{3.0});
    EXPECT_EQ(tl.lastSpanEnd(), SimTime{3.0});
}

TEST(TraceExport, RejectionYieldsNoSpans)
{
    auto timelines = buildRequestTimelines({
        ev(TraceEventKind::Arrival, SimTime{1.0}, 7, -1),
        ev(TraceEventKind::AdmissionReject, SimTime{1.0}, 7, -1),
    });
    const RequestTimeline &tl = timelines.at(RequestId{7});
    EXPECT_TRUE(tl.rejected);
    EXPECT_TRUE(tl.spans.empty());
    EXPECT_EQ(tl.lastSpanEnd(), kTimeNever);
}

TEST(TraceExport, TruncatedStreamClosesOpenSpansAtStreamEnd)
{
    auto timelines = buildRequestTimelines({
        ev(TraceEventKind::Dispatch, SimTime{0.0}, 1, 0),
        ev(TraceEventKind::ChunkStart, SimTime{1.0}, 1, 0, 256),
        ev(TraceEventKind::IterStart, SimTime{2.0}, kNoTraceRequest, 0, 256, 1),
    });
    const RequestTimeline &tl = timelines.at(RequestId{1});
    ASSERT_EQ(tl.spans.size(), 2u);
    EXPECT_EQ(tl.spans.back().phase, TracePhase::Prefill);
    EXPECT_EQ(tl.spans.back().end, SimTime{2.0}); // last stream timestamp
}

TEST(TraceExport, CacheHitsAccumulateTokens)
{
    auto timelines = buildRequestTimelines({
        ev(TraceEventKind::Dispatch, SimTime{0.0}, 1, 0),
        ev(TraceEventKind::CacheHit, SimTime{0.0}, 1, 0, 128),
        ev(TraceEventKind::RequestFailed, SimTime{1.0}, 1, 0),
        ev(TraceEventKind::RetryQueued, SimTime{1.0}, 1, -1, 1),
        ev(TraceEventKind::Dispatch, SimTime{2.0}, 1, 1, 1),
        ev(TraceEventKind::CacheHit, SimTime{2.0}, 1, 1, 64),
        ev(TraceEventKind::Finish, SimTime{3.0}, 1, 1),
    });
    EXPECT_EQ(timelines.at(RequestId{1}).cachedTokens, 128 + 64);
}

/** Count occurrences of @p needle in @p text. */
std::size_t
countOf(const std::string &text, const std::string &needle)
{
    std::size_t n = 0;
    for (std::size_t pos = text.find(needle); pos != std::string::npos;
         pos = text.find(needle, pos + needle.size()))
        ++n;
    return n;
}

TEST(TraceExport, PerfettoJsonBalancesDurationPairs)
{
    std::vector<TraceEvent> events = servedStream();
    // Engine iterations plus a crash-truncated open chunk on another
    // request: the exporter must still balance every B with an E.
    events.push_back(
        ev(TraceEventKind::IterStart, SimTime{6.0}, kNoTraceRequest, 0, 512, 2));
    events.push_back(
        ev(TraceEventKind::IterEnd, SimTime{6.5}, kNoTraceRequest, 0));
    events.push_back(ev(TraceEventKind::Dispatch, SimTime{7.0}, 2, 0));
    events.push_back(ev(TraceEventKind::ChunkStart, SimTime{8.0}, 2, 0, 64));

    std::stringstream out;
    writePerfettoJson(events, out);
    const std::string json = out.str();

    EXPECT_EQ(countOf(json, "\"ph\":\"B\""), countOf(json, "\"ph\":\"E\""));
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"cluster\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"replica 0\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"prefill-running\""),
              std::string::npos);
    EXPECT_NE(json.find("\"name\":\"iter\""), std::string::npos);
}

TEST(TraceExport, PerfettoJsonIsByteDeterministic)
{
    std::vector<TraceEvent> events = servedStream();
    std::stringstream a, b;
    writePerfettoJson(events, a);
    writePerfettoJson(events, b);
    EXPECT_EQ(a.str(), b.str());
}

TEST(TraceExport, PerfettoSpuriousIterEndIsDropped)
{
    // A crash-time IterEnd with no open iteration must not emit an
    // unmatched E.
    std::stringstream out;
    writePerfettoJson(
        {ev(TraceEventKind::IterEnd, SimTime{1.0}, kNoTraceRequest, 0, 1)}, out);
    EXPECT_EQ(countOf(out.str(), "\"ph\":\"E\""), 0u);
}

/** writePerfettoJson(test::coverageStream()), as written by the
 *  string-concatenating exporter this output is pinned against. */
const char kPinnedPerfetto[] = R"({"traceEvents":[
{"ph":"M","name":"process_name","pid":0,"tid":0,"args":{"name":"cluster"}},
{"ph":"M","name":"process_name","pid":1,"tid":0,"args":{"name":"replica 0"}},
{"ph":"M","name":"thread_name","pid":1,"tid":0,"args":{"name":"engine"}},
{"ph":"M","name":"process_name","pid":2,"tid":0,"args":{"name":"replica 1"}},
{"ph":"M","name":"thread_name","pid":2,"tid":0,"args":{"name":"engine"}},
{"ph":"M","name":"process_name","pid":3,"tid":0,"args":{"name":"replica 2"}},
{"ph":"M","name":"thread_name","pid":3,"tid":0,"args":{"name":"engine"}},
{"ph":"M","name":"process_name","pid":4,"tid":0,"args":{"name":"replica 3"}},
{"ph":"M","name":"thread_name","pid":4,"tid":0,"args":{"name":"engine"}},
{"ph":"M","name":"process_name","pid":6,"tid":0,"args":{"name":"replica 5"}},
{"ph":"M","name":"thread_name","pid":6,"tid":0,"args":{"name":"engine"}},
{"ph":"i","name":"arrival","cat":"qoserve","s":"t","ts":0.000,"pid":0,"tid":1099511627784},
{"ph":"i","name":"arrival","cat":"qoserve","s":"t","ts":0.000,"pid":0,"tid":1099511627780},
{"ph":"i","name":"admission-reject","cat":"qoserve","s":"t","ts":1.500,"pid":0,"tid":1099511627780},
{"ph":"i","name":"arrival","cat":"qoserve","s":"t","ts":1.500,"pid":0,"tid":6},
{"ph":"B","name":"queued","cat":"qoserve","ts":2.500,"pid":2,"tid":1099511627784},
{"ph":"B","name":"queued","cat":"qoserve","ts":2.500,"pid":1,"tid":6},
{"ph":"B","name":"iter","cat":"qoserve","ts":1000.000,"pid":2,"tid":0,"args":{"prefill_tokens":512,"decodes":3}},
{"ph":"E","ts":1000.000,"pid":2,"tid":1099511627784},
{"ph":"B","name":"prefill-running","cat":"qoserve","ts":1000.000,"pid":2,"tid":1099511627784,"args":{"tokens":512}},
{"ph":"i","name":"cache-hit","cat":"qoserve","s":"t","ts":1000.000,"pid":2,"tid":1099511627784,"args":{"tokens":256}},
{"ph":"E","ts":1234.567,"pid":2,"tid":1099511627784},
{"ph":"B","name":"prefill-starved","cat":"qoserve","ts":1234.567,"pid":2,"tid":1099511627784},
{"ph":"E","ts":1234.567,"pid":2,"tid":0},
{"ph":"B","name":"iter","cat":"qoserve","ts":2000.000,"pid":0,"tid":0,"args":{"prefill_tokens":7,"decodes":-2}},
{"ph":"B","name":"iter","cat":"qoserve","ts":2500.000,"pid":1,"tid":0,"args":{"prefill_tokens":64,"decodes":7}},
{"ph":"i","name":"relegate","cat":"qoserve","s":"t","ts":2500.000,"pid":1,"tid":6},
{"ph":"E","ts":3000.000,"pid":1,"tid":6},
{"ph":"B","name":"stalled-by-preemption","cat":"qoserve","ts":3000.000,"pid":1,"tid":6},
{"ph":"i","name":"cache-evict","cat":"qoserve","s":"t","ts":3000.000,"pid":1,"tid":0,"args":{"blocks":4}},
{"ph":"i","name":"crash","cat":"qoserve","s":"t","ts":3500.000,"pid":2,"tid":0},
{"ph":"E","ts":3500.000,"pid":2,"tid":1099511627784},
{"ph":"i","name":"failed","cat":"qoserve","s":"t","ts":3500.000,"pid":2,"tid":1099511627784},
{"ph":"B","name":"retry","cat":"qoserve","ts":3500.000,"pid":0,"tid":1099511627784},
{"ph":"i","name":"recover","cat":"qoserve","s":"t","ts":500000.000,"pid":2,"tid":0},
{"ph":"i","name":"straggler-start","cat":"qoserve","s":"t","ts":500000.000,"pid":1,"tid":0,"args":{"factor":1.062}},
{"ph":"i","name":"straggler-start","cat":"qoserve","s":"t","ts":500000.000,"pid":2,"tid":0,"args":{"factor":2.346}},
{"ph":"i","name":"straggler-start","cat":"qoserve","s":"t","ts":500000.000,"pid":3,"tid":0,"args":{"factor":1.000}},
{"ph":"i","name":"straggler-end","cat":"qoserve","s":"t","ts":750000.000,"pid":1,"tid":0},
{"ph":"i","name":"zone-outage","cat":"qoserve","s":"t","ts":750000.000,"pid":0,"tid":0,"args":{"zone":1}},
{"ph":"i","name":"zone-restore","cat":"qoserve","s":"t","ts":1000000.000,"pid":0,"tid":0,"args":{"zone":1}},
{"ph":"i","name":"partition-start","cat":"qoserve","s":"t","ts":1000000.000,"pid":0,"tid":0,"args":{"blinded":3}},
{"ph":"i","name":"partition-end","cat":"qoserve","s":"t","ts":1250000.000,"pid":0,"tid":0},
{"ph":"i","name":"breaker-open","cat":"qoserve","s":"t","ts":1250000.000,"pid":3,"tid":0,"args":{"failures":3}},
{"ph":"i","name":"breaker-close","cat":"qoserve","s":"t","ts":1500000.000,"pid":3,"tid":0},
{"ph":"i","name":"brownout-step","cat":"qoserve","s":"t","ts":1500000.000,"pid":0,"tid":0,"args":{"level":2}},
{"ph":"i","name":"arrival","cat":"qoserve","s":"t","ts":2000000.000,"pid":0,"tid":4611686018427387906},
{"ph":"B","name":"queued","cat":"qoserve","ts":2000000.000,"pid":1,"tid":4611686018427387906},
{"ph":"E","ts":2000000.000,"pid":1,"tid":4611686018427387906},
{"ph":"B","name":"prefill-running","cat":"qoserve","ts":2000000.000,"pid":1,"tid":4611686018427387906,"args":{"tokens":64}},
{"ph":"E","ts":2100000.000,"pid":1,"tid":4611686018427387906},
{"ph":"B","name":"decode","cat":"qoserve","ts":2100000.000,"pid":1,"tid":4611686018427387906},
{"ph":"E","ts":3000000.001,"pid":1,"tid":4611686018427387906},
{"ph":"i","name":"finish","cat":"qoserve","s":"t","ts":3000000.001,"pid":1,"tid":4611686018427387906},
{"ph":"i","name":"arrival","cat":"qoserve","s":"t","ts":3000000.001,"pid":0,"tid":10},
{"ph":"i","name":"brownout-shed","cat":"qoserve","s":"t","ts":3000000.001,"pid":0,"tid":10},
{"ph":"i","name":"arrival","cat":"qoserve","s":"t","ts":4000000.000,"pid":0,"tid":12},
{"ph":"B","name":"queued","cat":"qoserve","ts":4000000.000,"pid":2,"tid":12},
{"ph":"E","ts":4500000.000,"pid":2,"tid":12},
{"ph":"i","name":"deadline-cancelled","cat":"qoserve","s":"t","ts":4500000.000,"pid":0,"tid":12},
{"ph":"E","ts":5000000.000,"pid":0,"tid":1099511627784},
{"ph":"i","name":"abandoned","cat":"qoserve","s":"t","ts":5000000.000,"pid":0,"tid":1099511627784},
{"ph":"i","name":"slo-alert-raised","cat":"qoserve","s":"t","ts":60000000.000,"pid":0,"tid":0,"args":{"tier":1,"burn":14.444}},
{"ph":"i","name":"slo-alert-raised","cat":"qoserve","s":"t","ts":60000000.000,"pid":0,"tid":0,"args":{"tier":0,"burn":0.001}},
{"ph":"i","name":"slo-alert-cleared","cat":"qoserve","s":"t","ts":120000000.000,"pid":0,"tid":0,"args":{"tier":1}},
{"ph":"i","name":"arrival","cat":"qoserve","s":"t","ts":86400123456.789,"pid":0,"tid":1099511627790},
{"ph":"B","name":"queued","cat":"qoserve","ts":86400123456.789,"pid":6,"tid":1099511627790},
{"ph":"i","name":"arrival","cat":"qoserve","s":"t","ts":86400123456.789,"pid":0,"tid":3},
{"ph":"B","name":"queued","cat":"qoserve","ts":86400123456.789,"pid":3,"tid":3},
{"ph":"E","ts":86400500000.000,"pid":3,"tid":3},
{"ph":"B","name":"prefill-running","cat":"qoserve","ts":86400500000.000,"pid":3,"tid":3,"args":{"tokens":128}},
{"ph":"E","ts":86400500000.000,"pid":3,"tid":3},
{"ph":"E","ts":86400500000.000,"pid":1,"tid":6},
{"ph":"E","ts":86400500000.000,"pid":6,"tid":1099511627790},
{"ph":"E","ts":86400500000.000,"pid":0,"tid":0},
{"ph":"E","ts":86400500000.000,"pid":1,"tid":0}
],"displayTimeUnit":"ms"}
)";

TEST(TraceExport, CoverageStreamHasEveryKind)
{
    std::vector<bool> seen(kTraceEventKinds, false);
    for (const TraceEvent &e : test::coverageStream())
        seen[static_cast<std::size_t>(e.kind)] = true;
    for (int k = 0; k < kTraceEventKinds; ++k)
        EXPECT_TRUE(seen[static_cast<std::size_t>(k)]) << k;
}

TEST(TraceExport, PerfettoBytesArePinned)
{
    std::stringstream out;
    writePerfettoJson(test::coverageStream(), out);
    EXPECT_EQ(out.str(), kPinnedPerfetto);
}

TEST(TraceExport, PerfettoEmptyStreamBytesArePinned)
{
    std::stringstream out;
    writePerfettoJson({}, out);
    EXPECT_EQ(out.str(),
              "{\"traceEvents\":[\n"
              "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":0,"
              "\"tid\":0,\"args\":{\"name\":\"cluster\"}}\n"
              "],\"displayTimeUnit\":\"ms\"}\n");
}

} // namespace
} // namespace qoserve
