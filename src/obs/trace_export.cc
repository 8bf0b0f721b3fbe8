/**
 * @file
 * Trace exporter implementation.
 */

#include "obs/trace_export.hh"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "obs/text_appender.hh"
#include "simcore/logging.hh"

namespace qoserve {

const char *
tracePhaseName(TracePhase phase)
{
    switch (phase) {
      case TracePhase::Queued:
        return "queued";
      case TracePhase::Prefill:
        return "prefill-running";
      case TracePhase::Starved:
        return "prefill-starved";
      case TracePhase::Preempted:
        return "stalled-by-preemption";
      case TracePhase::Decode:
        return "decode";
      case TracePhase::Retry:
        return "retry";
    }
    QOSERVE_PANIC("unknown trace phase");
}

SimTime
RequestTimeline::lastSpanEnd() const
{
    return spans.empty() ? kTimeNever : spans.back().end;
}

namespace {

/** Open-span state of one request while folding the stream. */
struct SpanState
{
    bool open = false;
    TracePhase phase = TracePhase::Queued;
    int replica = -1;
    SimTime since;
};

/** What a request-lifecycle event does to the open span. */
struct Transition
{
    bool close = false;
    bool openNew = false;
    TracePhase phase = TracePhase::Queued;
    int replica = -1;
};

/**
 * The one shared state machine: every transition closes the open span
 * (if any) at the event time and opens the next phase at the same
 * instant, so a request's spans tile its served lifetime without
 * gaps or overlaps.
 */
Transition
transitionFor(const TraceEvent &ev, const SpanState &st)
{
    Transition tr;
    switch (ev.kind) {
      case TraceEventKind::Dispatch:
        tr = {st.open, true, TracePhase::Queued, ev.replica};
        break;
      case TraceEventKind::ChunkStart:
        tr = {st.open, true, TracePhase::Prefill, ev.replica};
        break;
      case TraceEventKind::ChunkEnd:
        tr = {st.open, true,
              ev.arg > 0 ? TracePhase::Starved : TracePhase::Decode,
              ev.replica};
        break;
      case TraceEventKind::Preempt:
        tr = {st.open, true, TracePhase::Preempted, ev.replica};
        break;
      case TraceEventKind::RetryQueued:
        // A re-dispatch that finds every replica down re-queues from
        // inside the retry phase; the span simply continues.
        if (!(st.open && st.phase == TracePhase::Retry))
            tr = {st.open, true, TracePhase::Retry, -1};
        break;
      case TraceEventKind::Finish:
      case TraceEventKind::RequestFailed:
      case TraceEventKind::RetryExhausted:
      case TraceEventKind::DeadlineCancel:
        tr.close = st.open;
        break;
      default:
        break; // Instants and replica-level events: no span change.
    }
    return tr;
}

/**
 * Open-span state of every request seen so far: a flat vector indexed
 * by a dense slot, with a hash map from request id to slot. The map
 * serves lookups only and is never iterated, so hash order cannot
 * reach any output; the end-of-stream close walks open spans in id
 * order.
 */
class SpanTable
{
  public:
    SpanState &
    at(std::uint64_t request)
    {
        auto [it, inserted] = slots_.try_emplace(request, states_.size());
        if (inserted) {
            states_.emplace_back();
            ids_.push_back(request);
        }
        return states_[it->second];
    }

    /** Call fn(id, state) for each still-open span, in id order. */
    template <typename Fn>
    void
    forEachOpen(Fn fn) const
    {
        std::vector<std::pair<std::uint64_t, std::size_t>> open;
        for (std::size_t slot = 0; slot < states_.size(); ++slot) {
            if (states_[slot].open)
                open.emplace_back(ids_[slot], slot);
        }
        std::sort(open.begin(), open.end());
        for (const auto &[id, slot] : open)
            fn(id, states_[slot]);
    }

  private:
    std::unordered_map<std::uint64_t, std::size_t> slots_;
    std::vector<SpanState> states_;
    std::vector<std::uint64_t> ids_; ///< Request id of each slot.
};

} // namespace

std::map<RequestId, RequestTimeline>
buildRequestTimelines(const std::vector<TraceEvent> &events)
{
    std::map<RequestId, RequestTimeline> timelines;
    SpanTable state;

    for (const TraceEvent &ev : events) {
        if (ev.request == kNoTraceRequest)
            continue;
        RequestTimeline &tl = timelines[RequestId{ev.request}];
        switch (ev.kind) {
          case TraceEventKind::Arrival:
            tl.arrival = ev.time;
            break;
          case TraceEventKind::AdmissionReject:
            tl.rejected = true;
            break;
          case TraceEventKind::Finish:
            tl.finish = ev.time;
            break;
          case TraceEventKind::RetryExhausted:
            tl.abandoned = true;
            break;
          case TraceEventKind::DeadlineCancel:
            tl.cancelled = true;
            break;
          case TraceEventKind::BrownoutShed:
            tl.shed = true;
            break;
          case TraceEventKind::RequestFailed:
            ++tl.failures;
            break;
          case TraceEventKind::CacheHit:
            tl.cachedTokens += ev.arg;
            break;
          default:
            break;
        }
        SpanState &st = state.at(ev.request);
        Transition tr = transitionFor(ev, st);
        if (tr.close) {
            tl.spans.push_back(
                {st.phase, st.replica, st.since, ev.time});
            st.open = false;
        }
        if (tr.openNew)
            st = {true, tr.phase, tr.replica, ev.time};
    }

    // A truncated stream (tests, partial exports) can leave spans
    // open; close them at the stream's final timestamp.
    const SimTime last = events.empty() ? SimTime{} : events.back().time;
    state.forEachOpen([&](std::uint64_t id, const SpanState &st) {
        timelines[RequestId{id}].spans.push_back(
            {st.phase, st.replica, st.since, last});
    });
    return timelines;
}

namespace {

int
pidOf(int replica)
{
    return replica < 0 ? 0 : replica + 1;
}

/**
 * Writes the `traceEvents` array one JSON object per line, with the
 * separating commas. dur() and instant() open an event line; arg()
 * adds to its `args` object and end() closes the line.
 */
class PerfettoLines
{
  public:
    explicit PerfettoLines(TextAppender &out) : out_(out) {}

    /** Start a line; the caller writes the whole object. */
    TextAppender &
    line()
    {
        if (!first_)
            out_.append(",\n");
        first_ = false;
        return out_;
    }

    /** Duration begin/end; @p name is null on "E" lines. */
    PerfettoLines &
    dur(const char *ph, const char *name, SimTime t, int pid,
        std::uint64_t tid)
    {
        line().append("{\"ph\":\"").append(ph).append('"');
        if (name != nullptr) {
            out_.append(",\"name\":\"")
                .append(name)
                .append("\",\"cat\":\"qoserve\"");
        }
        return track(t, pid, tid);
    }

    PerfettoLines &
    instant(const char *name, SimTime t, int pid, std::uint64_t tid)
    {
        line()
            .append("{\"ph\":\"i\",\"name\":\"")
            .append(name)
            .append("\",\"cat\":\"qoserve\",\"s\":\"t\"");
        return track(t, pid, tid);
    }

    PerfettoLines &
    arg(const char *key, std::int64_t v)
    {
        argKey(key).appendInt(v);
        return *this;
    }

    /** An argument in fixed 3-decimal notation. */
    PerfettoLines &
    arg3(const char *key, double v)
    {
        argKey(key).appendFixed3(v);
        return *this;
    }

    void
    end()
    {
        out_.append(inArgs_ ? "}}" : "}");
        inArgs_ = false;
    }

  private:
    /** Timestamp in microseconds with fixed 3-decimal formatting:
     *  byte-deterministic across platforms, sub-nanosecond
     *  resolution. */
    PerfettoLines &
    track(SimTime t, int pid, std::uint64_t tid)
    {
        out_.append(",\"ts\":")
            .appendFixed3(t.seconds() * 1e6)
            .append(",\"pid\":")
            .appendInt(pid)
            .append(",\"tid\":")
            .appendInt(tid);
        return *this;
    }

    TextAppender &
    argKey(const char *key)
    {
        out_.append(inArgs_ ? ",\"" : ",\"args\":{\"")
            .append(key)
            .append("\":");
        inArgs_ = true;
        return out_;
    }

    TextAppender &out_;
    bool first_ = true;
    bool inArgs_ = false;
};

/** Index of @p v in the sorted, duplicate-free @p sorted. */
std::size_t
indexIn(const std::vector<int> &sorted, int v)
{
    return static_cast<std::size_t>(
        std::lower_bound(sorted.begin(), sorted.end(), v) - sorted.begin());
}

} // namespace

void
writePerfettoJson(const std::vector<TraceEvent> &events,
                  std::ostream &out)
{
    TextAppender text(out);
    text.append("{\"traceEvents\":[\n");
    PerfettoLines json(text);

    // Every replica value the stream carries, sorted: -1 (and any
    // other negative value a user CSV holds) are cluster-level and
    // get no track, but still index the engine state below.
    std::unordered_set<int> distinct;
    for (const TraceEvent &ev : events)
        distinct.insert(ev.replica);
    std::vector<int> replicas(distinct.begin(), distinct.end());
    std::sort(replicas.begin(), replicas.end());

    // Track metadata: pid 0 is the cluster front door; each replica
    // is a process whose tid 0 is the engine track. Replica pids are
    // emitted in sorted order — deterministic output.
    json.line().append("{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":0,"
                       "\"tid\":0,\"args\":{\"name\":\"cluster\"}}");
    for (int r : replicas) {
        if (r < 0)
            continue;
        json.line()
            .append("{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":")
            .appendInt(pidOf(r))
            .append(",\"tid\":0,\"args\":{\"name\":\"replica ")
            .appendInt(r)
            .append("\"}}");
        json.line()
            .append("{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":")
            .appendInt(pidOf(r))
            .append(",\"tid\":0,\"args\":{\"name\":\"engine\"}}");
    }

    SpanTable state;
    // Whether each replica's engine track has an iteration open,
    // indexed like `replicas`.
    std::vector<char> engineOpen(replicas.size(), 0);

    auto requestTid = [](std::uint64_t request) {
        // tid 0 is the engine track, so request ids shift up by one.
        return request + 1;
    };

    for (const TraceEvent &ev : events) {
        const std::uint64_t tid =
            ev.request == kNoTraceRequest ? 0 : requestTid(ev.request);
        const int pid = pidOf(ev.replica);
        switch (ev.kind) {
          case TraceEventKind::IterStart:
            json.dur("B", "iter", ev.time, pid, 0)
                .arg("prefill_tokens", ev.arg)
                .arg("decodes", static_cast<std::int64_t>(ev.value))
                .end();
            engineOpen[indexIn(replicas, ev.replica)] = 1;
            break;
          case TraceEventKind::IterEnd: {
            char &open = engineOpen[indexIn(replicas, ev.replica)];
            if (open) {
                json.dur("E", nullptr, ev.time, pid, 0).end();
                open = 0;
            }
            break;
          }
          case TraceEventKind::Arrival:
            json.instant("arrival", ev.time, 0, tid).end();
            break;
          case TraceEventKind::AdmissionReject:
            json.instant("admission-reject", ev.time, 0, tid).end();
            break;
          case TraceEventKind::CacheHit:
            json.instant("cache-hit", ev.time, pid, tid)
                .arg("tokens", ev.arg)
                .end();
            break;
          case TraceEventKind::CacheEvict:
            json.instant("cache-evict", ev.time, pid, 0)
                .arg("blocks", ev.arg)
                .end();
            break;
          case TraceEventKind::Relegate:
            json.instant("relegate", ev.time, pid, tid).end();
            break;
          case TraceEventKind::Crash:
            json.instant("crash", ev.time, pid, 0).end();
            break;
          case TraceEventKind::Recover:
            json.instant("recover", ev.time, pid, 0).end();
            break;
          case TraceEventKind::StragglerStart:
            json.instant("straggler-start", ev.time, pid, 0)
                .arg3("factor", ev.value)
                .end();
            break;
          case TraceEventKind::StragglerEnd:
            json.instant("straggler-end", ev.time, pid, 0).end();
            break;
          case TraceEventKind::ZoneOutage:
            json.instant("zone-outage", ev.time, 0, 0)
                .arg("zone", ev.arg)
                .end();
            break;
          case TraceEventKind::ZoneRestore:
            json.instant("zone-restore", ev.time, 0, 0)
                .arg("zone", ev.arg)
                .end();
            break;
          case TraceEventKind::PartitionStart:
            json.instant("partition-start", ev.time, 0, 0)
                .arg("blinded", ev.arg)
                .end();
            break;
          case TraceEventKind::PartitionEnd:
            json.instant("partition-end", ev.time, 0, 0).end();
            break;
          case TraceEventKind::BreakerOpen:
            json.instant("breaker-open", ev.time, pid, 0)
                .arg("failures", ev.arg)
                .end();
            break;
          case TraceEventKind::BreakerClose:
            json.instant("breaker-close", ev.time, pid, 0).end();
            break;
          case TraceEventKind::BrownoutStep:
            json.instant("brownout-step", ev.time, 0, 0)
                .arg("level", ev.arg)
                .end();
            break;
          case TraceEventKind::AlertRaised:
            json.instant("slo-alert-raised", ev.time, 0, 0)
                .arg("tier", ev.arg)
                .arg3("burn", ev.value)
                .end();
            break;
          case TraceEventKind::AlertCleared:
            json.instant("slo-alert-cleared", ev.time, 0, 0)
                .arg("tier", ev.arg)
                .end();
            break;
          default: {
            if (ev.request == kNoTraceRequest)
                break;
            SpanState &st = state.at(ev.request);
            Transition tr = transitionFor(ev, st);
            if (tr.close) {
                json.dur("E", nullptr, ev.time, pidOf(st.replica), tid).end();
                st.open = false;
            }
            if (tr.openNew) {
                json.dur("B", tracePhaseName(tr.phase), ev.time,
                         pidOf(tr.replica), tid);
                if (ev.kind == TraceEventKind::ChunkStart)
                    json.arg("tokens", ev.arg);
                json.end();
                st = {true, tr.phase, tr.replica, ev.time};
            }
            if (ev.kind == TraceEventKind::Finish)
                json.instant("finish", ev.time, pid, tid).end();
            else if (ev.kind == TraceEventKind::RequestFailed)
                json.instant("failed", ev.time, pid, tid).end();
            else if (ev.kind == TraceEventKind::RetryExhausted)
                json.instant("abandoned", ev.time, 0, tid).end();
            else if (ev.kind == TraceEventKind::DeadlineCancel)
                json.instant("deadline-cancelled", ev.time, 0, tid).end();
            else if (ev.kind == TraceEventKind::BrownoutShed)
                json.instant("brownout-shed", ev.time, 0, tid).end();
            break;
          }
        }
    }

    // Close anything a truncated stream left open so B/E pairs always
    // balance: request tracks in id order, then engine tracks in
    // replica order.
    const SimTime last = events.empty() ? SimTime{} : events.back().time;
    state.forEachOpen([&](std::uint64_t id, const SpanState &st) {
        json.dur("E", nullptr, last, pidOf(st.replica), requestTid(id)).end();
    });
    for (std::size_t i = 0; i < replicas.size(); ++i) {
        if (engineOpen[i])
            json.dur("E", nullptr, last, pidOf(replicas[i]), 0).end();
    }

    text.append("\n],\"displayTimeUnit\":\"ms\"}\n");
    text.flush();
}

void
writePerfettoJsonFile(const std::vector<TraceEvent> &events,
                      const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        QOSERVE_FATAL("cannot open trace file for writing: ", path);
    writePerfettoJson(events, out);
    if (!out)
        QOSERVE_FATAL("error writing trace file: ", path);
}

} // namespace qoserve
