/**
 * @file
 * Trace sink implementation: ordered event store and CSV round trip.
 */

#include "obs/trace_sink.hh"

#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "obs/text_appender.hh"
#include "simcore/logging.hh"

namespace qoserve {

const char *
traceEventKindName(TraceEventKind kind)
{
    switch (kind) {
      case TraceEventKind::Arrival:
        return "arrival";
      case TraceEventKind::AdmissionReject:
        return "admission-reject";
      case TraceEventKind::Dispatch:
        return "dispatch";
      case TraceEventKind::IterStart:
        return "iter-start";
      case TraceEventKind::IterEnd:
        return "iter-end";
      case TraceEventKind::ChunkStart:
        return "chunk-start";
      case TraceEventKind::ChunkEnd:
        return "chunk-end";
      case TraceEventKind::Preempt:
        return "preempt";
      case TraceEventKind::Relegate:
        return "relegate";
      case TraceEventKind::Finish:
        return "finish";
      case TraceEventKind::CacheHit:
        return "cache-hit";
      case TraceEventKind::CacheEvict:
        return "cache-evict";
      case TraceEventKind::Crash:
        return "crash";
      case TraceEventKind::Recover:
        return "recover";
      case TraceEventKind::StragglerStart:
        return "straggler-start";
      case TraceEventKind::StragglerEnd:
        return "straggler-end";
      case TraceEventKind::RequestFailed:
        return "request-failed";
      case TraceEventKind::RetryQueued:
        return "retry-queued";
      case TraceEventKind::RetryExhausted:
        return "retry-exhausted";
      case TraceEventKind::ZoneOutage:
        return "zone-outage";
      case TraceEventKind::ZoneRestore:
        return "zone-restore";
      case TraceEventKind::PartitionStart:
        return "partition-start";
      case TraceEventKind::PartitionEnd:
        return "partition-end";
      case TraceEventKind::BreakerOpen:
        return "breaker-open";
      case TraceEventKind::BreakerClose:
        return "breaker-close";
      case TraceEventKind::BrownoutStep:
        return "brownout-step";
      case TraceEventKind::DeadlineCancel:
        return "deadline-cancel";
      case TraceEventKind::BrownoutShed:
        return "brownout-shed";
      case TraceEventKind::AlertRaised:
        return "slo-alert-raised";
      case TraceEventKind::AlertCleared:
        return "slo-alert-cleared";
    }
    QOSERVE_PANIC("unknown trace event kind");
}

void
TraceSink::emit(const TraceEvent &ev)
{
    QOSERVE_ASSERT(events_.empty() || ev.time >= events_.back().time,
                   "trace event at ", ev.time,
                   " precedes the stream tail at ",
                   events_.back().time);
    events_.push_back(ev);
}

void
TraceSink::writeCsv(std::ostream &out) const
{
    // max_digits10 makes the double fields round-trip exactly, so a
    // written trace re-read by the explainer carries the same
    // timestamps the exporters saw.
    TextAppender text(out);
    text.append("event,time,request,replica,arg,value\n");
    for (const TraceEvent &ev : events_) {
        text.append(traceEventKindName(ev.kind))
            .append(',')
            .appendGeneral17(ev.time.seconds())
            .append(',');
        if (ev.request == kNoTraceRequest)
            text.append("-1");
        else
            text.appendInt(ev.request);
        text.append(',')
            .appendInt(ev.replica)
            .append(',')
            .appendInt(ev.arg)
            .append(',')
            .appendGeneral17(ev.value)
            .append('\n');
    }
    text.flush();
}

void
TraceSink::writeCsvFile(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        QOSERVE_FATAL("cannot open trace file for writing: ", path);
    writeCsv(out);
    if (!out)
        QOSERVE_FATAL("error writing trace file: ", path);
}

namespace {

TraceEventKind
kindByName(const std::string &name, std::size_t line_no)
{
    for (int k = 0; k < kTraceEventKinds; ++k) {
        auto kind = static_cast<TraceEventKind>(k);
        if (name == traceEventKindName(kind))
            return kind;
    }
    QOSERVE_FATAL("trace CSV line ", line_no,
                  ": unknown event kind: '", name, "'");
}

double
parseTraceDouble(const std::string &field, std::size_t line_no)
{
    std::size_t pos = 0;
    double value = 0.0;
    try {
        value = std::stod(field, &pos);
    } catch (const std::exception &) {
        QOSERVE_FATAL("trace CSV line ", line_no,
                      ": not a number: '", field, "'");
    }
    if (pos != field.size())
        QOSERVE_FATAL("trace CSV line ", line_no,
                      ": trailing characters: '", field, "'");
    return value;
}

std::int64_t
parseTraceInt(const std::string &field, std::size_t line_no)
{
    std::size_t pos = 0;
    std::int64_t value = 0;
    try {
        value = std::stoll(field, &pos);
    } catch (const std::exception &) {
        QOSERVE_FATAL("trace CSV line ", line_no,
                      ": not an integer: '", field, "'");
    }
    if (pos != field.size())
        QOSERVE_FATAL("trace CSV line ", line_no,
                      ": trailing characters: '", field, "'");
    return value;
}

} // namespace

std::vector<TraceEvent>
readTraceCsv(std::istream &in)
{
    std::vector<TraceEvent> events;
    std::string line;
    std::size_t line_no = 0;
    bool saw_header = false;
    while (std::getline(in, line)) {
        ++line_no;
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (line.empty())
            QOSERVE_FATAL("trace CSV line ", line_no, ": empty line");
        if (!saw_header) {
            if (line != "event,time,request,replica,arg,value")
                QOSERVE_FATAL("trace CSV line ", line_no,
                              ": unexpected header: '", line, "'");
            saw_header = true;
            continue;
        }
        std::vector<std::string> fields;
        std::istringstream iss(line);
        std::string field;
        while (std::getline(iss, field, ','))
            fields.push_back(field);
        if (fields.size() != 6)
            QOSERVE_FATAL("trace CSV line ", line_no,
                          ": expected 6 fields, got ", fields.size());
        TraceEvent ev;
        ev.kind = kindByName(fields[0], line_no);
        ev.time = SimTime{parseTraceDouble(fields[1], line_no)};
        std::int64_t req = parseTraceInt(fields[2], line_no);
        ev.request = req < 0 ? kNoTraceRequest
                             : static_cast<std::uint64_t>(req);
        ev.replica =
            static_cast<int>(parseTraceInt(fields[3], line_no));
        ev.arg = parseTraceInt(fields[4], line_no);
        ev.value = parseTraceDouble(fields[5], line_no);
        events.push_back(ev);
    }
    if (!saw_header)
        QOSERVE_FATAL("trace CSV is empty (missing header)");
    return events;
}

std::vector<TraceEvent>
readTraceCsvFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        QOSERVE_FATAL("cannot open trace file for reading: ", path);
    return readTraceCsv(in);
}

} // namespace qoserve
