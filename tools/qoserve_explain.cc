/**
 * @file
 * qoserve_explain — SLO-violation explainer CLI.
 *
 * Joins a lifecycle trace (--trace-csv from qoserve_sim) with the
 * matching per-request records (--records-out) and prints, for every
 * violated request, where its end-to-end latency went: queued,
 * prefill-running, prefill-starved, decode, stalled-by-preemption, or
 * retry — plus phase totals and the top offenders.
 *
 * Example:
 *   qoserve_sim --policy qoserve --trace-csv events.csv \
 *       --records-out records.csv
 *   qoserve_explain --trace events.csv --records records.csv
 */

#include <algorithm>
#include <cmath>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "metrics/report_io.hh"
#include "obs/critical_path.hh"
#include "obs/explain.hh"
#include "obs/trace_sink.hh"
#include "simcore/flags.hh"

int
main(int argc, char **argv)
{
    using namespace qoserve;

    std::optional<std::string> trace_path;
    std::optional<std::string> records_path;
    std::optional<std::string> critical_path;
    std::size_t top_n = 10;

    const std::vector<flags::Flag> table = {
        flags::text("--trace", "FILE",
                    "lifecycle event CSV (qoserve_sim --trace-csv)",
                    trace_path),
        flags::text("--records", "FILE",
                    "per-request records CSV (qoserve_sim --records-out)",
                    records_path),
        flags::integer("--top", "N", "offenders to list", top_n),
        flags::text("--critical-csv", "FILE",
                    "also write the violated requests' critical-path "
                    "aggregate as CSV (qoserve_report input)",
                    critical_path),
    };
    flags::parseMain(
        "qoserve_explain — attribute SLO violations to lifecycle phases",
        table, argc, argv);
    if (!trace_path || !records_path)
        QOSERVE_FATAL("--trace and --records are required (try --help)");

    std::vector<TraceEvent> events = readTraceCsvFile(*trace_path);
    std::vector<RecordsCsvRow> rows = readRecordsCsvFile(*records_path);

    std::vector<ExplainRecord> records;
    records.reserve(rows.size());
    for (const RecordsCsvRow &row : rows) {
        ExplainRecord rec;
        rec.id = row.id;
        rec.arrival = SimTime{row.arrival};
        rec.tierId = row.tierId;
        rec.important = row.important;
        rec.ttft = row.ttft;
        rec.ttlt = row.ttlt;
        rec.violated = row.violated;
        // A never-served request with zero retries was rejected at the
        // front door (the records CSV has no separate rejected flag:
        // only admission rejections produce this combination).
        rec.rejected = !row.retryExhausted && !std::isfinite(row.ttlt) &&
                       row.retries == 0;
        rec.retryExhausted = row.retryExhausted;
        rec.retries = row.retries;
        records.push_back(rec);
    }

    writeExplainReport(events, records, std::cout, top_n);

    if (critical_path) {
        // aggregateCriticalPaths skips never-served requests itself,
        // so the CSV covers exactly the served violated set the
        // report's critical-path section describes.
        auto timelines = buildRequestTimelines(events);
        std::vector<std::uint64_t> violatedIds;
        for (const ExplainRecord &rec : records)
            if (rec.violated)
                violatedIds.push_back(rec.id);
        std::sort(violatedIds.begin(), violatedIds.end());
        writeCriticalAggregateCsvFile(
            aggregateCriticalPaths(timelines, violatedIds),
            *critical_path);
    }
    return 0;
}
