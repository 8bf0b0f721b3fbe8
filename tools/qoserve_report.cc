/**
 * @file
 * qoserve_report — offline run-comparison reporter.
 *
 * Diffs the streaming-analytics artifacts two runs wrote — latency
 * sketch banks (qoserve_sim --sketch-out), SLO alert timelines
 * (--slo-alerts-out), and critical-path aggregates (qoserve_explain
 * --critical-csv) — and prints a text table plus, optionally, a
 * self-contained HTML report. Regression flags are deterministic:
 * the same artifact files always produce the same verdict, so CI can
 * gate on --fail-on-regression (exit 2) without flake.
 *
 * Example:
 *   qoserve_report --label-a baseline --label-b candidate \
 *       --sketches-a a/sketch.csv --sketches-b b/sketch.csv \
 *       --alerts-a a/alerts.csv --alerts-b b/alerts.csv \
 *       --html report.html --fail-on-regression
 */

#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "obs/run_diff.hh"
#include "simcore/flags.hh"

int
main(int argc, char **argv)
{
    using namespace qoserve;

    std::optional<std::string> sketches_a, sketches_b;
    std::optional<std::string> alerts_a, alerts_b;
    std::optional<std::string> critical_a, critical_b;
    std::optional<std::string> html_path;
    std::string label_a = "before";
    std::string label_b = "after";
    RunDiffConfig cfg;
    bool fail_on_regression = false;

    const std::vector<flags::Flag> table = {
        flags::text("--sketches-a", "FILE",
                    "run A latency sketch bank (--sketch-out)", sketches_a),
        flags::text("--sketches-b", "FILE", "run B latency sketch bank",
                    sketches_b),
        flags::text("--alerts-a", "FILE",
                    "run A alert timeline (--slo-alerts-out)", alerts_a),
        flags::text("--alerts-b", "FILE", "run B alert timeline",
                    alerts_b),
        flags::text("--critical-a", "FILE",
                    "run A critical-path CSV (qoserve_explain "
                    "--critical-csv)",
                    critical_a),
        flags::text("--critical-b", "FILE", "run B critical-path CSV",
                    critical_b),
        flags::text("--label-a", "NAME", "run A display name", label_a),
        flags::text("--label-b", "NAME", "run B display name", label_b),
        flags::text("--html", "FILE",
                    "also write a self-contained HTML report", html_path),
        flags::real("--latency-tolerance", "X",
                    "relative latency growth allowed beyond the sketch "
                    "error bounds",
                    cfg.latencyTolerance, flags::kNonNegative),
        flags::real("--share-tolerance", "X",
                    "absolute dominant-share growth allowed",
                    cfg.shareTolerance, flags::kNonNegative),
        flags::toggle("--fail-on-regression",
                      "exit 2 when any component regressed",
                      fail_on_regression),
    };
    flags::parseMain(
        "qoserve_report — diff two runs' streaming SLO analytics\n"
        "(each artifact kind is supplied for both runs or neither)",
        table, argc, argv);

    auto paired = [](const std::optional<std::string> &a,
                     const std::optional<std::string> &b,
                     const char *kind) {
        if (a.has_value() != b.has_value()) {
            std::cerr << kind
                      << " artifacts must be supplied for both runs "
                         "or neither\n";
            std::exit(1);
        }
        return a.has_value();
    };
    const bool haveSketches =
        paired(sketches_a, sketches_b, "sketch");
    const bool haveAlerts = paired(alerts_a, alerts_b, "alert");
    const bool haveCritical =
        paired(critical_a, critical_b, "critical-path");
    if (!haveSketches && !haveAlerts && !haveCritical)
        QOSERVE_FATAL("at least one artifact pair is required (try "
                      "--help)");

    RunArtifacts before, after;
    before.label = label_a;
    after.label = label_b;
    if (haveSketches) {
        before.sketches = readSketchBankCsvFile(*sketches_a);
        after.sketches = readSketchBankCsvFile(*sketches_b);
    }
    if (haveAlerts) {
        before.alerts = readAlertsCsvFile(*alerts_a);
        after.alerts = readAlertsCsvFile(*alerts_b);
    }
    if (haveCritical) {
        before.critical = readCriticalAggregateCsvFile(*critical_a);
        after.critical = readCriticalAggregateCsvFile(*critical_b);
        before.hasCritical = after.hasCritical = true;
    }

    RunDiff diff = diffRuns(before, after, cfg);
    writeDiffText(diff, std::cout);
    if (html_path)
        writeDiffHtmlFile(diff, *html_path);

    return fail_on_regression && diff.regressed ? 2 : 0;
}
