/**
 * @file
 * Metrics registry implementation.
 */

#include "obs/metrics_registry.hh"

#include <fstream>
#include <ostream>
#include <set>

#include "obs/text_appender.hh"
#include "simcore/logging.hh"

namespace qoserve {

MetricsHistogram::MetricsHistogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1, 0)
{
    for (std::size_t i = 1; i < bounds_.size(); ++i) {
        QOSERVE_ASSERT(bounds_[i - 1] < bounds_[i],
                       "histogram bounds must be strictly ascending");
    }
}

void
MetricsHistogram::observe(double v)
{
    std::size_t i = 0;
    while (i < bounds_.size() && v > bounds_[i])
        ++i;
    ++counts_[i];
    ++count_;
    sum_ += v;
}

std::int64_t
MetricsHistogram::bucketCount(std::size_t i) const
{
    QOSERVE_ASSERT(i < bounds_.size(), "histogram bucket out of range");
    std::int64_t total = 0;
    for (std::size_t b = 0; b <= i; ++b)
        total += counts_[b];
    return total;
}

std::int64_t &
MetricsRegistry::counter(const std::string &name)
{
    return counters_[name];
}

double &
MetricsRegistry::gauge(const std::string &name)
{
    return gauges_[name];
}

MetricsHistogram &
MetricsRegistry::histogram(const std::string &name,
                           std::vector<double> bounds)
{
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
        it = histograms_
                 .emplace(name, MetricsHistogram(std::move(bounds)))
                 .first;
    }
    return it->second;
}

void
MetricsRegistry::snapshot(SimTime now)
{
    Row row;
    row.time = now;
    for (const auto &entry : counters_)
        row.values[entry.first] = static_cast<double>(entry.second);
    for (const auto &entry : gauges_)
        row.values[entry.first] = entry.second;
    for (const auto &entry : histograms_) {
        const MetricsHistogram &h = entry.second;
        for (std::size_t i = 0; i < h.bounds().size(); ++i) {
            row.values[entry.first + "_le_" +
                       formatGeneral17(h.bounds()[i])] =
                static_cast<double>(h.bucketCount(i));
        }
        row.values[entry.first + "_le_inf"] =
            static_cast<double>(h.count());
        row.values[entry.first + "_sum"] = h.sum();
        row.values[entry.first + "_count"] =
            static_cast<double>(h.count());
    }
    rows_.push_back(std::move(row));
}

void
MetricsRegistry::writeCsv(std::ostream &out) const
{
    // Columns are the union of every row's keys (cells may register
    // mid-run), in name order — deterministic layout.
    std::set<std::string> columns;
    for (const Row &row : rows_) {
        for (const auto &entry : row.values)
            columns.insert(entry.first);
    }
    TextAppender text(out);
    text.append("time");
    for (const std::string &col : columns)
        text.append(',').append(col);
    text.append('\n');
    for (const Row &row : rows_) {
        text.appendGeneral17(row.time.seconds());
        // A row's keys are a subset of the columns and both are in
        // name order, so one forward walk finds every cell.
        auto cell = row.values.begin();
        for (const std::string &col : columns) {
            double v = 0.0;
            if (cell != row.values.end() && cell->first == col) {
                v = cell->second;
                ++cell;
            }
            text.append(',').appendGeneral17(v);
        }
        text.append('\n');
    }
    text.flush();
}

void
MetricsRegistry::writeCsvFile(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        QOSERVE_FATAL("cannot open metrics file for writing: ", path);
    writeCsv(out);
    if (!out)
        QOSERVE_FATAL("error writing metrics file: ", path);
}

MetricsSampler::MetricsSampler(EventQueue &eq, MetricsRegistry &registry,
                               SimDuration interval, SampleFn fn)
    : eq_(eq), registry_(registry), interval_(interval),
      fn_(std::move(fn))
{
    QOSERVE_ASSERT(interval_ > 0.0,
                   "metrics sampling interval must be positive, got ",
                   interval_);
    QOSERVE_ASSERT(fn_, "metrics sampler needs a sample callback");
}

void
MetricsSampler::start()
{
    eq_.scheduleDaemon(eq_.now(), [this]() { fire(); });
}

void
MetricsSampler::fire()
{
    fn_(registry_, eq_.now());
    registry_.snapshot(eq_.now());
    ++samples_;
    // Reschedule only while real (non-daemon) work is pending: the
    // cadence observes the simulation but must never extend it, and
    // daemon bookkeeping keeps two observers from propping each other
    // up forever.
    if (eq_.hasRealWork())
        eq_.scheduleDaemonAfter(interval_, [this]() { fire(); });
}

} // namespace qoserve
