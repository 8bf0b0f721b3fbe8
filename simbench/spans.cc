/**
 * @file
 * Span recorder and duration histogram.
 */

#include "spans.hh"

#include <bit>
#include <chrono>
#include <cmath>
#include <ostream>
#include <stdexcept>

namespace simbench {

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
DurationHistogram::record(std::int64_t ns)
{
    // Bucket = octave (highest set bit) x 16 linear steps inside it.
    int index = 0;
    if (ns > 0) {
        auto v = static_cast<std::uint64_t>(ns);
        int msb = 63 - std::countl_zero(v);
        std::uint64_t step = msb >= 4 ? (v >> (msb - 4)) & 15
                                      : (v << (4 - msb)) & 15;
        index = msb * kPerOctave + static_cast<int>(step);
    }
    ++buckets_[index];
    ++count_;
}

double
DurationHistogram::quantile(double q) const
{
    if (count_ == 0)
        return 0.0;
    // Rank of the order statistic, 1-based, clamped to the sample.
    auto rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(count_)));
    rank = std::max<std::uint64_t>(1, std::min(rank, count_));
    std::uint64_t seen = 0;
    for (int i = 0; i < kBuckets; ++i) {
        seen += buckets_[i];
        if (seen >= rank) {
            int msb = i / kPerOctave;
            int step = i % kPerOctave;
            double base = std::ldexp(1.0, msb);
            double lo = base * (1.0 + step / 16.0);
            double hi = base * (1.0 + (step + 1) / 16.0);
            return std::sqrt(lo * hi);
        }
    }
    return 0.0;
}

SpanRecorder::SpanRecorder(std::size_t keep_per_name)
    : keepPerName_(keep_per_name)
{
}

int
SpanRecorder::nameId(const std::string &name)
{
    for (std::size_t i = 0; i < names_.size(); ++i) {
        if (names_[i] == name)
            return static_cast<int>(i);
    }
    names_.push_back(name);
    totals_.emplace_back();
    keptPerName_.push_back(0);
    return static_cast<int>(names_.size() - 1);
}

void
SpanRecorder::begin(int name, std::int64_t now_ns, int replica,
                    std::int64_t request)
{
    int parent = stack_.empty() ? -1 : stack_.back().keptIndex;
    bool parent_kept = stack_.empty() || parent >= 0;
    int kept_index = -1;
    if (parent_kept && keptPerName_[name] < keepPerName_) {
        ++keptPerName_[name];
        kept_index = static_cast<int>(kept_.size());
        kept_.push_back({name, parent, now_ns, now_ns, replica, request});
    }
    stack_.push_back({name, kept_index, now_ns, 0});
}

std::int64_t
SpanRecorder::end(std::int64_t now_ns)
{
    if (stack_.empty())
        throw std::logic_error("SpanRecorder::end with no open span");
    Open open = stack_.back();
    stack_.pop_back();
    std::int64_t duration = now_ns - open.startNs;
    if (duration < 0)
        throw std::logic_error("span ends before it starts");

    SpanTotals &t = totals_[open.name];
    ++t.calls;
    t.totalNs += duration;
    t.selfNs += duration - open.childNs;
    if (!stack_.empty())
        stack_.back().childNs += duration;

    if (open.keptIndex >= 0)
        kept_[open.keptIndex].endNs = now_ns;
    else
        ++dropped_;
    return duration;
}

void
SpanRecorder::writeJson(std::ostream &out) const
{
    std::int64_t origin = kept_.empty() ? 0 : kept_.front().startNs;
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < kept_.size(); ++i) {
        const Span &s = kept_[i];
        out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << names_[s.name]
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
            << static_cast<double>(s.startNs - origin) / 1e3
            << ",\"dur\":" << static_cast<double>(s.endNs - s.startNs) / 1e3
            << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
            << ",\"replica\":" << s.replica << ",\"request\":" << s.request
            << "}}";
    }
    out << "\n],\"droppedSpans\":" << dropped_ << "}\n";
}

} // namespace simbench
