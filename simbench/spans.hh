/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * A span is one timed call across a layer boundary: a name, a start,
 * an end and the span that was open when it began (its parent). Spans
 * nest strictly on the one simulation thread, so a span's self time is
 * its duration minus the durations of its direct children.
 *
 * The simulator makes millions of scheduler and predictor calls per
 * run, far too many to keep. The recorder therefore folds every closed
 * span into per-name totals (calls, total and self time) and keeps the
 * span itself only while a per-name budget lasts; the kept spans are
 * what gets written out at the end.
 */

#ifndef SIMBENCH_SPANS_HH
#define SIMBENCH_SPANS_HH

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace simbench {

/** Monotonic host time in nanoseconds (steady_clock). */
std::int64_t nowNs();

/** One recorded span; times are nanoseconds on the recorder's clock. */
struct Span
{
    int name = 0;
    /** Index of the parent in the kept-span list, -1 for a root. A
     *  span whose parent was not kept is not kept either. */
    int parent = -1;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    /** Replica index, -1 when not known or not applicable. */
    int replica = -1;
    /** Request id, -1 when the span is not about one request. */
    std::int64_t request = -1;
};

/** Per-name aggregate over every closed span of that name. */
struct SpanTotals
{
    std::uint64_t calls = 0;
    std::int64_t totalNs = 0;
    std::int64_t selfNs = 0;
};

/**
 * Log-bucketed histogram of nanosecond durations: 16 linear buckets
 * per octave, so a reported quantile is within about 3% of the true
 * order statistic. Memory is fixed however many values are recorded.
 */
class DurationHistogram
{
  public:
    void record(std::int64_t ns);

    /** Quantile @p q in [0, 1] (bucket's geometric centre); 0 when
     *  empty. */
    double quantile(double q) const;

    std::uint64_t count() const { return count_; }

  private:
    static constexpr int kPerOctave = 16;
    static constexpr int kBuckets = 64 * kPerOctave;
    std::array<std::uint64_t, kBuckets> buckets_{};
    std::uint64_t count_ = 0;
};

/**
 * Stack-based span recorder.
 *
 * begin()/end() take explicit timestamps so the arithmetic can be
 * tested with a scripted clock; the *Now() forms read nowNs().
 */
class SpanRecorder
{
  public:
    /** @param keep_per_name Spans kept per name for the output file. */
    explicit SpanRecorder(std::size_t keep_per_name = 5000);

    /** Register (or look up) a span name; returns its id. */
    int nameId(const std::string &name);

    const std::string &name(int id) const { return names_[id]; }

    std::size_t names() const { return names_.size(); }

    /** Open a span as a child of the innermost open span. */
    void begin(int name, std::int64_t now_ns, int replica = -1,
               std::int64_t request = -1);

    /** Close the innermost open span; returns its duration. */
    std::int64_t end(std::int64_t now_ns);

    void beginNow(int name, int replica = -1, std::int64_t request = -1)
    {
        begin(name, nowNs(), replica, request);
    }

    std::int64_t endNow() { return end(nowNs()); }

    /** Totals for @p name over every span closed so far. */
    const SpanTotals &totals(int name) const { return totals_[name]; }

    /** Spans kept for output, in begin order. */
    const std::vector<Span> &kept() const { return kept_; }

    /** Closed spans not kept because their name's budget ran out. */
    std::uint64_t dropped() const { return dropped_; }

    /** Spans begun and not yet ended. */
    std::size_t openDepth() const { return stack_.size(); }

    /** Write the kept spans as Chrome trace-event JSON ("X" events,
     *  microseconds), loadable in Perfetto. */
    void writeJson(std::ostream &out) const;

  private:
    struct Open
    {
        int name;
        int keptIndex;
        std::int64_t startNs;
        std::int64_t childNs;
    };

    std::vector<std::string> names_;
    std::vector<SpanTotals> totals_;
    std::vector<std::size_t> keptPerName_;
    std::size_t keepPerName_;
    std::vector<Open> stack_;
    std::vector<Span> kept_;
    std::uint64_t dropped_ = 0;
};

} // namespace simbench

#endif // SIMBENCH_SPANS_HH
