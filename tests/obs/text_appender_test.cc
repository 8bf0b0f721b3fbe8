/**
 * @file
 * Tests for the obs writers' text appender: its number formats equal
 * the printf / iostream formats they replace byte for byte, its
 * buffer hand-off loses and reorders nothing, and the three writers
 * built on it ignore the global locale.
 */

#include "obs/text_appender.hh"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <iomanip>
#include <limits>
#include <locale>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics_registry.hh"
#include "obs/trace_export.hh"
#include "obs/trace_sink.hh"
#include "obs_test_streams.hh"
#include "simcore/rng.hh"

namespace qoserve {
namespace {

std::string
printfFixed3(double v)
{
    char buf[400];
    std::snprintf(buf, sizeof buf, "%.3f", v);
    return buf;
}

std::string
streamGeneral17(double v)
{
    std::ostringstream out;
    out.imbue(std::locale::classic());
    out << std::setprecision(17) << v;
    return out.str();
}

/** Values chosen to hit rounding and notation boundaries. */
std::vector<double>
edgeValues()
{
    const double inf = std::numeric_limits<double>::infinity();
    std::vector<double> v = {
        0.0,
        -0.0,
        -1.0,
        -0.0004,
        -0.0005,
        -1.0625,
        0.0005,
        0.0015,
        1e15,
        1e15 + 0.125,
        -1e15,
        1e16,
        1e17,
        1e21,
        1e-5,
        1e-4,
        0.1,
        1.0 / 3.0,
        4503599627370496.5, // 2^52 + 0.5
        9007199254740993.0, // 2^53 + 1 (rounds to even)
        std::numeric_limits<double>::max(),
        -std::numeric_limits<double>::max(),
        std::numeric_limits<double>::min(),
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(),
        1e-310,
        inf,
        -inf,
    };
    // Exact binary ties at the third decimal (x.xxx5 exactly
    // representable): printf rounds them to even.
    for (int k = 0; k < 200; ++k) {
        for (double frac : {0.0625, 0.1875, 0.3125, 0.4375, 0.5625,
                            0.6875, 0.8125, 0.9375}) {
            v.push_back(k + frac);
            v.push_back(-(k + frac));
        }
    }
    return v;
}

/**
 * ~1e5 seeded doubles: arbitrary bit patterns (every exponent,
 * subnormals, infinities), microsecond timestamps like the Perfetto
 * exporter writes, and values on and next to the 1/16 grid.
 */
std::vector<double>
seededValues()
{
    Rng rng(20261017);
    std::vector<double> v;
    for (int i = 0; i < 100000; ++i) {
        switch (i % 4) {
          case 0: {
            std::uint64_t bits = rng.nextU64();
            double d = 0.0;
            std::memcpy(&d, &bits, sizeof d);
            if (!std::isnan(d))
                v.push_back(d);
            break;
          }
          case 1:
            v.push_back(rng.uniform(0.0, 1e11));
            break;
          case 2:
            v.push_back(static_cast<double>(rng.uniformInt(-100000, 100000)) /
                        16.0);
            break;
          default:
            v.push_back(std::nextafter(
                static_cast<double>(rng.uniformInt(0, 1 << 20)) / 16.0,
                rng.bernoulli(0.5) ? 1e300 : -1e300));
            break;
        }
    }
    return v;
}

/** Format every value through one appender, one per line, so the
 *  values straddle buffer flushes; compare line by line. */
template <typename AppendFn, typename ExpectFn>
void
expectSameLines(const std::vector<double> &values, AppendFn append,
                ExpectFn expected)
{
    std::ostringstream out;
    TextAppender text(out);
    for (double v : values) {
        append(text, v);
        text.append('\n');
    }
    text.flush();
    std::istringstream got(out.str());
    std::string line;
    std::size_t i = 0;
    while (std::getline(got, line)) {
        ASSERT_LT(i, values.size());
        ASSERT_EQ(line, expected(values[i]))
            << "value " << i << " bits differ for " << values[i];
        ++i;
    }
    EXPECT_EQ(i, values.size());
}

TEST(TextAppender, Fixed3EqualsPrintfOnEdgeValues)
{
    expectSameLines(
        edgeValues(), [](TextAppender &t, double v) { t.appendFixed3(v); },
        printfFixed3);
}

TEST(TextAppender, Fixed3EqualsPrintfOnSeededValues)
{
    expectSameLines(
        seededValues(),
        [](TextAppender &t, double v) { t.appendFixed3(v); }, printfFixed3);
}

TEST(TextAppender, General17EqualsIostreamOnEdgeValues)
{
    expectSameLines(
        edgeValues(),
        [](TextAppender &t, double v) { t.appendGeneral17(v); },
        streamGeneral17);
    for (double v : edgeValues())
        EXPECT_EQ(formatGeneral17(v), streamGeneral17(v));
}

TEST(TextAppender, General17EqualsIostreamOnSeededValues)
{
    expectSameLines(
        seededValues(),
        [](TextAppender &t, double v) { t.appendGeneral17(v); },
        streamGeneral17);
}

TEST(TextAppender, IntegersEqualIostream)
{
    std::ostringstream out, expected;
    TextAppender text(out);
    const std::int64_t i64[] = {0, -1, 42,
                                std::numeric_limits<std::int64_t>::min(),
                                std::numeric_limits<std::int64_t>::max()};
    for (std::int64_t v : i64) {
        text.appendInt(v).append(',');
        expected << v << ',';
    }
    for (std::uint64_t v : {std::uint64_t{0},
                            std::numeric_limits<std::uint64_t>::max()}) {
        text.appendInt(v).append(',');
        expected << v << ',';
    }
    for (int v : {std::numeric_limits<int>::min(), -1, 7}) {
        text.appendInt(v).append(',');
        expected << v << ',';
    }
    text.flush();
    EXPECT_EQ(out.str(), expected.str());
}

TEST(TextAppender, LongTextAndManyPiecesArriveInOrder)
{
    // One piece larger than the buffer, then enough short pieces to
    // force several flushes mid-stream.
    const std::string big(200 * 1024, 'x');
    std::ostringstream out;
    TextAppender text(out);
    std::string expected;
    text.append("head");
    expected += "head";
    text.append(big);
    expected += big;
    for (int i = 0; i < 50000; ++i) {
        text.append("ab").appendInt(i).append(';');
        expected += "ab" + std::to_string(i) + ";";
    }
    text.flush();
    EXPECT_EQ(out.str(), expected);
}

TEST(TextAppender, NothingReachesTheStreamBeforeFlush)
{
    std::ostringstream out;
    TextAppender text(out);
    text.append("pending").appendGeneral17(0.5);
    EXPECT_EQ(out.str(), "");
    text.flush();
    EXPECT_EQ(out.str(), "pending0.5");
    text.flush();
    EXPECT_EQ(out.str(), "pending0.5");
}

/** `,` as the decimal point and `.` grouping every three digits: the
 *  conventions of many European locales. */
class CommaDecimal : public std::numpunct<char>
{
  protected:
    char do_decimal_point() const override { return ','; }
    char do_thousands_sep() const override { return '.'; }
    std::string do_grouping() const override { return "\3"; }
};

/** Installs a global locale for its lifetime. */
class GlobalLocale
{
  public:
    explicit GlobalLocale(const std::locale &loc)
        : saved_(std::locale::global(loc))
    {
    }
    ~GlobalLocale() { std::locale::global(saved_); }

    GlobalLocale(const GlobalLocale &) = delete;
    GlobalLocale &operator=(const GlobalLocale &) = delete;

  private:
    std::locale saved_;
};

/** Output of all three writers over the coverage inputs. */
std::string
allWriters()
{
    std::ostringstream out;
    std::vector<TraceEvent> events = test::coverageStream();
    writePerfettoJson(events, out);
    TraceSink sink;
    for (const TraceEvent &ev : events)
        sink.emit(ev);
    sink.writeCsv(out);
    MetricsRegistry reg;
    test::fillCoverageRegistry(reg);
    reg.writeCsv(out);
    return out.str();
}

TEST(TextAppenderLocale, WritersIgnoreTheGlobalLocale)
{
    const std::string classic = allWriters();
    GlobalLocale comma(std::locale(std::locale::classic(), new CommaDecimal));
    // The locale is live: a default-constructed stream now writes
    // decimal commas and groups thousands.
    std::ostringstream probe;
    probe << 0.5 << ' ' << 1234567;
    ASSERT_EQ(probe.str(), "0,5 1.234.567");
    EXPECT_EQ(allWriters(), classic);
}

} // namespace
} // namespace qoserve
