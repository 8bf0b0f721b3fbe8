/**
 * @file
 * Buffered, locale-independent text appender for the obs writers.
 *
 * The Perfetto JSON exporter and the trace/metrics CSV writers emit
 * millions of short numeric fields. TextAppender formats each field
 * with std::to_chars straight into one reused, bounded buffer and
 * hands full buffers to the caller's stream with a single write(), so
 * a field costs no temporary string, no stream sentry and no locale
 * lookup. The formats are pinned to the bytes the writers always
 * produced (DESIGN.md §10):
 *
 *  - integers: plain decimal, as `ostream <<` in the C locale;
 *  - appendFixed3: `printf("%.3f")` in the C locale;
 *  - appendGeneral17: `ostream << std::setprecision(17)`, i.e.
 *    `printf("%.17g")`, the shortest form that round-trips.
 *
 * std::to_chars ignores the global locale by construction, so the
 * output does not change when a program installs one.
 */

#ifndef QOSERVE_OBS_TEXT_APPENDER_HH
#define QOSERVE_OBS_TEXT_APPENDER_HH

#include <charconv>
#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <type_traits>

namespace qoserve {

/**
 * Append-only text buffer in front of an std::ostream. Bytes reach
 * the stream when the buffer fills and on flush(); call flush() once
 * the text is complete (the destructor does not write).
 */
class TextAppender
{
  public:
    explicit TextAppender(std::ostream &out);

    TextAppender(const TextAppender &) = delete;
    TextAppender &operator=(const TextAppender &) = delete;

    TextAppender &
    append(std::string_view text)
    {
        if (text.size() > room())
            return appendLong(text);
        text.copy(buf_.data() + used_, text.size());
        used_ += text.size();
        return *this;
    }

    TextAppender &
    append(char c)
    {
        if (room() == 0)
            flush();
        buf_[used_++] = c;
        return *this;
    }

    /** Decimal integer of any integral type. */
    template <typename Int>
    TextAppender &
    appendInt(Int v)
    {
        static_assert(std::is_integral_v<Int>, "integral types only");
        reserve(kMaxIntChars);
        char *end = buf_.data() + buf_.size();
        used_ = static_cast<std::size_t>(
            std::to_chars(buf_.data() + used_, end, v).ptr - buf_.data());
        return *this;
    }

    /** Fixed notation with three decimals: `printf("%.3f", v)`. */
    TextAppender &appendFixed3(double v);

    /** Seventeen significant digits: `printf("%.17g", v)`. */
    TextAppender &appendGeneral17(double v);

    /** Write the buffered bytes to the stream. */
    void flush();

  private:
    /** Buffer size; a full buffer is one write() to the stream. */
    static constexpr std::size_t kCapacity = std::size_t{64} * 1024;

    /** Longest decimal integer: 20 digits of a 64-bit value, a sign. */
    static constexpr std::size_t kMaxIntChars = 21;

    std::size_t room() const { return buf_.size() - used_; }

    /** Flush unless @p n more bytes fit. */
    void
    reserve(std::size_t n)
    {
        if (n > room())
            flush();
    }

    TextAppender &appendLong(std::string_view text);

    std::ostream &out_;
    std::string buf_;
    std::size_t used_ = 0;
};

/** appendGeneral17's bytes as a string (metric column labels). */
std::string formatGeneral17(double v);

} // namespace qoserve

#endif // QOSERVE_OBS_TEXT_APPENDER_HH
