/**
 * @file
 * Text appender implementation: the floating-point formats and the
 * buffer hand-off to the stream.
 */

#include "obs/text_appender.hh"

#include <ostream>
#include <system_error>

#include "simcore/logging.hh"

namespace qoserve {

namespace {

/** Longest `%.3f` of a double: sign, the 309 integer digits of
 *  DBL_MAX, the point and three decimals. */
constexpr std::size_t kMaxFixed3Chars = 1 + 309 + 1 + 3;

/** Longest `%.17g` of a double: sign, 17 digits, point, "e-308". */
constexpr std::size_t kMaxGeneral17Chars = 1 + 17 + 1 + 5;

char *
toChars(char *first, char *last, double v, std::chars_format fmt,
        int precision)
{
    std::to_chars_result res = std::to_chars(first, last, v, fmt, precision);
    QOSERVE_ASSERT(res.ec == std::errc{}, "number does not fit its buffer");
    return res.ptr;
}

} // namespace

TextAppender::TextAppender(std::ostream &out)
    : out_(out), buf_(kCapacity, '\0')
{
}

TextAppender &
TextAppender::appendFixed3(double v)
{
    reserve(kMaxFixed3Chars);
    char *end = toChars(buf_.data() + used_, buf_.data() + buf_.size(), v,
                        std::chars_format::fixed, 3);
    used_ = static_cast<std::size_t>(end - buf_.data());
    return *this;
}

TextAppender &
TextAppender::appendGeneral17(double v)
{
    reserve(kMaxGeneral17Chars);
    char *end = toChars(buf_.data() + used_, buf_.data() + buf_.size(), v,
                        std::chars_format::general, 17);
    used_ = static_cast<std::size_t>(end - buf_.data());
    return *this;
}

void
TextAppender::flush()
{
    out_.write(buf_.data(), static_cast<std::streamsize>(used_));
    used_ = 0;
}

TextAppender &
TextAppender::appendLong(std::string_view text)
{
    flush();
    if (text.size() > buf_.size()) {
        out_.write(text.data(), static_cast<std::streamsize>(text.size()));
        return *this;
    }
    return append(text);
}

std::string
formatGeneral17(double v)
{
    char buf[kMaxGeneral17Chars];
    char *end = toChars(buf, buf + sizeof buf, v, std::chars_format::general,
                        17);
    return std::string(buf, end);
}

} // namespace qoserve
