/**
 * @file
 * Declarative command-line flags.
 *
 * Each flag is one table entry: name, metavar, help text and a typed
 * binding to the field it sets. The table drives strict parsing
 * (whole-string numbers, finite reals, integers that fit their field,
 * per-entry bounds; errors are QOSERVE_FATALs naming the flag) and
 * --help, whose defaults are read from the bindings of a table built
 * over a default-constructed options object.
 */

#ifndef QOSERVE_SIMCORE_FLAGS_HH
#define QOSERVE_SIMCORE_FLAGS_HH

#include <charconv>
#include <functional>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "simcore/logging.hh"

namespace qoserve {
namespace flags {

/** One table entry, or a --help section heading (empty name). The
 *  bindings refer to an options object that must outlive the table. */
struct Flag
{
    std::string name;    ///< "--name"; empty for a heading
    std::string metavar; ///< value placeholder; empty for a switch
    std::string help;    ///< help text; a heading's title

    /** Store a value ("" for a switch); fatal when it is invalid. */
    std::function<void(const std::string &)> assign;

    /** The bound value as the flag spells it; "" or null: none. */
    std::function<std::string()> show;
};

/** Parse @p args (argv minus argv[0]) into @p table's bindings and
 *  return the flags given; a repeated flag's last value wins. --help
 *  or -h ends the parse and is returned as "--help". */
std::set<std::string> parse(const std::vector<Flag> &table,
                            const std::vector<std::string> &args);

/** parse() for a main(): --help prints usage(@p title, @p table),
 *  rendered before parsing so it shows the defaults, and exits 0. */
void parseMain(const std::string &title, const std::vector<Flag> &table,
               int argc, char **argv);

/** --help text: @p title, then each entry wrapped with its metavar,
 *  help and its binding's current value as the default. */
std::string usage(const std::string &title,
                  const std::vector<Flag> &table);

/** Fatal: @p flag's @p value is not @p what ("an integer"). */
[[noreturn]] void malformed(const std::string &flag, const char *what,
                            const std::string &value);

/** Fatal: @p flag's @p value breaks its bounds, which @p must states. */
[[noreturn]] void outOfBounds(const std::string &flag,
                              const std::string &must,
                              const std::string &value);

/** Bounds on a real; @p must says what they require, for errors. */
struct RealBounds
{
    double lo = -std::numeric_limits<double>::infinity();
    bool loOpen = false;
    const char *must = "";
    double hi = std::numeric_limits<double>::infinity();
    bool hiOpen = false;
};

inline constexpr RealBounds kPositive{0.0, true, "must be positive"};
inline constexpr RealBounds kNonNegative{0.0, false,
                                         "must be non-negative"};
inline constexpr RealBounds kUnitInterval{0.0, false, "must be in [0, 1]",
                                          1.0};

/** Named values for a choice flag; a later name for an earlier value
 *  is an alias. */
template <typename T>
struct Choices
{
    std::string noun; ///< what the names name ("policy")
    std::vector<std::pair<std::string, T>> options;

    /** True when two values are the same choice. */
    bool (*same)(const T &, const T &) = [](const T &a, const T &b) {
        return a == b;
    };

    /** The value named @p name; fatal, after @p context, otherwise. */
    const T &
    lookup(const std::string &name, const std::string &context = "") const
    {
        for (const auto &[n, v] : options)
            if (n == name)
                return v;
        QOSERVE_FATAL(context, "unknown ", noun, ": ", name, " (",
                      names(), ")");
    }

    /** The first name of @p value, or "" when it has none. */
    std::string
    nameOf(const T &value) const
    {
        for (const auto &[n, v] : options)
            if (same(v, value))
                return n;
        return "";
    }

    /** Every name, "a|b|c". */
    std::string
    names() const
    {
        std::string out;
        for (const auto &opt : options)
            out += (out.empty() ? "" : "|") + opt.first;
        return out;
    }
};

/** A --help section heading. */
Flag section(std::string title);

/** A switch storing @p value in @p field. */
Flag toggle(std::string name, std::string help, bool &field,
            bool value = true);

/** A finite real within @p bounds. */
Flag real(std::string name, std::string metavar, std::string help,
          double &field, RealBounds bounds = {});

/** Comma-separated finite reals ("" is the empty list). */
Flag realList(std::string name, std::string metavar, std::string help,
              std::vector<double> &field);

/** A string, into a std::string or a std::optional<std::string>. */
template <typename S>
Flag
text(std::string name, std::string metavar, std::string help, S &field)
{
    return {std::move(name), std::move(metavar), std::move(help),
            [&field](const std::string &v) { field = v; },
            [&field]() -> std::string {
                if constexpr (std::is_same_v<S, std::string>)
                    return field;
                else
                    return field.value_or("");
            }};
}

/** An integer that fits @p field and lies in [lo, hi]. */
template <typename Int>
Flag
integer(std::string name, std::string metavar, std::string help,
        Int &field,
        std::type_identity_t<Int> lo = std::numeric_limits<Int>::min(),
        std::type_identity_t<Int> hi = std::numeric_limits<Int>::max())
{
    using Lim = std::numeric_limits<Int>;
    auto assign = [name, &field, lo, hi](const std::string &value) {
        const char *end = value.data() + value.size();
        Int v{};
        auto [ptr, ec] = std::from_chars(value.data(), end, v);
        bool sign = std::is_unsigned_v<Int> && value.starts_with('-');
        bool overflow = ec == std::errc::result_out_of_range;
        if (!sign && !overflow && (ec != std::errc{} || ptr != end))
            malformed(name, "an integer", value);
        if (sign || overflow || v < lo || v > hi) {
            std::string must = "must be in [" + std::to_string(lo) + ", " +
                               std::to_string(hi) + "]";
            if (!overflow && hi == Lim::max() && lo == 0)
                must = "must be non-negative";
            else if (!overflow && hi == Lim::max() && lo != Lim::min())
                must = "must be at least " + std::to_string(lo);
            outOfBounds(name, must, value);
        }
        field = v;
    };
    return {std::move(name), std::move(metavar), std::move(help), assign,
            [&field] { return std::to_string(field); }};
}

/** One of @p choices' names. */
template <typename T>
Flag
choice(std::string name, std::string metavar, std::string help,
       T &field, Choices<T> choices)
{
    auto assign = [name, &field, choices](const std::string &value) {
        field = choices.lookup(value, "flag " + name + ": ");
    };
    return {std::move(name), std::move(metavar),
            std::move(help) + ": " + choices.names(), assign,
            [&field, choices] { return choices.nameOf(field); }};
}

} // namespace flags
} // namespace qoserve

#endif // QOSERVE_SIMCORE_FLAGS_HH
