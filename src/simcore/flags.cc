/**
 * @file
 * Declarative command-line flags: parsing and --help rendering.
 */

#include "simcore/flags.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace qoserve {
namespace flags {

namespace {

/** Shortest text that parses back to exactly @p v. */
std::string
formatReal(double v)
{
    char buf[32];
    return std::string(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

/** A whole-string finite real for @p flag. */
double
parseReal(const std::string &flag, const std::string &value)
{
    const char *end = value.data() + value.size();
    double v = 0.0;
    auto [ptr, ec] = std::from_chars(value.data(), end, v);
    if (ec == std::errc::invalid_argument || ptr != end)
        malformed(flag, "a number", value);
    if (ec != std::errc{} || !std::isfinite(v))
        malformed(flag, "a finite number", value);
    return v;
}

/** Append @p text word-wrapped to 79 columns, continuation lines
 *  indented to @p indent. */
void
wrap(std::string &out, const std::string &text, std::size_t indent)
{
    std::istringstream words(text);
    std::string word;
    std::size_t col = indent;
    for (bool first = true; words >> word; first = false) {
        if (!first && col + 1 + word.size() > 79) {
            out += "\n" + std::string(indent, ' ');
            col = indent;
        } else if (!first) {
            out += ' ';
            ++col;
        }
        out += word;
        col += word.size();
    }
    out += '\n';
}

} // namespace

void
malformed(const std::string &flag, const char *what,
          const std::string &value)
{
    QOSERVE_FATAL("flag ", flag, ": '", value, "' is not ", what);
}

void
outOfBounds(const std::string &flag, const std::string &must,
            const std::string &value)
{
    QOSERVE_FATAL("flag ", flag, " ", must, ", got ", value);
}

std::set<std::string>
parse(const std::vector<Flag> &table, const std::vector<std::string> &args)
{
    std::set<std::string> seen;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (arg == "--help" || arg == "-h") {
            seen.insert("--help");
            break;
        }
        auto it = std::find_if(table.begin(), table.end(), [&](auto &f) {
            return !f.name.empty() && f.name == arg;
        });
        if (it == table.end())
            QOSERVE_FATAL("unknown flag: ", arg, " (try --help)");
        if (!it->metavar.empty() && i + 1 >= args.size())
            QOSERVE_FATAL("flag ", arg, " requires a value");
        it->assign(it->metavar.empty() ? "" : args[++i]);
        seen.insert(arg);
    }
    return seen;
}

void
parseMain(const std::string &title, const std::vector<Flag> &table,
          int argc, char **argv)
{
    const std::string help = usage(title, table);
    if (parse(table, {argv + 1, argv + argc}).count("--help")) {
        std::fputs(help.c_str(), stdout);
        std::exit(0);
    }
}

std::string
usage(const std::string &title, const std::vector<Flag> &table)
{
    auto label = [](const Flag &f) {
        return f.metavar.empty() ? f.name : f.name + " " + f.metavar;
    };
    std::size_t column = std::string("--help").size();
    for (const Flag &f : table)
        column = std::max(column, label(f).size());
    column += 4; // two spaces of indent, two of gutter

    // Headings open with a blank line; a flat table gets one here.
    std::string out = title + "\n";
    if (table.empty() || !table.front().name.empty())
        out += "\n";
    auto entry = [&](const std::string &lbl, const std::string &help) {
        out += "  " + lbl + std::string(column - 2 - lbl.size(), ' ');
        wrap(out, help, column);
    };
    for (const Flag &f : table) {
        std::string shown = f.show ? f.show() : "";
        if (f.name.empty())
            out += "\n" + f.help + ":\n";
        else
            entry(label(f), shown.empty()
                                ? f.help
                                : f.help + " (default " + shown + ")");
    }
    entry("--help", "this text");
    return out;
}

Flag
section(std::string title)
{
    return {"", "", std::move(title), nullptr, nullptr};
}

Flag
toggle(std::string name, std::string help, bool &field, bool value)
{
    return {std::move(name), "", std::move(help),
            [&field, value](const std::string &) { field = value; },
            nullptr};
}

Flag
real(std::string name, std::string metavar, std::string help,
     double &field, RealBounds b)
{
    auto assign = [name, &field, b](const std::string &value) {
        double v = parseReal(name, value);
        if ((b.loOpen ? v <= b.lo : v < b.lo) ||
            (b.hiOpen ? v >= b.hi : v > b.hi))
            outOfBounds(name, b.must, value);
        field = v;
    };
    return {std::move(name), std::move(metavar), std::move(help), assign,
            [&field] { return formatReal(field); }};
}

Flag
realList(std::string name, std::string metavar, std::string help,
         std::vector<double> &field)
{
    auto assign = [name, &field](const std::string &value) {
        std::vector<double> list;
        std::istringstream parts(value);
        for (std::string part; std::getline(parts, part, ',');)
            list.push_back(parseReal(name, part));
        field = std::move(list);
    };
    auto show = [&field] {
        std::string out;
        for (double v : field)
            out += (out.empty() ? "" : ",") + formatReal(v);
        return out;
    };
    return {std::move(name), std::move(metavar), std::move(help), assign,
            show};
}

} // namespace flags
} // namespace qoserve
