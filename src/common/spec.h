#ifndef APPROXHADOOP_COMMON_SPEC_H_
#define APPROXHADOOP_COMMON_SPEC_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

/**
 * @file
 * The one grammar layer behind every user-facing knob: fault plans,
 * service specs, fleet specs and CLI flags. A grammar is a table with
 * one Row per clause key or flag; parsing, the canonical spec string,
 * the key list and the help text are all read from that table, so
 * adding a key means adding a row.
 */
namespace approxhadoop::spec {

/** Splits @p text on @p sep, keeping empty fields ("a,,b" gives three
 *  and "" one), so empty clauses reach the checks. */
std::vector<std::string> split(std::string_view text, char sep);

/** Shortest decimal form that reads back bit-identically. Never uses
 *  exponent notation: the '+' in "1.5e+02" would collide with the
 *  `T+D` separator of the fault-plan grammar. */
std::string formatDouble(double v);

/** A value outside its grammar: "wants <grammar>, got '<token>'". The
 *  walkers prefix the key or flag it was given for. */
class BadValue : public std::invalid_argument
{
  public:
    BadValue(const std::string& grammar, std::string_view token);
};

/** A finite real, optionally within a range whose ends are inclusive
 *  or exclusive; an infinite end is unbounded. */
struct Real
{
    const char* noun;  // e.g. "a ratio"; text() appends the range
    double lo = -std::numeric_limits<double>::infinity();
    double hi = std::numeric_limits<double>::infinity();
    bool lo_open = false;
    bool hi_open = false;

    /** e.g. "a ratio in (0, 1]" or "a period in ms > 0". */
    std::string text() const;
    /** Reads the whole token: no '+' sign, no whitespace.
     *  @throws BadValue on malformed, non-finite or out-of-range input */
    double read(std::string_view token) const;
};

/** An unsigned decimal integer in [lo, hi]: digits only, no sign or
 *  whitespace, no overflow. */
struct Count
{
    const char* noun;  // e.g. "an integer"; text() appends the range
    uint64_t lo = 0;
    uint64_t hi = std::numeric_limits<uint64_t>::max();

    /** e.g. "an integer in [1, 1024]" or "a non-negative integer". */
    std::string text() const;
    /** @throws BadValue on malformed or out-of-range input */
    uint64_t read(std::string_view token) const;
};

/** Splits a "<count><name>" term such as "10xeon".
 *  @throws BadValue naming @p grammar when either part is missing */
std::pair<uint64_t, std::string> countedTerm(std::string_view term,
                                             const Count& count,
                                             const char* grammar);

/** A non-empty file path. @throws BadValue on "" */
std::string path(const std::string& token);

/** One row of a grammar table over the target type T. */
template <typename T>
struct Row
{
    /** Clause key ("crash") or flag ("--sampling"); "" marks a flag
     *  table's positional argument. */
    const char* name = "";
    /** Value grammar for the help text ("P", "ID@T[+D]"); nullptr for
     *  a flag that takes no value. */
    const char* meta = nullptr;
    /** Help text ('\n' starts a continuation line); nullptr hides the
     *  row from the help text. */
    const char* help = nullptr;
    /** Applies one value. @throws BadValue or std::invalid_argument */
    std::function<void(T&, const std::string&)> apply;
    /** Appends this key's canonical values (none at its default). */
    std::function<void(const T&, std::vector<std::string>&)> emit = nullptr;
    /** The clause key may repeat, each clause adding an entry. (CLI
     *  flags may always repeat; the last one wins.) */
    bool repeatable = false;
    /** Flag tables: the flag is also accepted after `--resume FILE`. */
    bool resume = false;
};

template <typename T>
using Table = std::vector<Row<T>>;

/** A flag without a value that turns @p field on. */
template <typename T>
Row<T>
toggle(const char* name, const char* help, bool T::*field)
{
    return {name, nullptr, help,
            [field](T& target, const std::string&) { target.*field = true; }};
}

namespace detail {

/** @throws std::invalid_argument "<prefix> <problem> '<what>'" */
[[noreturn]] void fail(const char* prefix, const char* problem,
                       const std::string& what);

/** The in-flight exception's message, after @p for_value if it is a
 *  BadValue (which names no key or flag) and after @p other if not. */
std::string inFlight(const std::string& for_value, const std::string& other);

/** Prints @p message to stderr. Always returns false. */
bool flagError(const std::string& message);

/** @p left padded to @p column, then @p help with its continuation
 *  lines aligned under the first. */
std::string helpEntry(const std::string& left, const char* help,
                      size_t column);

}  // namespace detail

/** The row named @p name, or nullptr. */
template <typename T>
const Row<T>*
find(const Table<T>& table, std::string_view name)
{
    for (const Row<T>& row : table) {
        if (name == row.name) {
            return &row;
        }
    }
    return nullptr;
}

/**
 * Walks a comma-separated `key=value` spec through @p table into
 * @p target. Rejects an empty clause, a missing '=', an unknown key, and
 * a repeat of a key that may not repeat; every message starts with
 * @p prefix (e.g. "fault plan:").
 * @throws std::invalid_argument on malformed input
 */
template <typename T>
void
parse(const std::string& text, const Table<T>& table, T& target,
      const char* prefix)
{
    if (text.empty()) {
        return;
    }
    std::vector<bool> seen(table.size(), false);
    for (const std::string& clause : split(text, ',')) {
        size_t eq = clause.find('=');
        if (eq == std::string::npos) {
            detail::fail(prefix,
                         clause.empty() ? "empty clause"
                                        : "clause is not key=value:",
                         clause);
        }
        std::string key = clause.substr(0, eq);
        const Row<T>* row = find(table, key);
        if (row == nullptr) {
            detail::fail(prefix, "unknown key", key);
        }
        if (seen[row - table.data()] && !row->repeatable) {
            detail::fail(prefix, "duplicate key", key);
        }
        seen[row - table.data()] = true;
        try {
            row->apply(target, clause.substr(eq + 1));
        } catch (const std::invalid_argument&) {
            std::string context = std::string(prefix) + " ";
            throw std::invalid_argument(
                detail::inFlight(context + key + " ", context));
        }
    }
}

/** Canonical `key=value,...` form of @p source in table order: the
 *  inverse of parse() for every row with an emit function. */
template <typename T>
std::string
emit(const Table<T>& table, const T& source)
{
    std::string out;
    for (const Row<T>& row : table) {
        std::vector<std::string> values;
        if (row.emit) {
            row.emit(source, values);
        }
        for (const std::string& value : values) {
            out.append(out.empty() ? "" : ",").append(row.name).append("=");
            out.append(value);
        }
    }
    return out;
}

/** Every key or flag of @p table, in table order. */
template <typename T>
std::vector<std::string>
keys(const Table<T>& table)
{
    std::vector<std::string> out;
    for (const Row<T>& row : table) {
        out.push_back(row.name);
    }
    return out;
}

/** Help text, one aligned entry per visible row: "  key=META  help" for
 *  clause tables, "  --flag META  help" for flag tables. */
template <typename T>
std::string
help(const Table<T>& table, size_t column)
{
    std::string out;
    for (const Row<T>& row : table) {
        std::string left = std::string("  ") + row.name;
        if (row.meta != nullptr) {
            left.append(row.name[0] == '-' ? " " : "=").append(row.meta);
        }
        out += row.help ? detail::helpEntry(left, row.help, column) : "";
    }
    return out;
}

/**
 * Walks CLI arguments argv[first..argc) through a flag table into
 * @p target. A flag with a meta takes the next argument as its value;
 * an argument not starting with '-' goes to the positional row (name
 * ""), at most once. With @p resume set, only rows marked `resume` are
 * accepted. Prints the first error to stderr.
 *
 * @return false on an unknown flag, a missing or malformed value, or a
 *         flag refused under --resume
 */
template <typename T>
bool
parseFlags(int argc, char** argv, int first, const Table<T>& table,
           T& target, bool resume = false)
{
    bool positional_seen = false;
    for (int i = first; i < argc; ++i) {
        std::string arg = argv[i];
        bool positional = arg.empty() || arg[0] != '-';
        const Row<T>* row = find(table, positional ? "" : arg);
        if (row == nullptr) {
            return detail::flagError("unknown option " + arg);
        }
        if (resume && !row->resume) {
            return detail::flagError(
                arg + " cannot be combined with --resume: the job "
                      "configuration is read back from the journal");
        }
        if (positional && positional_seen) {
            return detail::flagError(std::string("more than one ") +
                                     row->meta + " given");
        }
        positional_seen = positional_seen || positional;
        std::string value = positional ? arg : "";
        if (!positional && row->meta != nullptr) {
            if (i + 1 >= argc) {
                return detail::flagError("missing value for " + arg);
            }
            value = argv[++i];
        }
        try {
            row->apply(target, value);
        } catch (const std::invalid_argument&) {
            return detail::flagError(detail::inFlight(arg + " ", arg + ": "));
        }
    }
    return true;
}

}  // namespace approxhadoop::spec

#endif  // APPROXHADOOP_COMMON_SPEC_H_
