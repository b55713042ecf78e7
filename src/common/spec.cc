#include "common/spec.h"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace approxhadoop::spec {

std::vector<std::string>
split(std::string_view text, char sep)
{
    std::vector<std::string> parts;
    size_t start = 0;
    for (size_t end; (end = text.find(sep, start)) != text.npos;
         start = end + 1) {
        parts.emplace_back(text.substr(start, end - start));
    }
    parts.emplace_back(text.substr(start));
    return parts;
}

std::string
formatDouble(double v)
{
    if (v == 0.0) {
        return "0";  // also for -0.0
    }
    char buf[512];  // fixed notation of DBL_MAX needs 309 digits
    char* end =
        std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::fixed)
            .ptr;
    return std::string(buf, end);
}

BadValue::BadValue(const std::string& grammar, std::string_view token)
    : std::invalid_argument("wants " + grammar + ", got '" +
                            std::string(token) + "'")
{
}

std::string
Real::text() const
{
    std::string out = noun;
    if (std::isfinite(lo) && std::isfinite(hi)) {
        out += std::string(" in ") + (lo_open ? '(' : '[') +
               formatDouble(lo) + ", " + formatDouble(hi) +
               (hi_open ? ')' : ']');
    } else if (std::isfinite(lo)) {
        out += (lo_open ? " > " : " >= ") + formatDouble(lo);
    } else if (std::isfinite(hi)) {
        out += (hi_open ? " < " : " <= ") + formatDouble(hi);
    }
    return out;
}

double
Real::read(std::string_view token) const
{
    double v = 0.0;
    const char* last = token.data() + token.size();
    auto [end, ec] = std::from_chars(token.data(), last, v);
    bool in_range = (lo_open ? v > lo : v >= lo) &&
                    (hi_open ? v < hi : v <= hi);
    if (ec != std::errc() || end != last || !std::isfinite(v) ||
        !in_range) {
        throw BadValue(text(), token);
    }
    return v;
}

std::string
Count::text() const
{
    if (hi != std::numeric_limits<uint64_t>::max()) {
        return std::string(noun) + " in [" + std::to_string(lo) + ", " +
               std::to_string(hi) + "]";
    }
    return lo > 0 ? noun + (" >= " + std::to_string(lo)) : noun;
}

uint64_t
Count::read(std::string_view token) const
{
    uint64_t v = 0;
    const char* last = token.data() + token.size();
    auto [end, ec] = std::from_chars(token.data(), last, v);
    if (token.empty() || token.find_first_not_of("0123456789") !=
                             token.npos ||
        ec != std::errc() || end != last || v < lo || v > hi) {
        throw BadValue(text(), token);
    }
    return v;
}

std::pair<uint64_t, std::string>
countedTerm(std::string_view term, const Count& count, const char* grammar)
{
    size_t digits = term.find_first_not_of("0123456789");
    if (digits == 0 || digits == term.npos) {
        throw BadValue(grammar, term);
    }
    return {count.read(term.substr(0, digits)),
            std::string(term.substr(digits))};
}

std::string
path(const std::string& token)
{
    if (token.empty()) {
        throw BadValue("a file path", token);
    }
    return token;
}

namespace detail {

void
fail(const char* prefix, const char* problem, const std::string& what)
{
    throw std::invalid_argument(std::string(prefix) + " " + problem + " '" +
                                what + "'");
}

std::string
inFlight(const std::string& for_value, const std::string& other)
{
    try {
        throw;
    } catch (const BadValue& e) {
        return for_value + e.what();
    } catch (const std::exception& e) {
        return other + e.what();
    }
}

bool
flagError(const std::string& message)
{
    std::fprintf(stderr, "%s\n", message.c_str());
    return false;
}

std::string
helpEntry(const std::string& left, const char* help, size_t column)
{
    std::string out = left;
    out.append(left.size() + 2 <= column ? column - left.size() : 2, ' ');
    for (const char* c = help; *c != '\0'; ++c) {
        out += *c;
        if (*c == '\n') {
            out.append(column, ' ');
        }
    }
    out += '\n';
    return out;
}

}  // namespace detail

}  // namespace approxhadoop::spec
