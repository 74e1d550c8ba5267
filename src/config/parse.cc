#include "config/parse.hh"

#include <cctype>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace dtsim {
namespace config {

namespace {

/** Reject empty input and anything a strict number must not start
 *  with; strtoull/strtod would silently skip whitespace and accept
 *  signs we do not want on unsigned fields. */
bool
checkNumericStart(const std::string& text, bool allow_minus,
                  std::string& err)
{
    if (text.empty()) {
        err = "empty value";
        return false;
    }
    const char c = text.front();
    if (std::isspace(static_cast<unsigned char>(c))) {
        err = "leading whitespace";
        return false;
    }
    if (c == '-' && !allow_minus) {
        err = "negative value for an unsigned parameter";
        return false;
    }
    return true;
}

bool
checkEnd(const std::string& text, const char* end, std::string& err)
{
    if (end == text.c_str()) {
        err = "not a number: '" + text + "'";
        return false;
    }
    if (*end != '\0') {
        err = "trailing junk after number: '" + text + "'";
        return false;
    }
    return true;
}

} // namespace

bool
parseValue(const std::string& text, std::uint64_t& out,
           std::string& err)
{
    if (!checkNumericStart(text, false, err))
        return false;
    // Base 0 reads "0x" as hex, which stays accepted, but would also
    // read a leading 0 as octal: "010" (or "+010") would silently
    // mean 8.
    const std::size_t digits = text[0] == '+' ? 1 : 0;
    if (text.size() > digits + 1 && text[digits] == '0' &&
        std::isdigit(static_cast<unsigned char>(text[digits + 1]))) {
        err = "leading zero in '" + text +
              "' (octal is not accepted; write it in decimal or 0x hex)";
        return false;
    }
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 0);
    if (!checkEnd(text, end, err))
        return false;
    if (errno == ERANGE) {
        err = "out of range for a 64-bit unsigned value: '" + text +
              "'";
        return false;
    }
    out = static_cast<std::uint64_t>(v);
    return true;
}

namespace {

/** Parse into u64, then range-check into a narrower unsigned type. */
template <typename T>
bool
parseNarrow(const std::string& text, T& out, std::string& err)
{
    std::uint64_t v = 0;
    if (!parseValue(text, v, err))
        return false;
    if (v > std::numeric_limits<T>::max()) {
        err = "out of range (max " +
              formatValue(static_cast<std::uint64_t>(
                  std::numeric_limits<T>::max())) +
              "): '" + text + "'";
        return false;
    }
    out = static_cast<T>(v);
    return true;
}

} // namespace

bool
parseValue(const std::string& text, unsigned& out, std::string& err)
{
    return parseNarrow(text, out, err);
}

bool
parseValue(const std::string& text, double& out, std::string& err)
{
    if (!checkNumericStart(text, true, err))
        return false;
    errno = 0;
    char* end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (!checkEnd(text, end, err))
        return false;
    if (errno == ERANGE || !std::isfinite(v)) {
        err = "out of range for a double: '" + text + "'";
        return false;
    }
    out = v;
    return true;
}

bool
parseValue(const std::string& text, bool& out, std::string& err)
{
    if (text == "true" || text == "1" || text == "on" ||
        text == "yes") {
        out = true;
        return true;
    }
    if (text == "false" || text == "0" || text == "off" ||
        text == "no") {
        out = false;
        return true;
    }
    err = "not a boolean (expected true|false|1|0|on|off|yes|no): '" +
          text + "'";
    return false;
}

bool
parseValue(const std::string& text, std::string& out, std::string&)
{
    out = text;
    return true;
}

std::string
formatValue(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
    return buf;
}

std::string
formatValue(unsigned v)
{
    return formatValue(static_cast<std::uint64_t>(v));
}

std::string
formatValue(double v)
{
    // Shortest representation that parses back to the same bits:
    // try increasing precision until the round trip is exact.
    char buf[64];
    for (int prec = 6; prec <= 17; ++prec) {
        std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
        if (std::strtod(buf, nullptr) == v)
            break;
    }
    return buf;
}

std::string
formatValue(bool v)
{
    return v ? "true" : "false";
}

std::string
formatValue(const std::string& v)
{
    return v;
}

} // namespace config
} // namespace dtsim
