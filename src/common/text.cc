#include "common/text.hh"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <set>
#include <utility>

namespace laperm {

std::string_view
trim(std::string_view s)
{
    constexpr const char *kSpace = " \t\r\n\v\f";
    const std::size_t b = s.find_first_not_of(kSpace);
    if (b == std::string_view::npos)
        return {};
    return s.substr(b, s.find_last_not_of(kSpace) - b + 1);
}

bool
parseUInt(std::string_view s, std::uint64_t max, std::uint64_t &out)
{
    if (s.empty())
        return false;
    std::uint64_t v = 0;
    for (const char c : s) {
        if (c < '0' || c > '9')
            return false;
        const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
        if (digit > max || v > (max - digit) / 10)
            return false;
        v = v * 10 + digit;
    }
    out = v;
    return true;
}

bool
parseFiniteDouble(std::string_view s, double &out)
{
    double v = 0.0;
    const char *end = s.data() + s.size();
    const auto [ptr, ec] = std::from_chars(s.data(), end, v);
    if (s.empty() || ec != std::errc() || ptr != end || !std::isfinite(v))
        return false;
    out = v;
    return true;
}

std::uint64_t
envCount(const char *name, std::uint64_t max, std::uint64_t fallback)
{
    const char *env = std::getenv(name);
    std::uint64_t v = 0;
    if (env && parseUInt(env, max, v) && v > 0)
        return v;
    return fallback;
}

std::string
jsonEscape(std::string_view s)
{
    static const char kHex[] = "0123456789abcdef";
    std::string out;
    out.reserve(s.size() + 8);
    for (const char c : s) {
        const auto byte = static_cast<unsigned char>(c);
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (c == '\n') {
            out += "\\n";
        } else if (c == '\r') {
            out += "\\r";
        } else if (c == '\t') {
            out += "\\t";
        } else if (byte < 0x20) {
            out += "\\u00";
            out += kHex[byte >> 4];
            out += kHex[byte & 0xf];
        } else {
            out += c;
        }
    }
    return out;
}

bool
lexConfig(std::string_view text, const ConfigVisitor &visit,
          std::string &err)
{
    std::set<std::pair<std::string, std::string>> seen;
    std::string section;
    int lineNo = 0;
    std::string msg;
    auto fail = [&](const std::string &why) {
        err = "line " + std::to_string(lineNo) + ": " + why;
        return false;
    };
    while (!text.empty()) {
        ++lineNo;
        const std::size_t nl = text.find('\n');
        std::string_view line = text.substr(0, nl);
        text = nl == std::string_view::npos ? std::string_view()
                                            : text.substr(nl + 1);
        line = trim(line.substr(0, line.find('#')));
        if (line.empty())
            continue;

        ConfigLine l;
        l.line = lineNo;
        if (line.front() == '[') {
            if (line.back() != ']')
                return fail("unterminated section header");
            section = trim(line.substr(1, line.size() - 2));
            l.header = true;
        } else {
            const std::size_t eq = line.find('=');
            if (eq == std::string_view::npos)
                return fail("expected 'key = value'");
            l.key = trim(line.substr(0, eq));
            l.value = trim(line.substr(eq + 1));
            if (l.key.empty())
                return fail("expected 'key = value'");
            if (!l.value.empty() && l.value.front() == '"') {
                if (l.value.size() < 2 || l.value.back() != '"') {
                    return fail("unterminated string for '" +
                                std::string(l.key) + "'");
                }
                l.value = l.value.substr(1, l.value.size() - 2);
            }
            if (!seen.emplace(section, l.key).second)
                return fail("duplicate key '" + std::string(l.key) + "'");
        }
        l.section = section;
        msg.clear();
        if (!visit(l, msg))
            return fail(msg);
    }
    return true;
}

} // namespace laperm
