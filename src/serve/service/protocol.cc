#include "serve/service/protocol.hh"

#include <cctype>

namespace laperm {
namespace serve {

namespace {

struct Cursor
{
    const std::string &s;
    std::size_t i = 0;

    bool eof() const { return i >= s.size(); }
    char peek() const { return s[i]; }

    void skipWs()
    {
        while (i < s.size() &&
               std::isspace(static_cast<unsigned char>(s[i]))) {
            ++i;
        }
    }
};

/** Value of hex digit @p h, or -1. */
int
hexDigit(char h)
{
    if (h >= '0' && h <= '9')
        return h - '0';
    if (h >= 'a' && h <= 'f')
        return h - 'a' + 10;
    if (h >= 'A' && h <= 'F')
        return h - 'A' + 10;
    return -1;
}

bool
parseString(Cursor &c, std::string &out, std::string &err)
{
    if (c.eof() || c.peek() != '"') {
        err = "expected string";
        return false;
    }
    ++c.i;
    out.clear();
    while (!c.eof()) {
        char ch = c.s[c.i++];
        if (ch == '"')
            return true;
        if (ch == '\\') {
            if (c.eof()) {
                err = "dangling escape";
                return false;
            }
            char esc = c.s[c.i++];
            switch (esc) {
            case '"':
                out += '"';
                break;
            case '\\':
                out += '\\';
                break;
            case '/':
                out += '/';
                break;
            case 'b':
                out += '\b';
                break;
            case 'f':
                out += '\f';
                break;
            case 'n':
                out += '\n';
                break;
            case 'r':
                out += '\r';
                break;
            case 't':
                out += '\t';
                break;
            case 'u': {
                // jsonEscape spells control bytes \u00XX; escapes
                // beyond ASCII never appear in this protocol's traffic.
                const bool ascii = c.s.size() - c.i >= 4 &&
                                   c.s.compare(c.i, 2, "00") == 0;
                const int hi = ascii ? hexDigit(c.s[c.i + 2]) : -1;
                const int lo = ascii ? hexDigit(c.s[c.i + 3]) : -1;
                if (hi < 0 || hi > 7 || lo < 0) {
                    err = "unsupported escape";
                    return false;
                }
                c.i += 4;
                out += static_cast<char>(hi * 16 + lo);
                break;
            }
            default:
                err = "unsupported escape";
                return false;
            }
        } else {
            out += ch;
        }
    }
    err = "unterminated string";
    return false;
}

bool
parseValue(Cursor &c, JsonValue &out, std::string &err)
{
    c.skipWs();
    if (c.eof()) {
        err = "expected value";
        return false;
    }
    const char ch = c.peek();
    if (ch == '"') {
        out.type = JsonValue::Type::String;
        return parseString(c, out.str, err);
    }
    if (ch == '{' || ch == '[') {
        err = "nested objects/arrays are not part of the protocol";
        return false;
    }
    if (ch == 't' || ch == 'f') {
        const char *word = ch == 't' ? "true" : "false";
        const std::size_t len = ch == 't' ? 4 : 5;
        if (c.s.compare(c.i, len, word) != 0) {
            err = "bad literal";
            return false;
        }
        c.i += len;
        out.type = JsonValue::Type::Bool;
        out.boolean = ch == 't';
        return true;
    }
    if (ch == 'n') {
        if (c.s.compare(c.i, 4, "null") != 0) {
            err = "bad literal";
            return false;
        }
        c.i += 4;
        out.type = JsonValue::Type::Null;
        return true;
    }
    // Number: capture the raw token; validation happens at access.
    const std::size_t start = c.i;
    if (ch == '-')
        ++c.i;
    bool digits = false;
    while (!c.eof()) {
        const char d = c.peek();
        if (std::isdigit(static_cast<unsigned char>(d))) {
            digits = true;
            ++c.i;
        } else if (d == '.' || d == 'e' || d == 'E' || d == '+' ||
                   d == '-') {
            ++c.i;
        } else {
            break;
        }
    }
    if (!digits) {
        err = "expected value";
        return false;
    }
    out.type = JsonValue::Type::Number;
    out.str = c.s.substr(start, c.i - start);
    return true;
}

} // namespace

bool
parseJsonObject(const std::string &text, JsonObject &out, std::string &err)
{
    Cursor c{text};
    c.skipWs();
    if (c.eof() || c.peek() != '{') {
        err = "expected '{'";
        return false;
    }
    ++c.i;
    out.clear();
    c.skipWs();
    if (!c.eof() && c.peek() == '}') {
        ++c.i;
    } else {
        for (;;) {
            c.skipWs();
            std::string key;
            if (!parseString(c, key, err))
                return false;
            c.skipWs();
            if (c.eof() || c.peek() != ':') {
                err = "expected ':'";
                return false;
            }
            ++c.i;
            JsonValue v;
            if (!parseValue(c, v, err))
                return false;
            if (!out.emplace(key, std::move(v)).second) {
                err = "duplicate key '" + key + "'";
                return false;
            }
            c.skipWs();
            if (c.eof()) {
                err = "unterminated object";
                return false;
            }
            if (c.peek() == ',') {
                ++c.i;
                continue;
            }
            if (c.peek() == '}') {
                ++c.i;
                break;
            }
            err = "expected ',' or '}'";
            return false;
        }
    }
    c.skipWs();
    if (!c.eof()) {
        err = "trailing characters after object";
        return false;
    }
    return true;
}

bool
getString(const JsonObject &obj, const std::string &key, std::string &out)
{
    auto it = obj.find(key);
    if (it == obj.end() || it->second.type != JsonValue::Type::String)
        return false;
    out = it->second.str;
    return true;
}

bool
getU64(const JsonObject &obj, const std::string &key, std::uint64_t &out)
{
    auto it = obj.find(key);
    if (it == obj.end() || it->second.type != JsonValue::Type::Number)
        return false;
    return parseUInt(it->second.str, UINT64_MAX, out);
}

std::string
errorResponse(const std::string &status, const std::string &message)
{
    return "{\"status\":\"" + jsonEscape(status) + "\",\"message\":\"" +
           jsonEscape(message) + "\"}";
}

} // namespace serve
} // namespace laperm
