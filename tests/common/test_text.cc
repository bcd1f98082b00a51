#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/text.hh"

using namespace laperm;

namespace {

/** Every visited line as "N:section|key=value" (headers: "N:[section]"). */
std::vector<std::string>
lexAll(const std::string &text, std::string &err)
{
    std::vector<std::string> out;
    lexConfig(
        text,
        [&](const ConfigLine &l, std::string &) {
            std::string s = std::to_string(l.line) + ":";
            if (l.header) {
                s += "[" + std::string(l.section) + "]";
            } else {
                s += std::string(l.section) + "|" + std::string(l.key) +
                     "=" + std::string(l.value);
            }
            out.push_back(s);
            return true;
        },
        err);
    return out;
}

} // namespace

TEST(ConfigLexer, NumbersLinesSplitsHeadersAndStripsQuotes)
{
    std::string err;
    const auto lines = lexAll("# leading comment\n"
                              "top = 1\n"
                              "\n"
                              "  [ sec ]  # trailing comment\n"
                              "name = \"a b\"   \n"
                              "raw=x=y\r\n"
                              "empty = \"\"\n",
                              err);
    EXPECT_EQ(err, "");
    const std::vector<std::string> want = {
        "2:|top=1", "4:[sec]", "5:sec|name=a b", "6:sec|raw=x=y",
        "7:sec|empty="};
    EXPECT_EQ(lines, want);
}

TEST(ConfigLexer, RejectsMalformedLinesWithTheirLineNumber)
{
    const struct
    {
        const char *text;
        const char *want;
    } kBad[] = {
        {"a = 1\nno equals here\n", "line 2: expected 'key = value'"},
        {"= 5\n", "line 1: expected 'key = value'"},
        {"\n\n[open\n", "line 3: unterminated section header"},
        {"name = \"duo\n", "line 1: unterminated string for 'name'"},
        {"q = \"\n", "line 1: unterminated string for 'q'"},
        {"[s]\nk = 1\n[t]\nk = 2\n[s]\nk = 3\n",
         "line 6: duplicate key 'k'"},
    };
    for (const auto &bad : kBad) {
        std::string err;
        lexAll(bad.text, err);
        EXPECT_EQ(err, bad.want) << bad.text;
    }
}

TEST(ConfigLexer, VisitorErrorsStopLexingAndCarryTheLine)
{
    int visited = 0;
    std::string err;
    EXPECT_FALSE(lexConfig(
        "a = 1\nb = 2\nc = 3\n",
        [&](const ConfigLine &l, std::string &e) {
            ++visited;
            if (l.key == "b") {
                e = "no b allowed";
                return false;
            }
            return true;
        },
        err));
    EXPECT_EQ(visited, 2);
    EXPECT_EQ(err, "line 2: no b allowed");
}

TEST(CheckedNumbers, UnsignedAcceptsOnlyDigitsWithinMax)
{
    std::uint64_t v = 7;
    EXPECT_TRUE(parseUInt("0", 10, v));
    EXPECT_EQ(v, 0u);
    EXPECT_TRUE(parseUInt("18446744073709551615", UINT64_MAX, v));
    EXPECT_EQ(v, UINT64_MAX);
    EXPECT_TRUE(parseUInt("65535", 65535, v));
    EXPECT_EQ(v, 65535u);
    v = 7;
    for (const char *bad : {"", "-1", "+5", " 5", "5 ", "12x", "0x10",
                            "1.0", "18446744073709551616"}) {
        EXPECT_FALSE(parseUInt(bad, UINT64_MAX, v)) << bad;
    }
    EXPECT_FALSE(parseUInt("65536", 65535, v));
    EXPECT_FALSE(parseUInt("4294967296", UINT32_MAX, v));
    EXPECT_FALSE(parseUInt("101", 100, v));
    EXPECT_FALSE(parseUInt("7", 1, v)); // a digit above a one-digit max
    EXPECT_EQ(v, 7u); // untouched by every failure
}

TEST(CheckedNumbers, DoubleAcceptsOnlyFiniteDecimals)
{
    double d = 0.0;
    EXPECT_TRUE(parseFiniteDouble("0.9", d));
    EXPECT_EQ(d, 0.9);
    EXPECT_TRUE(parseFiniteDouble("-1e-17", d));
    EXPECT_EQ(d, -1e-17);
    EXPECT_TRUE(parseFiniteDouble("1.23457e+06", d));
    EXPECT_EQ(d, 1.23457e+06);
    d = 4.0;
    for (const char *bad :
         {"", "nan", "inf", "-inf", "1e999", "1.5x", " 1", "1 ", "abc"}) {
        EXPECT_FALSE(parseFiniteDouble(bad, d)) << bad;
    }
    EXPECT_EQ(d, 4.0);
}

TEST(JsonEscape, EscapesQuotesBackslashesAndControlBytes)
{
    EXPECT_EQ(jsonEscape("a\"b\\c"), "a\\\"b\\\\c");
    EXPECT_EQ(jsonEscape("\n\r\t"), "\\n\\r\\t");
    EXPECT_EQ(jsonEscape(std::string("\x00\x01\x1f", 3)),
              "\\u0000\\u0001\\u001f");
    EXPECT_EQ(jsonEscape("\x7f\xc3\xa9"), "\x7f\xc3\xa9");
}
