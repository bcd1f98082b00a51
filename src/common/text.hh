/**
 * @file
 * The one text grammar every hand-written input format shares
 * (DESIGN.md §13.6): a line lexer for the TOML subset of machine
 * configs, tenant mixes and layering.toml; checked number parsing for
 * config values, CLI flags, environment variables, wire fields and
 * cache records; and the JSON string escaper of every JSON writer.
 *
 * Config grammar (each format adds its own section/key/value rules):
 *
 *   file     := line*
 *   line     := ws (section | entry)? ws comment?
 *   section  := "[" ws name ws "]"
 *   entry    := key ws "=" ws value
 *   value    := '"' chars '"' | chars    ; one quote layer is stripped
 *   comment  := "#" .*                   ; values never contain '#'
 *
 * Numbers are `[0-9]+` within a caller-supplied maximum (no sign, no
 * whitespace, no trailing junk, no wrap), or a finite decimal double.
 */

#ifndef LAPERM_COMMON_TEXT_HH
#define LAPERM_COMMON_TEXT_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace laperm {

/** @p s without leading and trailing whitespace. */
std::string_view trim(std::string_view s);

/**
 * Parse `[0-9]+` with value <= @p max into @p out. Anything else —
 * empty, sign, whitespace, junk, overflow — is false and leaves @p out
 * untouched.
 */
bool parseUInt(std::string_view s, std::uint64_t max, std::uint64_t &out);

/**
 * Parse a finite decimal double (fixed or exponent notation, optional
 * leading '-') consuming all of @p s; false leaves @p out untouched.
 */
bool parseFiniteDouble(std::string_view s, double &out);

/**
 * Environment variable @p name as a count in [1, @p max]; @p fallback
 * when it is unset, zero or malformed.
 */
std::uint64_t envCount(const char *name, std::uint64_t max,
                       std::uint64_t fallback);

/**
 * Escape @p s for a JSON string literal: '"', '\\' and every byte
 * below 0x20 (\n, \r, \t by name, the rest as \u00XX). Other bytes
 * pass through unchanged.
 */
std::string jsonEscape(std::string_view s);

/**
 * One spelling of an enumerator. A table of these is an enum's one
 * parser and one name function: names match exactly (case included),
 * and the first entry for a value is its name, so an alias follows
 * the entry it aliases.
 */
template <typename E>
struct EnumName
{
    const char *name;
    E value;
};

/** Look @p s up in @p names; false leaves @p out untouched. */
template <typename E, std::size_t N>
bool
parseEnum(const EnumName<E> (&names)[N], std::string_view s, E &out)
{
    for (const EnumName<E> &n : names) {
        if (s == n.name) {
            out = n.value;
            return true;
        }
    }
    return false;
}

/** The first name @p names gives @p value ("?" if none). */
template <typename E, std::size_t N>
const char *
enumName(const EnumName<E> (&names)[N], E value)
{
    for (const EnumName<E> &n : names) {
        if (n.value == value)
            return n.name;
    }
    return "?";
}

/** One non-blank config line, as handed to a ConfigVisitor. */
struct ConfigLine
{
    int line = 0;             ///< 1-based line number
    std::string_view section; ///< current section; "" before any header
    bool header = false;      ///< a "[section]" line; key/value empty
    std::string_view key;
    std::string_view value;   ///< one layer of double quotes stripped
};

/** Called per line; false with a message in the string stops lexing. */
using ConfigVisitor = std::function<bool(const ConfigLine &, std::string &)>;

/**
 * Lex @p text line by line, calling @p visit for every header and
 * entry in order. Rejects a line that is neither, an unterminated
 * header or quote, an empty key, and a key repeated within one section
 * name. Every error — the lexer's or the visitor's — is reported as
 * "line N: <message>" in @p err.
 */
bool lexConfig(std::string_view text, const ConfigVisitor &visit,
               std::string &err);

} // namespace laperm

#endif // LAPERM_COMMON_TEXT_HH
