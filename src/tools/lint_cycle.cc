#include "tools/lint_cycle.hh"

#include <algorithm>
#include <cctype>
#include <regex>
#include <set>

namespace laperm {
namespace simlint {

bool
isCycleName(const std::string &name)
{
    auto endsWith = [&](const char *suffix) {
        const std::size_t n = std::string(suffix).size();
        return name.size() >= n &&
               name.compare(name.size() - n, n, suffix) == 0;
    };
    if (name == "cycle" || name == "cycles" || name == "now" ||
        name == "cycle_" || name == "cycles_" || name == "now_" ||
        name == "deadline" || name == "deadline_") {
        return true;
    }
    // Deadline naming convention: readyAt, nextEventAt, queuedAt,
    // l2BankFreeAt_, dispatchCycle, maxCycles, ...
    return endsWith("Cycle") || endsWith("Cycles") ||
           endsWith("Cycle_") || endsWith("Cycles_") ||
           endsWith("At") || endsWith("At_");
}

namespace {

struct Ident
{
    std::size_t begin;
    std::size_t end; ///< one past
    std::string name;
};

std::vector<Ident>
identifiers(const std::string &line)
{
    std::vector<Ident> out;
    std::size_t i = 0;
    while (i < line.size()) {
        char c = line[i];
        if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
            std::size_t b = i;
            while (i < line.size() &&
                   (std::isalnum(static_cast<unsigned char>(line[i])) ||
                    line[i] == '_')) {
                ++i;
            }
            out.push_back(Ident{b, i, line.substr(b, i - b)});
        } else {
            ++i;
        }
    }
    return out;
}

/** Substring of @p s from the '(' at @p open to its balanced close. */
std::string
balancedParens(const std::string &s, std::size_t open)
{
    if (open >= s.size() || s[open] != '(')
        return "";
    int depth = 0;
    for (std::size_t i = open; i < s.size(); ++i) {
        if (s[i] == '(')
            ++depth;
        else if (s[i] == ')' && --depth == 0)
            return s.substr(open + 1, i - open - 1);
    }
    return s.substr(open + 1); // unbalanced (multi-line): take the rest
}

bool
isFloatType(const std::string &t)
{
    return t == "double" || t == "float" || t == "long double";
}

bool
isNarrowIntType(const std::string &t)
{
    static const std::set<std::string> narrow = {
        "int",           "short",          "unsigned",
        "unsigned int",  "unsigned short", "int8_t",
        "int16_t",       "int32_t",        "uint8_t",
        "uint16_t",      "uint32_t",       "std::int8_t",
        "std::int16_t",  "std::int32_t",   "std::uint8_t",
        "std::uint16_t", "std::uint32_t",  "char",
        "unsigned char", "signed char",
    };
    return narrow.count(t) != 0;
}

bool
isSigned64Type(const std::string &t)
{
    static const std::set<std::string> s64 = {
        "long",         "long long",   "int64_t",
        "std::int64_t", "ptrdiff_t",   "std::ptrdiff_t",
        "ssize_t",
    };
    return s64.count(t) != 0;
}

/**
 * True when the identifier ending at @p end is immediately followed
 * (modulo whitespace) by a member access or call — `bankFreeAt_.size()`
 * yields a count, `cycles.end()` an iterator: the *member's* value, not
 * the cycle-named object, so the cycle heuristics must not trigger.
 */
bool
memberAccessFollows(const std::string &s, std::size_t end)
{
    while (end < s.size() &&
           std::isspace(static_cast<unsigned char>(s[end]))) {
        ++end;
    }
    if (end >= s.size())
        return false;
    if (s[end] == '.' || s[end] == '(')
        return true;
    return s[end] == '-' && end + 1 < s.size() && s[end + 1] == '>';
}

bool
containsCycleIdent(const std::string &expr,
                   const std::set<std::string> &cycleIdents)
{
    for (const Ident &id : identifiers(expr)) {
        if (memberAccessFollows(expr, id.end))
            continue;
        if (cycleIdents.count(id.name) || isCycleName(id.name))
            return true;
    }
    return false;
}

} // namespace

std::vector<Finding>
lintCycleSafety(const std::string &path, const std::string &content)
{
    std::vector<Finding> findings;
    if (!classifyPath(path).restricted)
        return findings;

    const std::vector<std::string> lines =
        splitLines(stripCommentsAndStrings(content));

    // Identifiers declared with type Cycle anywhere in the file.
    std::set<std::string> cycleIdents;
    // Identifiers declared with a *signed* integer type.
    std::set<std::string> signedIdents;
    {
        static const std::regex cycleDecl(
            R"(\bCycle\b\s*(?:const\b\s*)?[&*]?\s*([A-Za-z_]\w*))");
        static const std::regex signedDecl(
            R"(\b(int|short|long long|long|int8_t|int16_t|int32_t|int64_t|std::int8_t|std::int16_t|std::int32_t|std::int64_t|ptrdiff_t|ssize_t)\s+([A-Za-z_]\w*))");
        for (const std::string &l : lines) {
            for (auto it = std::sregex_iterator(l.begin(), l.end(),
                                                cycleDecl);
                 it != std::sregex_iterator(); ++it) {
                const std::string name = (*it)[1].str();
                if (name != "const")
                    cycleIdents.insert(name);
            }
            for (auto it = std::sregex_iterator(l.begin(), l.end(),
                                                signedDecl);
                 it != std::sregex_iterator(); ++it) {
                // Reject `unsigned int x` / `unsigned long y`: check
                // the token immediately before the match.
                const std::size_t pos =
                    static_cast<std::size_t>(it->position(0));
                const std::string before = l.substr(0, pos);
                static const std::regex unsignedTail(
                    R"((?:unsigned|std::u\w*)\s*$)");
                if (std::regex_search(before, unsignedTail))
                    continue;
                const std::string name = (*it)[2].str();
                if (!isCycleName(name) && !cycleIdents.count(name))
                    signedIdents.insert(name);
            }
        }
    }

    auto isCycle = [&](const std::string &name) {
        return cycleIdents.count(name) != 0 || isCycleName(name);
    };

    for (std::size_t i = 0; i < lines.size(); ++i) {
        const std::string &l = lines[i];
        std::set<Rule> flagged; // one finding per rule per line
        auto flag = [&](Rule rule, const std::string &msg) {
            if (flagged.insert(rule).second)
                findings.push_back(Finding{path, i + 1, rule, msg});
        };

        // --- casts: static_cast<T>(expr with cycle ident) ----------
        {
            static const std::regex cast(R"(static_cast\s*<([^<>]*)>)");
            for (auto it = std::sregex_iterator(l.begin(), l.end(), cast);
                 it != std::sregex_iterator(); ++it) {
                const std::string type = squeeze((*it)[1].str());
                const std::size_t after = static_cast<std::size_t>(
                    it->position(0) + it->length(0));
                const std::size_t open = l.find('(', after);
                if (open == std::string::npos)
                    continue;
                const std::string arg = balancedParens(l, open);
                if (!containsCycleIdent(arg, cycleIdents))
                    continue;
                if (isFloatType(type)) {
                    flag(Rule::CycleFloat,
                         "cycle quantity cast to " + type +
                             ": simulated time must stay integer "
                             "(Cycle) end-to-end; justify reporting-"
                             "only conversions with an "
                             "allow(cycle-float) waiver");
                } else if (isNarrowIntType(type)) {
                    flag(Rule::CycleNarrow,
                         "cycle quantity narrowed to " + type +
                             ": wraps after ~4G cycles; keep deadlines "
                             "in Cycle (uint64)");
                } else if (isSigned64Type(type)) {
                    flag(Rule::CycleSign,
                         "cycle quantity cast to signed " + type +
                             ": signed/unsigned mixing on timing "
                             "invites wraparound on subtraction");
                }
            }
        }

        // --- C casts: (double)x, (uint32_t)x ------------------------
        {
            static const std::regex ccast(
                R"(\(\s*((?:std::)?[a-z_][\w: ]*?)\s*\)\s*([A-Za-z_]\w*))");
            for (auto it = std::sregex_iterator(l.begin(), l.end(), ccast);
                 it != std::sregex_iterator(); ++it) {
                const std::string type = squeeze((*it)[1].str());
                const std::string name = (*it)[2].str();
                if (!isCycle(name))
                    continue;
                if (isFloatType(type)) {
                    flag(Rule::CycleFloat,
                         "cycle quantity C-cast to " + type +
                             "; simulated time must stay integer");
                } else if (isNarrowIntType(type)) {
                    flag(Rule::CycleNarrow,
                         "cycle quantity C-cast to " + type +
                             " wraps after ~4G cycles");
                } else if (isSigned64Type(type)) {
                    flag(Rule::CycleSign,
                         "cycle quantity C-cast to signed " + type);
                }
            }
        }

        // --- float decl/param initialized from a cycle --------------
        {
            static const std::regex fpInit(
                R"(\b(?:double|float)\s+\w+\s*=([^;]*))");
            std::smatch m;
            if (std::regex_search(l, m, fpInit) &&
                containsCycleIdent(m[1].str(), cycleIdents)) {
                flag(Rule::CycleFloat,
                     "float/double initialized from a cycle quantity; "
                     "simulated time must stay integer (Cycle)");
            }
        }

        // --- arithmetic with a floating literal ---------------------
        // --- or with an identifier declared signed ------------------
        {
            static const std::regex binop(
                R"(([A-Za-z_]\w*|\d+\.\d*[fF]?)\s*(==|!=|<=|>=|[-+*/%<>])\s*([A-Za-z_]\w*|\d+\.\d*[fF]?))");
            auto isFpLit = [](const std::string &s) {
                return !s.empty() &&
                       std::isdigit(static_cast<unsigned char>(s[0])) &&
                       s.find('.') != std::string::npos;
            };
            for (auto it = std::sregex_iterator(l.begin(), l.end(), binop);
                 it != std::sregex_iterator(); ++it) {
                const std::string lhs = (*it)[1].str();
                const std::string op = (*it)[2].str();
                const std::string rhs = (*it)[3].str();
                const bool lhsObj = memberAccessFollows(
                    l, static_cast<std::size_t>(it->position(1) +
                                                it->length(1)));
                const bool rhsObj = memberAccessFollows(
                    l, static_cast<std::size_t>(it->position(3) +
                                                it->length(3)));
                const bool lhsCyc =
                    !lhsObj && !isFpLit(lhs) && isCycle(lhs);
                const bool rhsCyc =
                    !rhsObj && !isFpLit(rhs) && isCycle(rhs);
                if (!lhsCyc && !rhsCyc)
                    continue;
                // Template brackets masquerade as comparisons; a
                // type-name operand means this is not arithmetic.
                if ((op == "<" || op == ">") &&
                    (lhs == "Cycle" || rhs == "Cycle"))
                    continue;
                if ((lhsCyc && isFpLit(rhs)) || (rhsCyc && isFpLit(lhs))) {
                    flag(Rule::CycleFloat,
                         "floating-point arithmetic on a cycle "
                         "quantity (" + (lhsCyc ? lhs : rhs) + " " + op +
                             " literal); simulated time must stay "
                             "integer");
                } else if ((lhsCyc && !rhsObj && signedIdents.count(rhs)) ||
                           (rhsCyc && !lhsObj && signedIdents.count(lhs))) {
                    flag(Rule::CycleSign,
                         "cycle quantity mixed with signed identifier "
                         "'" + (lhsCyc ? rhs : lhs) +
                             "' in '" + op +
                             "': signed/unsigned conversion on timing");
                }
            }
        }

        // --- math library calls on cycle quantities -----------------
        {
            static const std::regex mathCall(
                R"(\b(?:std::)?(pow|sqrt|floor|ceil|round|lround|exp|log|log2|fabs)\s*\()");
            for (auto it =
                     std::sregex_iterator(l.begin(), l.end(), mathCall);
                 it != std::sregex_iterator(); ++it) {
                const std::size_t open = static_cast<std::size_t>(
                    it->position(0) + it->length(0) - 1);
                if (containsCycleIdent(balancedParens(l, open),
                                       cycleIdents)) {
                    flag(Rule::CycleFloat,
                         "math-library call on a cycle quantity "
                         "returns floating point; simulated time must "
                         "stay integer");
                }
            }
        }
    }
    return findings;
}

} // namespace simlint
} // namespace laperm
