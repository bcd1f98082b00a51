#include "tools/lint_layering.hh"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string_view>

#include "common/text.hh"

namespace laperm {
namespace simlint {

bool
LayerSpec::sameGroup(const std::string &a, const std::string &b) const
{
    auto ga = groupOf.find(a);
    auto gb = groupOf.find(b);
    return ga != groupOf.end() && gb != groupOf.end() &&
           ga->second == gb->second;
}

bool
LayerSpec::allows(const std::string &from, const std::string &to) const
{
    if (from == to || sameGroup(from, to))
        return true;
    auto it = deps.find(from);
    if (it == deps.end())
        return false;
    return std::binary_search(it->second.begin(), it->second.end(), to);
}

namespace {

/** Split a `["a", "b"]` list value into its quoted items. */
bool
parseList(std::string_view v, std::vector<std::string> &items)
{
    items.clear();
    if (v.size() < 2 || v.front() != '[' || v.back() != ']')
        return false;
    v = trim(v.substr(1, v.size() - 2));
    while (!v.empty()) {
        const std::size_t comma = v.find(',');
        const std::string_view item = trim(v.substr(0, comma));
        if (item.size() < 3 || item.front() != '"' || item.back() != '"' ||
            item.find('"', 1) != item.size() - 1) {
            return false;
        }
        items.emplace_back(item.substr(1, item.size() - 2));
        if (comma == std::string_view::npos)
            break;
        v = trim(v.substr(comma + 1));
    }
    return true;
}

/** Module and group names: [A-Za-z_][A-Za-z0-9_-]*. */
bool
validName(std::string_view k)
{
    if (k.empty() || std::isdigit(static_cast<unsigned char>(k[0])) ||
        k[0] == '-')
        return false;
    for (const char c : k) {
        if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
            c != '-')
            return false;
    }
    return true;
}

/** Node name after group collapsing. */
std::string
collapse(const LayerSpec &spec, const std::string &module)
{
    auto it = spec.groupOf.find(module);
    return it == spec.groupOf.end() ? module : "group:" + it->second;
}

/** DFS cycle detection over the group-collapsed declared graph. */
bool
findCycle(const std::map<std::string, std::set<std::string>> &adj,
          std::string &cycleNode)
{
    // 0 = unvisited, 1 = on stack, 2 = done.
    std::map<std::string, int> state;
    // Iterative DFS, deterministic order (std::map iteration).
    for (const auto &kv : adj) {
        if (state[kv.first] != 0)
            continue;
        std::vector<std::pair<std::string, bool>> stack;
        stack.push_back({kv.first, false});
        while (!stack.empty()) {
            auto [node, leaving] = stack.back();
            stack.pop_back();
            if (leaving) {
                state[node] = 2;
                continue;
            }
            if (state[node] == 1)
                continue;
            state[node] = 1;
            stack.push_back({node, true});
            auto ait = adj.find(node);
            if (ait == adj.end())
                continue;
            for (const auto &next : ait->second) {
                if (state[next] == 1) {
                    cycleNode = next;
                    return true;
                }
                if (state[next] == 0)
                    stack.push_back({next, false});
            }
        }
    }
    return false;
}

} // namespace

bool
parseLayerSpec(const std::string &text, LayerSpec &spec, std::string &err)
{
    spec = LayerSpec{};
    auto visit = [&](const ConfigLine &l, std::string &e) {
        if (l.header) {
            if (l.section == "layers" || l.section == "groups")
                return true;
            e = "unknown section [" + std::string(l.section) + "]";
            return false;
        }
        const std::string name(l.key);
        std::vector<std::string> items;
        if (!validName(name) || !parseList(l.value, items)) {
            e = "expected `name = [\"dep\", ...]`, got: " + name + " = " +
                std::string(l.value);
            return false;
        }
        if (l.section == "layers") {
            std::sort(items.begin(), items.end());
            spec.deps[name] = items;
        } else if (l.section == "groups") {
            for (const auto &m : items) {
                if (!spec.groupOf.emplace(m, name).second) {
                    e = "module " + m + " in two groups";
                    return false;
                }
            }
        } else {
            e = "entry outside [layers]/[groups]";
            return false;
        }
        return true;
    };
    if (!lexConfig(text, visit, err)) {
        err = "layering spec " + err;
        return false;
    }
    if (spec.deps.empty()) {
        err = "layering spec declares no modules";
        return false;
    }

    // Validation: deps and groups name declared modules.
    for (const auto &kv : spec.deps) {
        for (const auto &d : kv.second) {
            if (!spec.declared(d)) {
                err = "layering spec: module " + kv.first +
                      " depends on undeclared module " + d;
                return false;
            }
        }
    }
    for (const auto &kv : spec.groupOf) {
        if (!spec.declared(kv.first)) {
            err = "layering spec: group " + kv.second +
                  " names undeclared module " + kv.first;
            return false;
        }
    }

    // The declared graph, collapsed over groups, must be a DAG.
    std::map<std::string, std::set<std::string>> adj;
    for (const auto &kv : spec.deps) {
        const std::string from = collapse(spec, kv.first);
        adj[from]; // ensure node exists
        for (const auto &d : kv.second) {
            const std::string to = collapse(spec, d);
            if (from != to)
                adj[from].insert(to);
        }
    }
    std::string cycleNode;
    if (findCycle(adj, cycleNode)) {
        err = "layering spec: declared dependency graph has a cycle "
              "through " +
              cycleNode;
        return false;
    }
    return true;
}

bool
loadLayerSpec(const std::string &path, LayerSpec &spec, std::string &err)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        err = "cannot read layering spec " + path;
        return false;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    return parseLayerSpec(ss.str(), spec, err);
}

std::string
moduleOfPath(const std::string &path, const LayerSpec &spec)
{
    std::string module;
    std::string cur;
    auto consider = [&](const std::string &part) {
        if (spec.declared(part))
            module = part; // keep the last declared component
    };
    for (char c : path) {
        if (c == '/' || c == '\\') {
            if (!cur.empty())
                consider(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    // The final component is the filename, never a module.
    return module;
}

std::vector<Finding>
lintLayering(const std::string &path, const std::string &content,
             const LayerSpec &spec)
{
    std::vector<Finding> findings;
    const std::string module = moduleOfPath(path, spec);

    // Files under a src/ tree must belong to a declared module; other
    // locations (fixtures, tests) are only checked edge-wise.
    if (module.empty()) {
        if (path.find("src/") != std::string::npos ||
            path.find("src\\") != std::string::npos) {
            findings.push_back(Finding{
                path, 1, Rule::Layering,
                "file belongs to no module declared in the layering "
                "spec; add its directory to layering.toml [layers]"});
        }
        return findings;
    }

    static const std::regex inc(R"(^\s*#\s*include\s*"([^"]+)\")");
    // stripComments, not the full strip: include paths ARE string
    // literals and must survive, while a commented-out #include must
    // not fire.
    const std::vector<std::string> lines =
        splitLines(stripComments(content));
    for (std::size_t i = 0; i < lines.size(); ++i) {
        std::smatch m;
        if (!std::regex_search(lines[i], m, inc))
            continue;
        const std::string target = m[1].str();
        const std::size_t slash = target.find('/');
        if (slash == std::string::npos)
            continue; // generated/relative header, out of scope
        // Resolve the include target exactly like the including file:
        // the LAST declared directory component wins, so a nested
        // module ("serve/transport/endpoint.hh") maps to its sublayer,
        // not the umbrella directory — sublayer edges are enforced.
        const std::string targetModule = moduleOfPath(target, spec);
        if (targetModule.empty()) {
            findings.push_back(Finding{
                path, i + 1, Rule::Layering,
                "include \"" + target + "\" targets module '" +
                    target.substr(0, slash) +
                    "' which the layering spec does not declare"});
            continue;
        }
        if (!spec.allows(module, targetModule)) {
            findings.push_back(Finding{
                path, i + 1, Rule::Layering,
                "include \"" + target + "\" violates the layering "
                "spec: module '" + module + "' may not depend on '" +
                    targetModule + "' (layering.toml)"});
        }
    }
    return findings;
}

} // namespace simlint
} // namespace laperm
