#include "workloads/workload.hh"

#include <algorithm>
#include <cctype>
#include <cstdlib>

#include "common/log.hh"
#include "common/text.hh"

namespace laperm {

namespace {

constexpr EnumName<Scale> kScaleNames[] = {
    {"tiny", Scale::Tiny},
    {"small", Scale::Small},
    {"full", Scale::Full},
    {"huge", Scale::Huge},
};

} // namespace

const char *
toString(Scale scale)
{
    return enumName(kScaleNames, scale);
}

bool
parseScale(const std::string &name, Scale &out)
{
    return parseEnum(kScaleNames, name, out);
}

Scale
scaleFromString(const std::string &name)
{
    std::string s = name;
    std::transform(s.begin(), s.end(), s.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    Scale scale = Scale::Small;
    if (!parseScale(s, scale))
        laperm_fatal("unknown scale '%s' (want tiny|small|full|huge)",
                     name.c_str());
    return scale;
}

void
WorkloadBase::setMemoryBase(Addr base)
{
    laperm_assert(waves_.empty() && mem_.regions().empty(),
                  "setMemoryBase must precede setup()");
    mem_ = BumpAllocator(base);
}

Scale
scaleFromEnv(Scale def)
{
    const char *env = std::getenv("LAPERM_SCALE");
    if (!env || !*env)
        return def;
    return scaleFromString(env);
}

} // namespace laperm
