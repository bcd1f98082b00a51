#include "sim/config.hh"

#include "common/log.hh"
#include "common/text.hh"

namespace laperm {

namespace {

constexpr EnumName<DynParModel> kModelNames[] = {
    {"cdp", DynParModel::CDP},
    {"dtbl", DynParModel::DTBL},
};

constexpr EnumName<TbPolicy> kPolicyNames[] = {
    {"rr", TbPolicy::RR},
    {"tbpri", TbPolicy::TbPri},
    {"smxbind", TbPolicy::SmxBind},
    {"adaptive", TbPolicy::AdaptiveBind},
    {"laperm", TbPolicy::AdaptiveBind},
};

constexpr EnumName<WarpPolicy> kWarpNames[] = {
    {"gto", WarpPolicy::GTO},
    {"lrr", WarpPolicy::LRR},
    {"tbaware", WarpPolicy::TbAware},
};

} // namespace

const char *
toString(DynParModel model)
{
    switch (model) {
      case DynParModel::CDP: return "CDP";
      case DynParModel::DTBL: return "DTBL";
    }
    return "?";
}

const char *
toString(TbPolicy policy)
{
    switch (policy) {
      case TbPolicy::RR: return "RR";
      case TbPolicy::TbPri: return "TB-Pri";
      case TbPolicy::SmxBind: return "SMX-Bind";
      case TbPolicy::AdaptiveBind: return "Adaptive-Bind";
    }
    return "?";
}

const char *
toString(WarpPolicy policy)
{
    switch (policy) {
      case WarpPolicy::GTO: return "GTO";
      case WarpPolicy::LRR: return "LRR";
      case WarpPolicy::TbAware: return "TB-aware";
    }
    return "?";
}

bool
parseModel(const std::string &s, DynParModel &out)
{
    return parseEnum(kModelNames, s, out);
}

bool
parsePolicy(const std::string &s, TbPolicy &out)
{
    return parseEnum(kPolicyNames, s, out);
}

bool
parseWarpPolicy(const std::string &s, WarpPolicy &out)
{
    return parseEnum(kWarpNames, s, out);
}

const char *
wireName(DynParModel model)
{
    return enumName(kModelNames, model);
}

const char *
wireName(TbPolicy policy)
{
    return enumName(kPolicyNames, policy);
}

const char *
wireName(WarpPolicy policy)
{
    return enumName(kWarpNames, policy);
}

std::uint32_t
GpuConfig::effectiveOnchipEntries() const
{
    // For CDP the number of on-chip priority-queue entries per SMX is
    // limited to the KDU entry count (Section IV-E).
    if (dynParModel == DynParModel::CDP)
        return std::min(onchipQueueEntries, kduEntries);
    return onchipQueueEntries;
}

std::string
GpuConfig::check() const
{
    if (numSmx == 0)
        return "numSmx must be > 0";
    if (maxThreadsPerSmx == 0 || maxThreadsPerSmx % kWarpSize != 0)
        return "maxThreadsPerSmx must be a multiple of the warp size";
    if (maxTbsPerSmx == 0)
        return "maxTbsPerSmx must be > 0";
    if (warpSchedulersPerSmx == 0)
        return "warpSchedulersPerSmx must be > 0";
    // A zero size is divisible by anything but yields a cache with no
    // sets, so it is rejected by name.
    if (l1Size == 0)
        return "L1 size must be > 0";
    if (l1Assoc == 0 || l1Size % (l1Assoc * kLineBytes) != 0)
        return logFormat("L1 size %u not divisible by assoc*line", l1Size);
    if (l2Size == 0)
        return "L2 size must be > 0";
    if (l2Assoc == 0 || l2Size % (l2Assoc * kLineBytes) != 0)
        return logFormat("L2 size %u not divisible by assoc*line", l2Size);
    if (l2Banks == 0)
        return "l2Banks must be > 0";
    if (dramChannels == 0 || dramBanksPerChannel == 0)
        return "dramChannels and dramBanksPerChannel must be > 0";
    if (kduEntries == 0)
        return "kduEntries must be > 0";
    if (maxPriorityLevels == 0)
        return "maxPriorityLevels must be >= 1";
    if (smxPerCluster == 0 || numSmx % smxPerCluster != 0)
        return "numSmx must be divisible by smxPerCluster";
    if (warpMlpWindow == 0)
        return "warpMlpWindow must be > 0";
    if (mshrTrimInterval == 0)
        return "mshrTrimInterval must be > 0";
    if (throttleHighMiss < 0.0 || throttleHighMiss > 1.0 ||
        throttleLowMiss < 0.0 || throttleLowMiss > 1.0 ||
        throttleLowMiss > throttleHighMiss) {
        return "throttle miss thresholds must satisfy "
               "0 <= low <= high <= 1";
    }
    return std::string();
}

void
GpuConfig::validate() const
{
    const std::string err = check();
    if (!err.empty())
        laperm_fatal("%s", err.c_str());
}

std::string
GpuConfig::summary() const
{
    return logFormat(
        "%u SMX, %u thr/SMX, %u TB/SMX, L1 %uKB, L2 %uKB, KDU %u, "
        "%s/%s, L=%u",
        numSmx, maxThreadsPerSmx, maxTbsPerSmx, l1Size / 1024,
        l2Size / 1024, kduEntries, toString(dynParModel),
        toString(tbPolicy), maxPriorityLevels);
}

} // namespace laperm
