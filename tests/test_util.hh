/**
 * @file
 * Shared helpers for the test suites: small GPU configurations, lambda
 * kernels, and a dispatch recorder.
 */

#ifndef LAPERM_TESTS_TEST_UTIL_HH
#define LAPERM_TESTS_TEST_UTIL_HH

#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gpu/gpu.hh"
#include "kernels/lambda_program.hh"
#include "sim/config.hh"

namespace laperm::test {

/** A small, fast device for unit tests. */
inline GpuConfig
tinyConfig()
{
    GpuConfig cfg;
    cfg.numSmx = 4;
    cfg.maxThreadsPerSmx = 256;
    cfg.maxTbsPerSmx = 4;
    cfg.regsPerSmx = 16384;
    cfg.smemPerSmx = 16 * 1024;
    cfg.l1Size = 4 * 1024;
    cfg.l1Assoc = 4;
    cfg.l2Size = 64 * 1024;
    cfg.l2Assoc = 8;
    cfg.kduEntries = 8;
    cfg.cdpLaunchLatency = 200;
    cfg.dtblLaunchLatency = 20;
    return cfg;
}

/** One recorded TB dispatch. */
struct DispatchRecord
{
    TbUid uid;
    std::uint32_t tbIndex;
    bool isDynamic;
    TbUid directParent;
    SmxId smx;
    Cycle cycle;
    std::uint32_t priority;
};

/** Captures every dispatch of a Gpu run via the dispatch hook. */
class DispatchRecorder
{
  public:
    explicit DispatchRecorder(Gpu &gpu)
    {
        gpu.addDispatchHook(&DispatchRecorder::hook, this);
    }

    static void
    hook(void *ctx, const ThreadBlock &tb)
    {
        auto *self = static_cast<DispatchRecorder *>(ctx);
        self->records.push_back({tb.uid, tb.tbIndex, tb.isDynamic,
                                 tb.directParent, tb.smx,
                                 tb.dispatchCycle, tb.priority});
    }

    const DispatchRecord *
    byUid(TbUid uid) const
    {
        for (const auto &r : records) {
            if (r.uid == uid)
                return &r;
        }
        return nullptr;
    }

    std::vector<DispatchRecord> records;
};

/** Set (or unset, with nullptr) an env var for one scope. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        if (const char *prev = std::getenv(name)) {
            had_ = true;
            prev_ = prev;
        }
        if (value)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }
    ~ScopedEnv()
    {
        if (had_)
            ::setenv(name_, prev_.c_str(), 1);
        else
            ::unsetenv(name_);
    }
    ScopedEnv(const ScopedEnv &) = delete;
    ScopedEnv &operator=(const ScopedEnv &) = delete;

  private:
    const char *name_;
    bool had_ = false;
    std::string prev_;
};

} // namespace laperm::test

#endif // LAPERM_TESTS_TEST_UTIL_HH
