#include "gpu/trace.hh"

#include <cstdio>

#include "gpu/gpu.hh"

namespace laperm {

DispatchTrace::DispatchTrace(Gpu &gpu)
{
    gpu.addDispatchHook(&DispatchTrace::hook, this);
}

void
DispatchTrace::hook(void *ctx, const ThreadBlock &tb)
{
    auto *self = static_cast<DispatchTrace *>(ctx);
    self->events_.push_back({tb.uid, tb.kernel ? tb.kernel->id : 0,
                             tb.tbIndex, tb.smx, tb.dispatchCycle,
                             tb.priority, tb.isDynamic,
                             tb.directParent});
}

bool
DispatchTrace::writeCsv(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "uid,kernel,tbIndex,smx,cycle,priority,dynamic,"
                    "parent\n");
    for (const DispatchEvent &e : events_) {
        std::fprintf(f, "%llu,%u,%u,%u,%llu,%u,%d,",
                     static_cast<unsigned long long>(e.uid), e.kernel,
                     e.tbIndex, e.smx,
                     static_cast<unsigned long long>(e.cycle),
                     e.priority, e.isDynamic ? 1 : 0);
        if (e.directParent == kNoTb)
            std::fprintf(f, "-\n");
        else
            std::fprintf(f, "%llu\n",
                         static_cast<unsigned long long>(e.directParent));
    }
    std::fclose(f);
    return true;
}

} // namespace laperm
