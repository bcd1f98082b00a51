#include "kernels/trace_cache.hh"

namespace laperm {

std::size_t
TraceCache::KeyHash::operator()(const Key &k) const
{
    std::uint64_t h = reinterpret_cast<std::uintptr_t>(k.program);
    h = h * 0x9e3779b97f4a7c15ull + k.tbIndex;
    h = h * 0x9e3779b97f4a7c15ull + k.threadsPerTb;
    h = h * 0x9e3779b97f4a7c15ull + k.numTbs;
    return static_cast<std::size_t>(h ^ (h >> 29));
}

std::shared_ptr<const TbTrace>
TraceCache::get(const std::shared_ptr<const KernelProgram> &program,
                std::uint32_t tb_index, std::uint32_t threads_per_tb,
                std::uint32_t num_tbs,
                std::vector<ThreadCtx> &thread_scratch)
{
    const Key key{program.get(), tb_index, threads_per_tb, num_tbs};
    std::unique_lock<std::mutex> lock(mu_);
    Entry *entry = nullptr;
    // Either claim the key or wait for its builder. A failed build
    // erases the entry, so its waiters come round and claim it.
    for (;;) {
        auto [it, inserted] = entries_.try_emplace(key);
        if (inserted) {
            // Map nodes are stable across rehashing, so the entry may
            // be held while the lock is dropped.
            entry = &it->second;
            entry->program = program;
            break;
        }
        if (it->second.trace)
            return it->second.trace;
        built_.wait(lock);
    }
    lock.unlock();

    std::shared_ptr<const TbTrace> trace;
    try {
        trace = TbTrace::build(*program, tb_index, threads_per_tb,
                               num_tbs, thread_scratch);
    } catch (...) {
        lock.lock();
        entries_.erase(key);
        lock.unlock();
        built_.notify_all();
        throw;
    }

    lock.lock();
    entry->trace = trace;
    ++builds_;
    lock.unlock();
    built_.notify_all();
    return trace;
}

std::uint64_t
TraceCache::builds() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return builds_;
}

} // namespace laperm
