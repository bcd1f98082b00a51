#include "mem/dram.hh"

#include <algorithm>

namespace laperm {

Dram::Dram(const GpuConfig &cfg)
    : latency_(cfg.dramLatency),
      serviceInterval_(cfg.dramServiceInterval),
      bankFreeAt_(cfg.dramChannels * cfg.dramBanksPerChannel, 0),
      bankMod_(bankFreeAt_.size())
{
}

std::uint32_t
Dram::bankIndex(Addr line) const
{
    // Line-interleaved across all banks; the shift mixes in higher bits
    // so strided access patterns do not pathologically collide.
    Addr n = line / kLineBytes;
    return static_cast<std::uint32_t>(bankMod_.mod(n ^ (n >> 7)));
}

Cycle
Dram::occupy(Addr line, Cycle arrival)
{
    Cycle &free_at = bankFreeAt_[bankIndex(line)];
    Cycle start = std::max(arrival, free_at);
    stats_.totalQueueCycles += start - arrival;
    free_at = start + serviceInterval_;
    return start;
}

Cycle
Dram::read(Addr line, Cycle arrival)
{
    ++stats_.reads;
    return occupy(line, arrival) + latency_;
}

void
Dram::write(Addr line, Cycle arrival)
{
    ++stats_.writes;
    occupy(line, arrival);
}

void
Dram::reset()
{
    std::fill(bankFreeAt_.begin(), bankFreeAt_.end(), 0);
    stats_ = DramStats{};
}

} // namespace laperm
