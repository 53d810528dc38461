#include "sys/execution.hh"

#include <algorithm>
#include <string>

#include "common/logging.hh"
#include "obs/stats.hh"

namespace dfault::sys {

ExecutionContext::ExecutionContext(mem::MemoryHierarchy &hierarchy,
                                   trace::InstrumentationBus &bus)
    : ExecutionContext(hierarchy, bus, Params{})
{
}

ExecutionContext::ExecutionContext(mem::MemoryHierarchy &hierarchy,
                                   trace::InstrumentationBus &bus,
                                   const Params &params)
    : hierarchy_(hierarchy), bus_(bus), params_(params)
{
    if (params_.threads <= 0)
        DFAULT_FATAL("execution: thread count must be positive");
    if (params_.memoryLevelParallelism < 1.0)
        DFAULT_FATAL("execution: MLP must be >= 1");
    cores_.resize(params_.threads);
}

Addr
ExecutionContext::allocate(std::uint64_t bytes)
{
    constexpr std::uint64_t align = 64;
    const std::uint64_t aligned = (bytes + align - 1) & ~(align - 1);
    if (brk_ + aligned > hierarchy_.geometry().capacityBytes())
        DFAULT_FATAL("workload footprint exceeds DRAM capacity: need ",
                     brk_ + aligned, " of ",
                     hierarchy_.geometry().capacityBytes(), " bytes");
    const Addr base = brk_;
    brk_ += aligned;
    backing_.resize(brk_ / units::bytesPerWord, 0);
    return base;
}

void
ExecutionContext::compute(int thread, std::uint64_t ops)
{
    CoreStats &c = core(thread);
    c.instructions += ops;
    c.intOps += ops;
    c.cycles += ops;
    globalInstr_ += ops;
}

void
ExecutionContext::computeFp(int thread, std::uint64_t ops)
{
    CoreStats &c = core(thread);
    c.instructions += ops;
    c.fpOps += ops;
    c.cycles += ops;
    globalInstr_ += ops;
}

void
ExecutionContext::branch(int thread, bool mispredicted)
{
    CoreStats &c = core(thread);
    ++c.instructions;
    ++c.branches;
    ++c.cycles;
    ++globalInstr_;
    if (mispredicted) {
        ++c.branchMisses;
        c.cycles += params_.branchMissPenalty;
    }
}

const CoreStats &
ExecutionContext::coreStats(int thread) const
{
    DFAULT_ASSERT(thread >= 0 && thread < params_.threads,
                  "thread id out of range");
    return cores_[thread];
}

CoreStats
ExecutionContext::totalStats() const
{
    CoreStats total;
    for (const auto &c : cores_) {
        total.cycles += c.cycles;
        total.instructions += c.instructions;
        total.intOps += c.intOps;
        total.fpOps += c.fpOps;
        total.loads += c.loads;
        total.stores += c.stores;
        total.branches += c.branches;
        total.branchMisses += c.branchMisses;
        total.waitCycles += c.waitCycles;
    }
    return total;
}

Cycles
ExecutionContext::wallCycles() const
{
    Cycles wall = 0;
    for (const auto &c : cores_)
        wall = std::max(wall, c.cycles);
    return wall;
}

Seconds
ExecutionContext::wallSeconds() const
{
    return static_cast<double>(wallCycles()) * params_.timeDilation /
           params_.clockHz;
}

double
ExecutionContext::cpi() const
{
    const CoreStats total = totalStats();
    if (total.instructions == 0)
        return 0.0;
    return static_cast<double>(total.cycles) /
           static_cast<double>(total.instructions);
}

void
ExecutionContext::publishStats() const
{
    auto &reg = obs::Registry::instance();
    for (int t = 0; t < params_.threads; ++t) {
        const CoreStats &c = cores_[static_cast<std::size_t>(t)];
        const std::string p = "platform.core." + std::to_string(t) + ".";
        reg.counter(p + "instructions", "dynamic instructions executed")
            .inc(c.instructions);
        reg.counter(p + "cycles", "core cycles consumed")
            .inc(c.cycles);
        reg.counter(p + "loads", "load instructions").inc(c.loads);
        reg.counter(p + "stores", "store instructions").inc(c.stores);
        reg.counter(p + "branches", "branch instructions")
            .inc(c.branches);
        reg.counter(p + "branch_misses", "mispredicted branches")
            .inc(c.branchMisses);
        reg.counter(p + "wait_cycles", "cycles stalled on memory")
            .inc(c.waitCycles);
    }
    const CoreStats total = totalStats();
    reg.counter("platform.exec.instructions",
                "dynamic instructions, all threads")
        .inc(total.instructions);
    reg.counter("platform.exec.cycles", "core cycles, all threads")
        .inc(total.cycles);
    reg.counter("platform.exec.wall_cycles",
                "wall-clock cycles (max over threads)")
        .inc(wallCycles());
    reg.gauge("platform.exec.last_cpi", "CPI of the last published run")
        .set(cpi());
    reg.gauge("platform.exec.last_wall_seconds",
              "dilated wall seconds of the last published run")
        .set(wallSeconds());
    hierarchy_.publishStats();
}

double
ExecutionContext::wallSecondsPerInstruction() const
{
    const std::uint64_t instr = totalStats().instructions;
    if (instr == 0)
        return 0.0;
    return wallSeconds() / static_cast<double>(instr);
}

} // namespace dfault::sys
