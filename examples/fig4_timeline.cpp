/**
 * @file
 * Figure 4 of the paper, reproduced and then traced: 8 parent TBs
 * (P0-P7) on a 4-SMX device holding one TB each; P2 launches children
 * C0-C1 and P4 launches C2-C5. For each scheduling policy it prints the
 * per-SMX dispatch order (compare with Figures 4(b) through 4(e)) and,
 * with a TraceCollector and LocalityTracker attached, writes the full
 * set of trace artifacts:
 *
 *   fig4_<policy>.trace.json     Chrome-trace timeline (open in
 *                                https://ui.perfetto.dev or
 *                                chrome://tracing)
 *   fig4_<policy>.intervals.tsv  per-interval dispatch/occupancy metrics
 *   fig4_<policy>.latency.tsv    launch-latency histogram (Sec. IV-D)
 *   fig4_<policy>.locality.tsv   cache-hit reuse-class attribution
 *
 * Run: ./fig4_timeline
 */

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/log.hh"
#include "gpu/gpu.hh"
#include "kernels/lambda_program.hh"
#include "obs/locality.hh"
#include "obs/trace_collector.hh"

using namespace laperm;

namespace {

/** The Figure 4 panel: each SMX's TBs in dispatch order. */
void
printDispatchTable(const std::vector<obs::TbEvent> &dispatches)
{
    // Children of P2 come first (C0, C1), then P4's (C2..C5).
    std::map<TbUid, std::string> names;
    std::map<SmxId, std::string> rows;
    for (const obs::TbEvent &tb : dispatches) {
        // Built with += rather than operator+ to dodge the GCC 12
        // -Wrestrict false positive on inlined std::string
        // concatenation (GCC PR105329).
        std::string label;
        if (!tb.isDynamic) {
            label += 'P';
            label += std::to_string(tb.tbIndex);
        } else {
            label += 'C';
            label += std::to_string(
                (names[tb.directParent] == "P2" ? 0 : 2) + tb.tbIndex);
        }
        names[tb.uid] = label;
        rows[tb.smx] += ' ';
        rows[tb.smx] += label;
    }
    for (const auto &[smx, row] : rows)
        std::printf("    SMX%u:%s\n", smx, row.c_str());
}

void
runPolicy(TbPolicy policy)
{
    GpuConfig cfg;
    cfg.numSmx = 4;
    cfg.maxThreadsPerSmx = 64;
    cfg.maxTbsPerSmx = 1;
    cfg.regsPerSmx = 16384;
    cfg.smemPerSmx = 16 * 1024;
    cfg.l1Size = 4 * 1024;
    cfg.l2Size = 64 * 1024;
    cfg.l2Assoc = 8;
    cfg.kduEntries = 8;
    cfg.dynParModel = DynParModel::DTBL;
    cfg.dtblLaunchLatency = 5;
    cfg.launchIssueCycles = 4;
    cfg.tbPolicy = policy;

    // Figure 4's launch shape plus memory traffic so the locality
    // attribution has something to classify: every child re-reads the
    // cache lines its parent TB wrote (the parent-line reuse LaPerm
    // schedules for). The two child groups share functionId 101, so
    // DTBL still coalesces them; each captures its parent's data base.
    auto make_child = [](std::uint32_t parent_ix) {
        return std::make_shared<LambdaProgram>(
            "child", 101, [parent_ix](ThreadCtx &c) {
                const Addr base = 0x10000 + 0x400 * parent_ix;
                for (int rep = 0; rep < 4; ++rep)
                    c.ld(base + 128 * (c.threadIndex() % 8));
                c.alu(200);
            });
    };
    auto child2 = make_child(2);
    auto child4 = make_child(4);
    auto parent = std::make_shared<LambdaProgram>(
        "parent", 100, [child2, child4](ThreadCtx &c) {
            const Addr base = 0x10000 + 0x400 * c.tbIndex();
            c.st(base + 128 * (c.threadIndex() % 8));
            if (c.threadIndex() == 0 && c.tbIndex() == 2)
                c.launch({child2, 2, 32});
            if (c.threadIndex() == 0 && c.tbIndex() == 4)
                c.launch({child4, 4, 32});
            c.alu(200);
        });

    Gpu gpu(cfg);
    obs::TraceCollector collector;
    gpu.observers().attach(&collector);
    obs::LocalityTracker locality(gpu.mem().numL1());
    gpu.setLocalityTracker(&locality);

    gpu.launchHostKernel({parent, 8, 32});
    gpu.runToIdle();

    const std::string base = std::string("fig4_") + toString(policy);
    collector.writeChromeTrace(base + ".trace.json");
    collector.writeIntervalTsv(base + ".intervals.tsv", 50);
    collector.writeLaunchLatencyTsv(base + ".latency.tsv");
    locality.writeTsv(base + ".locality.tsv");

    const auto lats = collector.launchLatencies();
    std::printf("--- %s: %llu cycles, %zu TBs, %zu launches, "
                "%zu steals\n",
                toString(policy),
                static_cast<unsigned long long>(gpu.stats().cycles),
                collector.retires().size(), lats.size(),
                collector.steals().size());
    printDispatchTable(collector.dispatches());
    for (const auto &ll : lats) {
        std::printf("    kernel %u%s: queued@%llu admitted@%llu "
                    "first-dispatch@%llu (queue %llu + dispatch %llu "
                    "cycles)\n",
                    ll.kernel, ll.coalesced ? " (coalesced)" : "",
                    static_cast<unsigned long long>(ll.queuedAt),
                    static_cast<unsigned long long>(ll.admittedAt),
                    static_cast<unsigned long long>(ll.firstDispatchAt),
                    static_cast<unsigned long long>(ll.queueCycles()),
                    static_cast<unsigned long long>(ll.dispatchCycles()));
    }
    std::printf("    artifacts: %s.{trace.json,intervals.tsv,"
                "latency.tsv,locality.tsv}\n\n",
                base.c_str());
}

} // namespace

int
main()
{
    setVerbose(false);
    std::printf("Figure 4: parent-child TB scheduling example\n"
                "(P2 launches C0-C1; P4 launches C2-C5). Load any "
                ".trace.json in https://ui.perfetto.dev to see the "
                "timeline.\n\n");
    runPolicy(TbPolicy::RR);           // Figure 4(b)
    runPolicy(TbPolicy::TbPri);        // Figure 4(c)
    runPolicy(TbPolicy::SmxBind);      // Figure 4(d)
    runPolicy(TbPolicy::AdaptiveBind); // Figure 4(e)
    return 0;
}
