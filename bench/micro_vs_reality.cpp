/**
 * @file
 * Paper §II-C quantified: can conventional retention profiling (the
 * random data-pattern micro-benchmark, RAIDR/AVATAR-style) predict the
 * rows where *real applications* manifest errors?
 *
 * The paper argues it cannot, in both directions: "real applications
 * may trigger errors in many more memory locations than the
 * conventional data pattern micro-benchmarks" (unsafe), while also
 * being "too pessimistic ... since real applications, such as
 * memcached, may trigger errors in fewer memory locations" (wasteful).
 */

#include "core/retention_profiler.hh"
#include "harness.hh"

using namespace dfault;

int
main(int argc, char **argv)
{
    core::RunSession session(argc, argv);
    bench::banner("Micro vs reality (paper §II-C)",
                  "retention profile from the random micro-benchmark "
                  "vs real apps' error rows");

    core::RetentionProfiler profiler(session.campaign());
    const Seconds eval_trefp = 2.283;

    // Profile the two extreme devices (weakest and strongest).
    const auto &devices = session.platform().devices();
    int weakest = 0, strongest = 0;
    for (int d = 0; d < static_cast<int>(devices.size()); ++d) {
        if (devices[d].retentionScale() <
            devices[weakest].retentionScale())
            weakest = d;
        if (devices[d].retentionScale() >
            devices[strongest].retentionScale())
            strongest = d;
    }

    for (const int device : {weakest, strongest}) {
        const auto id = session.platform().geometry().deviceAt(device);
        std::printf("\ndevice %s (retention scale %.2f):\n",
                    id.label().c_str(),
                    devices[device].retentionScale());
        const auto profile = profiler.profileDevice(device);
        std::printf("  profiled weak rows: %zu (plus %llu never "
                    "flagged)\n",
                    profile.firstFailingTrefp.size(),
                    static_cast<unsigned long long>(
                        profile.unflaggedRows));

        std::printf("  %-14s %10s %12s %12s %12s %12s\n", "workload",
                    "err rows", "missed", "miss%", "flagged-ok",
                    "false-alarm%");
        for (const workloads::WorkloadConfig &config :
             {workloads::WorkloadConfig{"backprop", 8,
                                        "backprop(par)"},
              workloads::WorkloadConfig{"srad", 8, "srad(par)"},
              workloads::WorkloadConfig{"memcached", 8, "memcached"},
              workloads::WorkloadConfig{"pagerank", 8, "pagerank"}}) {
            const auto mismatch = profiler.compare(profile, config,
                                                   eval_trefp, device);
            std::printf("  %-14s %10llu %12llu %11.1f%% %12llu "
                        "%11.1f%%\n",
                        config.label.c_str(),
                        static_cast<unsigned long long>(
                            mismatch.appErrorRows),
                        static_cast<unsigned long long>(
                            mismatch.missedByProfile),
                        100.0 * mismatch.missRate(),
                        static_cast<unsigned long long>(
                            mismatch.falseAlarms),
                        100.0 * mismatch.falseAlarmRate());
        }
    }

    bench::rule();
    std::printf(
        "reading: a nonzero 'miss%%' means a retention-class refresh "
        "schedule built\nfrom the micro-benchmark would under-refresh "
        "rows a real app corrupts (the\npaper's safety warning); a "
        "large 'false-alarm%%' means the schedule wastes\nrefresh "
        "energy on rows the app implicitly refreshes itself.\n");
    return 0;
}
