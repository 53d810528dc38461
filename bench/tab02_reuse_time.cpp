/**
 * @file
 * Paper Table II: the average DRAM reuse time (Treuse, seconds) per
 * workload, single-threaded vs 8 threads.
 *
 * Paper values for reference:
 *            nw    srad  backprop  kmeans   fmm
 *   1 thread 10.93  2.82   1.61     0.17    8.88
 *   8 threads 4.06  1.89   1.10     0.50    2.41
 *   memcached 0.09  pagerank 0.48  bfs 0.61  bc 0.56 (8 threads)
 */

#include "features/extractor.hh"
#include "harness.hh"

using namespace dfault;

int
main(int argc, char **argv)
{
    core::RunSession session(argc, argv);
    bench::banner("Table II", "average DRAM reuse time (seconds)");

    const auto &wparams = session.campaign().params().workload;

    std::printf("%-12s %12s %12s\n", "kernel", "1 thread",
                "8 threads");
    for (const char *kernel : {"nw", "srad", "backprop", "kmeans",
                               "fmm"}) {
        std::printf("%-12s", kernel);
        for (const int threads : {1, 8}) {
            const auto &profile = features::ProfileCache::instance().get(
                session.platform(), {kernel, threads, kernel}, wparams);
            std::printf(" %12.2f", profile.treuse);
        }
        std::printf("\n");
    }

    bench::rule();
    std::printf("%-12s %12s %12s\n", "kernel", "", "8 threads");
    for (const char *kernel : {"memcached", "pagerank", "bfs", "bc"}) {
        const auto &profile = features::ProfileCache::instance().get(
            session.platform(), {kernel, 8, kernel}, wparams);
        std::printf("%-12s %12s %12.2f\n", kernel, "",
                    profile.treuse);
    }
    return 0;
}
