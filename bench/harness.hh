/**
 * @file
 * Shared helpers for the paper-reproduction benchmark binaries.
 *
 * Every bench binary regenerates one table or figure of the paper on
 * the full-scale simulated platform (16 MiB footprint, default caches).
 * Its main constructs a core::RunSession from argc/argv, which reads
 * the shared run keys (platform, telemetry, robustness; listed in
 * core/run_session.hh) and writes every artifact when it goes out of
 * scope. Reduced runs override them on the command line:
 *   footprint_mib=8 work_scale=0.5 epochs=60 repeats=5
 */

#ifndef DFAULT_BENCH_HARNESS_HH
#define DFAULT_BENCH_HARNESS_HH

#include <cstdio>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/logging.hh"
#include "core/characterization.hh"
#include "core/dataset_builder.hh"
#include "core/error_model.hh"
#include "core/report.hh"
#include "core/run_session.hh"
#include "core/trainer.hh"
#include "par/cancel.hh"
#include "workloads/registry.hh"

namespace dfault::bench {

/** Repeats for PUE experiments (paper: 10). */
inline int
repeats(const Config &config)
{
    return static_cast<int>(config.getIntIn("repeats", 10, 1, 1000000));
}

/** Print a horizontal rule sized to the preceding header. */
inline void
rule(int width = 78)
{
    for (int i = 0; i < width; ++i)
        std::putchar('-');
    std::putchar('\n');
}

/** Section banner naming the paper artifact being regenerated. */
inline void
banner(const std::string &artifact, const std::string &description)
{
    rule();
    std::printf("%s  --  %s\n", artifact.c_str(), description.c_str());
    rule();
}

} // namespace dfault::bench

#endif // DFAULT_BENCH_HARNESS_HH
