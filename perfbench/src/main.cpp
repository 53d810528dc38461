/**
 * @file
 * dfault_perfbench: one process per benchmark run.
 *
 *   dfault_perfbench --workload <name> --seed <n> --seconds <s>
 *                    --trace <0|1> --expected <expected.json>
 *
 * Workloads: campaign_cold, campaign_warm, lobo_train, serve_fleet.
 * Untraced runs (--trace 0) report the end-to-end metrics; traced runs
 * report every per-layer metric and print each layer ledger. The last
 * line of stdout is the result object.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench.hh"
#include "common/logging.hh"
#include "par/pool.hh"

namespace {

using namespace perfbench;

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "dfault_perfbench: %s\nusage: dfault_perfbench --workload "
                 "<campaign_cold|campaign_warm|lobo_train|serve_fleet> "
                 "--seed <n> --seconds <s> --trace <0|1> --expected "
                 "<file>\n",
                 msg);
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + key).c_str());
        const std::string value = argv[++i];
        char *end = nullptr;
        if (key == "--workload") {
            opt.workload = value;
        } else if (key == "--seed") {
            opt.seed = std::strtoull(value.c_str(), &end, 10);
            if (*end != '\0')
                usage("--seed takes a non-negative integer");
        } else if (key == "--seconds") {
            opt.seconds = std::strtod(value.c_str(), &end);
            if (*end != '\0' || !(opt.seconds > 0) || opt.seconds > 3600)
                usage("--seconds takes a number in (0, 3600]");
        } else if (key == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            opt.trace = value == "1";
        } else if (key == "--expected") {
            opt.expectedPath = value;
        } else {
            usage(("unknown option " + key).c_str());
        }
    }
    if (opt.expectedPath.empty())
        usage("--expected is required");
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parse(argc, argv);
    int (*run)(const Options &, const Expectations &, Report &) = nullptr;
    if (opt.workload == "campaign_cold")
        run = runCampaignCold;
    else if (opt.workload == "campaign_warm")
        run = runCampaignWarm;
    else if (opt.workload == "lobo_train")
        run = runLoboTrain;
    else if (opt.workload == "serve_fleet")
        run = runServeFleet;
    else
        usage(("unknown workload " + opt.workload).c_str());

    const Expectations expected = Expectations::load(opt.expectedPath);
    dfault::detail::setQuiet(true);
    // A fixed pool whatever DFAULT_THREADS says.
    dfault::par::Pool::setGlobalThreads(kThreads);
    std::printf("workload %s seed %llu seconds %g trace %d: pool %d "
                "threads, nproc %u\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0, dfault::par::Pool::global().threads(),
                std::thread::hardware_concurrency());

    Report report;
    const int rc = run(opt, expected, report);
    if (report.attempted() == 0) {
        std::fprintf(stderr, "no operation attempted\n");
        return 1;
    }
    report.print();
    return rc;
}
