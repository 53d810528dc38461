/**
 * @file
 * `dfault` — the command-line front end of the library, mirroring the
 * publicly released model of the paper.
 *
 * Subcommands:
 *   profile <kernel>        print the program features of a workload
 *   characterize <kernel>   run one characterization experiment
 *   sweep <out.csv>         run the full campaign, export the dataset
 *   report <out.csv>        WER table + per-device measurement CSV
 *   evaluate                LOBO accuracy of SVM/KNN/RDF on a sweep
 *   predict <kernel>        train on the standard suite, predict the
 *                           given workload's WER per device
 *
 * Every subcommand accepts the run keys of core::RunSession
 * (footprint_mib, work_scale, epochs, threads, stats_out, trace_events,
 * faults, checkpoint, slo, ...; see core/run_session.hh), each also
 * spelled as a flag: --stats-out=<path> is stats_out=<path> and
 * --progress is progress=true. The subcommands add their own keys:
 *   trefp_s=2.283 vdd_v=1.428 temp_c=50   operating point
 *   threads=8                             workload threads (also sizes
 *                                         the pool)
 *   input_set=1 model=knn                 predictor choice
 *
 * SIGINT/SIGTERM cancel the run cooperatively: in-flight work drains,
 * checkpoints flush, and every artifact is still written, with the
 * manifest marked "interrupted": true. A second signal exits
 * immediately. Exit code is 130 (SIGINT) / 143 (SIGTERM).
 */

#include <cstdio>
#include <iostream>

#include "common/config.hh"
#include "common/logging.hh"
#include "core/dataset_builder.hh"
#include "core/error_model.hh"
#include "core/report.hh"
#include "core/run_session.hh"
#include "core/trainer.hh"
#include "features/extractor.hh"
#include "ml/io.hh"
#include "par/cancel.hh"

using namespace dfault;

namespace {

dram::OperatingPoint
operatingPoint(const Config &config)
{
    dram::OperatingPoint op{config.getDouble("trefp_s", 2.283),
                            config.getDouble("vdd_v",
                                             dram::kMinVdd),
                            config.getDouble("temp_c", 50.0)};
    op.validate();
    return op;
}

workloads::WorkloadConfig
workloadConfig(const Config &config, const std::string &kernel)
{
    const int threads =
        static_cast<int>(config.getIntIn("threads", 8, 1, 4096));
    return {kernel, threads,
            threads == 1 ? kernel : kernel + "(par)"};
}

core::InputSet
inputSet(const Config &config)
{
    switch (config.getInt("input_set", 1)) {
      case 1:
        return core::InputSet::Set1;
      case 2:
        return core::InputSet::Set2;
      case 3:
        return core::InputSet::Set3;
      default:
        DFAULT_FATAL("input_set must be 1, 2 or 3");
    }
}

core::ModelKind
modelKind(const Config &config)
{
    const std::string name = config.getString("model", "knn");
    if (name == "knn")
        return core::ModelKind::Knn;
    if (name == "svm")
        return core::ModelKind::Svm;
    if (name == "rdf")
        return core::ModelKind::Rdf;
    DFAULT_FATAL("model must be knn, svm or rdf");
}

int
cmdProfile(core::RunSession &session, const std::string &kernel)
{
    const auto config = workloadConfig(session.config(), kernel);
    const auto &profile = features::ProfileCache::instance().get(
        session.platform(), config, session.campaign().params().workload);

    std::printf("profile of %s (%d threads):\n", config.label.c_str(),
                config.threads);
    std::printf("  footprint        %.1f MiB\n",
                static_cast<double>(profile.footprintWords) * 8.0 /
                    (1 << 20));
    std::printf("  Treuse           %.3f s\n", profile.treuse);
    std::printf("  HDP entropy      %.2f bits\n", profile.entropy);
    std::printf("  profile window   %.2f s (dilated)\n",
                profile.wallSeconds);
    std::printf("\nall %zu features:\n",
                features::FeatureCatalog::instance().size());
    for (std::size_t i = 0;
         i < features::FeatureCatalog::instance().size(); ++i) {
        std::printf("  %-34s %g\n",
                    features::FeatureCatalog::instance().name(i).c_str(),
                    profile.features[i]);
    }
    return 0;
}

int
cmdCharacterize(core::RunSession &session, const std::string &kernel)
{
    const auto op = operatingPoint(session.config());
    const auto m = session.campaign().measure(
        workloadConfig(session.config(), kernel), op);
    std::printf("%s at %s:\n", m.label.c_str(), op.label().c_str());
    std::printf("  achieved temperature %.1f C\n",
                m.achieved.temperature);
    if (m.run.crashed) {
        std::printf("  UNCORRECTABLE ERROR after %d minutes on %s\n",
                    m.run.crashEpoch,
                    session.platform().geometry()
                        .deviceAt(m.run.crashDevice)
                        .label()
                        .c_str());
    }
    std::printf("  aggregate WER %.3e\n", m.run.wer());
    for (int d = 0; d < session.platform().geometry().deviceCount(); ++d)
        std::printf("  %-12s WER %.3e\n",
                    session.platform().geometry().deviceAt(d).label().c_str(),
                    m.run.werForDevice(d));
    return 0;
}

int
cmdSweep(core::RunSession &session, const std::string &out_path)
{
    const auto measurements = session.campaign().sweep(
        workloads::standardSuite(), core::werOperatingPoints());
    // Export the aggregate-WER dataset with the full feature schema.
    ml::Dataset data(features::FeatureCatalog::instance().names());
    for (const auto &m : measurements) {
        // Cancelled cells never measured and carry no profile.
        if (m.quarantined || m.cancelled || m.run.crashed)
            continue;
        data.addSample(m.profile->features.values(), m.run.wer(),
                       m.label);
    }
    ml::writeCsvFile(data, out_path);
    std::printf("wrote %zu samples x %zu features to %s\n",
                data.size(), data.featureCount(), out_path.c_str());
    return 0;
}

int
cmdReport(core::RunSession &session, const std::string &out_path)
{
    const auto measurements = session.campaign().sweep(
        workloads::standardSuite(), core::werOperatingPoints());
    core::printWerTable(measurements, std::cout);
    core::writeMeasurementsCsvFile(measurements,
                                   session.platform().geometry(), out_path);
    std::printf("\nper-device measurement CSV written to %s\n",
                out_path.c_str());
    return 0;
}

int
cmdEvaluate(core::RunSession &session)
{
    const auto measurements = session.campaign().sweep(
        workloads::standardSuite(), core::werOperatingPoints());
    const int devices = session.platform().geometry().deviceCount();
    std::printf("LOBO MPE of WER estimates (avg over %d devices), %%:\n",
                devices);
    std::printf("%-6s %12s %12s %12s\n", "model", "input set 1",
                "input set 2", "input set 3");
    for (const core::ModelKind kind : core::kAllModelKinds) {
        std::printf("%-6s", core::modelKindName(kind).c_str());
        for (const core::InputSet set : core::kAllInputSets) {
            double avg = 0.0;
            for (int d = 0; d < devices; ++d) {
                const auto data =
                    core::makeWerDataset(measurements, d, set);
                avg += core::evaluateModel(data, kind, true).mpe /
                       devices;
            }
            std::printf(" %12.1f", avg);
        }
        std::printf("\n");
    }
    return 0;
}

int
cmdPredict(core::RunSession &session, const std::string &kernel)
{
    std::printf("training %s on the standard suite...\n",
                core::modelKindName(modelKind(session.config())).c_str());
    const auto measurements = session.campaign().sweep(
        workloads::standardSuite(), core::werOperatingPoints());
    core::DramErrorModel::Options options;
    options.kind = modelKind(session.config());
    options.inputSet = inputSet(session.config());
    const auto model = core::DramErrorModel::trainWer(
        measurements, session.platform().geometry().deviceCount(), options);

    const auto config = workloadConfig(session.config(), kernel);
    const auto &profile = features::ProfileCache::instance().get(
        session.platform(), config, session.campaign().params().workload);
    const auto op = operatingPoint(session.config());

    std::printf("\npredicted WER of %s at %s:\n", config.label.c_str(),
                op.label().c_str());
    for (int d = 0; d < session.platform().geometry().deviceCount(); ++d)
        std::printf("  %-12s %.3e\n",
                    session.platform().geometry().deviceAt(d).label().c_str(),
                    model.predictWer(profile, op, d));
    std::printf("  %-12s %.3e\n", "aggregate",
                model.predictWerAggregate(profile, op));
    return 0;
}

void
usage()
{
    std::printf(
        "usage: dfault <command> [args] [key=value ...]\n"
        "  profile <kernel>       program features of a workload\n"
        "  characterize <kernel>  one characterization experiment\n"
        "  sweep <out.csv>        full campaign -> CSV dataset\n"
        "  report <out.csv>       WER table + per-device CSV\n"
        "  evaluate               LOBO accuracy of all models\n"
        "  predict <kernel>       train + predict per-device WER\n"
        "kernels: backprop kmeans nw srad fmm memcached pagerank bfs\n"
        "         bc lulesh_o2 lulesh_f random\n"
        "run keys: footprint_mib work_scale epochs threads\n"
        "          thermal_loop faults checkpoint retries fail_fast\n"
        "          task_timeout deadline stats_out manifest_out\n"
        "          quarantine_out trace_out trace_events progress\n"
        "          perf_counters alloc_track metrics_out metrics_port\n"
        "          sample_interval slo\n"
        "command keys: trefp_s temp_c vdd_v input_set model\n"
        "each run key is also a flag: --stats-out=<path>, --progress\n");
}

int
dispatch(core::RunSession &session)
{
    const auto &args = session.positional();
    if (args.empty()) {
        usage();
        return 1;
    }
    const std::string &command = args[0];
    const bool has_arg = args.size() > 1;

    if (command == "profile" && has_arg)
        return cmdProfile(session, args[1]);
    if (command == "characterize" && has_arg)
        return cmdCharacterize(session, args[1]);
    if (command == "sweep" && has_arg)
        return cmdSweep(session, args[1]);
    if (command == "report" && has_arg)
        return cmdReport(session, args[1]);
    if (command == "evaluate")
        return cmdEvaluate(session);
    if (command == "predict" && has_arg)
        return cmdPredict(session, args[1]);

    usage();
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    core::RunSession session(argc, argv);
    int rc;
    try {
        rc = dispatch(session);
    } catch (const par::CancelledError &e) {
        // Cooperative cancellation (signal or deadline) unwound the
        // command. The session still writes every artifact — partial
        // but valid — with the manifest marked interrupted.
        DFAULT_WARN("run cancelled: ", e.what(),
                    "; writing partial artifacts");
        rc = 1;
    }
    return core::RunSession::exitCode(rc);
}
