#include "core/checkpoint.hh"

#include <limits>

#include "common/logging.hh"
#include "obs/json.hh"

namespace dfault::core {

namespace {

constexpr obs::RecordKind kCellRecord = {
    "cell", 6, "journal.cells_written", "sweep checkpoint cells written"};

constexpr int kMinInt = std::numeric_limits<int>::min();
constexpr int kMaxInt = std::numeric_limits<int>::max();

using obs::intFieldIn;
using obs::numberArrayFromJson;
using obs::numberArrayJson;
using obs::numberField;

} // namespace

std::uint64_t
sweepConfigDigest(const CharacterizationCampaign::Params &params,
                  const std::vector<workloads::WorkloadConfig> &suite,
                  const std::vector<dram::OperatingPoint> &points)
{
    obs::ConfigHash hash("dfault-sweep-v1;");

    hash.u64(params.workload.footprintBytes);
    hash.u64(params.workload.seed);
    hash.real(params.workload.workScale);

    const ErrorIntegrator::Params &ip = params.integrator;
    hash.real(ip.epochLength);
    hash.u64(static_cast<std::uint64_t>(ip.epochs));
    hash.real(ip.exposureWords);
    hash.real(ip.accessRefreshExponent);
    hash.u64(ip.dataPatternVulnerability ? 1 : 0);
    hash.real(ip.ueWordCoupling);
    hash.real(ip.retention.mu);
    hash.real(ip.retention.sigma);
    hash.real(ip.retention.tempAlpha);
    hash.real(ip.retention.vddGamma);
    hash.real(ip.retention.refTemperature);
    hash.real(ip.vrt.onRate);
    hash.real(ip.vrt.offRate);
    hash.real(ip.interference.strength);
    hash.real(ip.interference.refActivations);
    hash.real(ip.interference.maxDelta);
    hash.u64(ip.seed);

    hash.u64(params.useThermalLoop ? 1 : 0);

    hash.u64(suite.size());
    for (const workloads::WorkloadConfig &config : suite) {
        hash.str(config.kernel);
        hash.u64(static_cast<std::uint64_t>(config.threads));
        hash.str(config.label);
    }
    hash.u64(points.size());
    for (const dram::OperatingPoint &op : points) {
        hash.real(op.trefp);
        hash.real(op.vdd);
        hash.real(op.temperature);
    }
    return hash.value();
}

std::string
checkpointCellJson(const CheckpointCell &cell, std::uint64_t digest)
{
    const Measurement &m = cell.measurement;
    obs::JsonWriter w = obs::recordWriter(
        kCellRecord, digest, static_cast<std::uint64_t>(cell.cell));
    w.field("label", m.label);
    w.field("threads", m.threads);
    w.fieldRaw("requested", numberArrayJson({m.requested.trefp,
                                             m.requested.vdd,
                                             m.requested.temperature}));
    w.fieldRaw("achieved", numberArrayJson({m.achieved.trefp,
                                            m.achieved.vdd,
                                            m.achieved.temperature}));

    obs::JsonWriter run;
    run.fieldRaw("wer_series", numberArrayJson(m.run.werSeries));
    run.fieldRaw("ce_per_device", numberArrayJson(m.run.cePerDevice));
    run.fieldRaw("words_per_device", numberArrayJson(m.run.wordsPerDevice));
    run.field("crashed", m.run.crashed);
    run.field("crash_epoch", m.run.crashEpoch);
    run.field("crash_device", m.run.crashDevice);
    run.field("expected_sdc", m.run.expectedSdc);
    run.field("allocated_words", m.run.allocatedWords);
    w.fieldRaw("run", run.str());

    w.fieldRaw("stat_ops", obs::statOpsJson(cell.statOps));
    return w.str();
}

namespace {

/** Body of a cell record; the envelope is already checked. */
bool
cellBodyFromJson(const obs::JsonValue &doc, CheckpointCell &parsed,
                 std::string &error)
{
    const auto fail = [&error](const char *msg) {
        error = msg;
        return false;
    };
    Measurement &m = parsed.measurement;
    const obs::JsonValue *label = doc.find("label");
    if (label == nullptr || label->kind != obs::JsonValue::Kind::String ||
        !intFieldIn(doc, "threads", kMinInt, kMaxInt, m.threads))
        return fail("missing label/threads");
    m.label = label->string;

    std::vector<double> op;
    if (!numberArrayFromJson(doc.find("requested"), op) || op.size() != 3)
        return fail("bad requested operating point");
    m.requested = {op[0], op[1], op[2]};
    if (!numberArrayFromJson(doc.find("achieved"), op) || op.size() != 3)
        return fail("bad achieved operating point");
    m.achieved = {op[0], op[1], op[2]};

    const obs::JsonValue *run = doc.find("run");
    if (run == nullptr || !run->isObject())
        return fail("missing run object");
    if (!numberArrayFromJson(run->find("wer_series"), m.run.werSeries) ||
        !numberArrayFromJson(run->find("ce_per_device"),
                             m.run.cePerDevice) ||
        !numberArrayFromJson(run->find("words_per_device"),
                             m.run.wordsPerDevice))
        return fail("bad run series arrays");
    const obs::JsonValue *crashed = run->find("crashed");
    const obs::JsonValue *sdc = numberField(*run, "expected_sdc");
    const obs::JsonValue *words = numberField(*run, "allocated_words");
    if (crashed == nullptr || crashed->kind != obs::JsonValue::Kind::Bool ||
        !intFieldIn(*run, "crash_epoch", kMinInt, kMaxInt,
                    m.run.crashEpoch) ||
        !intFieldIn(*run, "crash_device", kMinInt, kMaxInt,
                    m.run.crashDevice) ||
        sdc == nullptr || words == nullptr)
        return fail("bad run scalar fields");
    m.run.crashed = crashed->boolean;
    m.run.expectedSdc = sdc->number;
    m.run.allocatedWords = words->number;

    return obs::statOpsField(doc, parsed.statOps, error);
}

} // namespace

bool
checkpointCellFromJson(const std::string &text, std::uint64_t digest,
                       CheckpointCell &out, std::string *error)
{
    CheckpointCell parsed;
    std::uint64_t index = 0;
    if (!obs::decodeRecord(
            text, kCellRecord, digest,
            [&parsed](const obs::JsonValue &doc, std::string &e) {
                return cellBodyFromJson(doc, parsed, e);
            },
            index, error))
        return false;
    parsed.cell = static_cast<std::size_t>(index);
    out = std::move(parsed);
    return true;
}

void
CheckpointJournal::open(const std::string &dir, std::uint64_t digest,
                        obs::Registry *registry)
{
    records_.open(dir, digest, registry);
}

std::map<std::size_t, CheckpointCell>
CheckpointJournal::load(std::size_t totalCells) const
{
    std::map<std::size_t, CheckpointCell> cells;
    if (!enabled())
        return cells;
    for (const std::uint64_t index : records_.list(kCellRecord)) {
        if (index >= totalCells) {
            DFAULT_WARN("checkpoint: skipping ",
                        records_.path(kCellRecord, index), ": cell ",
                        index, " out of range (sweep has ", totalCells,
                        " cells)");
            continue;
        }
        CheckpointCell cell;
        if (!records_.read(kCellRecord, index,
                           [&cell](const obs::JsonValue &doc,
                                   std::string &e) {
                               return cellBodyFromJson(doc, cell, e);
                           }))
            continue;
        cell.cell = static_cast<std::size_t>(index);
        cells[cell.cell] = std::move(cell);
    }
    return cells;
}

bool
CheckpointJournal::store(const CheckpointCell &cell) const
{
    DFAULT_ASSERT(enabled(), "store() on a disabled checkpoint journal");
    return records_.write(kCellRecord, cell.cell,
                          checkpointCellJson(cell, records_.digest()));
}

} // namespace dfault::core
