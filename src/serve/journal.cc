#include "serve/journal.hh"

#include <algorithm>
#include <iterator>
#include <limits>

#include "common/logging.hh"
#include "obs/json.hh"
#include "obs/stats.hh"

namespace dfault::serve {

namespace {

constexpr obs::RecordKind kSegmentRecord = {
    "seg", 8, "journal.segments_written", "tick segments written"};
constexpr obs::RecordKind kSnapshotRecord = {
    "snap", 8, "journal.snapshots_written", "compacted snapshots written"};

std::string
requestJson(const JournalRequest &r)
{
    obs::JsonWriter w;
    w.field("id", r.id);
    w.field("key", r.key);
    w.field("pri", r.priority);
    w.field("shard", r.shard);
    w.field("enq", r.enqueueTick);
    w.fieldRaw("features", obs::numberArrayJson(r.features));
    return w.str();
}

using obs::intFieldIn;
using obs::u64Field;

bool
requestFromJson(const obs::JsonValue &v, JournalRequest &out)
{
    if (!v.isObject())
        return false;
    JournalRequest r;
    if (!u64Field(v, "id", r.id) || !u64Field(v, "key", r.key) ||
        !intFieldIn(v, "pri", 0, kPriorityCount - 1, r.priority) ||
        !intFieldIn(v, "shard", 0, 1 << 20, r.shard) ||
        !u64Field(v, "enq", r.enqueueTick))
        return false;
    if (!obs::numberArrayFromJson(v.find("features"), r.features))
        return false;
    out = std::move(r);
    return true;
}

std::string
responseJson(const Response &r)
{
    obs::JsonWriter w;
    w.field("id", r.id);
    w.field("key", r.key);
    w.field("pri", static_cast<int>(r.priority));
    w.field("shard", r.shard);
    w.field("disp", static_cast<int>(r.disposition));
    w.field("degraded", r.degraded);
    // jsonNumber writes a shed response's NaN prediction as null; the
    // parser maps it back explicitly.
    w.fieldRaw("prediction", obs::jsonNumber(r.prediction));
    w.field("reason", r.reason);
    return w.str();
}

bool
responseFromJson(const obs::JsonValue &v, Response &out)
{
    if (!v.isObject())
        return false;
    Response r;
    int priority = 0;
    int disposition = 0;
    if (!u64Field(v, "id", r.id) || !u64Field(v, "key", r.key) ||
        !intFieldIn(v, "pri", 0, kPriorityCount - 1, priority) ||
        !intFieldIn(v, "shard", 0, 1 << 20, r.shard) ||
        !intFieldIn(v, "disp", 0, 2, disposition))
        return false;
    r.priority = static_cast<Priority>(priority);
    r.disposition = static_cast<Disposition>(disposition);
    const obs::JsonValue *degraded = v.find("degraded");
    if (degraded == nullptr ||
        degraded->kind != obs::JsonValue::Kind::Bool)
        return false;
    r.degraded = degraded->boolean;
    const obs::JsonValue *prediction = v.find("prediction");
    if (prediction == nullptr)
        return false;
    if (prediction->kind == obs::JsonValue::Kind::Number)
        r.prediction = prediction->number;
    else if (prediction->isNull())
        r.prediction = std::numeric_limits<double>::quiet_NaN();
    else
        return false;
    const obs::JsonValue *reason = v.find("reason");
    if (reason == nullptr || reason->kind != obs::JsonValue::Kind::String)
        return false;
    r.reason = reason->string;
    out = std::move(r);
    return true;
}

std::string
breakerJson(const JournalBreaker &b)
{
    obs::JsonWriter w;
    w.field("state", b.state);
    w.field("consec", b.consecutive);
    w.field("window", b.window);
    w.field("fails", b.windowFailures);
    w.field("opened", b.openedTick);
    w.field("probes", b.probeSuccesses);
    return w.str();
}

bool
breakerFromJson(const obs::JsonValue &v, JournalBreaker &out)
{
    if (!v.isObject())
        return false;
    JournalBreaker b;
    if (!intFieldIn(v, "state", 0, 2, b.state) ||
        !intFieldIn(v, "consec", 0, 1 << 30, b.consecutive) ||
        !intFieldIn(v, "fails", 0, 1 << 30, b.windowFailures) ||
        !u64Field(v, "opened", b.openedTick) ||
        !intFieldIn(v, "probes", 0, 1 << 30, b.probeSuccesses))
        return false;
    const obs::JsonValue *window = v.find("window");
    if (window == nullptr ||
        window->kind != obs::JsonValue::Kind::String)
        return false;
    for (char c : window->string)
        if (c != '0' && c != '1')
            return false;
    b.window = window->string;
    out = std::move(b);
    return true;
}

template <typename T, typename Fn>
std::string
arrayJson(const std::vector<T> &items, Fn &&itemJson)
{
    std::string out = "[";
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (i > 0)
            out += ',';
        out += itemJson(items[i]);
    }
    out += ']';
    return out;
}

template <typename T, typename Fn>
bool
arrayFromJson(const obs::JsonValue *v, Fn &&itemFromJson,
              std::vector<T> &out)
{
    if (v == nullptr || !v->isArray())
        return false;
    out.clear();
    out.reserve(v->array.size());
    for (const obs::JsonValue &item : v->array) {
        T parsed;
        if (!itemFromJson(item, parsed))
            return false;
        out.push_back(std::move(parsed));
    }
    return true;
}

bool
segmentBodyFromJson(const obs::JsonValue &doc, JournalSegment &seg,
                    std::string &error)
{
    const auto fail = [&error](const char *msg) {
        error = msg;
        return false;
    };
    if (!u64Field(doc, "next_id", seg.nextId))
        return fail("missing next_id");
    if (!arrayFromJson(doc.find("admitted"), requestFromJson,
                       seg.admitted))
        return fail("bad admitted array");
    if (!arrayFromJson(doc.find("responses"), responseFromJson,
                       seg.responses))
        return fail("bad responses array");
    if (!arrayFromJson(doc.find("breakers"), breakerFromJson,
                       seg.breakers))
        return fail("bad breakers array");
    return obs::statOpsField(doc, seg.statOps, error);
}

bool
lkgFromJson(const obs::JsonValue &v, std::pair<std::uint64_t, double> &kv)
{
    if (!v.isArray() || v.array.size() != 2 ||
        v.array[0].kind != obs::JsonValue::Kind::Number ||
        v.array[1].kind != obs::JsonValue::Kind::Number ||
        v.array[0].number < 0)
        return false;
    kv.first = static_cast<std::uint64_t>(v.array[0].number);
    kv.second = v.array[1].number;
    return true;
}

bool
snapshotBodyFromJson(const obs::JsonValue &doc, JournalSnapshot &snap,
                     std::string &error)
{
    const auto fail = [&error](const char *msg) {
        error = msg;
        return false;
    };
    if (!u64Field(doc, "next_id", snap.nextId))
        return fail("missing next_id");
    if (!arrayFromJson(doc.find("queued"), requestFromJson, snap.queued))
        return fail("bad queued array");
    if (!arrayFromJson(doc.find("responses"), responseFromJson,
                       snap.responses))
        return fail("bad responses array");
    if (!arrayFromJson(doc.find("breakers"), breakerFromJson,
                       snap.breakers))
        return fail("bad breakers array");
    if (!arrayFromJson(doc.find("lkg"), lkgFromJson, snap.lastKnownGood))
        return fail("bad lkg array");
    return obs::statOpsField(doc, snap.statOps, error);
}

} // namespace

std::uint64_t
journalConfigDigest(const Params &params)
{
    obs::ConfigHash hash("dfault-serve-journal-v1,");
    hash.u64(params.queueCapacity);
    hash.u64(params.budgetPerTick);
    hash.u64(params.degradeAfterTicks);
    hash.u64(static_cast<std::uint64_t>(params.shards));
    hash.u64(static_cast<std::uint64_t>(params.maxRetries));
    const BreakerParams &b = params.breaker;
    hash.u64(static_cast<std::uint64_t>(b.consecutiveFailures));
    hash.real(b.errorRateThreshold);
    hash.u64(static_cast<std::uint64_t>(b.errorRateWindow));
    hash.u64(static_cast<std::uint64_t>(b.cooldownTicks));
    hash.u64(static_cast<std::uint64_t>(b.halfOpenProbes));
    hash.u64(params.journalSalt);
    return hash.value();
}

std::string
journalSegmentJson(const JournalSegment &seg, std::uint64_t digest)
{
    obs::JsonWriter w = obs::recordWriter(kSegmentRecord, digest, seg.tick);
    w.field("next_id", seg.nextId);
    w.fieldRaw("admitted", arrayJson(seg.admitted, requestJson));
    w.fieldRaw("responses", arrayJson(seg.responses, responseJson));
    w.fieldRaw("breakers", arrayJson(seg.breakers, breakerJson));
    w.fieldRaw("stat_ops", obs::statOpsJson(seg.statOps));
    return w.str();
}

bool
journalSegmentFromJson(const std::string &text, std::uint64_t digest,
                       JournalSegment &out, std::string *error)
{
    JournalSegment parsed;
    if (!obs::decodeRecord(
            text, kSegmentRecord, digest,
            [&parsed](const obs::JsonValue &doc, std::string &e) {
                return segmentBodyFromJson(doc, parsed, e);
            },
            parsed.tick, error))
        return false;
    out = std::move(parsed);
    return true;
}

std::string
journalSnapshotJson(const JournalSnapshot &snap, std::uint64_t digest)
{
    obs::JsonWriter w =
        obs::recordWriter(kSnapshotRecord, digest, snap.tick);
    w.field("next_id", snap.nextId);
    w.fieldRaw("queued", arrayJson(snap.queued, requestJson));
    w.fieldRaw("responses", arrayJson(snap.responses, responseJson));
    w.fieldRaw("breakers", arrayJson(snap.breakers, breakerJson));
    w.fieldRaw("lkg",
               arrayJson(snap.lastKnownGood,
                         [](const std::pair<std::uint64_t, double> &kv) {
                             return "[" + std::to_string(kv.first) + "," +
                                    obs::jsonNumber(kv.second) + "]";
                         }));
    w.fieldRaw("stat_ops", obs::statOpsJson(snap.statOps));
    return w.str();
}

bool
journalSnapshotFromJson(const std::string &text, std::uint64_t digest,
                        JournalSnapshot &out, std::string *error)
{
    JournalSnapshot parsed;
    if (!obs::decodeRecord(
            text, kSnapshotRecord, digest,
            [&parsed](const obs::JsonValue &doc, std::string &e) {
                return snapshotBodyFromJson(doc, parsed, e);
            },
            parsed.tick, error))
        return false;
    out = std::move(parsed);
    return true;
}

void
WriteAheadJournal::open(const std::string &dir, std::uint64_t digest,
                        obs::Registry *registry)
{
    records_.open(dir, digest, registry);
}

bool
WriteAheadJournal::writeSegment(const JournalSegment &seg)
{
    DFAULT_ASSERT(enabled(), "writeSegment() on a disabled journal");
    return records_.write(kSegmentRecord, seg.tick,
                          journalSegmentJson(seg, records_.digest()));
}

bool
WriteAheadJournal::writeSnapshot(const JournalSnapshot &snap)
{
    DFAULT_ASSERT(enabled(), "writeSnapshot() on a disabled journal");
    if (!records_.write(kSnapshotRecord, snap.tick,
                        journalSnapshotJson(snap, records_.digest())))
        return false;
    // Keep two snapshots (a torn newest one falls back to the
    // previous) and retire everything the older retained one
    // subsumes.
    const std::vector<std::uint64_t> snaps = records_.list(kSnapshotRecord);
    const auto newer =
        std::lower_bound(snaps.begin(), snaps.end(), snap.tick);
    if (newer == snaps.begin())
        return true;
    const std::uint64_t keep = *std::prev(newer);
    for (const std::uint64_t tick : records_.list(kSegmentRecord))
        if (tick <= keep)
            records_.retire(kSegmentRecord, tick);
    for (const std::uint64_t tick : snaps)
        if (tick < keep)
            records_.retire(kSnapshotRecord, tick);
    return true;
}

WriteAheadJournal::Restored
WriteAheadJournal::load()
{
    Restored out;
    DFAULT_ASSERT(enabled(), "load() on a disabled journal");

    // Newest valid snapshot wins; an invalid one is quarantined and
    // replay must stop *before* its tick even when an older snapshot
    // is usable — the corrupt snapshot was that tick's only record.
    std::uint64_t stopBefore = ~0ULL;
    const std::vector<std::uint64_t> snaps = records_.list(kSnapshotRecord);
    for (auto it = snaps.rbegin(); it != snaps.rend(); ++it) {
        JournalSnapshot snap;
        if (!records_.read(kSnapshotRecord, *it,
                           [&snap](const obs::JsonValue &doc,
                                   std::string &e) {
                               return snapshotBodyFromJson(doc, snap, e);
                           })) {
            stopBefore = *it;
            continue;
        }
        snap.tick = *it;
        out.hasSnapshot = true;
        out.snapshot = std::move(snap);
        out.any = true;
        out.tick = *it;
        break;
    }

    // Segments after the snapshot, ascending. A missing tick number is
    // benign (that record's write failed and its delta folded into the
    // next one); a present-but-invalid record is data loss and replay
    // stops at the record before it.
    for (const std::uint64_t tick : records_.list(kSegmentRecord)) {
        if (out.hasSnapshot && tick <= out.snapshot.tick)
            continue;
        if (tick >= stopBefore)
            break;
        JournalSegment seg;
        if (!records_.read(kSegmentRecord, tick,
                           [&seg](const obs::JsonValue &doc,
                                  std::string &e) {
                               return segmentBodyFromJson(doc, seg, e);
                           }))
            break;
        seg.tick = tick;
        out.segments.push_back(std::move(seg));
        out.any = true;
        out.tick = tick;
    }

    if (out.any) {
        obs::Registry &registry = records_.registry();
        registry
            .counter("journal.replayed_segments",
                     "journal segments replayed at restore")
            .inc(out.segments.size());
        registry
            .gauge("journal.restored_tick",
                   "tick the service was restored to")
            .set(static_cast<double>(out.tick));
    }
    return out;
}

} // namespace dfault::serve
