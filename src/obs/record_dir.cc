#include "obs/record_dir.hh"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>

#include "common/logging.hh"
#include "common/rng.hh"
#include "fi/durable.hh"
#include "fi/injector.hh"
#include "obs/stats.hh"

namespace dfault::obs {

namespace {

constexpr int kRecordVersion = 1;

std::string
fileName(const RecordKind &kind, std::uint64_t index)
{
    char name[64];
    std::snprintf(name, sizeof(name), "%s-%0*" PRIu64 ".json", kind.prefix,
                  kind.pad, index);
    return name;
}

/** Index of a file named fileName(kind, index), and of no other. */
std::optional<std::uint64_t>
indexFromName(const std::string &name, const RecordKind &kind)
{
    const std::size_t first = std::strlen(kind.prefix) + 1;
    if (name.size() <= first + 5 || !name.ends_with(".json"))
        return std::nullopt;
    const char *end = name.data() + name.size() - 5;
    std::uint64_t index = 0;
    const auto [ptr, ec] = std::from_chars(name.data() + first, end, index);
    if (ec != std::errc() || ptr != end || name != fileName(kind, index))
        return std::nullopt;
    return index;
}

std::string
digestHex(std::uint64_t digest)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, digest);
    return buf;
}

} // namespace

ConfigHash::ConfigHash(std::string_view tag) : hash_(fnv1a64(tag)) {}

ConfigHash &
ConfigHash::u64(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRIu64 ",", v);
    hash_ = fnv1a64(buf, hash_);
    return *this;
}

ConfigHash &
ConfigHash::real(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g,", v);
    hash_ = fnv1a64(buf, hash_);
    return *this;
}

ConfigHash &
ConfigHash::str(const std::string &s)
{
    hash_ = fnv1a64(s, hash_);
    hash_ = fnv1a64(";", hash_);
    return *this;
}

const JsonValue *
numberField(const JsonValue &doc, const char *key)
{
    const JsonValue *v = doc.find(key);
    return v != nullptr && v->kind == JsonValue::Kind::Number ? v : nullptr;
}

// Both range checks run on the double, so the casts are defined for
// any input.
bool
intFieldIn(const JsonValue &doc, const char *key, int lo, int hi, int &out)
{
    const JsonValue *v = numberField(doc, key);
    if (v == nullptr || !(v->number >= lo && v->number < hi + 1.0))
        return false;
    out = static_cast<int>(v->number);
    return true;
}

bool
u64Field(const JsonValue &doc, const char *key, std::uint64_t &out)
{
    const JsonValue *v = numberField(doc, key);
    if (v == nullptr || !(v->number >= 0 && v->number < 0x1p64))
        return false;
    out = static_cast<std::uint64_t>(v->number);
    return true;
}

std::string
numberArrayJson(const std::vector<double> &values)
{
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i > 0)
            out += ',';
        out += jsonNumber(values[i]);
    }
    out += ']';
    return out;
}

bool
numberArrayFromJson(const JsonValue *v, std::vector<double> &out)
{
    if (v == nullptr || !v->isArray())
        return false;
    out.clear();
    out.reserve(v->array.size());
    for (const JsonValue &item : v->array) {
        if (item.kind != JsonValue::Kind::Number)
            return false;
        out.push_back(item.number);
    }
    return true;
}

bool
statOpsField(const JsonValue &doc, std::vector<StatOp> &out,
             std::string &error)
{
    const JsonValue *ops = doc.find("stat_ops");
    std::string ops_error;
    if (ops == nullptr || !statOpsFromJson(*ops, out, &ops_error)) {
        error = "bad stat_ops: " + ops_error;
        return false;
    }
    return true;
}

JsonWriter
recordWriter(const RecordKind &kind, std::uint64_t digest,
             std::uint64_t index)
{
    JsonWriter w;
    w.field("record_version", kRecordVersion);
    w.field("kind", kind.prefix);
    w.field("config_digest", digestHex(digest));
    w.field("index", index);
    return w;
}

bool
decodeRecord(const std::string &text, const RecordKind &kind,
             std::uint64_t digest, const RecordBodyDecoder &decode,
             std::uint64_t &index, std::string *error)
{
    const auto fail = [error](const std::string &msg) {
        if (error != nullptr)
            *error = msg;
        return false;
    };
    std::string parse_error;
    const auto doc = jsonParse(text, &parse_error);
    if (!doc)
        return fail("bad JSON: " + parse_error);
    if (!doc->isObject())
        return fail("not a JSON object");

    const JsonValue *version = numberField(*doc, "record_version");
    if (version == nullptr || version->number != kRecordVersion)
        return fail("missing or unsupported record_version");
    const JsonValue *k = doc->find("kind");
    if (k == nullptr || k->kind != JsonValue::Kind::String ||
        k->string != kind.prefix)
        return fail(std::string("record kind is not '") + kind.prefix +
                    "'");
    const JsonValue *d = doc->find("config_digest");
    if (d == nullptr || d->kind != JsonValue::Kind::String)
        return fail("missing config_digest");
    if (d->string != digestHex(digest))
        return fail("config digest mismatch (record written by a "
                    "different configuration): have " +
                    d->string + ", want " + digestHex(digest));
    std::uint64_t i = 0;
    if (!u64Field(*doc, "index", i))
        return fail("missing or out-of-range index");

    std::string body_error;
    if (!decode(*doc, body_error))
        return fail(body_error);
    index = i;
    return true;
}

void
RecordDir::open(const std::string &dir, std::uint64_t digest,
                Registry *registry)
{
    DFAULT_ASSERT(!dir.empty(), "record directory needs a path");
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        DFAULT_FATAL("cannot create record directory '", dir,
                     "': ", ec.message());
    dir_ = dir;
    digest_ = digest;
    registry_ = registry != nullptr ? registry : &Registry::instance();
}

std::string
RecordDir::path(const RecordKind &kind, std::uint64_t index) const
{
    return dir_ + "/" + fileName(kind, index);
}

bool
RecordDir::write(const RecordKind &kind, std::uint64_t index,
                 std::string doc) const
{
    DFAULT_ASSERT(enabled(), "write() on a closed record directory");
    const std::string file = path(kind, index);
    doc += '\n';
    const auto failed = [&](const char *why) {
        DFAULT_WARN("journal: ", file, " did not land (", why, ")");
        registry_
            ->counter("journal.write_failures",
                      "journal records that failed to land")
            .inc();
        return false;
    };
    auto &inj = fi::Injector::instance();
    if (inj.armed() && inj.shouldFire("journal.write", index))
        return failed("injected journal.write");
    // The write the quarantine path exists for: the writer believes
    // the record landed, but only half the body survived.
    if (inj.armed() && inj.shouldFire("journal.torn_segment", index)) {
        DFAULT_WARN("journal: injected torn record ", file,
                    " (journal.torn_segment)");
        doc.resize(doc.size() / 2);
    }
    if (!fi::atomicWriteFile(file, doc))
        return failed("write error");
    registry_->counter(kind.written, kind.writtenDescription).inc();
    return true;
}

std::vector<std::uint64_t>
RecordDir::list(const RecordKind &kind) const
{
    std::vector<std::uint64_t> out;
    std::error_code ec;
    std::filesystem::directory_iterator it(dir_, ec);
    if (ec) {
        DFAULT_WARN("journal: cannot list '", dir_, "': ", ec.message());
        return out;
    }
    for (const auto &entry : it)
        if (entry.is_regular_file())
            if (const auto index =
                    indexFromName(entry.path().filename().string(), kind))
                out.push_back(*index);
    std::sort(out.begin(), out.end());
    return out;
}

bool
RecordDir::read(const RecordKind &kind, std::uint64_t index,
                const RecordBodyDecoder &decode) const
{
    const std::string file = path(kind, index);
    std::string error;
    std::uint64_t bodyIndex = 0;
    const auto text = fi::readFile(file, &error);
    if (text &&
        decodeRecord(*text, kind, digest_, decode, bodyIndex, &error)) {
        if (bodyIndex == index)
            return true;
        error = "index in body does not match file name";
    }
    DFAULT_WARN("journal: quarantining ", file, ": ", error);
    registry_
        ->counter("journal.quarantined_files",
                  "invalid journal records quarantined at restore")
        .inc();
    std::error_code ec;
    std::filesystem::rename(file, file + ".quarantined", ec);
    if (ec)
        DFAULT_WARN("journal: cannot rename ", file,
                    " aside: ", ec.message());
    return false;
}

void
RecordDir::retire(const RecordKind &kind, std::uint64_t index) const
{
    const std::string file = path(kind, index);
    std::error_code ec;
    std::filesystem::remove(file, ec);
    if (ec)
        DFAULT_WARN("journal: cannot retire ", file, ": ", ec.message());
}

} // namespace dfault::obs
