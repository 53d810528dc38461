/**
 * @file
 * One directory of durable, self-checking record files.
 *
 * The sweep checkpoint (core/checkpoint.hh) and the serving
 * write-ahead journal (serve/journal.hh) both persist small JSON
 * records that must survive a kill at any instant and must never be
 * trusted when a different configuration wrote them. This module is
 * the only copy of the record *file format* and of what happens to an
 * *invalid record*; the two users keep their body codecs and replay
 * policies.
 *
 *  - Naming: `<prefix>-<zero-padded index>.json`. An index wider than
 *    the padding keeps all its digits and is still listed.
 *  - Envelope: every record starts with record_version, kind (the
 *    prefix), config_digest (hex) and index. A read checks all four,
 *    including that the index matches the file name.
 *  - Writing: the journal.write fault point (nothing lands) and
 *    journal.torn_segment (half the body lands, as if a torn write
 *    survived the rename), both keyed by the record index, then
 *    fi::atomicWriteFile, then the journal.* write counters. The
 *    counters go straight to the registry, not through publish*():
 *    checkpoint stores run inside a StatsDeferral.
 *  - Reading: a file that is present but invalid (unreadable,
 *    truncated, garbage, another kind, another config digest) is
 *    quarantined: renamed `<name>.quarantined`, counted in
 *    journal.quarantined_files, and warned about.
 *
 * journal.* stats are digest-excluded like fi.*, so a faulted but
 * recovered run digest-matches a clean one.
 */

#ifndef DFAULT_OBS_RECORD_DIR_HH
#define DFAULT_OBS_RECORD_DIR_HH

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/deferral.hh"
#include "obs/json.hh"

namespace dfault::obs {

class Registry;

/**
 * Config-digest builder: FNV-1a over a canonical text rendering of
 * each value ("%llu," / "%.17g," / "<text>;"), started from a version
 * @p tag hashed verbatim. Equal configs hash equal on any host.
 */
class ConfigHash
{
  public:
    explicit ConfigHash(std::string_view tag);

    ConfigHash &u64(std::uint64_t v);
    ConfigHash &real(double v);
    ConfigHash &str(const std::string &s);

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_;
};

/** One kind of record file. */
struct RecordKind
{
    const char *prefix; ///< file-name prefix and envelope kind
    int pad;            ///< minimum digits of the index in the file name
    const char *written; ///< journal.* counter bumped per landed record
    const char *writtenDescription;
};

/** Decode a record's body from its envelope-checked document. */
using RecordBodyDecoder =
    std::function<bool(const JsonValue &doc, std::string &error)>;

/** @name Body-codec helpers shared by every record kind. */
///@{
/** Member @p key of @p doc when it is a number, else nullptr. */
const JsonValue *numberField(const JsonValue &doc, const char *key);
/** Member @p key as an integer in [@p lo, @p hi]; false otherwise. */
bool intFieldIn(const JsonValue &doc, const char *key, int lo, int hi,
                int &out);
/** Member @p key as an integer in [0, 2^64); false otherwise. */
bool u64Field(const JsonValue &doc, const char *key, std::uint64_t &out);
/** @p values as a JSON array of round-trip-exact numbers. */
std::string numberArrayJson(const std::vector<double> &values);
/** Parse a numberArrayJson() array; false when @p v is not one. */
bool numberArrayFromJson(const JsonValue *v, std::vector<double> &out);
/** Parse the "stat_ops" member (obs::statOpsJson()) of @p doc. */
bool statOpsField(const JsonValue &doc, std::vector<StatOp> &out,
                  std::string &error);
///@}

/** A writer holding the envelope; the caller appends the body fields. */
JsonWriter recordWriter(const RecordKind &kind, std::uint64_t digest,
                        std::uint64_t index);

/**
 * Parse @p text, check its envelope against @p kind and @p digest,
 * then run @p decode on the document. On success stores the envelope
 * index in @p index; on failure returns false and sets @p error.
 */
bool decodeRecord(const std::string &text, const RecordKind &kind,
                  std::uint64_t digest, const RecordBodyDecoder &decode,
                  std::uint64_t &index, std::string *error);

/**
 * See file comment. The const members may run concurrently from
 * several threads as long as each touches its own records (sweep
 * cells are stored from pool workers).
 */
class RecordDir
{
  public:
    /**
     * Bind to @p dir (created, parents included, when missing) for
     * records of the config that hashes to @p digest. Fatal when the
     * directory cannot be created. @p registry receives the journal.*
     * stats (nullptr: the global registry).
     */
    void open(const std::string &dir, std::uint64_t digest,
              Registry *registry = nullptr);

    bool enabled() const { return !dir_.empty(); }
    std::uint64_t digest() const { return digest_; }
    Registry &registry() const { return *registry_; }

    std::string path(const RecordKind &kind, std::uint64_t index) const;

    /**
     * Durably write @p doc (a recordWriter() document) as record
     * @p index. Returns false, after a warning, when nothing landed.
     */
    bool write(const RecordKind &kind, std::uint64_t index,
               std::string doc) const;

    /** Indices of the @p kind records present, ascending. */
    std::vector<std::uint64_t> list(const RecordKind &kind) const;

    /**
     * Read record @p index and run @p decode on it. Returns false when
     * the record is invalid, after quarantining it.
     */
    bool read(const RecordKind &kind, std::uint64_t index,
              const RecordBodyDecoder &decode) const;

    /** Delete record @p index (compaction); a failure is warned about. */
    void retire(const RecordKind &kind, std::uint64_t index) const;

  private:
    std::string dir_;
    std::uint64_t digest_ = 0;
    Registry *registry_ = nullptr;
};

} // namespace dfault::obs

#endif // DFAULT_OBS_RECORD_DIR_HH
