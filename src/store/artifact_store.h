/**
 * @file
 * Content-addressed persistent artifact store (docs/PERSISTENCE.md).
 *
 * Compiled schedules are pure functions of their inputs, so they are
 * addressed by content, not by name: the key is
 * (content hash, generation, config fingerprint, kind). A fresh
 * process pointed at the same QPULSE_CACHE_DIR finds the schedules a
 * previous process compiled and serves them without paying the
 * compile cost again.
 *
 * On-disk layout (`<dir>/`): record segments and nothing else.
 *
 *   seg-000001-<tag>.qps   immutable record segments, written whole
 *   seg-000002-<tag>.qps   via temp file + fsync + atomic rename — a
 *   ...                    crash leaves either the complete segment or
 *                          no segment, never a half-visible one.
 *
 * open() maps and scans every segment to build the in-memory
 * key -> (segment, offset) index; flush() appends one segment.
 *
 * Each record carries magic, format version, its full key, the payload
 * length and a CRC-64 over everything before the checksum. Reads go
 * through a read-only mmap of the segment; a record is validated once
 * (magic + version + key echo + CRC) and then served as a zero-copy
 * view into the mapping. Every view *pins* its segment mapping
 * (shared ownership): when the size budget drops a segment — or the
 * store itself is destroyed — the file is unlinked and forgotten
 * immediately, but the munmap is deferred until the last outstanding
 * view is gone, so a concurrent reader can never touch unmapped
 * memory. Validation failure quarantines the record for the lifetime
 * of the store — it is never retried, never trusted, and the caller
 * falls back to fresh derivation (fail closed).
 *
 * Invalidation is by *unreachability*, not deletion: recalibration
 * bumps the generation component of the key, so every artifact of the
 * old generation simply stops being addressable. Old bytes are only
 * physically reclaimed by the size budget (QPULSE_CACHE_MAX_BYTES),
 * which drops the oldest whole segments at flush time.
 *
 * Thread safety: all public methods are mutex-protected, and views
 * returned by get() stay readable without the mutex (their mapping is
 * pinned, see above). Cross-process writers are coordinated by the
 * atomic-rename protocol: each process writes its own segments under
 * a (sequence, writer-tag) identity that is unique across writers, so
 * two processes flushing into one directory can never collide on a
 * name or a segment identity, and an open scans both writers'
 * segments.
 */
#ifndef QPULSE_STORE_ARTIFACT_STORE_H
#define QPULSE_STORE_ARTIFACT_STORE_H

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace qpulse {
namespace store {

/**
 * What a persisted payload decodes to. Kinds 1 (propagator blocks)
 * and 3 (calibration snapshots) are retired: a directory an older
 * build wrote may still hold records of them, which open() does not
 * index, put() refuses and the size budget ages out with their
 * segments. Do not reuse the numbers.
 */
enum class ArtifactKind : std::uint32_t
{
    CompiledSchedule = 2, ///< Serialized Schedule.
};

/** Content address of one artifact (docs/PERSISTENCE.md keying). */
struct ArtifactKey
{
    std::uint64_t contentHash = 0; ///< Hash of the derivation inputs.
    std::uint64_t generation = 0;  ///< Calibration generation.
    std::uint64_t configFingerprint = 0; ///< Derivation configuration.
    std::uint32_t kind = 0;        ///< ArtifactKind.

    bool operator==(const ArtifactKey &other) const
    {
        return contentHash == other.contentHash &&
               generation == other.generation &&
               configFingerprint == other.configFingerprint &&
               kind == other.kind;
    }
};

struct ArtifactKeyHash
{
    std::size_t operator()(const ArtifactKey &key) const;
};

/**
 * Zero-copy view of a validated record payload inside an mmap. The
 * view co-owns the segment mapping (`pin`): the bytes stay mapped —
 * and `data` stays readable — until every view of the segment is
 * destroyed, even if a concurrent flush's size budget drops the
 * segment or the store itself is destroyed in the meantime.
 */
struct ArtifactView
{
    const std::uint8_t *data = nullptr;
    std::size_t size = 0;
    std::shared_ptr<const void> pin;
};

/** Monotonic per-store counters (also mirrored into cache.persist.*). */
struct StoreStats
{
    std::uint64_t puts = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t corrupt = 0;         ///< Checksum/framing failures.
    std::uint64_t versionMismatch = 0; ///< Foreign format versions.
    std::uint64_t quarantined = 0;     ///< Records marked untrusted.
    std::uint64_t flushes = 0;
    std::uint64_t segmentsDropped = 0; ///< Reclaimed by the size budget.
    std::uint64_t bytesWritten = 0;
    std::uint64_t bytesRead = 0;
};

class ArtifactStore
{
  public:
    ~ArtifactStore();

    ArtifactStore(const ArtifactStore &) = delete;
    ArtifactStore &operator=(const ArtifactStore &) = delete;

    /**
     * Open (creating if needed) the store at `dir`: map every segment
     * and scan its record chain into the in-memory index (checksums
     * are verified lazily, on each record's first get; records of a
     * retired kind are stepped over, never indexed). Returns
     * nullptr with a structured Status on an unusable directory.
     */
    static std::shared_ptr<ArtifactStore>
    open(const std::string &dir, std::uint64_t max_bytes,
         Status *status = nullptr);

    /**
     * Open from QPULSE_CACHE_DIR / QPULSE_CACHE_MAX_BYTES. Unset or
     * empty dir -> nullptr (persistence disabled); an unusable dir
     * warns via envWarn and also returns nullptr, so a bad knob can
     * never take the execution path down.
     */
    static std::shared_ptr<ArtifactStore> openFromEnv();

    /**
     * Buffer one artifact for the next flush(). Duplicate keys (same
     * content re-derived by a racing process) are benign: the newest
     * record wins in the index, both decode identically. A key of a
     * retired kind is refused with InvalidArgument.
     */
    Status put(const ArtifactKey &key,
               const std::vector<std::uint8_t> &payload);

    /**
     * Write every buffered artifact into a new immutable segment
     * (temp + fsync + atomic rename), update the in-memory index, and
     * enforce the size budget by dropping the oldest whole segments.
     * No-op when nothing is buffered.
     */
    Status flush();

    /**
     * Look up `key` and validate its record (first access only).
     * Ok: `view` points at the payload inside the segment mapping and
     * pins that mapping — the bytes stay valid for the lifetime of
     * the view regardless of concurrent flushes, size-budget drops,
     * or even store destruction.
     * Miss: StoreCorrupt/StoreVersionMismatch for quarantined records,
     * InvalidArgument("not found") for absent keys.
     */
    Status get(const ArtifactKey &key, ArtifactView &view);

    /** True if `key` is indexed (validation state notwithstanding). */
    bool contains(const ArtifactKey &key) const;

    /** Indexed record count (including quarantined ones). */
    std::size_t size() const;

    /** Bytes currently on disk across live segments. */
    std::uint64_t diskBytes() const;

    StoreStats stats() const;

    const std::string &directory() const { return dir_; }

  private:
    ArtifactStore(std::string dir, std::uint64_t max_bytes);

    /**
     * One read-only mapped segment file. Shared ownership of the
     * mapping: munmap runs when the last reference (the store's
     * Segment entry or any pinned ArtifactView) is released.
     */
    struct Mapping
    {
        Mapping() = default;
        ~Mapping();
        Mapping(const Mapping &) = delete;
        Mapping &operator=(const Mapping &) = delete;

        const std::uint8_t *base = nullptr;
        std::size_t size = 0;
    };

    struct Segment
    {
        /**
         * Unique identity: (sequence << 32) | writer tag, both parsed
         * from the filename. The sequence orders segments by age for
         * budget eviction; the tag disambiguates two writers that
         * raced to the same sequence number in one directory.
         */
        std::uint64_t uid = 0;
        std::string path;
        std::shared_ptr<const Mapping> map;
        std::size_t size = 0;
    };

    enum class RecordState : std::uint8_t
    {
        Unvalidated,
        Valid,
        QuarantinedCorrupt,
        QuarantinedVersion,
    };

    struct IndexEntry
    {
        std::uint64_t segment = 0; ///< Segment::uid.
        std::uint64_t offset = 0;
        std::uint64_t recordBytes = 0;
        RecordState state = RecordState::Unvalidated;
        std::uint64_t payloadOffset = 0; ///< Set on validation.
        std::uint64_t payloadBytes = 0;
    };

    Status loadExisting();
    void scanSegment(const Segment &segment);
    Status mapSegment(Segment &segment);
    void unmapSegment(Segment &segment);
    Status enforceBudget();
    Status validate(const ArtifactKey &key, IndexEntry &entry);
    std::uint32_t nextSegmentSeq() const;

    std::string dir_;
    std::uint64_t maxBytes_ = 0;
    std::uint32_t writerTag_ = 0; ///< Unique per live writer.
    std::vector<Segment> segments_; ///< Ascending id order.
    std::unordered_map<ArtifactKey, IndexEntry, ArtifactKeyHash>
        index_;
    struct Pending
    {
        ArtifactKey key;
        std::vector<std::uint8_t> record; ///< Full framed record.
    };
    std::vector<Pending> pending_;
    StoreStats stats_;
    mutable std::mutex mutex_;
};

} // namespace store
} // namespace qpulse

#endif // QPULSE_STORE_ARTIFACT_STORE_H
