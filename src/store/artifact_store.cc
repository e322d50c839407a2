#include "store/artifact_store.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/env.h"
#include "store/serde.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace qpulse {
namespace store {

namespace fs = std::filesystem;

namespace {

// Record framing (all integers little-endian, docs/PERSISTENCE.md):
//   u32 magic 'QPSR' | u32 formatVersion | u32 kind | u32 reserved
//   u64 contentHash | u64 generation | u64 configFingerprint
//   u64 payloadBytes | payload... | u64 crc64(header + payload)
constexpr std::uint32_t kRecordMagic = 0x52535051u; // "QPSR"
constexpr std::size_t kRecordHeaderBytes = 4 * 4 + 4 * 8;
constexpr std::size_t kRecordTrailerBytes = 8;

/**
 * Identity of this writer, unique across every live ArtifactStore in
 * every process sharing a directory: the pid separates processes, the
 * low bits separate stores within one process. It is parsed back out
 * of segment filenames, so two writers racing to the same sequence
 * number produce distinct segment uids (and distinct filenames — an
 * id-only scheme would let the second rename clobber the first).
 */
std::uint32_t
makeWriterTag()
{
    static std::atomic<std::uint32_t> ordinal{0};
    return (static_cast<std::uint32_t>(::getpid()) << 10) ^
           ordinal.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t
segmentUid(std::uint32_t seq, std::uint32_t tag)
{
    return (static_cast<std::uint64_t>(seq) << 32) | tag;
}

/** True for the kinds this build reads; retired kinds are never served. */
bool
liveKind(std::uint32_t kind)
{
    return kind ==
           static_cast<std::uint32_t>(ArtifactKind::CompiledSchedule);
}

telemetry::Counter &
persistCounter(const char *name)
{
    return telemetry::MetricsRegistry::global().counter(name);
}

std::uint64_t
readLeU64(const std::uint8_t *p)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

std::uint32_t
readLeU32(const std::uint8_t *p)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    return v;
}

/** Write a whole buffer to `path` crash-safely: tmp + fsync + rename. */
Status
atomicWriteFile(const std::string &path,
                const std::uint8_t *data, std::size_t size)
{
    const std::string tmp = path + ".tmp";
    std::FILE *out = std::fopen(tmp.c_str(), "wb");
    if (out == nullptr)
        return Status::error(ErrorCode::Unavailable,
                             "cannot open " + tmp + " for writing");
    // The bytes can fail to land at any stage: fwrite, the flush of
    // the stdio buffer (a small segment is written only there), fsync
    // or close. Any failure leaves no file behind.
    const bool written =
        (size == 0 || std::fwrite(data, 1, size, out) == size) &&
        std::fflush(out) == 0 && ::fsync(::fileno(out)) == 0;
    if (std::fclose(out) != 0 || !written) {
        std::remove(tmp.c_str());
        return Status::error(ErrorCode::Unavailable,
                             "short write to " + tmp);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return Status::error(ErrorCode::Unavailable,
                             "cannot rename " + tmp + " into place");
    }
    return Status::okStatus();
}

/** Frame one record (header + payload + checksum trailer). */
std::vector<std::uint8_t>
frameRecord(const ArtifactKey &key,
            const std::vector<std::uint8_t> &payload)
{
    ByteWriter w;
    w.u32(kRecordMagic);
    w.u32(kFormatVersion);
    w.u32(key.kind);
    w.u32(0); // Reserved.
    w.u64(key.contentHash);
    w.u64(key.generation);
    w.u64(key.configFingerprint);
    w.u64(payload.size());
    w.raw(payload.data(), payload.size());
    const std::uint64_t checksum = crc64(w.bytes().data(), w.size());
    w.u64(checksum);
    return w.take();
}

} // namespace

std::size_t
ArtifactKeyHash::operator()(const ArtifactKey &key) const
{
    std::uint64_t h = mixHash(key.contentHash, key.generation);
    h = mixHash(h, key.configFingerprint);
    h = mixHash(h, key.kind);
    return static_cast<std::size_t>(h);
}

ArtifactStore::Mapping::~Mapping()
{
    if (base != nullptr)
        ::munmap(const_cast<std::uint8_t *>(base), size);
}

ArtifactStore::ArtifactStore(std::string dir, std::uint64_t max_bytes)
    : dir_(std::move(dir)), maxBytes_(max_bytes),
      writerTag_(makeWriterTag())
{}

// Mappings are shared with outstanding ArtifactViews; each one is
// unmapped when its last reference dies, which may outlive the store.
ArtifactStore::~ArtifactStore() = default;

std::shared_ptr<ArtifactStore>
ArtifactStore::open(const std::string &dir, std::uint64_t max_bytes,
                    Status *status)
{
    telemetry::TraceSpan span("store.open");
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec) {
        const Status s = Status::error(
            ErrorCode::Unavailable,
            "cannot create artifact store directory " + dir + ": " +
                ec.message());
        if (status != nullptr)
            *status = s;
        return nullptr;
    }
    std::shared_ptr<ArtifactStore> store(
        new ArtifactStore(dir, max_bytes));
    const Status s = store->loadExisting();
    if (status != nullptr)
        *status = s;
    if (!s.ok())
        return nullptr;
    return store;
}

std::shared_ptr<ArtifactStore>
ArtifactStore::openFromEnv()
{
    const std::optional<std::string> dir = envCacheDir();
    if (!dir.has_value())
        return nullptr; // Persistence disabled.
    Status status;
    std::shared_ptr<ArtifactStore> store =
        open(*dir, static_cast<std::uint64_t>(envCacheMaxBytes()),
             &status);
    if (store == nullptr)
        envWarn("QPULSE_CACHE_DIR",
                "disabling persistence: " + status.toString());
    return store;
}

Status
ArtifactStore::loadExisting()
{
    std::lock_guard<std::mutex> lock(mutex_);

    // Collect and map existing segments in (sequence, tag) order —
    // oldest first for budget eviction. Both fields are parsed back
    // out of the filename so the uid is stable across processes.
    std::vector<std::pair<std::uint64_t, std::string>> found;
    std::error_code ec;
    for (const fs::directory_entry &entry :
         fs::directory_iterator(dir_, ec)) {
        const std::string name = entry.path().filename().string();
        unsigned seq = 0, tag = 0;
        if (std::sscanf(name.c_str(), "seg-%u-%u.qps", &seq, &tag) ==
                2 &&
            name.size() > 4 &&
            name.compare(name.size() - 4, 4, ".qps") == 0)
            found.emplace_back(segmentUid(seq, tag),
                               entry.path().string());
    }
    if (ec)
        return Status::error(ErrorCode::Unavailable,
                             "cannot list " + dir_ + ": " +
                                 ec.message());
    std::sort(found.begin(), found.end());
    for (const auto &[uid, path] : found) {
        Segment segment;
        segment.uid = uid;
        segment.path = path;
        if (Status s = mapSegment(segment); !s.ok()) {
            // A transiently unreadable segment is skipped, not fatal:
            // its artifacts simply miss and re-derive.
            ++stats_.corrupt;
            continue;
        }
        // The segments are the only on-disk format: scanning every one
        // makes the records of every writer that flushed into this
        // directory addressable.
        scanSegment(segment);
        segments_.push_back(segment);
    }
    return Status::okStatus();
}

Status
ArtifactStore::mapSegment(Segment &segment)
{
    const int fd = ::open(segment.path.c_str(), O_RDONLY);
    if (fd < 0)
        return Status::error(ErrorCode::Unavailable,
                             "cannot open " + segment.path);
    struct stat st = {};
    if (::fstat(fd, &st) != 0 || st.st_size < 0) {
        ::close(fd);
        return Status::error(ErrorCode::Unavailable,
                             "cannot stat " + segment.path);
    }
    segment.size = static_cast<std::size_t>(st.st_size);
    if (segment.size == 0) {
        segment.map.reset();
        ::close(fd);
        return Status::okStatus();
    }
    void *map =
        ::mmap(nullptr, segment.size, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (map == MAP_FAILED)
        return Status::error(ErrorCode::Unavailable,
                             "cannot mmap " + segment.path);
    // Cold-start serves touch most of the segment in record order;
    // asking the kernel to read ahead overlaps the page-ins with
    // validation instead of faulting one 4 KiB page at a time.
    // Advisory only — a refusal just means slower first touches.
    ::madvise(map, segment.size, MADV_WILLNEED);
    auto mapping = std::make_shared<Mapping>();
    mapping->base = static_cast<const std::uint8_t *>(map);
    mapping->size = segment.size;
    segment.map = std::move(mapping);
    return Status::okStatus();
}

void
ArtifactStore::unmapSegment(Segment &segment)
{
    // Drops the store's reference only: outstanding ArtifactViews
    // keep the mapping alive, and munmap runs when the last of them
    // is destroyed (Mapping::~Mapping).
    segment.map.reset();
}

void
ArtifactStore::scanSegment(const Segment &segment)
{
    // Walk the record chain. Framing damage (bad magic, a record
    // running past the file) makes the rest of the segment
    // unaddressable — stop there and count it; everything before the
    // damage stays served. Checksums are verified lazily on first get.
    std::size_t offset = 0;
    while (offset + kRecordHeaderBytes + kRecordTrailerBytes <=
           segment.size) {
        const std::uint8_t *p = segment.map->base + offset;
        const std::uint32_t magic = readLeU32(p);
        if (magic != kRecordMagic)
            break; // Counted below: offset stops short of the size.
        const std::uint32_t version = readLeU32(p + 4);
        ArtifactKey key;
        key.kind = readLeU32(p + 8);
        key.contentHash = readLeU64(p + 16);
        key.generation = readLeU64(p + 24);
        key.configFingerprint = readLeU64(p + 32);
        const std::uint64_t payloadBytes = readLeU64(p + 40);
        // Bound the claimed payload by the bytes actually left BEFORE
        // computing the record span: a corrupt length near 2^64 would
        // wrap recordBytes to ~0, pass the span check, and the scan
        // would never advance past the damaged record.
        const std::size_t room = segment.size - offset -
                                 kRecordHeaderBytes -
                                 kRecordTrailerBytes;
        if (payloadBytes > room)
            break; // Truncated/corrupt tail; counted below.
        const std::size_t recordBytes =
            kRecordHeaderBytes + static_cast<std::size_t>(payloadBytes) +
            kRecordTrailerBytes;
        if (!liveKind(key.kind)) {
            // A retired kind an older build wrote: stepped over, never
            // indexed; its bytes go when the budget drops the segment.
            offset += recordBytes;
            continue;
        }
        IndexEntry entry;
        entry.segment = segment.uid;
        entry.offset = offset;
        entry.recordBytes = recordBytes;
        if (version != kFormatVersion) {
            entry.state = RecordState::QuarantinedVersion;
            ++stats_.versionMismatch;
            ++stats_.quarantined;
        }
        index_[key] = entry; // Newest record for a key wins.
        offset += recordBytes;
    }
    if (offset < segment.size) {
        // Framing damage — bad magic, a record running past the file,
        // or a tail too short to frame one (crash mid-copy of a
        // foreign tool, disk full...). The prefix stays served; the
        // damaged remainder is quarantined as one unit.
        ++stats_.corrupt;
        ++stats_.quarantined;
    }
}

Status
ArtifactStore::put(const ArtifactKey &key,
                   const std::vector<std::uint8_t> &payload)
{
    if (!liveKind(key.kind))
        return Status::error(ErrorCode::InvalidArgument,
                             "artifact kind " + std::to_string(key.kind) +
                                 " is not stored");
    std::lock_guard<std::mutex> lock(mutex_);
    pending_.push_back(Pending{key, frameRecord(key, payload)});
    ++stats_.puts;
    return Status::okStatus();
}

std::uint32_t
ArtifactStore::nextSegmentSeq() const
{
    std::uint32_t next = 1;
    for (const Segment &segment : segments_)
        next = std::max(
            next, static_cast<std::uint32_t>(segment.uid >> 32) + 1);
    return next;
}

Status
ArtifactStore::flush()
{
    static telemetry::Counter &c_flushes =
        persistCounter("cache.persist.flushes");
    static telemetry::Counter &c_bytes =
        persistCounter("cache.persist.bytes_written");
    telemetry::TraceSpan span("cache.persist.flush");

    std::lock_guard<std::mutex> lock(mutex_);
    if (pending_.empty())
        return Status::okStatus();

    Segment segment;
    const std::uint32_t seq = nextSegmentSeq();
    // The writer tag keeps two writers flushing into one directory
    // from racing to the same name or the same uid — both parts are
    // parsed back on reload, so each writer's records stay
    // addressable; ordering (budget eviction) stays by sequence.
    segment.uid = segmentUid(seq, writerTag_);
    char name[64];
    std::snprintf(name, sizeof name, "seg-%06u-%u.qps", seq,
                  writerTag_);
    segment.path = dir_ + "/" + name;

    ByteWriter w;
    std::vector<std::pair<ArtifactKey, IndexEntry>> fresh;
    fresh.reserve(pending_.size());
    for (const Pending &p : pending_) {
        IndexEntry entry;
        entry.segment = segment.uid;
        entry.offset = w.size();
        entry.recordBytes = p.record.size();
        entry.state = RecordState::Valid;
        entry.payloadOffset = entry.offset + kRecordHeaderBytes;
        entry.payloadBytes = p.record.size() - kRecordHeaderBytes -
                             kRecordTrailerBytes;
        fresh.emplace_back(p.key, entry);
        w.raw(p.record.data(), p.record.size());
    }

    if (Status s =
            atomicWriteFile(segment.path, w.bytes().data(), w.size());
        !s.ok())
        return s;
    if (Status s = mapSegment(segment); !s.ok())
        return s;
    if (segment.size != w.size()) {
        // Not the file just written: serving it would hand out records
        // cut short. The records stay pending for the next flush.
        unmapSegment(segment);
        std::remove(segment.path.c_str());
        return Status::error(ErrorCode::Unavailable,
                             segment.path + " holds " +
                                 std::to_string(segment.size) + " of " +
                                 std::to_string(w.size()) +
                                 " bytes written");
    }
    segments_.push_back(segment);
    for (auto &[key, entry] : fresh)
        index_[key] = entry;
    pending_.clear();
    stats_.bytesWritten += w.size();
    c_bytes.add(w.size());
    ++stats_.flushes;
    c_flushes.increment();

    return enforceBudget();
}

Status
ArtifactStore::enforceBudget()
{
    if (maxBytes_ == 0)
        return Status::okStatus();
    auto total = [&] {
        std::uint64_t bytes = 0;
        for (const Segment &segment : segments_)
            bytes += segment.size;
        return bytes;
    };
    // Drop oldest whole segments until under budget; the newest one
    // (just flushed) always survives so fresh write-backs are never
    // reclaimed before a single serve.
    while (segments_.size() > 1 && total() > maxBytes_) {
        Segment victim = segments_.front();
        segments_.erase(segments_.begin());
        for (auto it = index_.begin(); it != index_.end();)
            it = it->second.segment == victim.uid ? index_.erase(it)
                                                  : std::next(it);
        unmapSegment(victim);
        std::remove(victim.path.c_str());
        ++stats_.segmentsDropped;
    }
    return Status::okStatus();
}

Status
ArtifactStore::validate(const ArtifactKey &key, IndexEntry &entry)
{
    static telemetry::Counter &c_corrupt =
        persistCounter("cache.persist.corrupt");
    static telemetry::Counter &c_version =
        persistCounter("cache.persist.version_mismatch");
    static telemetry::Counter &c_quarantined =
        persistCounter("cache.persist.quarantined");

    const auto segment = std::find_if(
        segments_.begin(), segments_.end(),
        [&](const Segment &s) { return s.uid == entry.segment; });
    const auto quarantineCorrupt = [&](const std::string &why) {
        entry.state = RecordState::QuarantinedCorrupt;
        ++stats_.corrupt;
        ++stats_.quarantined;
        c_corrupt.increment();
        c_quarantined.increment();
        return Status::error(ErrorCode::StoreCorrupt, why);
    };
    // Subtraction, not addition: a corrupt offset/recordBytes pair
    // near 2^64 must not wrap the bound check.
    if (segment == segments_.end() ||
        entry.recordBytes <
            kRecordHeaderBytes + kRecordTrailerBytes ||
        entry.recordBytes > segment->size ||
        entry.offset > segment->size - entry.recordBytes)
        return quarantineCorrupt("record outside its segment");

    const std::uint8_t *p = segment->map->base + entry.offset;
    if (readLeU32(p) != kRecordMagic)
        return quarantineCorrupt("bad record magic");
    if (readLeU32(p + 4) != kFormatVersion) {
        entry.state = RecordState::QuarantinedVersion;
        ++stats_.versionMismatch;
        ++stats_.quarantined;
        c_version.increment();
        c_quarantined.increment();
        return Status::error(ErrorCode::StoreVersionMismatch,
                             "record format version " +
                                 std::to_string(readLeU32(p + 4)) +
                                 " != " +
                                 std::to_string(kFormatVersion));
    }
    ArtifactKey stored;
    stored.kind = readLeU32(p + 8);
    stored.contentHash = readLeU64(p + 16);
    stored.generation = readLeU64(p + 24);
    stored.configFingerprint = readLeU64(p + 32);
    if (!(stored == key))
        return quarantineCorrupt("record key does not echo the "
                                 "requested key");
    const std::uint64_t payloadBytes = readLeU64(p + 40);
    if (kRecordHeaderBytes + payloadBytes + kRecordTrailerBytes !=
        entry.recordBytes)
        return quarantineCorrupt("record length mismatch");
    const std::uint64_t expected =
        readLeU64(p + entry.recordBytes - kRecordTrailerBytes);
    if (crc64(p, static_cast<std::size_t>(entry.recordBytes -
                                          kRecordTrailerBytes)) !=
        expected)
        return quarantineCorrupt("record checksum mismatch");

    entry.state = RecordState::Valid;
    entry.payloadOffset = entry.offset + kRecordHeaderBytes;
    entry.payloadBytes = payloadBytes;
    return Status::okStatus();
}

Status
ArtifactStore::get(const ArtifactKey &key, ArtifactView &view)
{
    static telemetry::Counter &c_read =
        persistCounter("cache.persist.bytes_read");

    std::lock_guard<std::mutex> lock(mutex_);
    view = ArtifactView{};
    const auto it = index_.find(key);
    if (it == index_.end()) {
        ++stats_.misses;
        return Status::error(ErrorCode::InvalidArgument,
                             "artifact not found");
    }
    IndexEntry &entry = it->second;
    switch (entry.state) {
      case RecordState::QuarantinedCorrupt:
        ++stats_.misses;
        return Status::error(ErrorCode::StoreCorrupt,
                             "record is quarantined");
      case RecordState::QuarantinedVersion:
        ++stats_.misses;
        return Status::error(ErrorCode::StoreVersionMismatch,
                             "record is quarantined (foreign format "
                             "version)");
      case RecordState::Unvalidated:
        if (Status s = validate(key, entry); !s.ok()) {
            ++stats_.misses;
            return s;
        }
        break;
      case RecordState::Valid:
        break;
    }
    const auto segment = std::find_if(
        segments_.begin(), segments_.end(),
        [&](const Segment &s) { return s.uid == entry.segment; });
    if (segment == segments_.end()) {
        ++stats_.misses;
        return Status::error(ErrorCode::StoreCorrupt,
                             "segment dropped");
    }
    view.data = segment->map->base + entry.payloadOffset;
    view.size = static_cast<std::size_t>(entry.payloadBytes);
    // Pin the mapping: the caller may consume the view after this
    // mutex is released, racing a flush whose size budget drops the
    // segment — the munmap is deferred until the view is gone.
    view.pin = segment->map;
    ++stats_.hits;
    stats_.bytesRead += view.size;
    c_read.add(view.size);
    return Status::okStatus();
}

bool
ArtifactStore::contains(const ArtifactKey &key) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return index_.find(key) != index_.end();
}

std::size_t
ArtifactStore::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return index_.size();
}

std::uint64_t
ArtifactStore::diskBytes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t bytes = 0;
    for (const Segment &segment : segments_)
        bytes += segment.size;
    return bytes;
}

StoreStats
ArtifactStore::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

} // namespace store
} // namespace qpulse
