/**
 * @file
 * Canonical binary serialization for persisted artifacts
 * (docs/PERSISTENCE.md).
 *
 * Everything the ArtifactStore writes goes through this layer so the
 * on-disk bytes are host-independent and self-validating:
 *
 *  - **explicit endianness**: every value is encoded little-endian,
 *    so an artifact written on any host decodes identically on any
 *    other. Scalar accessors encode by byte shifts; the bulk array
 *    accessors take a memcpy fast path only when the host is
 *    little-endian (std::endian check) and fall back to the same
 *    byte shifts otherwise — the bytes on disk are identical either
 *    way;
 *  - **exact doubles**: f64 values round-trip through their IEEE-754
 *    bit pattern (std::bit_cast to/from uint64), so a deserialized
 *    schedule's samples are *bit-identical* to the compiled ones;
 *  - **format version**: kFormatVersion is stamped into every record
 *    header; a decoder never guesses at bytes written by a different
 *    layout (ErrorCode::StoreVersionMismatch, fail closed);
 *  - **per-record checksums**: CRC-64/XZ over the full record; a
 *    truncated or bit-flipped record fails the checksum and is
 *    quarantined, never decoded (ErrorCode::StoreCorrupt).
 *
 * Serializable artifacts: Schedule (waveforms materialized to samples —
 * the parametric Waveform subclasses hold closures-worth of behavior,
 * but their *samples* are the canonical content) and QuantumCircuit,
 * the two halves of a CompiledSchedule record. A PulseLibrary is
 * hashed, never persisted.
 */
#ifndef QPULSE_STORE_SERDE_H
#define QPULSE_STORE_SERDE_H

#include <cstdint>
#include <string>
#include <vector>

#include "circuit/circuit.h"
#include "common/status.h"
#include "device/calibration.h"
#include "pulse/schedule.h"

namespace qpulse {
namespace store {

/** On-disk layout version; bump on any encoding change. */
inline constexpr std::uint32_t kFormatVersion = 1;

/** CRC-64/XZ (ECMA-182 polynomial, reflected) over a byte range. */
std::uint64_t crc64(const void *bytes, std::size_t size,
                    std::uint64_t seed = 0);

/**
 * Which implementation crc64() dispatches to for a `size`-byte input:
 * "clmul" (PCLMULQDQ 16-byte folding — used for large inputs when the
 * CPU supports carry-less multiply and the one-time differential
 * self-check against the table path passed) or "table" (slice-by-16).
 * Both produce identical CRCs; exposed so tests can assert the fast
 * path is actually live on capable hardware.
 */
const char *crc64ActivePath(std::size_t size);

/** FNV-1a over a byte range (content hashing, not integrity). */
std::uint64_t hashBytes(const void *bytes, std::size_t size,
                        std::uint64_t seed = 0xCBF29CE484222325ull);

/** Order-dependent combine of two 64-bit hashes. */
std::uint64_t mixHash(std::uint64_t a, std::uint64_t b);

/** Append-only little-endian encoder. */
class ByteWriter
{
  public:
    void u8(std::uint8_t v) { bytes_.push_back(v); }
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    /** IEEE-754 bit pattern; exact round-trip. */
    void f64(double v);
    void c128(const Complex &v);
    /** u64 length prefix + raw bytes. */
    void str(const std::string &v);
    void raw(const void *data, std::size_t size);
    /**
     * Contiguous value array (waveform samples, gate parameters). The
     * encoding is the same consecutive little-endian values the
     * scalar calls produce; on little-endian hosts the whole block
     * is appended with one memcpy instead of a per-byte loop.
     */
    void f64Array(const double *src, std::size_t count);

    const std::vector<std::uint8_t> &bytes() const { return bytes_; }
    std::vector<std::uint8_t> take() { return std::move(bytes_); }
    std::size_t size() const { return bytes_.size(); }

  private:
    std::vector<std::uint8_t> bytes_;
};

/**
 * Bounds-checked little-endian decoder over a borrowed byte range
 * (typically an mmap'ed record payload — the reader never copies the
 * input). Every read returns a Status; a short buffer yields
 * StoreCorrupt, never UB.
 */
class ByteReader
{
  public:
    ByteReader(const void *data, std::size_t size)
        : data_(static_cast<const std::uint8_t *>(data)), size_(size)
    {}

    Status u8(std::uint8_t &v);
    Status u32(std::uint32_t &v);
    Status u64(std::uint64_t &v);
    Status i64(std::int64_t &v);
    Status f64(double &v);
    Status c128(Complex &v);
    Status str(std::string &v);
    /** Bulk counterpart of ByteWriter::f64Array (bounds-checked once
     *  for the whole block; memcpy on LE hosts). */
    Status f64Array(double *dst, std::size_t count);

    std::size_t remaining() const { return size_ - pos_; }
    bool exhausted() const { return pos_ == size_; }

  private:
    Status need(std::size_t n);

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

// ------------------------------------------------------------------
// Artifact serializers. Serialize never fails; deserialize returns a
// structured Status (StoreCorrupt on malformed payloads) and leaves
// the output unspecified on failure.
// ------------------------------------------------------------------

/**
 * Plain schedule encoding: name + instruction list, every Play
 * waveform materialized to its samples. Nothing persists it; it is
 * the byte stream hashSchedule hashes.
 */
void serializeSchedule(const Schedule &schedule, ByteWriter &w);

/**
 * The persisted schedule encoding (the CompiledSchedule payload): the
 * serializeSchedule layout except each waveform's samples are stored
 * as tagged literal/run blocks (bit-exact round trip, including NaN
 * payloads and signed zeros). Calibrated pulses are dominated by
 * gaussian-square flat-tops, so this typically shrinks records ~3x,
 * which every cold-start serve pays for in CRC + page-in + decode. A
 * deserialized schedule carries SampledWaveform envelopes that are
 * sample-for-sample bit-identical to the original parametric pulses.
 */
void serializeScheduleRle(const Schedule &schedule, ByteWriter &w);
Status deserializeScheduleRle(ByteReader &r, Schedule &out);

/**
 * Circuit encoding: register width + gate list (type, wires, params).
 * Used to round-trip the transpiled basis circuit inside a
 * CompiledSchedule record; the decoder bounds-checks wire indices so a
 * corrupt record fails closed instead of tripping the circuit
 * builder's fatal validation.
 */
void serializeCircuit(const QuantumCircuit &circuit, ByteWriter &w);
Status deserializeCircuit(ByteReader &r, QuantumCircuit &out);

// ------------------------------------------------------------------
// Content hashes / fingerprints (key components, docs/PERSISTENCE.md).
// ------------------------------------------------------------------

/**
 * Stable content hash of a schedule: instruction kinds, channels,
 * times, phases, frequencies, and the bit patterns of every waveform
 * sample. Two schedules that produce the same pulse program hash
 * equal; any sample or timing change reroutes the key.
 */
std::uint64_t hashSchedule(const Schedule &schedule);

/**
 * Content hash of a pulse library: its backend config and every qubit
 * and CR calibration. calibrationGeneration mixes it into every
 * compile key.
 */
std::uint64_t hashPulseLibrary(const PulseLibrary &library);

} // namespace store
} // namespace qpulse

#endif // QPULSE_STORE_SERDE_H
