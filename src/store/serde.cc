#include "store/serde.h"

#include <array>
#include <atomic>
#include <bit>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "common/constants.h"
#include "linalg/simd.h"

namespace qpulse {
namespace store {

namespace {

/**
 * Lazily built CRC-64/XZ tables (ECMA-182 polynomial, reflected),
 * slice-by-16: table[0] is the classic byte-at-a-time table; table[k]
 * advances a byte through k additional zero bytes, so sixteen input
 * bytes fold per loop iteration. Identical output to the byte-wise
 * loop — record validation sits on the cold-start serve path, and the
 * update is a serial dependency chain, so halving the iterations
 * (vs slice-by-8) is a direct latency win worth the 32 KiB of tables.
 */
const std::array<std::array<std::uint64_t, 256>, 16> &
crcTables()
{
    static const std::array<std::array<std::uint64_t, 256>, 16>
        tables = [] {
            std::array<std::array<std::uint64_t, 256>, 16> t{};
            constexpr std::uint64_t kPoly = 0xC96C5795D7870F42ull;
            for (std::uint64_t i = 0; i < 256; ++i) {
                std::uint64_t crc = i;
                for (int bit = 0; bit < 8; ++bit)
                    crc = (crc >> 1) ^ (kPoly & (0ull - (crc & 1)));
                t[0][i] = crc;
            }
            for (std::size_t k = 1; k < 16; ++k)
                for (std::size_t i = 0; i < 256; ++i)
                    t[k][i] = (t[k - 1][i] >> 8) ^
                              t[0][t[k - 1][i] & 0xFF];
            return t;
        }();
    return tables;
}

Status
corrupt(const std::string &what)
{
    return Status::error(ErrorCode::StoreCorrupt, what);
}

constexpr bool kHostLittleEndian =
    std::endian::native == std::endian::little;

constexpr std::uint64_t
byteswap64(std::uint64_t v)
{
    v = ((v & 0x00FF00FF00FF00FFull) << 8) |
        ((v >> 8) & 0x00FF00FF00FF00FFull);
    v = ((v & 0x0000FFFF0000FFFFull) << 16) |
        ((v >> 16) & 0x0000FFFF0000FFFFull);
    return (v << 32) | (v >> 32);
}

/**
 * Raw CRC state update (no pre/post inversion): runs the slice-by-16
 * table loop over `size` bytes starting from `crc`. Both the public
 * crc64() and the carry-less-multiply fast path bottom out here (the
 * latter for its residual block and tail).
 */
std::uint64_t
crcTableUpdate(std::uint64_t crc, const std::uint8_t *p,
               std::size_t size)
{
    const auto &t = crcTables();
    while (size >= 16) {
        std::uint64_t lo, hi;
        std::memcpy(&lo, p, 8);
        std::memcpy(&hi, p + 8, 8);
        if constexpr (!kHostLittleEndian) {
            lo = byteswap64(lo);
            hi = byteswap64(hi);
        }
        lo ^= crc;
        crc = t[15][lo & 0xFF] ^ t[14][(lo >> 8) & 0xFF] ^
              t[13][(lo >> 16) & 0xFF] ^ t[12][(lo >> 24) & 0xFF] ^
              t[11][(lo >> 32) & 0xFF] ^ t[10][(lo >> 40) & 0xFF] ^
              t[9][(lo >> 48) & 0xFF] ^ t[8][lo >> 56] ^
              t[7][hi & 0xFF] ^ t[6][(hi >> 8) & 0xFF] ^
              t[5][(hi >> 16) & 0xFF] ^ t[4][(hi >> 24) & 0xFF] ^
              t[3][(hi >> 32) & 0xFF] ^ t[2][(hi >> 40) & 0xFF] ^
              t[1][(hi >> 48) & 0xFF] ^ t[0][hi >> 56];
        p += 16;
        size -= 16;
    }
    while (size >= 8) {
        std::uint64_t block;
        std::memcpy(&block, p, 8);
        if constexpr (!kHostLittleEndian)
            block = byteswap64(block);
        crc ^= block;
        crc = t[7][crc & 0xFF] ^ t[6][(crc >> 8) & 0xFF] ^
              t[5][(crc >> 16) & 0xFF] ^ t[4][(crc >> 24) & 0xFF] ^
              t[3][(crc >> 32) & 0xFF] ^ t[2][(crc >> 40) & 0xFF] ^
              t[1][(crc >> 48) & 0xFF] ^ t[0][crc >> 56];
        p += 8;
        size -= 8;
    }
    for (std::size_t i = 0; i < size; ++i)
        crc = t[0][(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
    return crc;
}

#if defined(__x86_64__)

/**
 * Solve A(k) = target over GF(2), where the linear operator A is given
 * by its images on the 64 basis vectors (img[i] = A(e_i)). Gaussian
 * elimination via an XOR basis; returns false when target is outside
 * A's column space.
 */
bool
solveGf2(const std::array<std::uint64_t, 64> &img,
         std::uint64_t target, std::uint64_t &solution)
{
    std::array<std::uint64_t, 64> val{};  // Basis value, leading bit b.
    std::array<std::uint64_t, 64> coef{}; // e_i combination behind it.
    for (int i = 0; i < 64; ++i) {
        std::uint64_t v = img[static_cast<std::size_t>(i)];
        std::uint64_t c = 1ull << i;
        for (int b = 63; b >= 0 && v != 0; --b) {
            if (((v >> b) & 1) == 0)
                continue;
            if (val[static_cast<std::size_t>(b)] == 0) {
                val[static_cast<std::size_t>(b)] = v;
                coef[static_cast<std::size_t>(b)] = c;
                break;
            }
            v ^= val[static_cast<std::size_t>(b)];
            c ^= coef[static_cast<std::size_t>(b)];
        }
    }
    std::uint64_t v = target;
    std::uint64_t s = 0;
    for (int b = 63; b >= 0 && v != 0; --b) {
        if (((v >> b) & 1) == 0)
            continue;
        if (val[static_cast<std::size_t>(b)] == 0)
            return false;
        v ^= val[static_cast<std::size_t>(b)];
        s ^= coef[static_cast<std::size_t>(b)];
    }
    solution = s;
    return true;
}

/**
 * Folding constants for the PCLMULQDQ CRC path, derived numerically
 * from the table CRC instead of transcribed from a reference: the
 * 16-byte fold step must satisfy crc0(fold(V)) == crc0(V || 0^16) for
 * every 128-bit accumulator V, which (by linearity in each 64-bit
 * half) pins klo/khi as the solutions of A16(k) = crc0(e_0 || 0^16)
 * and A16(k) = crc0(e_64 || 0^16), where A16 is the advance-by-16-
 * zero-bytes state operator. A one-time differential self-check
 * (clmulCrcUsable) guards the whole path, so a derivation bug can
 * only ever cost speed, never correctness.
 */
struct ClmulCrcConsts
{
    std::uint64_t klo = 0;
    std::uint64_t khi = 0;
    bool solved = false;
};

const ClmulCrcConsts &
clmulCrcConsts()
{
    static const ClmulCrcConsts consts = [] {
        ClmulCrcConsts out;
        std::array<std::uint64_t, 64> img{};
        const std::uint8_t zeros[16] = {};
        for (int i = 0; i < 64; ++i)
            img[static_cast<std::size_t>(i)] =
                crcTableUpdate(1ull << i, zeros, 16);
        std::uint8_t msg[32] = {};
        msg[0] = 1;
        const std::uint64_t clo = crcTableUpdate(0, msg, 32);
        msg[0] = 0;
        msg[8] = 1;
        const std::uint64_t chi = crcTableUpdate(0, msg, 32);
        out.solved = solveGf2(img, clo, out.klo) &&
                     solveGf2(img, chi, out.khi);
        return out;
    }();
    return consts;
}

/**
 * Fold `blocks` 16-byte blocks into one 128-bit residual: V' =
 * clmul(V.lo, klo) ^ clmul(V.hi, khi) ^ D maintains crc0(V as 16-byte
 * message) == crc0(prefix), with the initial CRC state injected into
 * the first block's low half (the standard reflected-CRC identity).
 * The caller finishes by running the table CRC over the residual plus
 * any tail bytes. Requires blocks >= 1.
 */
__attribute__((target("pclmul,sse2"))) void
crc64ClmulFold(std::uint64_t state, const std::uint8_t *p,
               std::size_t blocks, std::uint8_t out[16])
{
    const ClmulCrcConsts &cc = clmulCrcConsts();
    const __m128i k = _mm_set_epi64x(static_cast<long long>(cc.khi),
                                     static_cast<long long>(cc.klo));
    __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
    v = _mm_xor_si128(v, _mm_cvtsi64_si128(
                             static_cast<long long>(state)));
    p += 16;
    for (std::size_t i = 1; i < blocks; ++i, p += 16) {
        const __m128i d =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
        v = _mm_xor_si128(
            _mm_xor_si128(_mm_clmulepi64_si128(v, k, 0x00),
                          _mm_clmulepi64_si128(v, k, 0x11)),
            d);
    }
    _mm_storeu_si128(reinterpret_cast<__m128i *>(out), v);
}

std::uint64_t
crc64Clmul(const std::uint8_t *p, std::size_t size, std::uint64_t seed)
{
    const std::size_t blocks = size / 16;
    std::uint8_t residual[16];
    crc64ClmulFold(~seed, p, blocks, residual);
    std::uint64_t crc = crcTableUpdate(0, residual, 16);
    crc = crcTableUpdate(crc, p + blocks * 16, size % 16);
    return ~crc;
}

/**
 * One-time differential check of the carry-less path against the
 * table path (varied lengths, tails and seeds). Only ever consulted
 * after pclmulSupported() returned true.
 */
bool
clmulCrcUsable()
{
    static std::atomic<int> verdict{-1};
    int v = verdict.load(std::memory_order_relaxed);
    if (v < 0) {
        bool ok = clmulCrcConsts().solved;
        if (ok) {
            std::uint8_t buf[257];
            std::uint32_t x = 0x6d5a56e1u;
            for (auto &b : buf) {
                x = x * 1664525u + 1013904223u;
                b = static_cast<std::uint8_t>(x >> 24);
            }
            static constexpr std::size_t kSizes[] = {16, 32, 64, 96,
                                                     240, 255, 257};
            static constexpr std::uint64_t kSeeds[] = {
                0, 0xDEADBEEFCAFEF00Dull};
            for (std::size_t n : kSizes)
                for (std::uint64_t seed : kSeeds)
                    ok = ok &&
                         crc64Clmul(buf, n, seed) ==
                             ~crcTableUpdate(~seed, buf, n);
        }
        v = ok ? 1 : 0;
        verdict.store(v, std::memory_order_relaxed);
    }
    return v == 1;
}

#endif // defined(__x86_64__)

/** Minimum size for which the folding path is dispatched. */
constexpr std::size_t kClmulMinBytes = 64;

} // namespace

std::uint64_t
crc64(const void *bytes, std::size_t size, std::uint64_t seed)
{
    const auto *p = static_cast<const std::uint8_t *>(bytes);
#if defined(__x86_64__)
    if (size >= kClmulMinBytes && kernels::pclmulSupported() &&
        clmulCrcUsable())
        return crc64Clmul(p, size, seed);
#endif
    return ~crcTableUpdate(~seed, p, size);
}

const char *
crc64ActivePath(std::size_t size)
{
#if defined(__x86_64__)
    if (size >= kClmulMinBytes && kernels::pclmulSupported() &&
        clmulCrcUsable())
        return "clmul";
#endif
    (void)size;
    return "table";
}

std::uint64_t
hashBytes(const void *bytes, std::size_t size, std::uint64_t seed)
{
    const auto *p = static_cast<const std::uint8_t *>(bytes);
    std::uint64_t h = seed;
    for (std::size_t i = 0; i < size; ++i) {
        h ^= p[i];
        h *= 0x100000001B3ull;
    }
    return h;
}

std::uint64_t
mixHash(std::uint64_t a, std::uint64_t b)
{
    // splitmix64 finalizer over the ordered pair.
    std::uint64_t z = a + 0x9E3779B97F4A7C15ull + (b << 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31) ^ b;
}

// ------------------------------------------------------------------
// ByteWriter
// ------------------------------------------------------------------

void
ByteWriter::u32(std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
ByteWriter::u64(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
ByteWriter::f64(double v)
{
    u64(std::bit_cast<std::uint64_t>(v));
}

void
ByteWriter::c128(const Complex &v)
{
    f64(v.real());
    f64(v.imag());
}

void
ByteWriter::str(const std::string &v)
{
    u64(v.size());
    raw(v.data(), v.size());
}

void
ByteWriter::raw(const void *data, std::size_t size)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    bytes_.insert(bytes_.end(), p, p + size);
}

void
ByteWriter::f64Array(const double *src, std::size_t count)
{
    if constexpr (kHostLittleEndian) {
        raw(src, count * sizeof(double));
    } else {
        for (std::size_t i = 0; i < count; ++i)
            f64(src[i]);
    }
}

// ------------------------------------------------------------------
// ByteReader
// ------------------------------------------------------------------

Status
ByteReader::need(std::size_t n)
{
    if (size_ - pos_ < n)
        return corrupt("record payload truncated: wanted " +
                       std::to_string(n) + " bytes, have " +
                       std::to_string(size_ - pos_));
    return Status::okStatus();
}

Status
ByteReader::u8(std::uint8_t &v)
{
    if (Status s = need(1); !s.ok())
        return s;
    v = data_[pos_++];
    return Status::okStatus();
}

Status
ByteReader::u32(std::uint32_t &v)
{
    if (Status s = need(4); !s.ok())
        return s;
    v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
    return Status::okStatus();
}

Status
ByteReader::u64(std::uint64_t &v)
{
    if (Status s = need(8); !s.ok())
        return s;
    v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
    return Status::okStatus();
}

Status
ByteReader::i64(std::int64_t &v)
{
    std::uint64_t raw = 0;
    if (Status s = u64(raw); !s.ok())
        return s;
    v = static_cast<std::int64_t>(raw);
    return Status::okStatus();
}

Status
ByteReader::f64(double &v)
{
    std::uint64_t raw = 0;
    if (Status s = u64(raw); !s.ok())
        return s;
    v = std::bit_cast<double>(raw);
    return Status::okStatus();
}

Status
ByteReader::c128(Complex &v)
{
    double re = 0.0, im = 0.0;
    if (Status s = f64(re); !s.ok())
        return s;
    if (Status s = f64(im); !s.ok())
        return s;
    v = Complex{re, im};
    return Status::okStatus();
}

Status
ByteReader::str(std::string &v)
{
    std::uint64_t size = 0;
    if (Status s = u64(size); !s.ok())
        return s;
    // Compare in u64 before narrowing: on a 32-bit size_t a huge
    // length would otherwise truncate and pass the bounds check.
    if (size > remaining())
        return corrupt("string of " + std::to_string(size) +
                       " bytes beyond the payload");
    v.assign(reinterpret_cast<const char *>(data_ + pos_),
             static_cast<std::size_t>(size));
    pos_ += static_cast<std::size_t>(size);
    return Status::okStatus();
}

Status
ByteReader::f64Array(double *dst, std::size_t count)
{
    if (count > remaining() / sizeof(double))
        return corrupt("array of " + std::to_string(count) +
                       " values beyond the payload");
    if constexpr (kHostLittleEndian) {
        std::memcpy(dst, data_ + pos_, count * sizeof(double));
        pos_ += count * sizeof(double);
    } else {
        for (std::size_t i = 0; i < count; ++i)
            f64(dst[i]);
    }
    return Status::okStatus();
}

// ------------------------------------------------------------------
// Schedule
// ------------------------------------------------------------------

namespace {

/** Run detection compares bit patterns, not values: -0.0 vs 0.0 and
 *  NaN payloads must round-trip exactly (a NaN sample is precisely
 *  what schedule validation exists to catch). */
bool
sameSampleBits(const Complex &a, const Complex &b)
{
    return std::memcmp(&a, &b, sizeof(Complex)) == 0;
}

/** Runs shorter than this stay in literal blocks (a run block costs
 *  21 bytes; four literal samples cost 64). */
constexpr std::size_t kMinRun = 4;

/** Decoder guard: a corrupt run count must not balloon allocation. */
constexpr std::uint64_t kMaxRleSamples = 1ull << 22;

/**
 * Sample block codec for the RLE schedule encoding: a sequence of
 * tagged blocks covering sampleCount samples in order. Tag 0 is a
 * literal block (u32 count, count c128 samples); tag 1 is a run
 * (u32 count, one c128 repeated). Calibrated pulses are dominated by
 * gaussian-square flat-tops — long runs of one sample value — so this
 * typically shrinks records ~3x, which the cold-start serve path pays
 * for directly in CRC + page-in + decode time.
 */
void
writeSampleBlocks(const std::vector<Complex> &samples, ByteWriter &w)
{
    const std::size_t n = samples.size();
    std::size_t i = 0;
    while (i < n) {
        std::size_t run = 1;
        while (i + run < n && sameSampleBits(samples[i + run], samples[i]))
            ++run;
        if (run >= kMinRun) {
            w.u8(1);
            w.u32(static_cast<std::uint32_t>(run));
            w.c128(samples[i]);
            i += run;
            continue;
        }
        // Literal block: extend until the next >= kMinRun run starts.
        std::size_t j = i;
        while (j < n) {
            std::size_t r = 1;
            while (j + r < n && sameSampleBits(samples[j + r], samples[j]))
                ++r;
            if (r >= kMinRun)
                break;
            j += r;
        }
        w.u8(0);
        w.u32(static_cast<std::uint32_t>(j - i));
        w.f64Array(reinterpret_cast<const double *>(samples.data() + i),
                   (j - i) * 2);
        i = j;
    }
}

Status
readSampleBlocks(ByteReader &r, std::uint64_t sampleCount,
                 std::vector<Complex> &samples)
{
    if (sampleCount > kMaxRleSamples)
        return corrupt("RLE waveform claims " +
                       std::to_string(sampleCount) + " samples");
    samples.resize(static_cast<std::size_t>(sampleCount));
    std::size_t pos = 0;
    while (pos < samples.size()) {
        std::uint8_t tag = 0;
        std::uint32_t count = 0;
        if (Status s = r.u8(tag); !s.ok())
            return s;
        if (Status s = r.u32(count); !s.ok())
            return s;
        if (count == 0 || count > samples.size() - pos)
            return corrupt("RLE block of " + std::to_string(count) +
                           " samples overflows the waveform");
        if (tag == 1) {
            Complex value;
            if (Status s = r.c128(value); !s.ok())
                return s;
            std::fill(samples.begin() + static_cast<std::ptrdiff_t>(pos),
                      samples.begin() +
                          static_cast<std::ptrdiff_t>(pos + count),
                      value);
        } else if (tag == 0) {
            if (Status s = r.f64Array(
                    reinterpret_cast<double *>(samples.data() + pos),
                    static_cast<std::size_t>(count) * 2);
                !s.ok())
                return s;
        } else {
            return corrupt("unknown RLE block tag " +
                           std::to_string(tag));
        }
        pos += count;
    }
    return Status::okStatus();
}

void
serializeScheduleImpl(const Schedule &schedule, ByteWriter &w, bool rle)
{
    w.str(schedule.name());
    const auto &instructions = schedule.instructions();
    w.u64(instructions.size());
    for (const PulseInstruction &instr : instructions) {
        w.u8(static_cast<std::uint8_t>(instr.kind));
        w.u8(static_cast<std::uint8_t>(instr.channel.kind));
        w.u64(instr.channel.index);
        w.i64(instr.startTime);
        w.f64(instr.phase);
        w.f64(instr.frequencyGhz);
        w.i64(instr.duration);
        if (instr.kind == PulseInstructionKind::Play &&
            instr.waveform != nullptr) {
            const std::vector<Complex> samples =
                instr.waveform->samples();
            w.str(instr.waveform->name());
            w.u64(samples.size());
            if (rle) {
                writeSampleBlocks(samples, w);
            } else {
                // Same consecutive little-endian (re, im) f64 pairs
                // the per-sample c128 calls produce, via the bulk
                // fast path.
                w.f64Array(
                    reinterpret_cast<const double *>(samples.data()),
                    samples.size() * 2);
            }
        } else {
            w.str(std::string());
            w.u64(0);
        }
    }
}

} // namespace

void
serializeSchedule(const Schedule &schedule, ByteWriter &w)
{
    serializeScheduleImpl(schedule, w, /*rle=*/false);
}

void
serializeScheduleRle(const Schedule &schedule, ByteWriter &w)
{
    serializeScheduleImpl(schedule, w, /*rle=*/true);
}

Status
deserializeScheduleRle(ByteReader &r, Schedule &out)
{
    std::string name;
    if (Status s = r.str(name); !s.ok())
        return s;
    out = Schedule(std::move(name));
    std::uint64_t count = 0;
    if (Status s = r.u64(count); !s.ok())
        return s;
    for (std::uint64_t i = 0; i < count; ++i) {
        PulseInstruction instr;
        std::uint8_t kind = 0, chanKind = 0;
        std::uint64_t chanIndex = 0;
        if (Status s = r.u8(kind); !s.ok())
            return s;
        if (kind > static_cast<std::uint8_t>(
                       PulseInstructionKind::Acquire))
            return corrupt("unknown instruction kind " +
                           std::to_string(kind));
        if (Status s = r.u8(chanKind); !s.ok())
            return s;
        if (chanKind >
            static_cast<std::uint8_t>(ChannelKind::Acquire))
            return corrupt("unknown channel kind " +
                           std::to_string(chanKind));
        if (Status s = r.u64(chanIndex); !s.ok())
            return s;
        instr.kind = static_cast<PulseInstructionKind>(kind);
        instr.channel.kind = static_cast<ChannelKind>(chanKind);
        instr.channel.index = static_cast<std::size_t>(chanIndex);
        if (Status s = r.i64(instr.startTime); !s.ok())
            return s;
        if (Status s = r.f64(instr.phase); !s.ok())
            return s;
        if (Status s = r.f64(instr.frequencyGhz); !s.ok())
            return s;
        if (Status s = r.i64(instr.duration); !s.ok())
            return s;
        std::string label;
        if (Status s = r.str(label); !s.ok())
            return s;
        std::uint64_t sampleCount = 0;
        if (Status s = r.u64(sampleCount); !s.ok())
            return s;
        if (sampleCount > 0) {
            std::vector<Complex> samples;
            if (Status s = readSampleBlocks(r, sampleCount, samples);
                !s.ok())
                return s;
            instr.waveform = std::make_shared<SampledWaveform>(
                std::move(samples), std::move(label));
        }
        out.addInstruction(std::move(instr));
    }
    return Status::okStatus();
}

// ------------------------------------------------------------------
// QuantumCircuit
// ------------------------------------------------------------------

void
serializeCircuit(const QuantumCircuit &circuit, ByteWriter &w)
{
    w.u64(circuit.numQubits());
    w.u64(circuit.gates().size());
    for (const Gate &gate : circuit.gates()) {
        w.u32(static_cast<std::uint32_t>(gate.type));
        w.u64(gate.qubits.size());
        for (std::size_t q : gate.qubits)
            w.u64(q);
        w.u64(gate.params.size());
        w.f64Array(gate.params.data(), gate.params.size());
    }
}

Status
deserializeCircuit(ByteReader &r, QuantumCircuit &out)
{
    std::uint64_t numQubits = 0, gateCount = 0;
    if (Status s = r.u64(numQubits); !s.ok())
        return s;
    if (numQubits == 0)
        return corrupt("circuit claims zero qubits");
    if (Status s = r.u64(gateCount); !s.ok())
        return s;
    // Each gate costs at least 20 bytes (type + two counts).
    if (gateCount > r.remaining() / 20)
        return corrupt("circuit claims " + std::to_string(gateCount) +
                       " gates beyond the payload");
    out = QuantumCircuit(static_cast<std::size_t>(numQubits));
    for (std::uint64_t i = 0; i < gateCount; ++i) {
        std::uint32_t type = 0;
        if (Status s = r.u32(type); !s.ok())
            return s;
        if (type > static_cast<std::uint32_t>(GateType::Barrier))
            return corrupt("unknown gate type " + std::to_string(type));
        Gate gate;
        gate.type = static_cast<GateType>(type);
        std::uint64_t count = 0;
        if (Status s = r.u64(count); !s.ok())
            return s;
        if (count > r.remaining() / 8)
            return corrupt("gate wire list beyond the payload");
        gate.qubits.resize(static_cast<std::size_t>(count));
        for (std::size_t &q : gate.qubits) {
            std::uint64_t wire = 0;
            if (Status s = r.u64(wire); !s.ok())
                return s;
            // Bounds-check here (fail closed) rather than letting the
            // circuit builder's fatal wire validation fire on corrupt
            // payloads.
            if (wire >= numQubits)
                return corrupt("gate wire " + std::to_string(wire) +
                               " outside a " + std::to_string(numQubits) +
                               "-qubit register");
            q = static_cast<std::size_t>(wire);
        }
        if (Status s = r.u64(count); !s.ok())
            return s;
        if (count > r.remaining() / 8)
            return corrupt("gate parameter list beyond the payload");
        gate.params.resize(static_cast<std::size_t>(count));
        if (Status s = r.f64Array(gate.params.data(), gate.params.size());
            !s.ok())
            return s;
        out.gates().push_back(std::move(gate));
    }
    return Status::okStatus();
}

// ------------------------------------------------------------------
// Content hashes / fingerprints
// ------------------------------------------------------------------

std::uint64_t
hashSchedule(const Schedule &schedule)
{
    ByteWriter w;
    serializeSchedule(schedule, w);
    return hashBytes(w.bytes().data(), w.size());
}

namespace {

// The pulse library's canonical encoding: its backend config, then
// every qubit and CR calibration. Only hashPulseLibrary reads it; the
// hash is the calibration part of every compile key's generation, so
// changing these bytes makes every persisted compiled schedule
// unreachable.

void
serializeBackendConfig(const BackendConfig &config, ByteWriter &w)
{
    w.str(config.name);
    w.u64(config.numQubits);
    w.u64(config.qubits.size());
    for (const TransmonParams &q : config.qubits) {
        w.f64(q.frequencyGhz);
        w.f64(q.anharmonicityGhz);
        w.f64(q.driveStrengthGhz);
        w.f64(q.t1Us);
        w.f64(q.t2Us);
    }
    w.u64(config.couplings.size());
    for (const CouplingEdge &edge : config.couplings) {
        w.u64(edge.control);
        w.u64(edge.target);
        w.f64(edge.strengthGhz);
    }
    w.u64(config.readout.size());
    for (const ReadoutError &err : config.readout) {
        w.f64(err.probFlip0to1);
        w.f64(err.probFlip1to0);
    }
    w.f64(config.noise.perPulseError1q);
    w.f64(config.noise.perPulseError2q);
    w.f64(config.noise.amplitudeError);
    w.f64(config.noise.leakagePerAmpSq);
    w.i64(config.pulseDuration);
    w.f64(config.pulseSigma);
    w.i64(config.crRisefall);
    w.f64(config.crAmplitude);
    w.i64(config.measureDuration);
}

void
serializePulseLibrary(const PulseLibrary &library, ByteWriter &w)
{
    serializeBackendConfig(library.config, w);
    w.u64(library.qubits.size());
    for (const QubitCalibration &cal : library.qubits) {
        w.i64(cal.duration);
        w.f64(cal.sigma);
        w.f64(cal.x90Amp);
        w.f64(cal.x180Amp);
        w.f64(cal.dragBeta);
        w.f64(cal.x12Amp);
        w.f64(cal.x02Amp);
        w.i64(cal.qutritDuration);
    }
    w.u64(library.crs.size());
    for (const CrCalibration &cr : library.crs) {
        w.u64(cr.control);
        w.u64(cr.target);
        w.f64(cr.amplitude);
        w.i64(cr.risefall);
        w.f64(cr.sigma);
        w.i64(cr.flatFor90);
        w.f64(cr.radPerDtFlat);
        w.f64(cr.radAtZeroFlat);
        w.f64(cr.phaseFixControl);
        w.f64(cr.phaseFixTarget);
        w.f64(cr.axisPhaseTarget);
        w.u64(cr.fixTable.size());
        for (const CrCalibration::PhaseFixPoint &fix : cr.fixTable) {
            w.f64(fix.theta);
            w.f64(fix.control);
            w.f64(fix.target);
            w.f64(fix.axis);
        }
    }
}

} // namespace

std::uint64_t
hashPulseLibrary(const PulseLibrary &library)
{
    ByteWriter w;
    serializePulseLibrary(library, w);
    return hashBytes(w.bytes().data(), w.size());
}

} // namespace store
} // namespace qpulse
