#include "common/env.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace qpulse {

void
envWarn(const std::string &name, const std::string &detail)
{
    std::fprintf(stderr, "qpulse warning: %s: %s\n", name.c_str(),
                 detail.c_str());
}

long
envLong(const char *name, long fallback, long lo, long hi)
{
    const char *raw = std::getenv(name);
    if (raw == nullptr || raw[0] == '\0')
        return fallback;

    char *end = nullptr;
    const long parsed = std::strtol(raw, &end, 10);
    if (end == raw || (end != nullptr && *end != '\0')) {
        envWarn(name, std::string("unparsable value '") + raw +
                          "', using default " +
                          std::to_string(fallback));
        return fallback;
    }
    if (parsed < lo || parsed > hi) {
        const long clamped = std::clamp(parsed, lo, hi);
        envWarn(name, "value " + std::to_string(parsed) +
                          " outside [" + std::to_string(lo) + ", " +
                          std::to_string(hi) + "], clamping to " +
                          std::to_string(clamped));
        return clamped;
    }
    return parsed;
}

std::optional<std::string>
envString(const char *name)
{
    const char *raw = std::getenv(name);
    if (raw == nullptr || raw[0] == '\0')
        return std::nullopt;
    return std::string(raw);
}

std::optional<std::string>
envCacheDir()
{
    return envString("QPULSE_CACHE_DIR");
}

long
envBytes(const char *name, long fallback, long lo, long hi)
{
    const char *raw = std::getenv(name);
    if (raw == nullptr || raw[0] == '\0')
        return fallback;

    char *end = nullptr;
    long parsed = std::strtol(raw, &end, 10);
    if (end == raw) {
        envWarn(name, std::string("unparsable value '") + raw +
                          "', using default " +
                          std::to_string(fallback));
        return fallback;
    }

    // Optional binary suffix; anything after it is trailing junk.
    long scale = 1;
    if (*end != '\0') {
        switch (*end) {
        case 'k': case 'K': scale = 1L << 10; break;
        case 'm': case 'M': scale = 1L << 20; break;
        case 'g': case 'G': scale = 1L << 30; break;
        case 't': case 'T': scale = 1L << 40; break;
        default: scale = 0; break;
        }
        if (scale == 0 || end[1] != '\0') {
            envWarn(name, std::string("unparsable value '") + raw +
                              "' (expected <int>[K|M|G|T]), using "
                              "default " +
                              std::to_string(fallback));
            return fallback;
        }
    }
    // Overflow-safe scale-up: saturate instead of wrapping, so a
    // "9999999T" typo clamps to `hi` with a warning rather than
    // flipping negative.
    constexpr long kMax = std::numeric_limits<long>::max();
    constexpr long kMin = std::numeric_limits<long>::min();
    if (parsed > kMax / scale)
        parsed = kMax;
    else if (parsed < kMin / scale)
        parsed = kMin;
    else
        parsed *= scale;

    if (parsed < lo || parsed > hi) {
        const long clamped = std::clamp(parsed, lo, hi);
        envWarn(name, "value " + std::to_string(parsed) +
                          " outside [" + std::to_string(lo) + ", " +
                          std::to_string(hi) + "], clamping to " +
                          std::to_string(clamped));
        return clamped;
    }
    return parsed;
}

long
envCacheMaxBytes()
{
    constexpr long kMiB = 1024L * 1024L;
    return envBytes("QPULSE_CACHE_MAX_BYTES", 256L * kMiB, kMiB,
                    kMiB * kMiB);
}

long
envIngestMaxBytes()
{
    return envBytes("QPULSE_INGEST_MAX_BYTES", 8L << 20, 4L << 10,
                    1L << 30);
}

} // namespace qpulse
