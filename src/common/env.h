/**
 * @file
 * Diagnosed environment-variable parsing.
 *
 * Every QPULSE_* knob goes through these helpers so that a typo'd or
 * out-of-range value produces a one-line stderr warning instead of a
 * silent fallback: QPULSE_THREADS (thread_pool.cc),
 * QPULSE_SERVICE_QUEUE (execution_service.cc),
 * QPULSE_FAULT_PLAN (fault_injector.cc), QPULSE_CACHE_DIR /
 * QPULSE_CACHE_MAX_BYTES (src/store), QPULSE_INGEST_MAX_BYTES
 * (src/ingest). QPULSE_SANITIZE is consumed
 * by CMake at configure time, not here; see docs/ROBUSTNESS.md for
 * the full list.
 */
#ifndef QPULSE_COMMON_ENV_H
#define QPULSE_COMMON_ENV_H

#include <optional>
#include <string>

namespace qpulse {

/** One-line "qpulse warning: <name>: <detail>" to stderr. */
void envWarn(const std::string &name, const std::string &detail);

/**
 * Read an integer environment variable with a validity range.
 *
 * Unset -> `fallback`, silently. Unparsable (not an integer, trailing
 * junk) -> `fallback`, with a warning. Parsable but outside
 * [lo, hi] -> clamped to the nearest bound, with a warning.
 */
long envLong(const char *name, long fallback, long lo, long hi);

/** Raw string value of an environment variable, if set and non-empty. */
std::optional<std::string> envString(const char *name);

/**
 * QPULSE_CACHE_DIR: directory of the persistent artifact store
 * (docs/PERSISTENCE.md). Unset or empty -> nullopt, which disables
 * persistence entirely (behavior is then bit-identical to a build
 * without the store).
 */
std::optional<std::string> envCacheDir();

/**
 * QPULSE_CACHE_MAX_BYTES: on-disk budget of the persistent artifact
 * store. Oldest whole segments are deleted at flush time once the
 * budget is exceeded. Unset -> 256 MiB; garbage -> default with a
 * warning; clamped to [1 MiB, 1 TiB] with a warning.
 */
long envCacheMaxBytes();

/**
 * Read a byte-count environment variable with the same warn-and-clamp
 * contract as envLong, plus an optional binary suffix: "8M" = 8 MiB,
 * "64K", "2G", "1T" (case-insensitive, K/M/G/T only). A bare integer
 * is bytes. Garbage or a suffix that overflows `long` -> `fallback`
 * with a warning; out-of-range -> clamped with a warning.
 */
long envBytes(const char *name, long fallback, long lo, long hi);

/**
 * QPULSE_INGEST_MAX_BYTES: per-connection receive-buffer budget of
 * the RequestFrontEnd (src/ingest/frontend.h) and default document
 * size limit (JsonLimits::maxBytes). Unset -> 8 MiB; accepts K/M/G
 * suffixes via envBytes; clamped to [4 KiB, 1 GiB] with a warning.
 */
long envIngestMaxBytes();

} // namespace qpulse

#endif // QPULSE_COMMON_ENV_H
