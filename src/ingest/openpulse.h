/**
 * @file
 * Lowering of parsed OpenPulse-JSON documents into qpulse::Schedule
 * and service job parameters — the semantic half of the ingestion
 * boundary (json.h is the syntactic half).
 *
 * Two document forms are accepted:
 *
 *  1. a bare schedule object, exactly the wire format
 *     scheduleToQobjJson (pulse/qobj.h) emits with samples inlined:
 *       {"name": ..., "duration": ..., "instructions": [
 *          {"t0": 0, "ch": "d0", "name": "play", "pulse": ...,
 *           "duration": 16, "samples": [[re, im], ...]},
 *          {"t0": 16, "ch": "d0", "name": "fc", "phase": 1.57}, ...]}
 *
 *  2. a job envelope wrapping a schedule plus execution parameters:
 *       {"qobj": {<schedule object>}, "shots": 256, "seed": 7,
 *        "priority": 0, "tenant": "alice", "backend": "default",
 *        "key": "x180/q0"}
 *
 * Lowering is defensive in the same way the parser is: every
 * rejection is a distinct structured ErrorCode (SchemaError for
 * wrong-type/missing fields, UnknownField for fields outside the
 * schema, NumberOutOfRange / SizeLimitExceeded for field budgets) and
 * messages carry the canonical " at byte B (line L, column C)"
 * location of the offending value. What lowering does *not* check is
 * deliberate: physical-validity classes (NegativeTime,
 * AmplitudeSaturation, ZeroDurationPlay, channel budgets...) stay
 * the job of the existing validateSchedule gate, so the PR 2
 * taxonomy keeps one owner per defect class.
 */
#ifndef QPULSE_INGEST_OPENPULSE_H
#define QPULSE_INGEST_OPENPULSE_H

#include <cstdint>
#include <string>
#include <string_view>

#include "ingest/json.h"
#include "pulse/schedule.h"

namespace qpulse {
namespace ingest {

/** Semantic budgets for one ingested document. */
struct IngestLimits
{
    JsonLimits json;
    /** Max instructions in one schedule. */
    std::size_t maxInstructions = 4096;
    /** Max samples in one Play envelope. */
    std::size_t maxSamples = 64u << 10;
    /** |t0| and duration bound, in dt samples. */
    long maxTime = 1L << 40;
    /** Max shots one job may request. */
    long maxShots = 1L << 20;
    /** Max channel index accepted at the boundary. */
    std::size_t maxChannelIndex = 4096;
    /** Max bytes of a name/tenant/backend/key/pulse string. */
    std::size_t maxNameBytes = 256;
};

/** A validated, lowered job ready for the execution service. */
struct IngestedJob
{
    Schedule schedule;
    std::string name = "schedule";
    /** 256 when the document states none, capped at maxShots. */
    long shots = 256;
    std::uint64_t seed = 1;
    int priority = 0;
    std::string tenant = "default";
    std::string backend = "default";
    /** Stale-tracking identity forwarded to JobRequest::key. */
    std::string key;
};

/**
 * Lower a parsed document (either form) into `out`. `text` is the
 * original payload, used only to format the location suffix of error
 * messages. On any defect `out` is untouched and the returned Status
 * carries the structured code.
 */
Status lowerJob(const JsonValue &root, std::string_view text,
                const IngestLimits &limits, IngestedJob &out);

/** Parse + lower in one call: the full defensive front door. */
Status parseJob(std::string_view text, const IngestLimits &limits,
                IngestedJob &out);

} // namespace ingest
} // namespace qpulse

#endif // QPULSE_INGEST_OPENPULSE_H
