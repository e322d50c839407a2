/**
 * @file
 * OpenPulse-style serialisation: render a Schedule as the JSON wire
 * format the OpenPulse specification ([6] in the paper) uses for
 * experiment payloads — one instruction object per entry with `name`,
 * `ch`, `t0` and the instruction-specific fields, samples inlined for
 * parametric pulses. ingest::parseJob (ingest/openpulse.h) reads the
 * sample-inlined form back, so schedules can be exported, inspected,
 * diffed and re-imported.
 */
#ifndef QPULSE_PULSE_QOBJ_H
#define QPULSE_PULSE_QOBJ_H

#include <string>

#include "pulse/schedule.h"

namespace qpulse {

/** Options for schedule serialisation. */
struct QobjWriteOptions
{
    /** Inline the complex sample arrays of Play instructions (the
     *  OpenPulse "sample pulse" form). When false, only the pulse
     *  name/duration metadata is emitted. */
    bool includeSamples = false;
    /** Fixed-point digits for floating-point fields. */
    int precision = 8;
};

/** Serialise a schedule to OpenPulse-style JSON. */
std::string scheduleToQobjJson(const Schedule &schedule,
                               const QobjWriteOptions &options = {});

} // namespace qpulse

#endif // QPULSE_PULSE_QOBJ_H
