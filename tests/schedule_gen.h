/**
 * @file
 * Seeded pulse-schedule generator for differential tests.
 *
 * Each schedule mixes Play, ShiftPhase, ShiftFrequency and Delay on a
 * caller-chosen set of channels. Every channel advances on its own
 * clock, so plays on different channels overlap in time and their
 * drives sum on the transmon they land on. The Play envelopes cover
 * what the propagator cache treats specially:
 *
 * - Gaussians with sigma down to duration/16, whose tails fall below
 *   kDriveQuantum and quantize onto the zero-drive key;
 * - DRAG pulses (complex samples);
 * - flat-top GaussianSquare pulses and Constant runs of >= 64 samples,
 *   which collapse into run-length steps applied by binary powering;
 * - Delays, which leave idle stretches on their channel.
 *
 * The same seed always yields the same schedule.
 */
#ifndef QPULSE_TESTS_SCHEDULE_GEN_H
#define QPULSE_TESTS_SCHEDULE_GEN_H

#include <complex>
#include <memory>
#include <string>
#include <vector>

#include "common/constants.h"
#include "common/rng.h"
#include "pulse/schedule.h"
#include "pulse/waveform.h"

namespace qpulse {
namespace testgen {

/** What one generated schedule may contain. */
struct ScheduleShape
{
    std::vector<Channel> channels; ///< Channels instructions land on.
    long minDuration = 400;        ///< Generation stops once the
    long maxDuration = 1600;       ///< schedule reaches a length drawn
                                   ///< from [min, max].
    double maxAmp = 0.2;           ///< Largest |amp| of any Play.
};

/** A complex amplitude of modulus in [0.2, 1] * max_amp. */
inline Complex
randomAmp(Rng &rng, double max_amp)
{
    return std::polar(max_amp * rng.uniform(0.2, 1.0),
                      rng.uniform(-kPi, kPi));
}

/** A uniform integer in [lo, hi]. */
inline long
randomLong(Rng &rng, long lo, long hi)
{
    return lo + static_cast<long>(
                    rng.uniformInt(static_cast<std::uint64_t>(hi - lo + 1)));
}

/** One Play envelope of a random family. */
inline WaveformPtr
randomWaveform(Rng &rng, double max_amp)
{
    const Complex amp = randomAmp(rng, max_amp);
    switch (rng.uniformInt(4)) {
    case 0: {
        const long duration = randomLong(rng, 32, 320);
        const double sigma =
            static_cast<double>(duration) / rng.uniform(4.0, 16.0);
        return std::make_shared<GaussianWaveform>(duration, sigma, amp);
    }
    case 1: {
        const long duration = randomLong(rng, 32, 256);
        const double sigma =
            static_cast<double>(duration) / rng.uniform(4.0, 8.0);
        return std::make_shared<DragWaveform>(duration, sigma, amp,
                                              rng.uniform(-2.0, 2.0));
    }
    case 2: {
        const long risefall = randomLong(rng, 8, 64);
        const long duration = 2 * risefall + randomLong(rng, 64, 480);
        const double sigma =
            static_cast<double>(risefall) / rng.uniform(2.0, 4.0);
        return std::make_shared<GaussianSquareWaveform>(duration, sigma,
                                                        risefall, amp);
    }
    default:
        return std::make_shared<ConstantWaveform>(
            randomLong(rng, 64, 320), amp);
    }
}

/** A seeded random schedule over `shape.channels`. */
inline Schedule
generateSchedule(std::uint64_t seed, const ScheduleShape &shape)
{
    Rng rng(seed);
    Schedule schedule("generated-" + std::to_string(seed));
    const long target =
        randomLong(rng, shape.minDuration, shape.maxDuration);
    while (schedule.duration() < target) {
        const Channel &channel =
            shape.channels[rng.uniformInt(shape.channels.size())];
        const std::uint64_t kind = rng.uniformInt(8);
        if (kind < 4)
            schedule.play(channel, randomWaveform(rng, shape.maxAmp));
        else if (kind == 4)
            schedule.shiftPhase(channel, rng.uniform(-kPi, kPi));
        else if (kind == 5)
            schedule.shiftFrequency(channel, rng.uniform(-0.01, 0.01));
        else
            schedule.delay(channel, randomLong(rng, 16, 160));
    }
    return schedule;
}

} // namespace testgen
} // namespace qpulse

#endif // QPULSE_TESTS_SCHEDULE_GEN_H
