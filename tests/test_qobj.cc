/**
 * @file
 * Tests for the OpenPulse-style JSON serialisation: structural
 * content, sample inlining, and round-trips through the ingest reader
 * (ingest::parseJob) — instruction structure, and physics equivalence
 * of a round-tripped compiled schedule on the pulse simulator.
 */
#include <gtest/gtest.h>

#include "common/constants.h"
#include "compile/compiler.h"
#include "ingest/openpulse.h"
#include "linalg/gates.h"
#include "pulse/qobj.h"

namespace qpulse {
namespace {

/** Serialise with samples inlined and read back through ingest. */
Schedule
roundTrip(const Schedule &original)
{
    QobjWriteOptions options;
    options.includeSamples = true;
    ingest::IngestedJob job;
    const Status status = ingest::parseJob(
        scheduleToQobjJson(original, options), {}, job);
    EXPECT_TRUE(status.ok()) << status.message();
    return job.schedule;
}

Schedule
sampleSchedule()
{
    Schedule schedule("demo");
    schedule.shiftPhase(driveChannel(0), -0.5);
    schedule.play(driveChannel(0),
                  std::make_shared<GaussianWaveform>(
                      16, 4.0, Complex{0.1, 0.0}));
    schedule.delay(driveChannel(1), 8);
    schedule.shiftFrequency(driveChannel(1), -0.33);
    schedule.acquire(acquireChannel(0), 32);
    return schedule;
}

TEST(Qobj, EmitsStructuralFields)
{
    const std::string json = scheduleToQobjJson(sampleSchedule());
    EXPECT_NE(json.find("\"name\": \"demo\""), std::string::npos);
    EXPECT_NE(json.find("\"ch\": \"d0\""), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"fc\""), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"play\""), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"delay\""), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"sf\""), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"acquire\""), std::string::npos);
    // Samples only on demand.
    EXPECT_EQ(json.find("\"samples\""), std::string::npos);
    QobjWriteOptions options;
    options.includeSamples = true;
    EXPECT_NE(scheduleToQobjJson(sampleSchedule(), options)
                  .find("\"samples\""),
              std::string::npos);
}

TEST(Qobj, RoundTripPreservesStructure)
{
    const Schedule original = sampleSchedule();
    const Schedule reparsed = roundTrip(original);

    EXPECT_EQ(reparsed.name(), original.name());
    EXPECT_EQ(reparsed.duration(), original.duration());
    ASSERT_EQ(reparsed.instructions().size(),
              original.instructions().size());
    for (std::size_t i = 0; i < original.instructions().size(); ++i) {
        const auto &a = original.instructions()[i];
        const auto &b = reparsed.instructions()[i];
        EXPECT_EQ(a.kind, b.kind);
        EXPECT_TRUE(a.channel == b.channel);
        EXPECT_EQ(a.startTime, b.startTime);
        EXPECT_EQ(a.duration, b.duration);
        if (a.kind == PulseInstructionKind::ShiftPhase) {
            EXPECT_NEAR(a.phase, b.phase, 1e-9);
        }
        if (a.kind == PulseInstructionKind::ShiftFrequency) {
            EXPECT_NEAR(a.frequencyGhz, b.frequencyGhz, 1e-9);
        }
        if (a.kind == PulseInstructionKind::Play) {
            for (long t = 0; t < a.duration; ++t)
                EXPECT_NEAR(std::abs(a.waveform->sample(t) -
                                     b.waveform->sample(t)),
                            0.0, 1e-7);
        }
    }
}

TEST(Qobj, RoundTrippedScheduleSamePhysics)
{
    // Export a compiled DirectX schedule, re-import, and check both
    // produce the same propagator on the transmon simulator.
    const BackendConfig config = almadenLineConfig(1);
    const auto backend = makeCalibratedBackend(config);
    const Schedule original =
        backend->schedule(makeGate(GateType::DirectX, {0}));
    const Schedule reparsed = roundTrip(original);

    Calibrator calibrator(config);
    PulseSimulator sim(calibrator.qubitModel(0));
    const Matrix u_original =
        sim.evolveUnitary(original).unitary;
    const Matrix u_reparsed =
        sim.evolveUnitary(reparsed).unitary;
    EXPECT_LT(u_original.maxAbsDiff(u_reparsed), 1e-6);
}

} // namespace
} // namespace qpulse
