/**
 * @file
 * Tests for the calibration routines — the bootstrap the whole paper
 * rests on. Every calibrated pulse is validated against the pulse
 * simulator it was tuned on: X90/X180 fidelities, DRAG behaviour,
 * qutrit sideband amplitudes, echoed-CR angle bookkeeping and the
 * stretch logic behind CR(theta).
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "common/constants.h"
#include "device/calibration.h"
#include "linalg/gates.h"
#include "telemetry/metrics.h"

namespace qpulse {
namespace {

/** Shared fixture: calibrate the 2-qubit line once. */
class CalibrationTest : public ::testing::Test
{
  protected:
    static void SetUpTestSuite()
    {
        config_ = new BackendConfig(almadenLineConfig(2));
        calibrator_ = new Calibrator(*config_);
        q0_ = new QubitCalibration(calibrator_->calibrateQubit(0));
        calibrator_->calibrateQutrit(0, *q0_);
        cr_ = new CrCalibration(calibrator_->calibrateCr(0, 1, *q0_));
    }

    static void TearDownTestSuite()
    {
        delete cr_;
        delete q0_;
        delete calibrator_;
        delete config_;
    }

    static Matrix qubitBlock(const Matrix &u)
    {
        Matrix block(2, 2);
        for (std::size_t r = 0; r < 2; ++r)
            for (std::size_t c = 0; c < 2; ++c)
                block(r, c) = u(r, c);
        return block;
    }

    static BackendConfig *config_;
    static Calibrator *calibrator_;
    static QubitCalibration *q0_;
    static CrCalibration *cr_;
};

BackendConfig *CalibrationTest::config_ = nullptr;
Calibrator *CalibrationTest::calibrator_ = nullptr;
QubitCalibration *CalibrationTest::q0_ = nullptr;
CrCalibration *CalibrationTest::cr_ = nullptr;

TEST_F(CalibrationTest, PulseDurationsMatchPaper)
{
    // 160 dt = 35.6 ns single pulses (Figure 4).
    EXPECT_EQ(q0_->duration, 160);
    EXPECT_NEAR(dtToNs(q0_->duration), 35.6, 0.1);
}

TEST_F(CalibrationTest, X90IsHalfOfX180)
{
    EXPECT_NEAR(q0_->x90Amp, q0_->x180Amp / 2.0, 1e-9);
    EXPECT_GT(q0_->x180Amp, 0.05);
    EXPECT_LT(q0_->x180Amp, 0.2);
}

TEST_F(CalibrationTest, X180HighFidelity)
{
    PulseSimulator sim(calibrator_->qubitModel(0));
    Schedule schedule("x");
    schedule.play(driveChannel(0), q0_->x180Pulse());
    const UnitaryResult result = sim.evolveUnitary(schedule);
    EXPECT_GT(unitaryOverlap(qubitBlock(result.unitary),
                             gates::rx(kPi)),
              0.999);
}

TEST_F(CalibrationTest, X90HighFidelity)
{
    PulseSimulator sim(calibrator_->qubitModel(0));
    Schedule schedule("x90");
    schedule.play(driveChannel(0), q0_->x90Pulse());
    const UnitaryResult result = sim.evolveUnitary(schedule);
    EXPECT_GT(unitaryOverlap(qubitBlock(result.unitary),
                             gates::rx(kPi / 2)),
              0.999);
}

TEST_F(CalibrationTest, TwoX90sEqualOneX180)
{
    // The Figure 4 equivalence: same area, same rotation.
    PulseSimulator sim(calibrator_->qubitModel(0));
    Schedule two("2x90");
    two.play(driveChannel(0), q0_->x90Pulse());
    two.play(driveChannel(0), q0_->x90Pulse());
    Schedule one("x180");
    one.play(driveChannel(0), q0_->x180Pulse());
    const Matrix u_two =
        qubitBlock(sim.evolveUnitary(two).unitary);
    const Matrix u_one =
        qubitBlock(sim.evolveUnitary(one).unitary);
    EXPECT_GT(unitaryOverlap(u_two, u_one), 0.999);
    // And the direct pulse is exactly half the duration.
    EXPECT_EQ(one.duration() * 2, two.duration());
}

TEST_F(CalibrationTest, ScaledPulseImplementsPartialRotation)
{
    // DirectRx(theta) via amplitude scaling (Section 4.2).
    PulseSimulator sim(calibrator_->qubitModel(0));
    for (double theta : {0.4, 1.1, 2.2}) {
        Schedule schedule("scaled");
        schedule.play(driveChannel(0),
                      std::make_shared<ScaledWaveform>(
                          q0_->x180Pulse(),
                          Complex{theta / kPi, 0.0}));
        const UnitaryResult result = sim.evolveUnitary(schedule);
        EXPECT_GT(unitaryOverlap(qubitBlock(result.unitary),
                                 gates::rx(theta)),
                  0.998)
            << theta;
    }
}

TEST_F(CalibrationTest, QutritPulsesCalibrated)
{
    // x12 near x180/sqrt(2) (matrix element sqrt(2) stronger); x02
    // needs substantially more power (two-photon, Section 7.2).
    EXPECT_NEAR(q0_->x12Amp, q0_->x180Amp / std::sqrt(2.0),
                0.25 * q0_->x180Amp);
    EXPECT_GT(q0_->x02Amp, 2.0 * q0_->x180Amp);
}

TEST_F(CalibrationTest, QutritX12PulseWorks)
{
    PulseSimulator sim(calibrator_->qubitModel(0));
    Vector ground(3);
    ground[0] = Complex{1, 0};
    Schedule schedule("x01-x12");
    schedule.play(driveChannel(0), q0_->x180Pulse());
    schedule.play(driveChannel(0),
                  std::make_shared<SidebandWaveform>(
                      std::make_shared<GaussianWaveform>(
                          q0_->qutritDuration, q0_->sigma,
                          Complex{q0_->x12Amp, 0.0}),
                      config_->qubits[0].anharmonicityGhz));
    const Vector out = sim.evolveState(schedule, ground);
    EXPECT_GT(std::norm(out[2]), 0.98);
}

TEST_F(CalibrationTest, QutritX02PulseWorks)
{
    PulseSimulator sim(calibrator_->qubitModel(0));
    Vector ground(3);
    ground[0] = Complex{1, 0};
    Schedule schedule("x02");
    schedule.play(driveChannel(0),
                  std::make_shared<SidebandWaveform>(
                      std::make_shared<GaussianWaveform>(
                          q0_->qutritDuration, q0_->sigma,
                          Complex{q0_->x02Amp, 0.0}),
                      config_->qubits[0].anharmonicityGhz / 2.0));
    // The two-photon drive is AC-Stark-shifted at the powers it
    // needs, so its peak transfer sits below a single-photon pulse's —
    // the same imperfection the paper's counter "dropout" reflects.
    const Vector out = sim.evolveState(schedule, ground);
    EXPECT_GT(std::norm(out[2]), 0.80);
}

TEST_F(CalibrationTest, CrCalibrationBookkeeping)
{
    EXPECT_EQ(cr_->control, 0u);
    EXPECT_EQ(cr_->target, 1u);
    EXPECT_GT(cr_->flatFor90, 100);
    EXPECT_GT(cr_->radPerDtFlat, 0.0);
    EXPECT_GT(cr_->radAtZeroFlat, 0.0);
    EXPECT_LT(cr_->radAtZeroFlat, 0.5);
}

TEST_F(CalibrationTest, StretchForInvertsAngleFormula)
{
    // stretchFor must invert theta = radAtZeroFlat + rate * flat.
    for (double theta : {0.3, 0.9, kPi / 2}) {
        const auto stretch = cr_->stretchFor(theta);
        if (stretch.ampScale == 1.0) {
            const double angle =
                cr_->radAtZeroFlat +
                cr_->radPerDtFlat * static_cast<double>(stretch.flat);
            EXPECT_NEAR(angle, theta, cr_->radPerDtFlat);
        }
    }
    // Small angles go through amplitude scaling with zero flat.
    const auto tiny = cr_->stretchFor(cr_->radAtZeroFlat / 2.0);
    EXPECT_EQ(tiny.flat, 0);
    EXPECT_NEAR(tiny.ampScale, 0.5, 1e-9);
}

TEST_F(CalibrationTest, StretchScalesMonotonically)
{
    long last_flat = -1;
    for (double theta = 0.2; theta < 1.6; theta += 0.2) {
        const auto stretch = cr_->stretchFor(theta);
        if (stretch.ampScale == 1.0) {
            EXPECT_GE(stretch.flat, last_flat);
            last_flat = stretch.flat;
        }
    }
}

TEST_F(CalibrationTest, CachedCalibrationIsReused)
{
    // Identical parameters -> the memoised result comes back.
    const QubitCalibration again = calibrator_->calibrateQubit(0);
    EXPECT_EQ(again.x180Amp, q0_->x180Amp);
    EXPECT_EQ(again.dragBeta, q0_->dragBeta);
}

TEST_F(CalibrationTest, CalibrateAllCoversEverything)
{
    Calibrator fresh(*config_);
    const PulseLibrary library = fresh.calibrateAll(false);
    EXPECT_EQ(library.qubits.size(), 2u);
    EXPECT_EQ(library.crs.size(), 1u);
    EXPECT_NO_THROW(library.cr(0, 1));
    EXPECT_THROW(library.cr(1, 0), FatalError);
    EXPECT_EQ(library.controlChannelIndex(0, 1), 0u);
}

TEST(CalibrationStandalone, ArmonkSingleQubit)
{
    const BackendConfig config = armonkConfig();
    Calibrator calibrator(config);
    const QubitCalibration cal = calibrator.calibrateQubit(0);
    PulseSimulator sim(calibrator.qubitModel(0));
    Schedule schedule("x");
    schedule.play(driveChannel(0), cal.x180Pulse());
    Vector ground(3);
    ground[0] = Complex{1, 0};
    const Vector out = sim.evolveState(schedule, ground);
    EXPECT_GT(std::norm(out[1]), 0.995);
}

TEST(CalibrationStandalone, TransmonsDifferingInFrequencyCalibrateOnce)
{
    // A single-transmon sweep reads only the anharmonicity and the
    // drive strength, so three uncoupled qubits that differ only in
    // frequency cost one sweep and get the same pulses.
    const BackendConfig one = almadenLineConfig(1);
    BackendConfig three = one;
    three.numQubits = 3;
    for (double freq_ghz : {5.104, 5.008}) {
        TransmonParams params = one.qubits[0];
        params.frequencyGhz = freq_ghz;
        three.qubits.push_back(params);
        three.readout.push_back(one.readout[0]);
    }
    ASSERT_TRUE(three.couplings.empty());

    const telemetry::Counter &evolutions =
        telemetry::MetricsRegistry::global().counter(
            "sim.evolve_state.calls");
    const std::uint64_t before_one = evolutions.value();
    const PulseLibrary library_one = Calibrator(one).calibrateAll(false);
    const std::uint64_t sweep = evolutions.value() - before_one;
    ASSERT_GT(sweep, 0u);
    const std::uint64_t before_three = evolutions.value();
    const PulseLibrary library_three =
        Calibrator(three).calibrateAll(false);
    EXPECT_EQ(evolutions.value() - before_three, sweep);

    const QubitCalibration &ref = library_one.qubits[0];
    ASSERT_EQ(library_three.qubits.size(), 3u);
    for (const QubitCalibration &cal : library_three.qubits) {
        EXPECT_EQ(cal.duration, ref.duration);
        EXPECT_EQ(cal.sigma, ref.sigma);
        EXPECT_EQ(cal.x90Amp, ref.x90Amp);
        EXPECT_EQ(cal.x180Amp, ref.x180Amp);
        EXPECT_EQ(cal.dragBeta, ref.dragBeta);
        EXPECT_EQ(cal.x12Amp, ref.x12Amp);
        EXPECT_EQ(cal.x02Amp, ref.x02Amp);
        EXPECT_EQ(cal.qutritDuration, ref.qutritDuration);
    }
}

} // namespace
} // namespace qpulse
