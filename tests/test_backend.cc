/**
 * @file
 * Tests for the PulseBackend cmd_def entries and schedule assembly:
 * durations match the paper's Figure 4/8 accounting, schedules act
 * correctly on the pulse simulator, and the noise accounting used by
 * the density simulator is consistent.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "common/constants.h"
#include "compile/compiler.h"
#include "device/pulse_backend.h"
#include "linalg/gates.h"

namespace qpulse {
namespace {

class BackendTest : public ::testing::Test
{
  protected:
    static void SetUpTestSuite()
    {
        config_ = new BackendConfig(almadenLineConfig(2));
        backend_ = new std::shared_ptr<const PulseBackend>(
            makeCalibratedBackend(*config_));
        calibrator_ = new Calibrator(*config_);
        pair_sim_ = new PulseSimulator(calibrator_->pairSimulator(0, 1));
    }

    static void TearDownTestSuite()
    {
        delete pair_sim_;
        delete calibrator_;
        delete backend_;
        delete config_;
    }

    static Matrix projectQubits(const Matrix &u)
    {
        const std::size_t idx[4] = {0, 1, 3, 4};
        Matrix p(4, 4);
        for (std::size_t r = 0; r < 4; ++r)
            for (std::size_t c = 0; c < 4; ++c)
                p(r, c) = u(idx[r], idx[c]);
        return p;
    }

    static double scheduleFidelity(const Schedule &schedule,
                                   const Matrix &target)
    {
        const UnitaryResult result = pair_sim_->evolveUnitary(schedule);
        const Matrix eff =
            projectQubits(pair_sim_->effectiveUnitary(result));
        return averageGateFidelity(eff, target);
    }

    static BackendConfig *config_;
    static std::shared_ptr<const PulseBackend> *backend_;
    static Calibrator *calibrator_;
    static PulseSimulator *pair_sim_;
};

BackendConfig *BackendTest::config_ = nullptr;
std::shared_ptr<const PulseBackend> *BackendTest::backend_ = nullptr;
Calibrator *BackendTest::calibrator_ = nullptr;
PulseSimulator *BackendTest::pair_sim_ = nullptr;

TEST_F(BackendTest, DirectXDurationHalvesStandardX)
{
    // Figure 4: DirectX = 160 dt = 35.6 ns, standard X (2 pulses)
    // = 320 dt = 71.1 ns.
    const Gate direct_x = makeGate(GateType::DirectX, {0});
    EXPECT_EQ((*backend_)->gateDuration(direct_x), 160);
    const Gate x90 = makeGate(GateType::X90, {0});
    EXPECT_EQ((*backend_)->gateDuration(x90), 160);
}

TEST_F(BackendTest, RzIsZeroDurationZeroPulses)
{
    const Gate rz = makeGate(GateType::Rz, {1}, {0.7});
    EXPECT_EQ((*backend_)->gateDuration(rz), 0);
    EXPECT_EQ((*backend_)->gatePulseCount(rz), 0u);
}

TEST_F(BackendTest, RzShiftsControlChannelOfTargetingEdge)
{
    // An Rz on the CR target must also shift the u channel (the CR
    // drive lives in the target's frame).
    const Schedule schedule =
        (*backend_)->schedule(makeGate(GateType::Rz, {1}, {0.5}));
    bool shifted_u = false, shifted_d = false;
    for (const auto &inst : schedule.instructions()) {
        if (inst.kind != PulseInstructionKind::ShiftPhase)
            continue;
        if (inst.channel == controlChannel(0))
            shifted_u = true;
        if (inst.channel == driveChannel(1))
            shifted_d = true;
    }
    EXPECT_TRUE(shifted_u);
    EXPECT_TRUE(shifted_d);

    // An Rz on the control shifts only its own drive channel.
    const Schedule control_rz =
        (*backend_)->schedule(makeGate(GateType::Rz, {0}, {0.5}));
    for (const auto &inst : control_rz.instructions())
        EXPECT_FALSE(inst.channel == controlChannel(0));
}

TEST_F(BackendTest, DirectRxAmplitudeScales)
{
    const double full =
        (*backend_)->gatePeakAmplitude(makeGate(GateType::DirectX, {0}));
    const double half = (*backend_)->gatePeakAmplitude(
        makeGate(GateType::DirectRx, {0}, {kPi / 2}));
    EXPECT_NEAR(half, full / 2.0, 1e-6);
}

TEST_F(BackendTest, DirectRxWrapsLargeAngles)
{
    // 3 pi wraps to pi: same pulse as DirectX.
    const Schedule schedule = (*backend_)->schedule(
        makeGate(GateType::DirectRx, {0}, {3 * kPi}));
    EXPECT_EQ(schedule.duration(), 160);
    double peak = 0.0;
    for (const auto &inst : schedule.instructions())
        peak = std::max(peak, inst.waveform->peakAmplitude());
    const double full =
        (*backend_)->gatePeakAmplitude(makeGate(GateType::DirectX, {0}));
    EXPECT_NEAR(peak, full, 1e-6);
}

TEST_F(BackendTest, DirectXFidelity)
{
    const Schedule schedule =
        (*backend_)->schedule(makeGate(GateType::DirectX, {0}));
    EXPECT_GT(scheduleFidelity(schedule,
                               gates::embed1q(gates::rx(kPi), 0, 2)),
              0.995);
}

TEST_F(BackendTest, DirectRxSweepFidelity)
{
    for (double theta : {-2.0, -0.5, 0.8, 2.5}) {
        const Schedule schedule = (*backend_)->schedule(
            makeGate(GateType::DirectRx, {0}, {theta}));
        EXPECT_GT(scheduleFidelity(
                      schedule, gates::embed1q(gates::rx(theta), 0, 2)),
                  0.99)
            << theta;
    }
}

TEST_F(BackendTest, CnotScheduleFidelityAndDuration)
{
    const Gate cx = makeGate(GateType::Cnot, {0, 1});
    const Schedule schedule = (*backend_)->schedule(cx);
    EXPECT_GT(scheduleFidelity(schedule, gates::cnot()), 0.975);
    // An Almaden-era CNOT: a few hundred ns.
    const double ns = dtToNs(schedule.duration());
    EXPECT_GT(ns, 200.0);
    EXPECT_LT(ns, 700.0);
}

TEST_F(BackendTest, CrThetaFidelitySweep)
{
    // Edge-dominated short stretches (small theta) carry a little more
    // coherent residual than the 90-degree calibration point.
    for (double theta : {kPi / 8, kPi / 4, kPi / 2}) {
        const Schedule schedule = (*backend_)->schedule(
            makeGate(GateType::Cr, {0, 1}, {theta}));
        const double floor = theta < kPi / 4 ? 0.95 : 0.97;
        EXPECT_GT(scheduleFidelity(schedule, gates::cr(theta)), floor)
            << theta;
    }
}

TEST_F(BackendTest, CrNegativeTheta)
{
    const Schedule schedule = (*backend_)->schedule(
        makeGate(GateType::Cr, {0, 1}, {-kPi / 2}));
    EXPECT_GT(scheduleFidelity(schedule, gates::cr(-kPi / 2)), 0.97);
}

TEST_F(BackendTest, CrWrapsAnglesBeyondHalfTurn)
{
    // CR(theta + 2 pi) = -CR(theta), a global phase: the backend must
    // play CR(theta)'s schedule rather than stretch past a half turn.
    for (double theta : {kPi / 4, -kPi / 2}) {
        const long base = (*backend_)->gateDuration(
            makeGate(GateType::Cr, {0, 1}, {theta}));
        for (double wrapped : {theta + 2 * kPi, theta - 2 * kPi}) {
            const Gate gate = makeGate(GateType::Cr, {0, 1}, {wrapped});
            EXPECT_EQ((*backend_)->gateDuration(gate), base) << wrapped;
            EXPECT_GT(scheduleFidelity((*backend_)->schedule(gate),
                                       gates::cr(wrapped)),
                      0.97)
                << wrapped;
        }
    }
}

TEST_F(BackendTest, CrDurationScalesWithTheta)
{
    // Pulse stretching: smaller angle -> shorter schedule
    // (Section 6.1), approaching ~2x shorter ZZ vs two CNOTs.
    const long d90 = (*backend_)->gateDuration(
        makeGate(GateType::Cr, {0, 1}, {kPi / 2}));
    const long d45 = (*backend_)->gateDuration(
        makeGate(GateType::Cr, {0, 1}, {kPi / 4}));
    const long d10 = (*backend_)->gateDuration(
        makeGate(GateType::Cr, {0, 1}, {kPi / 18}));
    EXPECT_LT(d45, d90);
    EXPECT_LT(d10, d45);
}

TEST_F(BackendTest, EchoPairOfHalvesEqualsFullCr)
{
    // CrHalf(45) . X . CrHalf(-45) . X (in time order X first) should
    // land in the CR(90) class, like the monolithic CR entry.
    Schedule schedule("echo");
    QuantumCircuit circuit(2);
    circuit.append(makeGate(GateType::DirectX, {0}));
    circuit.append(makeGate(GateType::CrHalf, {0, 1}, {-kPi / 4}));
    circuit.append(makeGate(GateType::DirectX, {0}));
    circuit.append(makeGate(GateType::CrHalf, {0, 1}, {kPi / 4}));
    const Schedule assembled = (*backend_)->scheduleCircuit(circuit);
    EXPECT_GT(scheduleFidelity(assembled, gates::cr(kPi / 2)), 0.96);
}

TEST_F(BackendTest, ScheduleCircuitRespectsQubitOrdering)
{
    // Gates on disjoint qubits overlap; shared qubits serialise.
    QuantumCircuit parallel(2);
    parallel.append(makeGate(GateType::DirectX, {0}));
    parallel.append(makeGate(GateType::DirectX, {1}));
    EXPECT_EQ((*backend_)->scheduleCircuit(parallel).duration(), 160);

    QuantumCircuit serial(2);
    serial.append(makeGate(GateType::DirectX, {0}));
    serial.append(makeGate(GateType::DirectX, {0}));
    EXPECT_EQ((*backend_)->scheduleCircuit(serial).duration(), 320);
}

TEST_F(BackendTest, BarrierSynchronises)
{
    QuantumCircuit circuit(2);
    circuit.append(makeGate(GateType::DirectX, {0}));
    circuit.barrier();
    circuit.append(makeGate(GateType::DirectX, {1}));
    EXPECT_EQ((*backend_)->scheduleCircuit(circuit).duration(), 320);
}

TEST_F(BackendTest, MeasureScheduleHasStimulusAndAcquire)
{
    const Schedule schedule =
        (*backend_)->schedule(makeGate(GateType::Measure, {0}));
    bool has_measure_play = false, has_acquire = false;
    for (const auto &inst : schedule.instructions()) {
        if (inst.kind == PulseInstructionKind::Play &&
            inst.channel.kind == ChannelKind::Measure)
            has_measure_play = true;
        if (inst.kind == PulseInstructionKind::Acquire)
            has_acquire = true;
    }
    EXPECT_TRUE(has_measure_play);
    EXPECT_TRUE(has_acquire);
    EXPECT_EQ(schedule.duration(), config_->measureDuration);
}

TEST_F(BackendTest, NoiseProviderAccounting)
{
    PulseCompiler compiler(*backend_, CompileMode::Optimized);
    const NoiseInfoProvider provider = compiler.noiseProvider();

    // DirectX: one full-amplitude pulse -> weight 1.
    const GateNoiseInfo dx = provider(makeGate(GateType::DirectX, {0}));
    EXPECT_NEAR(dx.error1qWeight, 1.0, 0.05);
    EXPECT_EQ(dx.duration, 160);

    // DirectRx(90): half amplitude -> weight 0.25.
    const GateNoiseInfo half =
        provider(makeGate(GateType::DirectRx, {0}, {kPi / 2}));
    EXPECT_NEAR(half.error1qWeight, 0.25, 0.03);

    // X90 (standard pulse): half amplitude of the calibrated X180.
    const GateNoiseInfo x90 = provider(makeGate(GateType::X90, {0}));
    EXPECT_NEAR(x90.error1qWeight, 0.25, 0.03);

    // CNOT: two CR halves at full stretch -> 2q weight ~ 2.
    const GateNoiseInfo cx = provider(makeGate(GateType::Cnot, {0, 1}));
    EXPECT_NEAR(cx.error2qWeight, 2.0, 0.2);
    EXPECT_GT(cx.error1qWeight, 1.5); // Two X180 echoes + target X90.

    // CR(45): roughly half the 2q weight of CR(90).
    const GateNoiseInfo cr90 =
        provider(makeGate(GateType::Cr, {0, 1}, {kPi / 2}));
    const GateNoiseInfo cr45 =
        provider(makeGate(GateType::Cr, {0, 1}, {kPi / 4}));
    EXPECT_LT(cr45.error2qWeight, 0.75 * cr90.error2qWeight);

    // Measure: duration only.
    const GateNoiseInfo meas = provider(makeGate(GateType::Measure, {0}));
    EXPECT_EQ(meas.duration, config_->measureDuration);
    EXPECT_EQ(meas.error1qWeight, 0.0);
}

TEST(BackendConfigs, AlmadenShape)
{
    const BackendConfig config = almadenConfig();
    EXPECT_EQ(config.numQubits, 20u);
    EXPECT_EQ(config.qubits.size(), 20u);
    EXPECT_EQ(config.readout.size(), 20u);
    EXPECT_GE(config.couplings.size(), 20u);
    EXPECT_NEAR(config.qubits[0].t1Us, 94.0, 1e-9);
    EXPECT_NEAR(config.qubits[0].t2Us, 88.0, 1e-9);
    EXPECT_TRUE(config.hasEdge(0, 1));
    EXPECT_TRUE(config.hasEdge(1, 0)); // Undirected lookup.
    EXPECT_FALSE(config.hasEdge(0, 19));
    EXPECT_THROW(config.edge(0, 19), FatalError);
}

TEST(BackendConfigs, NeighbourDetuning)
{
    // Fixed-frequency CR needs detuned neighbours.
    const BackendConfig config = almadenLineConfig(5);
    for (std::size_t q = 0; q + 1 < 5; ++q)
        EXPECT_GT(std::abs(config.qubits[q].frequencyGhz -
                           config.qubits[q + 1].frequencyGhz),
                  0.05);
}

TEST(BackendConfigs, LineConfigBounds)
{
    EXPECT_THROW(almadenLineConfig(0), FatalError);
    EXPECT_THROW(almadenLineConfig(21), FatalError);
    EXPECT_EQ(almadenLineConfig(3).couplings.size(), 2u);
}

} // namespace
} // namespace qpulse
