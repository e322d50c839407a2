/**
 * @file
 * The three workloads of the end-to-end benchmark and their seeded
 * input generator. Everything a workload sends — envelope bytes or
 * circuits — is generated here, before timing starts, from the
 * calibrated substrate and the seed alone; the program under test
 * only ever receives the generated inputs.
 */
#ifndef QPULSE_BENCH_E2E_WORKLOADS_H
#define QPULSE_BENCH_E2E_WORKLOADS_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "circuit/circuit.h"
#include "device/calibration.h"
#include "device/pulse_backend.h"
#include "pulse/schedule.h"
#include "pulsesim/simulator.h"

namespace e2e {

enum class Workload
{
    Frontdoor1q,  ///< 4 streaming connections, 1024-shot DirectRx jobs.
    Circuits2q,   ///< One variational client, batches of 8 circuits.
    FleetFaulted, ///< 4 tenants over a faulted 4-member fleet.
};

/** Parse a workload name; false when unknown. */
bool parseWorkload(const std::string &name, Workload &out);
const char *workloadName(Workload workload);

/** Fixed shape of each workload (none of it depends on the seed). */
struct Shape
{
    int connections = 1;  ///< Closed-loop clients.
    long shots = 0;       ///< Shots per job.
    long chunkShots = 0;  ///< Streamed chunk (0: not streamed).
    int batch = 1;        ///< Jobs per drain (service clients).
    std::size_t pool = 0; ///< Generated jobs, reused cyclically.
    /** Jobs after which the input mix repeats exactly; a timed run
     *  stops sending only at a multiple of it. */
    std::size_t block = 1;
    /** Jobs whose counts enter the thread-invariance digest. */
    std::size_t prefix = 0;
    /** Set-ups per timed run (setup_s is their median). */
    int setups = 1;
    /** Jobs per leg of the traced run. */
    std::size_t tracedJobs = 0;
    /** A timed run keeps sending until this many jobs finished: 100
     *  puts ten samples beyond p90; circuits_2q takes 200 so its
     *  percentiles rest on 25 drains. */
    std::size_t minJobs = 100;
};

Shape shapeOf(Workload workload);

/** The calibrated device a workload runs on. */
struct Substrate
{
    explicit Substrate(Workload workload);

    qpulse::BackendConfig config;
    std::shared_ptr<const qpulse::PulseBackend> backend;
    qpulse::Calibrator calibrator;
    qpulse::PulseSimulator sim;
};

/** One generated client job. */
struct Job
{
    /** Envelope bytes sent through RequestFrontEnd (1q workloads). */
    std::string envelope;
    /** Circuit submitted as a JobRequest (circuits_2q). */
    std::optional<qpulse::QuantumCircuit> circuit;
    /** Index of the job's distinct input (angle or circuit). */
    std::size_t input = 0;
    long shots = 0;
    std::uint64_t seed = 0;
    std::string tenant = "default";
    std::string key;
};

/** A distinct input: its circuit and gate-level reference. */
struct DistinctInput
{
    qpulse::QuantumCircuit circuit{1};
    /** idealDistribution(circuit): the gate-level reference. */
    std::vector<double> ideal;
    /** The schedule the 1q envelopes carry (none: the circuit is
     *  compiled at run time, circuits_2q). */
    std::optional<qpulse::Schedule> schedule;
};

struct Inputs
{
    std::vector<Job> jobs;
    std::vector<DistinctInput> distinct;
    /** FNV-1a over every generated byte, circuit and parameter. */
    std::uint64_t digest = 0;
};

/** The 16 DirectRx angles of the 1q workloads (radians). */
std::vector<double> directRxAngles();

/** Generate a workload's inputs from its substrate and seed. */
Inputs generateInputs(Workload workload, const Substrate &substrate,
                      std::uint64_t seed);

/** FNV-1a accumulation used by every digest of the benchmark. */
inline std::uint64_t
fnv1a(std::uint64_t hash, const void *data, std::size_t size)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= bytes[i];
        hash *= 1099511628211ull;
    }
    return hash;
}

inline constexpr std::uint64_t kFnvBasis = 14695981039346656037ull;

/** Counts as frequencies over the same outcomes. */
std::vector<double> frequencies(const std::vector<long> &counts);

/**
 * Total variation distance between a distribution over the device's
 * full space and a reference. `index[i]` is the full-space basis index
 * of the reference's outcome i; mass outside those (leakage, for a
 * qubit-subspace reference) counts fully as error.
 */
double tvd(const std::vector<double> &observed,
           const std::vector<double> &reference,
           const std::vector<std::size_t> &index);

/** tvd() of a job's counts against its gate-level reference; 1 when
 *  the counts are empty. */
double countsTvd(const std::vector<long> &counts,
                 const std::vector<double> &ideal,
                 const std::vector<std::size_t> &qubit_index);

/** Identity index 0..dim-1: tvd() over the full space. */
std::vector<std::size_t> fullSpace(std::size_t dim);

/**
 * Expected TVD between `shots` draws from `reference` and `reference`
 * itself: half the sum over outcomes of the mean absolute deviation of
 * a binomial, summed exactly.
 */
double samplingTvd(const std::vector<double> &reference, long shots);

/** Full-space indices of the qubit subspace of a workload's device. */
std::vector<std::size_t> qubitSubspace(Workload workload);

} // namespace e2e

#endif // QPULSE_BENCH_E2E_WORKLOADS_H
