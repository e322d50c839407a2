#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "algos/circuits.h"
#include "common/constants.h"
#include "common/rng.h"
#include "compile/compiler.h"
#include "noisesim/statevector.h"
#include "pulse/qobj.h"

namespace e2e {

using namespace qpulse;

namespace {

constexpr int kAngles = 16;

BackendConfig
configFor(Workload workload)
{
    return almadenLineConfig(workload == Workload::Circuits2q ? 2 : 1);
}

std::uint64_t
mixString(std::uint64_t hash, const std::string &text)
{
    return fnv1a(fnv1a(hash, text.data(), text.size()), "\0", 1);
}

template <typename T>
std::uint64_t
mixValue(std::uint64_t hash, const T &value)
{
    return fnv1a(hash, &value, sizeof value);
}

std::uint64_t
mixCircuit(std::uint64_t hash, const QuantumCircuit &circuit)
{
    for (const Gate &gate : circuit.gates()) {
        hash = mixValue(hash, gate.type);
        for (std::size_t q : gate.qubits)
            hash = mixValue(hash, q);
        for (double p : gate.params)
            hash = mixValue(hash, p);
    }
    return hash;
}

/**
 * Stratified draws: every block of `count` draws visits each stratum
 * once, in a seeded order. A different seed reorders the draws but
 * keeps the mix of every block exactly the same.
 */
class Strata
{
  public:
    Strata(std::size_t count, Rng &rng) : rng_(rng), order_(count)
    {
        for (std::size_t i = 0; i < count; ++i)
            order_[i] = i;
    }

    std::size_t next()
    {
        if (pos_ == order_.size())
            pos_ = 0;
        if (pos_ == 0)
            for (std::size_t i = order_.size(); i > 1; --i)
                std::swap(order_[i - 1], order_[rng_.uniformInt(i)]);
        return order_[pos_++];
    }

  private:
    Rng &rng_;
    std::vector<std::size_t> order_;
    std::size_t pos_ = 0;
};

/**
 * Antithetic angle draws in (-range/2, range/2): each pair of draws
 * has magnitudes m and range/2 - m, with m from a seeded stratum of
 * [0, range/4) and an independent sign. A compiled schedule grows
 * linearly with |angle|, so every pair of fresh circuits costs the
 * same and a run's cost does not depend on which seed drew it.
 */
class PairedAngles
{
  public:
    PairedAngles(double range, Rng &rng)
        : range_(range), rng_(rng), strata_(kStrata, rng)
    {}

    double next()
    {
        double magnitude = partner_;
        if (magnitude < 0.0) {
            magnitude = 0.25 * range_ *
                        (static_cast<double>(strata_.next()) + rng_.uniform()) /
                        static_cast<double>(kStrata);
            partner_ = 0.5 * range_ - magnitude;
        } else {
            partner_ = -1.0;
        }
        return rng_.uniform() < 0.5 ? -magnitude : magnitude;
    }

  private:
    static constexpr std::size_t kStrata = 8;
    double range_;
    Rng &rng_;
    Strata strata_;
    double partner_ = -1.0;
};

/** One DirectRx(theta) envelope body per angle, samples inlined. */
std::vector<DistinctInput>
directRxInputs(const Substrate &substrate, std::vector<std::string> &qobjs)
{
    std::vector<DistinctInput> inputs;
    QobjWriteOptions wire;
    wire.includeSamples = true;
    for (double theta : directRxAngles()) {
        Schedule schedule("direct_rx");
        schedule.append(substrate.backend->schedule(
            makeGate(GateType::DirectRx, {0}, {theta})));
        qobjs.push_back(scheduleToQobjJson(schedule, wire));

        DistinctInput input;
        input.circuit = QuantumCircuit(1);
        input.circuit.rx(theta, 0);
        input.ideal = idealDistribution(input.circuit);
        input.schedule = std::move(schedule);
        inputs.push_back(std::move(input));
    }
    return inputs;
}

/**
 * 1q envelope jobs. Job j is sent by connection j % connections, so
 * its tenant is fixed by the generator: one tenant per connection. The
 * connections run in lockstep rounds (a round's jobs go out together
 * and finish in the same pump), and the jobs of one round carry one
 * angle. A DirectRx chunk's cost depends on its angle, so a round
 * costs what its angle costs, and as every block of 16 rounds runs each
 * angle once, the latency distribution has the same 16 levels whatever
 * the seed. (Rounds of four random angles spread job_p50_ms by 27 %
 * between seeds.)
 */
Inputs
envelopeInputs(Workload workload, const Substrate &substrate,
               std::uint64_t seed)
{
    const Shape shape = shapeOf(workload);
    std::vector<std::string> qobjs;
    Inputs inputs;
    inputs.distinct = directRxInputs(substrate, qobjs);
    Rng rng(seed);
    Strata angles(kAngles, rng);
    const std::size_t connections =
        static_cast<std::size_t>(shape.connections);
    std::size_t angle = 0;
    inputs.jobs.reserve(shape.pool);
    for (std::size_t j = 0; j < shape.pool; ++j) {
        Job job;
        if (j % connections == 0)
            angle = angles.next();
        job.input = angle;
        job.shots = shape.shots;
        // Wire seeds must sit in [0, 2^53): larger JSON integers are
        // rejected as number-out-of-range.
        job.seed = Rng::deriveSeed(seed, j) & ((1ull << 53) - 1);
        job.key = "e2e/" + std::to_string(j);
        if (workload == Workload::FleetFaulted) {
            job.tenant = "t";
            job.tenant += std::to_string(j % connections);
        }
        job.envelope = "{\"qobj\": " + qobjs[job.input] +
                       ", \"shots\": " + std::to_string(job.shots) +
                       ", \"seed\": " + std::to_string(job.seed) +
                       ", \"tenant\": \"" + job.tenant +
                       "\", \"key\": \"" + job.key + "\"}";
        inputs.jobs.push_back(std::move(job));
    }
    return inputs;
}

/**
 * Circuit jobs. Even jobs carry a fresh circuit, alternating a UCC
 * ansatz and a p=1 QAOA line; each odd job revisits the fresh circuit
 * of the previous batch (within the first batch: the job before), as
 * a variational optimizer re-evaluates a recent point — a compile-cache
 * hit. Angles (theta, gamma) are PairedAngles in (-pi/4, pi/4), the
 * small angles a variational loop spends its time on. (Beyond
 * |theta| = pi the Optimized flow stretches CR(theta) without wrapping
 * the angle and the executed distribution leaves the gate-level
 * reference by a TVD of up to 0.66, which the output check rejects.)
 */
Inputs
circuitInputs(std::uint64_t seed)
{
    const Shape shape = shapeOf(Workload::Circuits2q);
    const std::size_t revisit = static_cast<std::size_t>(shape.batch) + 1;
    Inputs inputs;
    Rng rng(seed);
    PairedAngles uccTheta(0.5 * kPi, rng), qaoaGamma(0.5 * kPi, rng);
    std::vector<std::size_t> inputOf;
    inputs.jobs.reserve(shape.pool);
    for (std::size_t j = 0; j < shape.pool; ++j) {
        Job job;
        if (j % 2 == 1) {
            job.input = inputOf[j >= revisit ? j - revisit : j - 1];
        } else {
            DistinctInput input;
            if (inputs.distinct.size() % 2 == 0) {
                input.circuit = uccAnsatz2q(uccTheta.next());
            } else {
                const double gamma = qaoaGamma.next();
                input.circuit =
                    qaoaLineCircuit(2, {gamma}, {rng.uniform(0.0, kPi)});
            }
            input.ideal = idealDistribution(input.circuit);
            job.input = inputs.distinct.size();
            inputs.distinct.push_back(std::move(input));
        }
        inputOf.push_back(job.input);
        job.circuit = inputs.distinct[job.input].circuit;
        job.shots = shape.shots;
        job.seed = Rng::deriveSeed(seed, j);
        job.key = "e2e/" + std::to_string(j);
        inputs.jobs.push_back(std::move(job));
    }
    return inputs;
}

} // namespace

bool
parseWorkload(const std::string &name, Workload &out)
{
    for (Workload w : {Workload::Frontdoor1q, Workload::Circuits2q,
                       Workload::FleetFaulted})
        if (name == workloadName(w)) {
            out = w;
            return true;
        }
    return false;
}

const char *
workloadName(Workload workload)
{
    switch (workload) {
    case Workload::Frontdoor1q: return "frontdoor_1q";
    case Workload::Circuits2q: return "circuits_2q";
    case Workload::FleetFaulted: return "fleet_faulted";
    }
    return "?";
}

Shape
shapeOf(Workload workload)
{
    Shape shape;
    switch (workload) {
    case Workload::Frontdoor1q:
        shape.connections = 4;
        shape.shots = 1024;
        shape.chunkShots = 256;
        shape.pool = 1024;
        shape.block = 64;
        shape.prefix = 32;
        shape.setups = 9;
        shape.tracedJobs = 96;
        break;
    case Workload::Circuits2q:
        shape.shots = 64;
        shape.batch = 8;
        shape.pool = 1024;
        shape.prefix = 8;
        shape.minJobs = 200;
        shape.setups = 3;
        shape.tracedJobs = 24;
        break;
    case Workload::FleetFaulted:
        shape.connections = 4;
        shape.shots = 64;
        shape.chunkShots = 16;
        shape.pool = 1024;
        shape.block = 64;
        shape.prefix = 128;
        shape.setups = 9;
        shape.tracedJobs = 256;
        break;
    }
    return shape;
}

Substrate::Substrate(Workload workload)
    : config(configFor(workload)), backend(makeCalibratedBackend(config)),
      calibrator(config),
      sim(workload == Workload::Circuits2q ? calibrator.pairSimulator(0, 1)
                                           : PulseSimulator(
                                                 calibrator.qubitModel(0)))
{}

std::vector<double>
directRxAngles()
{
    std::vector<double> angles;
    for (int k = 1; k <= kAngles; ++k)
        angles.push_back(kPi * static_cast<double>(k) / kAngles);
    return angles;
}

Inputs
generateInputs(Workload workload, const Substrate &substrate,
               std::uint64_t seed)
{
    Inputs inputs = workload == Workload::Circuits2q
                        ? circuitInputs(seed)
                        : envelopeInputs(workload, substrate, seed);
    std::uint64_t hash = kFnvBasis;
    for (const Job &job : inputs.jobs) {
        hash = mixString(hash, job.envelope);
        if (job.circuit)
            hash = mixCircuit(hash, *job.circuit);
        hash = mixValue(hash, job.shots);
        hash = mixValue(hash, job.seed);
        hash = mixString(hash, job.tenant);
        hash = mixString(hash, job.key);
    }
    inputs.digest = hash;
    return inputs;
}

std::vector<double>
frequencies(const std::vector<long> &counts)
{
    long shots = 0;
    for (long c : counts)
        shots += c;
    std::vector<double> out(counts.size(), 0.0);
    for (std::size_t i = 0; shots > 0 && i < counts.size(); ++i)
        out[i] = static_cast<double>(counts[i]) / static_cast<double>(shots);
    return out;
}

double
tvd(const std::vector<double> &observed, const std::vector<double> &reference,
    const std::vector<std::size_t> &index)
{
    double distance = 0.0;
    double inside = 0.0;
    for (std::size_t i = 0; i < reference.size(); ++i) {
        const std::size_t full = index[i];
        const double q = full < observed.size() ? observed[full] : 0.0;
        inside += q;
        distance += std::abs(q - reference[i]);
    }
    // Leaked mass: reference probability 0 outside the indexed outcomes.
    distance += std::max(0.0, 1.0 - inside);
    return 0.5 * distance;
}

double
countsTvd(const std::vector<long> &counts, const std::vector<double> &ideal,
          const std::vector<std::size_t> &qubit_index)
{
    const std::vector<double> freq = frequencies(counts);
    double total = 0.0;
    for (double f : freq)
        total += f;
    return total > 0.0 ? tvd(freq, ideal, qubit_index) : 1.0;
}

std::vector<std::size_t>
fullSpace(std::size_t dim)
{
    std::vector<std::size_t> index(dim);
    for (std::size_t i = 0; i < dim; ++i)
        index[i] = i;
    return index;
}

double
samplingTvd(const std::vector<double> &reference, long shots)
{
    const double n = static_cast<double>(shots);
    double deviation = 0.0;
    for (double p : reference) {
        if (p <= 0.0 || p >= 1.0)
            continue; // Drawn with certainty: never deviates.
        for (long x = 0; x <= shots; ++x) {
            const double k = static_cast<double>(x);
            const double log_pmf = std::lgamma(n + 1.0) -
                                   std::lgamma(k + 1.0) -
                                   std::lgamma(n - k + 1.0) +
                                   k * std::log(p) + (n - k) * std::log1p(-p);
            deviation += std::exp(log_pmf) * std::abs(k / n - p);
        }
    }
    return 0.5 * deviation;
}

std::vector<std::size_t>
qubitSubspace(Workload workload)
{
    // Transmon 0 is the most significant digit of the full (3-level)
    // index, as qubit 0 is of the circuit's binary index.
    if (workload == Workload::Circuits2q)
        return {0, 1, 3, 4};
    return {0, 1};
}

} // namespace e2e
