/**
 * @file
 * The benchmark's own tests: the seeded generator is reproducible and
 * keeps its mix across seeds, nearest-rank percentiles report their
 * tail, and span self time is right on a synthetic nested span set.
 * Exits non-zero when any expectation failed; run.py runs it after
 * every build.
 */
#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "ledger.h"
#include "workloads.h"

namespace {

int failures = 0;

void
expect(bool ok, const std::string &what)
{
    if (!ok) {
        ++failures;
        std::fprintf(stderr, "e2e_selftest: FAILED: %s\n", what.c_str());
    }
}

qpulse::telemetry::TraceEvent
span(const char *name, std::uint64_t start, std::uint64_t duration,
     std::uint32_t tid = 0)
{
    qpulse::telemetry::TraceEvent e;
    e.name = name;
    e.startNs = start;
    e.durationNs = duration;
    e.tid = tid;
    return e;
}

void
testPercentiles()
{
    std::vector<double> samples;
    for (int i = 100; i >= 1; --i)
        samples.push_back(static_cast<double>(i));
    const e2e::Percentile p50 = e2e::nearestRank(samples, 0.5);
    expect(p50.value == 50.0 && p50.beyond == 50, "p50 of 1..100 is 50");
    const e2e::Percentile p90 = e2e::nearestRank(samples, 0.9);
    expect(p90.value == 90.0 && p90.beyond == 10 && p90.resolved(),
           "p90 of 100 samples is the 90th with ten beyond");
    samples.pop_back();
    const e2e::Percentile short90 = e2e::nearestRank(samples, 0.9);
    expect(!short90.resolved(), "p90 of 99 samples has fewer than ten beyond");
    expect(e2e::samplesForTail(0.9) == 100, "p90 needs 100 samples");
    expect(e2e::samplesForTail(0.5) == 20, "p50 needs 20 samples");
    expect(e2e::nearestRank({7.0}, 0.9).value == 7.0, "single sample");
    expect(e2e::nearestRank({}, 0.5).samples == 0, "empty set");
}

void
testSelfTime()
{
    // main: root [0,100) > a [10,30), b [40,90) > c [50,60), then
    // next [100,105) after root; a worker thread's span overlapping
    // root in time is not its child; on thread 2, d [10,50) overhangs
    // its parent e [0,30) and is clipped to it.
    const std::vector<qpulse::telemetry::TraceEvent> events = {
        span("c", 50, 10),   span("root", 0, 100), span("a", 10, 20),
        span("w", 5, 80, 1), span("b", 40, 50),    span("next", 100, 5),
        span("e", 0, 30, 2), span("d", 10, 40, 2),
    };
    const std::vector<std::uint64_t> self = e2e::selfTimes(events);
    expect(self[1] == 30, "root self = 100-20-50");
    expect(self[2] == 20, "a is a leaf");
    expect(self[4] == 40, "b self = 50-10");
    expect(self[0] == 10, "c is a leaf");
    expect(self[3] == 80, "another thread's span is not a child");
    expect(self[5] == 5, "a span starting at root's end is a sibling");
    expect(self[6] == 10 && self[7] == 40,
           "an overhanging child is clipped to its parent");

    expect(e2e::layerOf("e2e.deliver") == e2e::Layer::Ingest, "deliver");
    expect(e2e::layerOf("e2e.pump") == e2e::Layer::Service, "pump");
    expect(e2e::layerOf("service.job") == e2e::Layer::Service, "job");
    expect(e2e::layerOf("service.precompile") == e2e::Layer::Compile,
           "precompile");
    expect(e2e::layerOf("device.validate_schedule") == e2e::Layer::Device,
           "validate");
    expect(e2e::layerOf("sim.evolve_state") == e2e::Layer::Pulsesim, "sim");
    expect(e2e::layerOf("threadpool.parallel_for") == e2e::Layer::Common,
           "pool");
}

void
testTvd()
{
    const std::vector<std::size_t> subspace = {0, 1};
    expect(e2e::countsTvd({50, 50, 0}, {0.5, 0.5}, subspace) == 0.0,
           "exact counts have zero distance");
    expect(std::abs(e2e::countsTvd({40, 50, 10}, {0.5, 0.5}, subspace) -
                    0.1) < 1e-12,
           "leaked shots count as error");

    // One shot of a fair coin always lands 1/2 away; a certain outcome
    // never deviates; 64 shots of a fair coin deviate by
    // E|X - 32| / 64 = 0.0496734, X ~ Bin(64, 1/2).
    expect(std::abs(e2e::samplingTvd({0.5, 0.5}, 1) - 0.5) < 1e-12,
           "sampling floor of one fair shot");
    expect(e2e::samplingTvd({1.0, 0.0}, 64) == 0.0,
           "sampling floor of a certain outcome");
    expect(std::abs(e2e::samplingTvd({0.5, 0.5}, 64) - 0.0496734) < 1e-6,
           "sampling floor of 64 fair shots");
}

void
testGenerator()
{
    using e2e::Workload;
    const e2e::Substrate substrate(Workload::Frontdoor1q);
    for (Workload w : {Workload::Frontdoor1q, Workload::Circuits2q,
                       Workload::FleetFaulted}) {
        const std::string name = e2e::workloadName(w);
        const e2e::Inputs a = e2e::generateInputs(w, substrate, 11);
        const e2e::Inputs b = e2e::generateInputs(w, substrate, 11);
        const e2e::Inputs c = e2e::generateInputs(w, substrate, 12);
        expect(a.digest == b.digest, name + ": same seed, same digest");
        expect(a.digest != c.digest, name + ": other seed, other digest");
        expect(a.jobs.size() == e2e::shapeOf(w).pool &&
                   c.jobs.size() == a.jobs.size(),
               name + ": pool size is fixed");

        for (const e2e::Inputs *in : {&a, &c}) {
            if (w == Workload::Circuits2q) {
                // Exactly half the jobs revisit an earlier circuit.
                expect(2 * in->distinct.size() == in->jobs.size(),
                       name + ": half the circuits are fresh");
            } else {
                // Every angle drawn equally often, whatever the seed.
                std::vector<std::size_t> uses(in->distinct.size(), 0);
                for (const e2e::Job &job : in->jobs)
                    ++uses[job.input];
                for (std::size_t u : uses)
                    expect(u * uses.size() == in->jobs.size(),
                           name + ": angle mix is exact");
                const std::size_t round = static_cast<std::size_t>(
                    e2e::shapeOf(w).connections);
                bool oneAngle = true;
                for (std::size_t j = 0; j < in->jobs.size(); ++j)
                    oneAngle = oneAngle && in->jobs[j].input ==
                                               in->jobs[j - j % round].input;
                expect(oneAngle, name + ": the jobs of a round share an angle");
                std::set<std::string> tenants;
                for (const e2e::Job &job : in->jobs)
                    tenants.insert(job.tenant);
                expect(tenants.size() ==
                           (w == Workload::FleetFaulted ? 4u : 1u),
                       name + ": tenant count");
            }
        }
    }
}

} // namespace

int
main()
{
    testPercentiles();
    testSelfTime();
    testTvd();
    testGenerator();
    if (failures == 0)
        std::printf("e2e_selftest: all checks passed\n");
    return failures == 0 ? 0 : 1;
}
