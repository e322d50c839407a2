/**
 * @file
 * Telemetry subsystem tests: span capture and ordering, ring-buffer
 * overflow accounting, exporter golden output, histogram percentile
 * math, registry reset semantics, thread-pool worker identity, and
 * the cross-thread counter determinism contract
 * (docs/OBSERVABILITY.md). The concurrency cases double as the TSan
 * targets for the `telemetry` ctest label.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "compile/compiler.h"
#include "device/calibration.h"
#include "device/schedule_validation.h"
#include "telemetry/metrics.h"
#include "telemetry/report.h"
#include "telemetry/trace.h"

using namespace qpulse;

namespace {

/** Enable tracing on a clean buffer; disable + drain on scope exit. */
class ScopedTracing
{
  public:
    ScopedTracing()
    {
        telemetry::Tracer::instance().clear();
        telemetry::Tracer::instance().setEnabled(true);
    }

    ~ScopedTracing()
    {
        telemetry::Tracer::instance().setEnabled(false);
        telemetry::Tracer::instance().clear();
    }
};

std::vector<telemetry::TraceEvent>
drainByName(const char *name)
{
    std::vector<telemetry::TraceEvent> out;
    for (const telemetry::TraceEvent &event :
         telemetry::Tracer::instance().drain())
        if (std::string(event.name) == name)
            out.push_back(event);
    return out;
}

TEST(TraceSpan, NestedSpansRecordContainedAndOrdered)
{
    ScopedTracing tracing;
    {
        telemetry::TraceSpan outer("test.outer");
        {
            telemetry::TraceSpan inner("test.inner");
        }
    }
    const std::vector<telemetry::TraceEvent> events =
        telemetry::Tracer::instance().drain();
    ASSERT_EQ(events.size(), 2u);
    // drain() sorts by (startNs, seq): the outer span starts first
    // even though the inner one completes (and is recorded) first.
    EXPECT_STREQ(events[0].name, "test.outer");
    EXPECT_STREQ(events[1].name, "test.inner");
    const telemetry::TraceEvent &outer = events[0];
    const telemetry::TraceEvent &inner = events[1];
    EXPECT_LE(outer.startNs, inner.startNs);
    EXPECT_LE(inner.startNs + inner.durationNs,
              outer.startNs + outer.durationNs);
    EXPECT_LT(inner.seq, outer.seq);
}

TEST(TraceSpan, DisabledModeRecordsNothing)
{
    telemetry::Tracer::instance().setEnabled(false);
    {
        telemetry::TraceSpan span("test.disabled_span");
    }
    telemetry::Tracer::instance().setEnabled(true);
    const auto matching = drainByName("test.disabled_span");
    telemetry::Tracer::instance().setEnabled(false);
    EXPECT_TRUE(matching.empty());
}

TEST(Tracer, RingOverflowDropsOldestAndCounts)
{
    ScopedTracing tracing;
    telemetry::Tracer &tracer = telemetry::Tracer::instance();
    const std::size_t capacity = tracer.threadBufferCapacity();
    const std::size_t extra = 10;
    for (std::size_t i = 0; i < capacity + extra; ++i)
        tracer.record("test.overflow", "qpulse", /*start_ns=*/i,
                      /*duration_ns=*/1);
    EXPECT_EQ(tracer.dropped(), extra);
    const std::vector<telemetry::TraceEvent> events = tracer.drain();
    ASSERT_EQ(events.size(), capacity);
    // The ring keeps the newest events: the `extra` oldest are gone.
    EXPECT_EQ(events.front().startNs, extra);
    EXPECT_EQ(events.back().startNs, capacity + extra - 1);
    EXPECT_EQ(tracer.dropped(), 0u); // drain() resets the loss count.
}

TEST(Tracer, ChromeExporterGoldenOutput)
{
    std::vector<telemetry::TraceEvent> events(2);
    events[0].name = "alpha";
    events[0].startNs = 1000;
    events[0].durationNs = 500;
    events[0].seq = 0;
    events[1].name = "beta";
    events[1].startNs = 2500;
    events[1].durationNs = 1250;
    events[1].seq = 1;

    std::ostringstream os;
    telemetry::Tracer::writeChromeTrace(os, events);
    const std::string golden =
        "{\"traceEvents\":[\n"
        "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":0,"
        "\"args\":{\"name\":\"main\"}},\n"
        "{\"name\":\"alpha\",\"cat\":\"qpulse\",\"ph\":\"X\","
        "\"ts\":1.000,\"dur\":0.500,\"pid\":1,\"tid\":0},\n"
        "{\"name\":\"beta\",\"cat\":\"qpulse\",\"ph\":\"X\","
        "\"ts\":2.500,\"dur\":1.250,\"pid\":1,\"tid\":0}\n"
        "],\"displayTimeUnit\":\"ns\"}\n";
    EXPECT_EQ(os.str(), golden);
}

TEST(Tracer, ConcurrentSpansFromManyThreadsAllMerge)
{
    ScopedTracing tracing;
    constexpr int kThreads = 4;
    constexpr int kSpansPerThread = 500;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([t] {
            telemetry::setCurrentThreadInfo(
                static_cast<std::uint32_t>(100 + t),
                "stress-" + std::to_string(t));
            for (int k = 0; k < kSpansPerThread; ++k)
                telemetry::TraceSpan span("test.concurrent");
        });
    for (std::thread &thread : threads)
        thread.join();

    const auto events = drainByName("test.concurrent");
    EXPECT_EQ(events.size(),
              static_cast<std::size_t>(kThreads * kSpansPerThread));
    std::set<std::uint32_t> tids;
    for (const telemetry::TraceEvent &event : events)
        tids.insert(event.tid);
    EXPECT_EQ(tids.size(), static_cast<std::size_t>(kThreads));
    // The merged stream is sorted and seqs are unique.
    for (std::size_t k = 1; k < events.size(); ++k) {
        EXPECT_LE(events[k - 1].startNs, events[k].startNs);
        EXPECT_NE(events[k - 1].seq, events[k].seq);
    }
}

TEST(Histogram, PercentilesInterpolateExactlyOnUniformFill)
{
    std::vector<double> bounds;
    for (int k = 1; k <= 100; ++k)
        bounds.push_back(static_cast<double>(k));
    telemetry::Histogram histogram(bounds);
    for (int k = 1; k <= 100; ++k)
        histogram.observe(static_cast<double>(k));

    const telemetry::Histogram::Snapshot snap = histogram.snapshot();
    EXPECT_EQ(snap.count, 100u);
    EXPECT_DOUBLE_EQ(snap.sum, 5050.0);
    EXPECT_DOUBLE_EQ(snap.mean(), 50.5);
    // Value k fills exactly the (k-1, k] bucket, so the interpolated
    // quantile is exact: p50 = 50, p95 = 95, p99 = 99.
    EXPECT_DOUBLE_EQ(snap.p50(), 50.0);
    EXPECT_DOUBLE_EQ(snap.p95(), 95.0);
    EXPECT_DOUBLE_EQ(snap.p99(), 99.0);
}

TEST(Histogram, BucketSelectionAndOverflowClamp)
{
    telemetry::Histogram histogram({10.0, 20.0});
    histogram.observe(5.0);  // [0, 10]
    histogram.observe(15.0); // (10, 20]
    histogram.observe(25.0); // overflow

    const telemetry::Histogram::Snapshot snap = histogram.snapshot();
    ASSERT_EQ(snap.buckets.size(), 3u);
    EXPECT_EQ(snap.buckets[0], 1u);
    EXPECT_EQ(snap.buckets[1], 1u);
    EXPECT_EQ(snap.buckets[2], 1u);
    EXPECT_DOUBLE_EQ(snap.percentile(0.5), 15.0);
    // The overflow bucket has no finite upper edge; quantiles landing
    // there clamp to its lower bound.
    EXPECT_DOUBLE_EQ(snap.p99(), 20.0);
    EXPECT_DOUBLE_EQ(snap.percentile(0.0), 0.0);
}

TEST(Histogram, EmptySnapshotIsAllZero)
{
    telemetry::Histogram histogram({1.0});
    const telemetry::Histogram::Snapshot snap = histogram.snapshot();
    EXPECT_EQ(snap.count, 0u);
    EXPECT_DOUBLE_EQ(snap.mean(), 0.0);
    EXPECT_DOUBLE_EQ(snap.p50(), 0.0);
}

TEST(MetricsRegistry, ResetZeroesInPlaceAndKeepsHandlesValid)
{
    telemetry::MetricsRegistry &registry =
        telemetry::MetricsRegistry::global();
    telemetry::Counter &counter =
        registry.counter("test.registry.reset");
    telemetry::Gauge &gauge = registry.gauge("test.registry.gauge");
    counter.add(5);
    gauge.set(2.5);
    registry.reset();
    EXPECT_EQ(counter.value(), 0u);
    EXPECT_DOUBLE_EQ(gauge.value(), 0.0);
    // The handle cached before reset() still feeds the same metric.
    counter.add(2);
    EXPECT_EQ(
        registry.snapshot().counterValue("test.registry.reset"), 2u);
}

TEST(Report, JsonCarriesCountersAndHistograms)
{
    telemetry::MetricsRegistry &registry =
        telemetry::MetricsRegistry::global();
    registry.counter("test.report.alpha").add(3);
    registry.histogram("test.report.lat").observe(4.0);

    const telemetry::Report report = telemetry::Report::capture();
    const std::string json = report.toJson();
    EXPECT_NE(json.find("\"test.report.alpha\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"test.report.lat\""), std::string::npos);
    EXPECT_NE(json.find("\"trace_events_dropped\""), std::string::npos);
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    EXPECT_NE(report.toText().find("test.report.alpha = 3"),
              std::string::npos);
}

TEST(ThreadPool, WorkerIdsAreStableAndNamed)
{
    EXPECT_EQ(ThreadPool::currentWorkerId(), 0u);
    EXPECT_EQ(ThreadPool::currentWorkerName(), "main");

    ThreadPool pool(4);
    std::vector<std::size_t> ids(256, 0);
    std::vector<int> name_ok(256, 0);
    pool.parallelFor(ids.size(), [&](std::size_t i) {
        const std::size_t id = ThreadPool::currentWorkerId();
        ids[i] = id;
        const std::string expected =
            id == 0 ? "main" : "worker-" + std::to_string(id);
        name_ok[i] = ThreadPool::currentWorkerName() == expected;
    });
    for (std::size_t i = 0; i < ids.size(); ++i) {
        EXPECT_LT(ids[i], 4u);
        EXPECT_TRUE(name_ok[i]);
    }
}

TEST(Instrumentation, ValidationGateCountsChecksAndRejects)
{
    telemetry::MetricsRegistry &registry =
        telemetry::MetricsRegistry::global();
    const auto waveform = std::make_shared<GaussianSquareWaveform>(
        320, 64.0, 128, Complex{0.1, 0.0});
    ChannelBudget budget;
    budget.driveChannels = 1;

    Schedule good("good");
    good.play(driveChannel(0), waveform);
    Schedule bad("bad");
    bad.play(driveChannel(3), waveform);

    const telemetry::MetricsSnapshot before = registry.snapshot();
    EXPECT_TRUE(validateSchedule(good, budget).ok());
    EXPECT_FALSE(validateSchedule(bad, budget).ok());
    const telemetry::MetricsSnapshot after = registry.snapshot();
    EXPECT_EQ(after.counterValue("device.validation.calls") -
                  before.counterValue("device.validation.calls"),
              2u);
    EXPECT_EQ(after.counterValue("device.validation.rejects") -
                  before.counterValue("device.validation.rejects"),
              1u);
}

/**
 * The determinism contract: every counter incremented by the
 * instrumented stack counts work, not scheduling, so the deltas of a
 * fixed workload are bit-identical whichever thread runs it.
 */
TEST(Instrumentation, CountersAreIdenticalAcrossShotThreadCounts)
{
    const BackendConfig config = almadenLineConfig(1);
    const auto backend = makeCalibratedBackend(config);
    Calibrator calibrator(config);
    const PulseSimulator sim(calibrator.qubitModel(0));
    Schedule x180("x180");
    x180.play(driveChannel(0),
              calibrator.calibrateQubit(0).x180Pulse());

    const std::vector<std::string> tracked = {
        "backend.runs",
        "backend.shots",
        "backend.shot_batches",
        "device.validation.calls",
        "pulsesim.cache.hits",
        "pulsesim.cache.misses",
        "sim.evolve_state.calls",
        "sim.samples",
        "threadpool.parallel_for.calls",
        "threadpool.parallel_for.iterations",
    };
    const auto deltas = [&] {
        telemetry::MetricsRegistry &registry =
            telemetry::MetricsRegistry::global();
        const telemetry::MetricsSnapshot before = registry.snapshot();
        PulseShotOptions opts;
        opts.shots = 96;
        opts.seed = 11;
        backend->runShots(sim, x180, opts);
        const telemetry::MetricsSnapshot after = registry.snapshot();
        std::vector<std::uint64_t> out;
        for (const std::string &name : tracked)
            out.push_back(after.counterValue(name) -
                          before.counterValue(name));
        return out;
    };

    const std::vector<std::uint64_t> sequential = deltas();
    const std::vector<std::uint64_t> threaded =
        std::async(std::launch::async, deltas).get();
    for (std::size_t k = 0; k < tracked.size(); ++k)
        EXPECT_EQ(sequential[k], threaded[k]) << tracked[k];
}

/**
 * runShots runs its shots on the calling thread: on the default pool
 * (one thread per core, so several under ctest on a multi-core host)
 * a run starts no parallel loop, and the caller records every
 * backend.shot_batch span.
 */
TEST(Instrumentation, RunShotsStaysOnTheCallingThread)
{
    const BackendConfig config = almadenLineConfig(1);
    const auto backend = makeCalibratedBackend(config);
    Calibrator calibrator(config);
    const PulseSimulator sim(calibrator.qubitModel(0));
    Schedule x180("x180");
    x180.play(driveChannel(0),
              calibrator.calibrateQubit(0).x180Pulse());
    const telemetry::Counter &loops =
        telemetry::MetricsRegistry::global().counter(
            "threadpool.parallel_for.calls");

    ScopedTracing tracing;
    const std::uint64_t loops_before = loops.value();
    PulseShotOptions opts;
    opts.shots = 256;
    opts.seed = 11;
    backend->runShots(sim, x180, opts);
    EXPECT_EQ(loops.value(), loops_before);

    std::vector<telemetry::TraceEvent> runs, batches;
    for (const telemetry::TraceEvent &event :
         telemetry::Tracer::instance().drain()) {
        if (std::string(event.name) == "backend.run_shots")
            runs.push_back(event);
        if (std::string(event.name) == "backend.shot_batch")
            batches.push_back(event);
    }
    ASSERT_EQ(runs.size(), 1u);
    EXPECT_EQ(batches.size(), kShotBatches);
    for (const telemetry::TraceEvent &batch : batches)
        EXPECT_EQ(batch.tid, runs.front().tid);
}

} // namespace
