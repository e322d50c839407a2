/**
 * @file
 * Pure arithmetic of the end-to-end benchmark: nearest-rank
 * percentiles with their tail-sample count, span nesting and self
 * time, and the span-name -> layer map of the per-layer ledger.
 * Nothing here touches the clock, so e2e_selftest checks it on
 * synthetic inputs.
 */
#ifndef QPULSE_BENCH_E2E_LEDGER_H
#define QPULSE_BENCH_E2E_LEDGER_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string_view>
#include <vector>

#include "telemetry/trace.h"

namespace e2e {

/** A nearest-rank percentile and how many samples lie beyond it. */
struct Percentile
{
    double value = 0.0;
    std::size_t samples = 0;
    /** Samples ranked strictly above the percentile's rank. */
    std::size_t beyond = 0;

    /** True when at least `min_beyond` samples lie past the rank (a
     *  tail percentile resting on fewer is noise, not a measurement). */
    bool resolved(std::size_t min_beyond = 10) const
    {
        return beyond >= min_beyond;
    }
};

/**
 * Nearest-rank percentile, q in (0, 1]: the ceil(q * n)-th smallest
 * sample (1-based). No interpolation, so the value is always one that
 * was measured.
 */
inline Percentile
nearestRank(std::vector<double> samples, double q)
{
    Percentile p;
    p.samples = samples.size();
    if (samples.empty())
        return p;
    std::sort(samples.begin(), samples.end());
    const double exact = q * static_cast<double>(samples.size());
    std::size_t rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
    rank = std::clamp<std::size_t>(rank, 1, samples.size());
    p.value = samples[rank - 1];
    p.beyond = samples.size() - rank;
    return p;
}

/** Smallest sample count whose q-percentile has `min_beyond` samples
 *  past its rank. */
inline std::size_t
samplesForTail(double q, std::size_t min_beyond = 10)
{
    std::size_t n = min_beyond;
    while (n - static_cast<std::size_t>(
                   std::ceil(q * static_cast<double>(n) - 1e-9)) <
           min_beyond)
        ++n;
    return n;
}

/**
 * Self time of every span: its duration minus the part its direct
 * children on the same thread cover. Spans of one thread are properly
 * nested (RAII), so a span's parent is the innermost earlier-starting
 * span still open at its start. A child is clipped to its parent's
 * interval before it is subtracted, so self time never goes negative.
 */
inline std::vector<std::uint64_t>
selfTimes(const std::vector<qpulse::telemetry::TraceEvent> &events)
{
    std::vector<std::size_t> order(events.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    // Per thread, by start; an enclosing span (longer) before the
    // spans it encloses when both start on the same tick.
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        const auto &ea = events[a];
        const auto &eb = events[b];
        if (ea.tid != eb.tid)
            return ea.tid < eb.tid;
        if (ea.startNs != eb.startNs)
            return ea.startNs < eb.startNs;
        return ea.durationNs > eb.durationNs;
    });

    std::vector<std::uint64_t> covered(events.size(), 0);
    std::vector<std::size_t> open;
    std::uint32_t tid = 0;
    for (std::size_t k = 0; k < order.size(); ++k) {
        const std::size_t i = order[k];
        const auto &e = events[i];
        if (k == 0 || e.tid != tid) {
            open.clear();
            tid = e.tid;
        }
        while (!open.empty()) {
            const auto &top = events[open.back()];
            if (top.startNs + top.durationNs > e.startNs)
                break;
            open.pop_back();
        }
        if (!open.empty()) {
            const std::size_t p = open.back();
            const auto &pe = events[p];
            const std::uint64_t end =
                std::min(e.startNs + e.durationNs,
                         pe.startNs + pe.durationNs);
            covered[p] += end - e.startNs;
        }
        open.push_back(i);
    }
    std::vector<std::uint64_t> self(events.size());
    for (std::size_t i = 0; i < events.size(); ++i)
        self[i] = events[i].durationNs > covered[i]
                      ? events[i].durationNs - covered[i]
                      : 0;
    return self;
}

/** The ledger's layers: the src/ modules a span's time belongs to. */
enum class Layer
{
    Ingest,
    Service,
    Compile,
    Device,
    Pulsesim,
    Common,
    Other, ///< Spans of no ledger layer (the store, which is off).
};

inline constexpr Layer kLedgerLayers[] = {
    Layer::Ingest, Layer::Service,  Layer::Compile, Layer::Device,
    Layer::Pulsesim, Layer::Common, Layer::Other,
};

inline const char *
layerName(Layer layer)
{
    switch (layer) {
    case Layer::Ingest: return "ingest";
    case Layer::Service: return "service";
    case Layer::Compile: return "compile";
    case Layer::Device: return "device";
    case Layer::Pulsesim: return "pulsesim";
    case Layer::Common: return "common";
    case Layer::Other: return "other";
    }
    return "other";
}

/**
 * Layer of a span by name. The benchmark's own spans wrap its calls
 * into a layer: e2e.deliver is ingest (frame, parse, lower, admit;
 * the validate span inside it is device's), e2e.pump / e2e.submit /
 * e2e.drain are service.
 */
inline Layer
layerOf(std::string_view name)
{
    const auto starts = [&](std::string_view prefix) {
        return name.substr(0, prefix.size()) == prefix;
    };
    if (name == "e2e.deliver" || starts("ingest."))
        return Layer::Ingest;
    if (starts("e2e.") || starts("service.job") || starts("fleet."))
        return Layer::Service;
    if (starts("compile.") || name == "service.precompile")
        return Layer::Compile;
    if (starts("executor.") || starts("backend.") || starts("device."))
        return Layer::Device;
    if (starts("sim."))
        return Layer::Pulsesim;
    if (starts("threadpool."))
        return Layer::Common;
    return Layer::Other;
}

} // namespace e2e

#endif // QPULSE_BENCH_E2E_LEDGER_H
