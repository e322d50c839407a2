/**
 * @file
 * Counter block surfacing every resilience outcome of a run: how many
 * attempts were made, which fault classes fired (injected) and were
 * caught (detected), how often the validation gate rejected a
 * schedule, and how the executor recovered (retries, recalibrations,
 * fallbacks to the standard decomposition). ResilientOutcome::stats
 * and RbResult::resilience carry it, so the ResilientExecutor, the RB
 * batched path and bench_robustness all report through one struct.
 */
#ifndef QPULSE_DEVICE_RESILIENCE_STATS_H
#define QPULSE_DEVICE_RESILIENCE_STATS_H

#include <string>

namespace qpulse {

/** Resilience counters; zeros mean "nothing eventful happened". */
struct ResilienceStats
{
    long attempts = 0;         ///< Shot-batch attempts started.
    long retries = 0;          ///< Attempts after the first.
    long faultsInjected = 0;   ///< Faults the injector fired.
    long faultsDetected = 0;   ///< Faults the executor caught.
    long transientFailures = 0;///< Transient batch failures seen.
    long timeouts = 0;         ///< Batch timeouts seen.
    long corruptedSchedules = 0; ///< AWG-corrupted uploads caught.
    long validationRejects = 0;  ///< Schedules rejected by the gate.
    long driftSpikes = 0;      ///< Coherent drift spikes injected.
    long recalibrations = 0;   ///< Drift-watchdog calibration refreshes.
    long fallbacks = 0;        ///< Standard-decomposition fallbacks.
    long degradedRuns = 0;     ///< Accepted below-baseline results.
    long readoutFaultShots = 0;///< Shots hit by readout flips/dropouts.
    long ingestFaults = 0;     ///< Ingest payload faults injected.

    ResilienceStats &
    operator+=(const ResilienceStats &other)
    {
        attempts += other.attempts;
        retries += other.retries;
        faultsInjected += other.faultsInjected;
        faultsDetected += other.faultsDetected;
        transientFailures += other.transientFailures;
        timeouts += other.timeouts;
        corruptedSchedules += other.corruptedSchedules;
        validationRejects += other.validationRejects;
        driftSpikes += other.driftSpikes;
        recalibrations += other.recalibrations;
        fallbacks += other.fallbacks;
        degradedRuns += other.degradedRuns;
        readoutFaultShots += other.readoutFaultShots;
        ingestFaults += other.ingestFaults;
        return *this;
    }

    /** One-line summary for bench/diagnostic output. */
    std::string
    toString() const
    {
        return "attempts=" + std::to_string(attempts) +
               " retries=" + std::to_string(retries) +
               " faults=" + std::to_string(faultsInjected) + "/" +
               std::to_string(faultsDetected) +
               " rejects=" + std::to_string(validationRejects) +
               " recal=" + std::to_string(recalibrations) +
               " fallbacks=" + std::to_string(fallbacks) +
               " degraded=" + std::to_string(degradedRuns);
    }
};

} // namespace qpulse

#endif // QPULSE_DEVICE_RESILIENCE_STATS_H
