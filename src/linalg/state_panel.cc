#include "linalg/state_panel.h"

#include <algorithm>

#include "linalg/simd.h"
#include "telemetry/metrics.h"

namespace qpulse {

namespace {

// Batched-product work counters (docs/OBSERVABILITY.md): one call per
// panel product, madds = total complex multiply-adds across the batch.
// Functions of the work submitted, never of scheduling, so they stay
// bit-identical across QPULSE_THREADS.
void
countBatchedGemm(std::size_t m, std::size_t k, std::size_t n)
{
    static telemetry::Counter &c_calls =
        telemetry::MetricsRegistry::global().counter(
            "linalg.gemm.batched_calls");
    static telemetry::Counter &c_madds =
        telemetry::MetricsRegistry::global().counter(
            "linalg.gemm.batched_madds");
    c_calls.increment();
    c_madds.add(static_cast<std::uint64_t>(m * k * n));
}

} // namespace

void
StatePanel::setColumn(std::size_t col, const Vector &state)
{
    qpulseAssert(col < width(), "StatePanel::setColumn out of range");
    qpulseAssert(state.size() == dim(),
                 "StatePanel::setColumn dimension mismatch");
    for (std::size_t i = 0; i < dim(); ++i)
        storage_(i, col) = state[i];
}

void
StatePanel::getColumn(std::size_t col, Vector &state) const
{
    qpulseAssert(col < width(), "StatePanel::getColumn out of range");
    state.resize(dim());
    for (std::size_t i = 0; i < dim(); ++i)
        state[i] = storage_(i, col);
}

void
StatePanel::fillColumns(const Vector &state)
{
    qpulseAssert(state.size() == dim(),
                 "StatePanel::fillColumns dimension mismatch");
    for (std::size_t i = 0; i < dim(); ++i) {
        const Complex amp = state[i];
        Complex *row = storage_.data().data() + i * width();
        std::fill(row, row + width(), amp);
    }
}

void
applyPanelInto(StatePanel &out, const Matrix &u, const StatePanel &in)
{
    qpulseAssert(&out != &in, "applyPanelInto: out aliases input");
    qpulseAssert(u.cols() == in.dim(),
                 "applyPanelInto shape mismatch");
    out.resize(u.rows(), in.width());
    kernels::gemmDispatch(out.storage().data().data(),
                          u.data().data(),
                          in.storage().data().data(), u.rows(),
                          u.cols(), in.width());
    countBatchedGemm(u.rows(), u.cols(), in.width());
}

} // namespace qpulse
