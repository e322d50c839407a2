/**
 * @file
 * Structure-of-arrays state panels: the batched-evolution data layout.
 *
 * A StatePanel packs K pure states of dimension d as the COLUMNS of
 * one contiguous row-major d x K matrix, so applying a propagator to
 * all K states at once is a single gemm (`U * panel`): the SIMD layer
 * streams each row of U exactly once per panel instead of once per
 * shot, and the batch dimension K lands on the contiguous (vectorized)
 * axis of the kernel.
 *
 * The panel product dispatches through the same kernels::activeSimd()
 * tier as single-state products (src/linalg/simd.h numerics contract:
 * each column of the batched result is bit-identical across
 * QPULSE_THREADS for a fixed dispatch mode) and counts its work into
 * the linalg.gemm.batched_* telemetry counters.
 */
#ifndef QPULSE_LINALG_STATE_PANEL_H
#define QPULSE_LINALG_STATE_PANEL_H

#include "linalg/matrix.h"

namespace qpulse {

/** K pure states as columns of one row-major d x K buffer. */
class StatePanel
{
  public:
    StatePanel() = default;

    StatePanel(std::size_t dim, std::size_t width) { resize(dim, width); }

    std::size_t dim() const { return storage_.rows(); }
    std::size_t width() const { return storage_.cols(); }

    /**
     * Change the shape, reusing existing capacity when possible.
     * Entries are unspecified afterwards (callers fully overwrite).
     */
    void resize(std::size_t dim, std::size_t width)
    {
        storage_.resize(dim, width);
    }

    void setZero() { storage_.setZero(); }

    Complex &at(std::size_t i, std::size_t col)
    {
        return storage_(i, col);
    }
    const Complex &at(std::size_t i, std::size_t col) const
    {
        return storage_(i, col);
    }

    /** Overwrite column `col` with the given state. */
    void setColumn(std::size_t col, const Vector &state);

    /** Copy column `col` out into `state` (resized to dim). */
    void getColumn(std::size_t col, Vector &state) const;

    /** Overwrite every column with the same state. */
    void fillColumns(const Vector &state);

    const Matrix &storage() const { return storage_; }
    Matrix &storage() { return storage_; }

  private:
    Matrix storage_; // dim x width, row-major: row i holds amplitude i
                     // of every state in the batch.
};

/**
 * out = u * in, all columns at once (one gemm of shape
 * d x d x K). `out` must not alias `in`; resized to match.
 */
void applyPanelInto(StatePanel &out, const Matrix &u,
                    const StatePanel &in);

} // namespace qpulse

#endif // QPULSE_LINALG_STATE_PANEL_H
