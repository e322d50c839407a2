/**
 * @file
 * Reusable scratch buffers for the allocation-free kernel API.
 *
 * A Workspace owns a set of numbered Matrix/Vector slots whose backing
 * stores persist across calls: the first request for a slot allocates,
 * every later request at the same or smaller shape reuses the existing
 * capacity. Hot kernels (powmInto, the Jacobi solver, the batched
 * state evolution) thread a Workspace through so their scratch is
 * allocated once rather than per call; powmInto is asserted
 * heap-silent after warm-up with a counting allocator in
 * tests/test_kernels.cc.
 *
 * Lifetime rules (docs/PERFORMANCE.md, "Kernel architecture"):
 *  - a slot reference is valid until the next request for the SAME
 *    slot; distinct slots never alias;
 *  - callees that receive a Workspace document which slot range they
 *    consume;
 *  - Workspace is not thread-safe; use tlsWorkspace() or one instance
 *    per thread.
 */
#ifndef QPULSE_LINALG_WORKSPACE_H
#define QPULSE_LINALG_WORKSPACE_H

#include <cstddef>
#include <deque>

#include "linalg/matrix.h"
#include "linalg/state_panel.h"

namespace qpulse {

/** Slot-indexed pool of reusable Matrix/Vector scratch buffers. */
class Workspace
{
  public:
    /**
     * Scratch matrix for `slot`, resized to rows x cols. Contents are
     * unspecified (callers fully overwrite or call setZero). Reuses
     * the slot's backing store whenever capacity allows.
     */
    Matrix &matrix(std::size_t slot, std::size_t rows, std::size_t cols);

    /** Scratch vector for `slot`, resized to n; contents unspecified. */
    Vector &vector(std::size_t slot, std::size_t n);

    /**
     * Scratch state panel for `slot`, resized to dim x width. Panel
     * slots are sized by dim * width, so the batched evolve loop
     * reuses the storage of the widest batch it has seen (asserted in
     * tests/test_batch.cc).
     */
    StatePanel &statePanel(std::size_t slot, std::size_t dim,
                           std::size_t width);

    /** Drop all slots and their backing stores. */
    void clear();

  private:
    // Deques, not vectors: requesting a NEW slot must never move the
    // buffers behind references handed out for existing slots (a
    // kernel typically holds several slot references at once).
    std::deque<Matrix> matrices_;
    std::deque<Vector> vectors_;
    std::deque<StatePanel> state_panels_;
};

/**
 * Per-thread workspace for call sites without a caller-provided one
 * (e.g. the out-of-place powm convenience wrapper).
 */
Workspace &tlsWorkspace();

} // namespace qpulse

#endif // QPULSE_LINALG_WORKSPACE_H
