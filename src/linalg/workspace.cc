#include "linalg/workspace.h"

namespace qpulse {

Matrix &
Workspace::matrix(std::size_t slot, std::size_t rows, std::size_t cols)
{
    if (slot >= matrices_.size())
        matrices_.resize(slot + 1);
    Matrix &m = matrices_[slot];
    m.resize(rows, cols);
    return m;
}

Vector &
Workspace::vector(std::size_t slot, std::size_t n)
{
    if (slot >= vectors_.size())
        vectors_.resize(slot + 1);
    Vector &v = vectors_[slot];
    v.resize(n);
    return v;
}

StatePanel &
Workspace::statePanel(std::size_t slot, std::size_t dim,
                      std::size_t width)
{
    if (slot >= state_panels_.size())
        state_panels_.resize(slot + 1);
    StatePanel &p = state_panels_[slot];
    p.resize(dim, width);
    return p;
}

void
Workspace::clear()
{
    matrices_.clear();
    vectors_.clear();
    state_panels_.clear();
}

Workspace &
tlsWorkspace()
{
    thread_local Workspace ws;
    return ws;
}

} // namespace qpulse
