"""The solvers of the fine lattice: direct block-tridiagonal elimination
over lattice rows (`RowBlocks`) and one geometric multigrid V-cycle
(`Multigrid`).

A fine stiffness is a 5-point stencil on the SW-NE lattice
(finefem.Stencil), so it couples only adjacent lattice rows, and K_ff is
block tridiagonal over them.  `RowBlocks`, the one block layout of K_ff
over lattice rows, gathers from a stack of stencils the blocks of the
direct elimination, with one coupling between adjacent lattice rows.  The
offline patch solves in `localbasis` eliminate with it (`eliminate`), and
the coarsest multigrid level keeps its factor (`factor`, `solve`); both
run one forward-then-back substitution loop.

`solve_spd`, the fine reference solve, preconditions CG with one V-cycle
of `Multigrid`, both on box arrays that vanish off the free vertices (the
stencil with a mask); it calls the CG as `finefem.pcg`, through the
module, so a wrapper of that attribute (perfbench/traced.py) sees it.
The fine lattice is nested: coarsening it every other vertex gives the
lattice whose red refinement it is, with the same SW-NE diagonals, so each
coarse operator is the same lattice formula on the coarse lattice, with
the summed area-weighted coefficient of each coarse triangle's four
children.  The coarsest level is factored by the block elimination over
lattice rows.  A system that cannot coarsen (an odd number of cells, or a
patch), or whose coarsest level has rows too wide to factor, runs
Jacobi-PCG.  The online interface CG stays Jacobi.
"""

from __future__ import annotations

import numpy as np

from . import finefem


def _matvecs(M: np.ndarray, V: np.ndarray) -> np.ndarray:
    """M[e] @ v for each row v of V[e], as separate matrix-vector products.

    A BLAS matrix-matrix product can round a column differently depending
    on how many columns ride along; one product per field keeps every basis
    function bitwise independent of what else its patch solves: window
    sharing gives each patch the rows of a window solved with other rows,
    and basis-dump solves only the rows on one DOF's support."""
    return np.matmul(M[:, None], V[..., None])[..., 0]


def _couple(C: tuple, X: np.ndarray, axis: int) -> np.ndarray:
    """The product of the sub-diagonal block E held by the couplings
    C = (cols, vals) with X, element by element: E X for axis -2, X E^T
    for axis -1.  Row r of E holds its one entry vals[:, r] in column
    cols[r], so each product is a gather: O(w^2) against the O(w^3) of a
    dense one, every entry the one product a dense matmul would round."""
    cols, vals = C
    t = np.take(X, cols, axis=axis)
    t *= vals[:, :, None] if axis == -2 else vals[:, None]
    return t


class RowBlocks:
    """K_ff of a lattice system in blocks of lattice rows: the one block
    layout of the direct elimination, built once per vertex set and
    applied to any stack of stencils on its box: eliminate solves systems
    met once (the offline sweep), factor and solve keep the elimination of
    one solved many times (the coarsest multigrid level).

    slots are the box positions of the free vertices, ascending, on a box
    of grid (rows, columns); block i holds the free vertices of one
    lattice row, the slice blocks[i] of the last axis of the right-hand
    sides that solve and eliminate take.  That axis lists the free
    vertices, or, given columns, any vertices among which the free ones
    sit at the ascending columns, those of each lattice row in one run:
    the other entries are left as they are.  The stencil couples only
    adjacent lattice rows, so K_ff is block tridiagonal.  The diagonal
    block of a row is tridiagonal, from the centre and east coefficients;
    its entries are addressed as if the diagonal blocks were packed
    element by element, block i at offsets[i].  The block of a row against
    the previous one (zero unless that row is the adjacent one) holds at
    most one entry per row, the north coefficient of the vertex below.  It
    is kept as that stencil vector, the couplings of _couple, addressed
    after the diagonal blocks: size doubles in all, about what the
    elimination of one element keeps."""

    def __init__(self, slots: np.ndarray, grid: tuple[int, int],
                 columns: np.ndarray | None = None):
        cols = grid[1]
        n = self._n = grid[0] * cols
        nf = len(slots)
        starts = np.flatnonzero(np.diff(slots // cols, prepend=-1))
        w = self.widths = np.diff(np.append(starts, nf))
        first = starts if columns is None else columns[starts]
        if columns is not None and not np.array_equal(
                columns[starts + w - 1] - first, w - 1):
            raise ValueError("the free vertices of a lattice row are not "
                             "one run of columns")
        self.blocks = [slice(a, a + b)
                       for a, b in zip(first.tolist(), w.tolist())]
        self._starts = starts.tolist()
        ends = np.cumsum(w * w)
        self.offsets = ends - w * w
        self._diagonal = int(ends[-1]) if len(ends) else 0
        self.size = self._diagonal + nf
        # Each free vertex's block, its position there, and where its row
        # of the diagonal block starts.
        blk = np.repeat(np.arange(len(w)), w)
        pos = np.arange(nf) - starts[blk]
        diag = self.offsets[blk] + pos * w[blk]
        at = np.full(n + 1, -1)  # the free vertex at each box position
        at[slots] = np.arange(nf)
        # (destination, source) of every entry: the centre of each free
        # vertex a, the east coupling of a with b both ways, then the north
        # coupling of b with a, b in the row below; the column of b in its
        # block, 0 where a has no such b (and a zero coupling).
        dst, src = [diag + pos], [slots]
        b = np.where(slots % cols < cols - 1, at[slots + 1], -1)
        a = np.flatnonzero(b >= 0)
        b = b[a]
        dst += [diag[a] + pos[b], diag[b] + pos[a]]
        src += [slots[a] + n] * 2
        b = np.where(slots >= cols, at[slots - cols], -1)
        a = np.flatnonzero(b >= 0)
        b = b[a]
        self._cols = np.zeros(nf, dtype=int)
        self._cols[a] = pos[b]
        dst.append(self._diagonal + a)
        src.append(slots[b] + 2 * n)
        # Sorted by destination (each is written once), so the entries of
        # each diagonal block, and then the couplings, are one run.
        dst = np.concatenate(dst)
        order = np.argsort(dst, kind="stable")
        self._dst, self._src = dst[order], np.concatenate(src)[order]
        self._runs = np.searchsorted(
            self._dst, np.append(self.offsets, self._diagonal)).tolist()

    def _diagonal_block(self, coef: np.ndarray, i: int) -> np.ndarray:
        """D[i] of the stencils coef (elements, 3 * box positions)."""
        w, a, b = int(self.widths[i]), self._runs[i], self._runs[i + 1]
        D = np.zeros((len(coef), w * w))
        D[:, self._dst[a:b] - self.offsets[i]] = coef[:, self._src[a:b]]
        return D.reshape(-1, w, w)

    def _couplings(self, coef: np.ndarray) -> list:
        """C of the stencils coef (elements, 3 * box positions)."""
        a = self._runs[-1]
        vals = np.zeros((len(coef), self.size - self._diagonal))
        vals[:, self._dst[a:] - self._diagonal] = coef[:, self._src[a:]]
        return [(self._cols[a:a + w], vals[:, a:a + w])
                for a, w in zip(self._starts, self.widths.tolist())]

    def _elimination(self, coef: np.ndarray, C: list):
        """Block elimination of the SPD block-tridiagonal systems of the
        stencils coef, one per element of the leading axis, from the first
        block row down (Golub & Van Loan, block tridiagonal systems), each
        diagonal block D[i] gathered when the sweep reaches it: yields the
        inverse Schur complement S_i^{-1} and G_i = S_i^{-1} E[i+1]^T (None
        for the last block) row by row, E[i] the sub-diagonal block held by
        the couplings C[i]."""
        nb = len(self.blocks)
        S = self._diagonal_block(coef, 0)
        for i in range(nb):
            S_inv = np.linalg.inv(S)
            if i + 1 == nb:
                yield S_inv, None
                return
            G = _couple(C[i + 1], S_inv, -1)
            S = _couple(C[i + 1], G, -2)
            np.subtract(self._diagonal_block(coef, i + 1), S, out=S)
            yield S_inv, G

    def factor(self, st: finefem.Stencil) -> tuple:
        """The block elimination of the stencils st, ([S_i^{-1}], [G_i]),
        and their couplings between blocks, for solve."""
        coef = st.coef.reshape(-1, 3 * self._n)
        C = self._couplings(coef)
        S_inv, G = zip(*self._elimination(coef, C))
        return (list(S_inv), list(G)), C

    def _substitute(self, steps, C: list, *R: np.ndarray) -> None:
        """Overwrite each stack of right-hand sides r of R with its
        solutions, given the elimination's steps (S_i^{-1}, G_i) as they
        arrive and its couplings C: forward substitution down, each block
        of every r overwritten with g_i = S_i^{-1} (r_i - E[i] g_{i-1}) as
        its step arrives, keeping only G_i, then back substitution up,
        x_i = g_i - G_i x_{i+1}.  The fields go through _matvecs and every
        element is its own LAPACK or BLAS call, so a field does not depend
        on the other fields and elements of the stack."""
        G = []
        for i, (S_inv, G_i) in enumerate(steps):
            for r in R:
                g = r[..., self.blocks[i]]
                g[...] = _matvecs(S_inv, g - _couple(
                    C[i], r[..., self.blocks[i - 1]], -1) if i else g)
            G.append(G_i)
        for r in R:
            for i in range(len(G) - 2, -1, -1):
                r[..., self.blocks[i]] -= _matvecs(
                    G[i], r[..., self.blocks[i + 1]])

    def solve(self, factored: tuple, R: np.ndarray) -> np.ndarray:
        """The solutions, over the free vertices, of the factored systems
        for right-hand sides R (elements, fields, free vertices), written
        over R and returned."""
        (S_inv, G), C = factored
        self._substitute(zip(S_inv, G), C, R)
        return R

    def eliminate(self, st: finefem.Stencil, *R: np.ndarray) -> None:
        """solve(factor(st), r) for each stack of right-hand sides r of R,
        bitwise and in place over r, for systems solved once: the forward
        substitution runs beside the elimination, so of each lattice row
        only G_i is kept, one w-by-w block, not S_i^{-1} as well, and the
        fields need no storage beyond R."""
        if not self.blocks:
            return
        coef = st.coef.reshape(-1, 3 * self._n)
        C = self._couplings(coef)
        self._substitute(self._elimination(coef, C), C, *R)


SMOOTHING_WEIGHT = 0.8  # damped Jacobi
SMOOTHING_SWEEPS = 2    # before and again after each coarse correction
BOTTOM_DIRECT = 64      # widest lattice row of a coarsest level factored


def _prolong(Uc: np.ndarray, out: np.ndarray) -> np.ndarray:
    """P1 interpolation of the vertex values Uc (rows, columns) of a
    lattice onto its red refinement, added to out (2 rows - 1, 2 columns
    - 1) in place and returned: an edge midpoint takes the mean of the
    edge's ends, a cell centre the mean of the cell's SW and NE corners."""
    out[::2, ::2] += Uc
    out[::2, 1::2] += 0.5 * (Uc[:, :-1] + Uc[:, 1:])
    out[1::2, ::2] += 0.5 * (Uc[:-1] + Uc[1:])
    out[1::2, 1::2] += 0.5 * (Uc[:-1, :-1] + Uc[1:, 1:])
    return out


def _restrict(Rf: np.ndarray) -> np.ndarray:
    """The transpose of _prolong."""
    Rc = Rf[::2, ::2].copy()
    h, v, d = 0.5 * Rf[::2, 1::2], 0.5 * Rf[1::2, ::2], 0.5 * Rf[1::2, 1::2]
    Rc[:, :-1] += h
    Rc[:, 1:] += h
    Rc[:-1] += v
    Rc[1:] += v
    Rc[:-1, :-1] += d
    Rc[1:, 1:] += d
    return Rc


def _coarsen(fixed: np.ndarray, W: np.ndarray, spacing: tuple[float, float]
             ) -> tuple[np.ndarray, np.ndarray, tuple[float, float]] | None:
    """The next coarser level of a whole lattice whose vertices are fixed
    where the boolean lattice array fixed (rows, columns) is set, with
    area-weighted coefficient W (2 per cell) in triangle order and
    cells of the given spacing: (fixed, W, spacing) on the lattice of every
    other vertex, or None where coarsening stops.

    Each coarse triangle is the union of four fine ones, and its W is
    their sum.  With one coefficient per triangle and coarse hat gradients
    constant on each coarse triangle, the coarse stiffness is then the
    Galerkin product P^T K P of the P1 prolongation _prolong, without
    forming it.  A coarse vertex is fixed where its fine vertex is.
    Coarsening stops at an odd cell count, when no coarse vertex would be
    free, and when a free coarse hat does not vanish at every fixed fine
    vertex, so that P would leave the fine free space: a fixed line off
    the coarse lattice, the coarse skeleton when n_sub is odd at this
    level.
    """
    ny, nx = fixed.shape[0] - 1, fixed.shape[1] - 1
    if nx % 2 or ny % 2:
        return None
    free_c = ~fixed[::2, ::2]
    if not free_c.any() or _prolong(free_c.astype(float),
                                    np.zeros(fixed.shape))[fixed].any():
        return None
    nxc, nyc = nx // 2, ny // 2
    # Axes: coarse row, fine row in it, coarse column, fine column in it,
    # lower/upper fine triangle.
    W = W.reshape(nyc, 2, nxc, 2, 2)
    lower = (W[:, 0, :, 0, 0] + W[:, 0, :, 1, 0] + W[:, 0, :, 1, 1]
             + W[:, 1, :, 1, 0])
    upper = (W[:, 0, :, 0, 1] + W[:, 1, :, 0, 0] + W[:, 1, :, 0, 1]
             + W[:, 1, :, 1, 1])
    return (~free_c, np.stack([lower, upper], axis=2).reshape(-1),
            (2 * spacing[0], 2 * spacing[1]))


class _Level:
    """One level of a hierarchy: its free-vertex operator on the vertex
    lattice (rows, columns), and the damped-Jacobi smoother on box arrays
    that vanish off the free vertices."""

    def __init__(self, K: finefem.LatticeOperator):
        self.K = K
        self.shape = K.stencil.grid
        # The damped inverse diagonal, zero off the free vertices.
        self.wdinv = np.zeros(len(K.mask))
        self.wdinv[K.mask] = SMOOTHING_WEIGHT / K.diagonal()
        self._t = np.empty(len(K.mask))

    @property
    def free(self) -> np.ndarray:
        """The free vertices, row-major lattice positions."""
        return self.K.slots

    def residual(self, X: np.ndarray, R: np.ndarray) -> np.ndarray:
        """R - K X into the level's scratch array."""
        t = self.K.apply_box(X, self._t)
        return np.subtract(R, t, out=t)

    def smooth(self, X: np.ndarray, R: np.ndarray) -> None:
        """One damped-Jacobi sweep on K X = R, in place."""
        t = self.residual(X, R)
        t *= self.wdinv
        X += t


class Multigrid:
    """One V-cycle on the lattice hierarchy of an assembled system, the
    preconditioner of pcg for the fine solves (Trottenberg, Oosterlee and
    Schueller, Multigrid, 2001; Alcouffe, Brandt, Dendy and Painter, SIAM
    J. Sci. Stat. Comput. 2, 1981, on rough coefficients).

    Level 0 is the system's own operator; each coarser level comes from
    _coarsen, its stencil by the same lattice formula as the fine one
    (Stencil.of_cells).  The cycle runs on whole lattice arrays, zero off
    the free vertices of each level, and runs SMOOTHING_SWEEPS
    damped-Jacobi sweeps before and after each coarse correction, so it is
    symmetric.

    The bottom is decided in one place, __init__: the coarsest level is
    factored by block elimination over its lattice rows (RowBlocks) where
    there are two levels or more and no row of it holds more than
    BOTTOM_DIRECT free vertices.  Otherwise the coarse levels are dropped,
    and the one level left is never factored: its V-cycle is the inverse
    diagonal, so pcg runs Jacobi-PCG bitwise.  That happens on two kinds of
    lattice:
    - an odd cell count at level 0, e.g. quads 5x5 with n_sub 3, which
      cannot coarsen at all;
    - a coarsest level with rows of more than 64 free vertices, e.g.
      quads 2x2 with n_sub 67 or 129 (a 67- or 129-cell coarsest level,
      rows of 66 or 128), and 5x5 with n_sub 50 (rows of 124).
    Keeping the coarse levels there with only an inverse diagonal at the
    bottom would take about a quarter of the Jacobi iterations at six
    times their cost (quad 2x2, n_sub 129: 336 iterations in 1.8 s
    against 1,232 in 1.1 s).  Each solve builds its own hierarchy and
    drops it on return.
    """

    def __init__(self, system: finefem.SparseSpdSystem):
        K = system.K
        self.levels: list[_Level] = [_Level(K)]
        if system.geom.lattice is not None:
            level = (~K.mask.reshape(K.stencil.grid), system.AW,
                     system.geom.spacing)
            while (level := _coarsen(*level)) is not None:
                fixed, W, spacing = level
                self.levels.append(_Level(finefem.LatticeOperator(
                    finefem.Stencil.of_cells(fixed.shape, W, spacing),
                    ~fixed.ravel())))
        self._factor = None
        if len(self.levels) > 1:
            bottom = self.levels[-1].K
            blocks = RowBlocks(bottom.slots, bottom.stencil.grid)
            if blocks.widths.max() <= BOTTOM_DIRECT:
                self._blocks = blocks
                self._factor = blocks.factor(bottom.stencil)
        if self._factor is None:
            del self.levels[1:]
            self._dinv = K.box(1.0 / K.diagonal())

    def _bottom(self, r: np.ndarray) -> np.ndarray:
        """Solve the factored coarsest level for r over its free
        vertices."""
        return self._blocks.solve(self._factor, r[None, None])[0, 0]

    def __call__(self, r: np.ndarray) -> np.ndarray:
        if self._factor is None:
            return self._dinv * r
        return self._cycle(0, r)

    def _cycle(self, l: int, R: np.ndarray) -> np.ndarray:
        lev = self.levels[l]
        if l + 1 == len(self.levels):
            X = np.zeros_like(R)
            X[lev.free] = self._bottom(R[lev.free])
            return X
        coarse = self.levels[l + 1]
        X = lev.wdinv * R
        for _ in range(SMOOTHING_SWEEPS - 1):
            lev.smooth(X, R)
        Rc = _restrict(lev.residual(X, R).reshape(lev.shape)).ravel()
        Rc *= coarse.K.mask
        _prolong(self._cycle(l + 1, Rc).reshape(coarse.shape),
                 X.reshape(lev.shape))
        for _ in range(SMOOTHING_SWEEPS):
            lev.smooth(X, R)
        return X


def solve_spd(system: finefem.SparseSpdSystem,
              rel_tol: float = 1e-12) -> finefem.FineFunction:
    """Solve the eliminated system by finefem.pcg with one multigrid
    V-cycle as the preconditioner, both on box arrays, and return the full
    nodal field."""
    if not 0.0 < rel_tol < 1.0:
        raise ValueError("rel_tol must lie in (0, 1)")
    K, geom = system.K, system.geom
    x, _ = finefem.pcg(K, K.box(system.rhs), rel_tol, Multigrid(system))
    values = geom.from_box(x)
    values[geom.boundary_local] = 0.0
    return finefem.FineFunction(geom, values)
