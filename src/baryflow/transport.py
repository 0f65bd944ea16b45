"""Optimal transport with Euclidean power costs.

Two solvers live here.  ``solve_pairwise`` computes the p-Wasserstein
cost ``W_p^p`` between two discrete measures as a transportation LP,
returning dual potentials along with the optimal plan, a two-marginal
:class:`~baryflow.measures.MultiPlan`.
``solve_mmot`` solves the multi-marginal problem whose ground cost is the
infimal convolution of single power costs over a free barycenter point:

    cost(x_1, ..., x_N) = inf_z  sum_i |x_i - z|^p.

Its optimizer couples the marginals so that the induced barycenter
measure (push the plan forward through the per-tuple minimizer) solves
the p-Wasserstein barycenter problem, and the two optimal values agree.
That equality, along with dual feasibility and complementary slackness,
is what :mod:`baryflow.verify` certifies numerically.

Both are transportation LPs over a product grid of atom indices (the
pairwise one is the case N = 2) and share one plan type and one
transport simplex, which
never forms a constraint matrix and keeps the inverse of its small basis
with plain numpy (a revised simplex with a product-form inverse).  A
cold solve starts from the north-west staircase over each marginal's
atoms in the order of their projection on the supports' principal axis;
on the line that is the comonotone plan, which is optimal, so the
simplex only proves it.  A cold multi-marginal solve with N >= 3 in the
plane or above and at least 32 basis rows instead starts from the
optimal pairwise plans between marginal 0 and each other marginal,
glued at marginal 0's atoms (Agueh & Carlier 2011): on the 18x18x18
benchmark grids it takes about 34 pivots from there, plus about 60 in
the two pairwise LPs, instead of about 132 from the axis staircase.
Cold solves at 30x30x30 and 40x40x40 (d = 2, p = 1.5) ran 1.6x and
2.4x faster (medians of 9 alternating runs on a 2-core x86 host).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import (
    ConvergenceError,
    CycleLimitError,
    DimensionMismatchError,
    NonFiniteCoordinateError,
    ProductGridError,
)
from .infconv import DEFAULT_MAX_ITER, _balance_residual, batch_barycenters, check_exponent
from .infconv import _dual_lower_bound, _mean_bounds, _objective
from .measures import (
    DiscreteMeasure,
    MultiPlan,
    _find,
    _freeze,
    canonicalize,
    validate_measure,
)

__all__ = [
    "MAX_GRID",
    "MASS_CUTOFF",
    "PairwiseResult",
    "MmotResult",
    "DualCertificate",
    "pairwise_cost_matrix",
    "solve_pairwise",
    "solve_mmot",
    "stationarity_residual",
    "extract_barycenter",
    "wb_value",
    "c_transform",
    "dual_feasibility_check",
]

# Cap on the tuple-grid size of the multi-marginal LP.
MAX_GRID = 200_000
# Plan entries at or below this are treated as numerically zero.
MASS_CUTOFF = 1e-12
# Optimality tolerance on reduced costs, relative to the largest |cost|.
OPT_TOL = 1e-9
# Entries of the basis-transformed entering column below this are treated
# as nonpositive in the ratio test.  On its own this admits pivots on
# roundoff-sized entries, which blow up the product-form inverse; before
# the switch to Bland's rule the Harris pass below keeps the pivot
# element large.
_RATIO_PIVOT_TOL = 1e-10
# Feasibility relaxation of the Harris ratio test: a pivot may push a
# basic mass this far below zero so that a larger pivot element can be
# chosen.  Such dips can add up over pivots, so an optimum is accepted
# only while no basic mass, from a fresh inverse, is below -_MASS_DIP_LIMIT.
_HARRIS_TOL = 1e-11
_MASS_DIP_LIMIT = 10 * _HARRIS_TOL
# Fewest basis rows R = sum(n_k) - N + 1 at which a cold multi-marginal
# solve (N >= 3, d >= 2) starts from the glued pairwise optima rather than
# the axis staircase.  The N - 1 pairwise LPs cost more than the pivots
# they save on small grids.  Median glued/axis time of cold solve_mmot
# calls (d = 2, p = 1.5, 21 seeded instances per size, alternating, 2-core
# x86 host): N = 3 lost at R = 22 and 28 (1.22, 1.09), broke even from 31
# to 37 (1.00, 1.01, 0.98) and won from 40 (0.89; 0.80 at 52, 0.54 at
# 88); N = 4 lost at 21 and 29 (1.17, 1.02) and won from 33 (0.87).
_GLUED_MIN_ROWS = 32


@dataclass(frozen=True)
class PairwiseResult:
    """Optimal plan and value of a two-marginal transport problem.

    ``value`` is ``W_p^p`` between the marginals and ``plan`` a
    two-marginal :class:`MultiPlan`.  The potentials ``(psi, phi)`` live
    on the source and target supports; they satisfy
    ``psi_i + phi_j <= cost_ij`` with equality on the support, and their
    pairing with the marginal weights equals the value (strong duality).
    """

    plan: MultiPlan
    value: float
    potentials: tuple[np.ndarray, np.ndarray]
    p: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "potentials", tuple(_freeze(pot, float) for pot in self.potentials))


@dataclass(frozen=True)
class MmotResult:
    """Optimal plan of the multi-marginal barycentric transport problem.

    Attributes
    ----------
    plan : MultiPlan
        Sparse optimal plan over index tuples.
    value : float
        Optimal multi-marginal cost.
    grid_barycenters : ndarray, shape (n_1 * ... * n_N, d)
        A witness point per grid tuple, in the C order of ``np.indices``:
        the meeting point (the minimizer of the inner infimal convolution)
        of every tuple whose cost the solve computed, among them the
        basic ones and so the plan support, and the tuple mean elsewhere.
    tuple_barycenters : ndarray, shape (k, d)
        Property: the rows of ``grid_barycenters`` on the plan support.
    potentials : tuple of ndarray
        One dual vector per marginal; their direct sum is dominated by
        the tuple cost on the whole grid.
    marginals : tuple of DiscreteMeasure
        The input measures, kept for downstream consumers.
    p : float
        Cost exponent.
    """

    plan: MultiPlan
    value: float
    grid_barycenters: np.ndarray
    potentials: tuple[np.ndarray, ...]
    marginals: tuple[DiscreteMeasure, ...]
    p: float
    # The simplex's final basis, zero-mass basic tuples included: a
    # feasible start for any problem with the same weights.
    _basis: np.ndarray | None = field(default=None, repr=False, compare=False)
    # Which grid tuples have an exact cost (a Newton meeting point); the
    # basic ones always do.
    _exact: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "grid_barycenters", _freeze(self.grid_barycenters, float))
        object.__setattr__(self, "potentials", tuple(_freeze(pot, float) for pot in self.potentials))
        object.__setattr__(self, "marginals", tuple(self.marginals))
        for name in ("_basis", "_exact"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _freeze(getattr(self, name)))

    @property
    def tuple_barycenters(self) -> np.ndarray:
        flat = np.ravel_multi_index(self.plan.indices.T, self.plan.support_sizes)
        return self.grid_barycenters[flat]


@dataclass(frozen=True)
class DualCertificate:
    """Numerical certificate for a multi-marginal dual vector.

    ``max_violation`` is the worst excess of the summed potentials over
    a lower bound on the tuple cost on the full grid (feasibility;
    should be ~0 or negative), ``duality_gap`` is the absolute mismatch
    between primal value and dual pairing, and ``support_slack`` is the
    worst deviation on the plan support from an upper bound on the cost
    (complementary slackness); see :func:`dual_feasibility_check`.
    """

    max_violation: float
    duality_gap: float
    support_slack: float


# ---------------------------------------------------------------------------
# transport simplex
# ---------------------------------------------------------------------------

def _northwest_corner(weights: list[np.ndarray], orders: list[np.ndarray]) -> np.ndarray:
    """Staircase of ``sum(n_k) - N + 1`` index tuples, shape (R, N).

    Marginal k's atoms are walked in the order ``orders[k]``, and the
    tuples are returned in input indices.  Each step advances one index:
    among those that can still move, the one whose current atom has the
    least remaining mass.  Every new tuple brings in one new atom, so
    whatever the orders, the 0/1 basis it spans is triangular and
    nonsingular even when steps are degenerate, and its masses are
    nonnegative: a feasible start.
    """
    sizes = [len(w) for w in weights]
    idx = [0] * len(sizes)
    left = [float(w[order[0]]) for w, order in zip(weights, orders)]
    staircase = [tuple(idx)]
    for _ in range(sum(sizes) - len(sizes)):
        step = min((k for k, n in enumerate(sizes) if idx[k] < n - 1), key=left.__getitem__)
        moved = left[step]
        left = [mass - moved for mass in left]
        idx[step] += 1
        left[step] = float(weights[step][orders[step][idx[step]]])
        staircase.append(tuple(idx))
    walked = np.array(staircase)
    return np.column_stack([order[walked[:, k]] for k, order in enumerate(orders)])


def _axis_staircase(marginals: tuple[DiscreteMeasure, ...]) -> np.ndarray:
    """Flat grid indices of the staircase along the supports' principal axis.

    The north-west staircase over each marginal's atoms in the order of
    :func:`_axis_orders`.  On the line the projection is the coordinate,
    and the staircase over atoms sorted by coordinate is the comonotone
    plan, optimal for a submodular cost such as the infimal convolution
    of power costs with p > 1 (Carlier 2003; Pass 2015).  In the plane it
    is a start much nearer the optimum than the staircase in input order.
    """
    staircase = _northwest_corner([mu.weights for mu in marginals], _axis_orders(marginals))
    return np.ravel_multi_index(staircase.T, tuple(len(mu) for mu in marginals))


def _axis_orders(marginals: tuple[DiscreteMeasure, ...]) -> list[np.ndarray]:
    """Each marginal's atoms in the order of their principal-axis projection.

    The axis is the top right singular vector of the pooled points,
    centred on their weighted mean and weighted by the square roots of
    the weights; ties keep the input order.
    """
    sizes = tuple(len(mu) for mu in marginals)
    points = np.concatenate([mu.points for mu in marginals])
    weights = np.concatenate([mu.weights for mu in marginals])
    # Divided by the largest |coordinate| first, so neither the centring
    # nor the SVD can overflow; the axis does not depend on the scale.
    largest = np.abs(points).max(initial=0.0)
    if largest > 0.0:
        points = points / largest
    centred = points - weights @ points / weights.sum()
    root = np.sqrt(np.maximum(weights, 0.0))
    axis = np.linalg.svd(root[:, None] * centred, full_matrices=False)[2][0]
    projected = np.split(centred @ axis, np.cumsum(sizes)[:-1])
    return [np.argsort(proj, kind="stable") for proj in projected]


def _glued_start(
    marginals: tuple[DiscreteMeasure, ...], atoms: list[np.ndarray], p: float, grid: str
) -> np.ndarray:
    """Staircase of ``sum(n_k) - N + 1`` index tuples glued from pairwise optima.

    ``atoms[k]`` holds marginal k's points in the instance frame, and
    its atoms are ranked by :func:`_axis_orders`.  Marginal 0 is the
    hub: the transportation LP between it and each other marginal k, on
    the cost ``|x - y|^p`` (whose optimal plans are those of the pairwise
    infimal convolution ``2^(1-p) |x - y|^p``), is solved from the
    north-west staircase in the axis orders.  Each final basis is a
    spanning tree of the atom pairs, zero masses included.  A hub atom's
    partners in every tree, sorted by their rank along the axis, are
    walked by the north-west staircase over their pair masses (the rule
    of :func:`_northwest_corner`, run for all hub atoms at once), and the
    hub atom is prepended to each of its tuples.  This is the gluing of
    the pairwise plans (Agueh & Carlier 2011), whose masses meet every
    marginal.  A hub atom with d_k tree partners adds
    ``sum(d_k) - N + 2`` tuples; summed over the trees that is R.  The
    columns are independent: a combination summing to zero moves no mass
    along any tree edge, and within a hub atom the staircase is
    triangular.  So the start is a nonsingular, feasible basis.  Returns
    the tuples in input indices, shape (R, N), hub atom by hub atom.
    """
    weights = [mu.weights for mu in marginals]
    orders = _axis_orders(marginals)
    ranks = [np.argsort(order) for order in orders]
    hub = len(weights[0])
    firsts, steps = [], []
    for k in range(1, len(weights)):
        sizes = (hub, len(weights[k]))
        pair = [weights[0], weights[k]]
        start = np.ravel_multi_index(_northwest_corner(pair, [orders[0], orders[k]]).T, sizes)
        try:
            support, masses, _, _, tree = _transport_simplex(
                pairwise_cost_matrix(atoms[0], atoms[k], p), pair, start
            )
        except CycleLimitError as exc:
            raise CycleLimitError(
                f"glued start of the {grid} grid, pairwise LP of marginals 1 and {k + 1}: {exc}"
            ) from exc
        plan = np.zeros(math.prod(sizes))
        plan[support] = masses
        # The tree's pairs by hub atom (each has at least one), then by the
        # partner's rank, and the running mass within each hub atom's pairs.
        rows, cols = np.divmod(tree, sizes[1])
        order = np.lexsort((ranks[k][cols], rows))
        rows, cols, mass = rows[order], cols[order], plan[tree[order]]
        head = np.searchsorted(rows, np.arange(hub))
        running = np.cumsum(mass)
        running -= (running[head] - mass[head])[rows]
        firsts.append(cols[head])
        # A pair followed by another of the same hub atom ends a step.
        inner = np.flatnonzero(rows[1:] == rows[:-1])
        steps.append((rows[inner], running[inner], np.full(len(inner), k), cols[inner + 1]))
    # The north-west staircase of every hub atom at once: it starts at the
    # first partners, and each step moves one pair on to its next partner,
    # in the order of the running masses at which the pairs' current
    # partners run out (ties: the lower pair first).
    row, running, moved, partner = (np.concatenate(part) for part in zip(*steps))
    order = np.lexsort((moved, running, row))
    row, moved, partner = row[order], moved[order], partner[order]
    # Each hub atom's first tuple, then its steps, in tuple order.
    n_tuples = hub + len(row)
    first_at = np.arange(hub) + np.searchsorted(row, np.arange(hub))
    step_at = np.arange(len(row)) + row + 1
    glued = np.empty((n_tuples, len(weights)), dtype=np.intp)
    glued[:, 0] = np.repeat(np.arange(hub), np.bincount(row, minlength=hub) + 1)
    for k in range(1, len(weights)):
        # each tuple takes pair k's partner of the last tuple that set it
        at = np.concatenate([first_at, step_at[moved == k]])
        value = np.empty(n_tuples, dtype=np.intp)
        value[at] = np.concatenate([firsts[k - 1], partner[moved == k]])
        setter = np.zeros(n_tuples, dtype=np.intp)
        setter[at] = at
        glued[:, k] = value[np.maximum.accumulate(setter)]
    return glued


def _transport_simplex(
    costs: np.ndarray, weights: list[np.ndarray], start: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, float, list[np.ndarray], np.ndarray]:
    """Optimal vertex of ``min <costs, x>`` over couplings of ``weights``.

    ``costs`` holds one entry per index tuple, shape ``(n_1, ..., n_N)``.
    The last atom's row of marginals 2..N is dropped up front (these are
    the N - 1 redundant rows), so those potentials are zero.  The inverse
    of the R x R 0/1 basis is updated in product form at each pivot and
    formed afresh every R pivots and before an optimum is accepted, so
    the returned masses and potentials come from a fresh inverse; the
    entering direction is the sum of its columns for the entering
    tuple's atoms.  All tuples are priced by broadcasting the potentials
    into preallocated buffers, against ``OPT_TOL`` times the largest
    |cost|, so the optimality test does not depend on the cost scale.
    Lazy costs do not loosen it: in the LP whose optimum
    :func:`solve_mmot` accepts, a tuple cost not yet computed is a lower
    bound clamped at zero, so every entry lies between zero and the
    exact cost, and the largest |cost| is at most that of the exact costs.
    Dantzig's rule picks the entering tuple and Harris's two-pass ratio
    test the leaving row; after ``3 * (rows + cols)`` pivots Bland's rule
    takes over both choices.

    ``start`` is an optional starting basis, R flat tuple indices.  It is
    used only if its basis matrix is nonsingular and no basic mass lies
    below ``-_HARRIS_TOL``; otherwise the north-west staircase in input
    order is.  The cold solves pass the staircase along the principal
    axis (:func:`_axis_staircase`) or, on large multi-marginal grids, the
    gluing of optimal pairwise plans (:func:`_glued_start`); both are
    always accepted.  The warm ones pass an earlier basis.  A start
    changes only the path: the optimum is still proven by pricing every
    tuple on a fresh inverse.

    Returns the ascending C-order flat indices of the tuples with mass
    above ``MASS_CUTOFF``, their masses, the optimal value, one potential
    vector per marginal and the final basis (all R basic tuples, zero
    masses included, in the order that reproduces this inverse when
    passed back as ``start``).  Raises ``NonFiniteCoordinateError``
    on non-finite costs and ``CycleLimitError`` when the pivot budget
    runs out, the basis degenerates numerically or a basic mass at the
    optimum lies more than ``_MASS_DIP_LIMIT`` below zero (masses in
    ``[-_MASS_DIP_LIMIT, 0)`` are returned as zero).
    """
    if not np.isfinite(costs).all():
        raise NonFiniteCoordinateError("transport costs must be finite")
    sizes = costs.shape
    grid = "x".join(map(str, sizes))
    n_rows = sum(sizes) - len(sizes) + 1
    # Constraint row of each atom; dropped rows point at the extra row
    # n_rows, whose dual is the fixed zero.
    starts = np.cumsum([0, sizes[0]] + [n - 1 for n in sizes[1:-1]])
    row_of = [start + np.arange(n) for start, n in zip(starts, sizes)]
    for rows in row_of[1:]:
        rows[-1] = n_rows
    b = np.concatenate([weights[0]] + [w[:-1] for w in weights[1:]])
    flat_costs = costs.ravel()
    opt_tol = OPT_TOL * np.abs(flat_costs).max()
    bland_after = 3 * (n_rows + flat_costs.size)
    max_iter = 10_000 + 100 * (n_rows + flat_costs.size)

    def inverse_of(flat: np.ndarray) -> np.ndarray:
        """Fresh basis inverse of these tuples, plus a zero last column
        that stands for the dropped rows."""
        matrix = np.zeros((n_rows + 1, n_rows))
        for rows, atoms in zip(row_of, np.unravel_index(flat, sizes)):
            matrix[rows[atoms], np.arange(n_rows)] = 1.0
        out = np.zeros((n_rows, n_rows + 1))
        try:
            out[:, :n_rows] = np.linalg.inv(matrix[:n_rows])
        except np.linalg.LinAlgError:
            raise CycleLimitError(
                f"transport basis is singular on the {grid} grid after {pivots} pivots; "
                "data is ill-conditioned"
            ) from None
        return out

    pivots = 0
    basis = None
    if start is not None:
        basis = np.array(start)
        try:
            inverse = inverse_of(basis)
        except CycleLimitError:
            basis = None
        else:
            if (inverse[:, :n_rows] @ b).min() < -_HARRIS_TOL:
                basis = None
    if basis is None:
        basis = np.ravel_multi_index(_northwest_corner(weights, [np.arange(n) for n in sizes]).T, sizes)
        inverse = inverse_of(basis)
    updates = 0
    duals = np.zeros(n_rows + 1)
    # Summed potentials over the leading k + 1 grid axes, k = 1..N-1; the
    # last buffer is the whole grid and ends up holding the reduced costs.
    partial = [np.empty(sizes[: k + 1]) for k in range(1, len(sizes))]
    reduced = partial[-1].reshape(-1)
    # Per pivot, the entering tuple's constraint rows are read off its flat
    # index with Python ints: (C-order stride, size, rows) per marginal.
    strides = [math.prod(sizes[k + 1 :]) for k in range(len(sizes))]
    axes = list(zip(strides, sizes, [rows.tolist() for rows in row_of]))
    while True:
        square = inverse[:, :n_rows]
        x_basic = square @ b
        np.matmul(flat_costs[basis], square, out=duals[:n_rows])
        summed = duals[row_of[0]]
        for rows, buf in zip(row_of[1:], partial):
            summed = np.add(summed[..., None], duals[rows], out=buf)
        np.subtract(costs, summed, out=summed)
        reduced[basis] = 0.0

        bland = pivots >= bland_after
        if bland:
            # Bland's rule: lowest-index improving column, guaranteed finite.
            negatives = (reduced < -opt_tol).nonzero()[0]
            entering = int(negatives[0]) if negatives.size else -1
        else:
            entering = int(reduced.argmin())
            if reduced[entering] >= -opt_tol:
                entering = -1
        if entering < 0:
            if updates == 0:
                break
            # Accept an optimum only when priced with a fresh inverse.
            inverse, updates = inverse_of(basis), 0
            continue

        pivots += 1
        if pivots > max_iter:
            raise CycleLimitError(f"no optimum on the {grid} grid after {pivots - 1} pivots")

        # The entering column holds a one in the row of each of its atoms.
        cols = [rows[entering // stride % n] for stride, n, rows in axes]
        direction = np.add.reduce(inverse[:, cols], axis=1)
        candidates = (direction > _RATIO_PIVOT_TOL).nonzero()[0]
        if not candidates.size:
            # A feasible transport LP is bounded; this means the basis
            # matrix has degenerated numerically.
            raise CycleLimitError(
                f"transport basis lost boundedness on the {grid} grid after {pivots} pivots; "
                "data is ill-conditioned"
            )
        pivot = direction[candidates]
        mass = np.maximum(x_basic[candidates], 0.0)
        ratios = mass / pivot
        if bland:
            # Among tied rows leave the lowest variable index.
            ties = candidates[ratios == ratios.min()]
            leave = ties[basis[ties].argmin()]
        else:
            # Harris's two passes: bound the step with feasibility relaxed
            # by _HARRIS_TOL, then leave on the largest pivot element among
            # the rows whose ratio is within that bound (the first such
            # row on ties; every pivot element is positive).
            bound = np.minimum.reduce((mass + _HARRIS_TOL) / pivot)
            leave = candidates[np.where(ratios <= bound, pivot, -1.0).argmax()]
        basis[leave] = entering
        updates += 1
        if updates == n_rows:
            inverse, updates = inverse_of(basis), 0
        else:
            # Product-form update: eliminate the entering column.
            row = inverse[leave] / direction[leave]
            inverse -= np.multiply.outer(direction, row)
            inverse[leave] = row

    if x_basic.min() < -_MASS_DIP_LIMIT:
        raise CycleLimitError(
            f"basic mass {x_basic.min():.3e} below zero at the optimum on the {grid} grid "
            f"after {pivots} pivots; data is ill-conditioned"
        )
    order = np.argsort(basis)
    support, masses = basis[order], np.maximum(x_basic[order], 0.0)
    keep = masses > MASS_CUTOFF
    potentials = [duals[rows] for rows in row_of]
    return support[keep], masses[keep], float(flat_costs[support] @ masses), potentials, basis


def pairwise_cost_matrix(source_points: np.ndarray, target_points: np.ndarray, p: float) -> np.ndarray:
    """Matrix of costs ``|a_i - b_j|^p`` for two point arrays."""
    p = check_exponent(p)
    a = np.asarray(source_points, dtype=float)
    b = np.asarray(target_points, dtype=float)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if b.ndim == 1:
        b = b.reshape(-1, 1)
    if a.shape[1] != b.shape[1]:
        raise DimensionMismatchError(f"point dimensions differ: {a.shape[1]} vs {b.shape[1]}")
    diff = a[:, None, :] - b[None, :, :]
    return np.linalg.norm(diff, axis=2) ** p


def _spanning_tree(cost: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """A spanning tree of the bipartite atom graph, as flat indices of ``cost``.

    Takes the atom pairs ``edges`` (shape (k, 2)) in their order, then
    the cheapest remaining pairs, skipping any pair that would close a
    cycle (Kruskal).  A tree of ``m + n - 1`` pairs is a transport basis.
    """
    m, n = cost.shape
    parent = list(range(m + n))
    tree: list[int] = []
    candidates = np.concatenate(
        [np.ravel_multi_index(edges.T, (m, n)), np.argsort(cost, axis=None, kind="stable")]
    )
    for flat in candidates.tolist():
        a, b = _find(parent, flat // n), _find(parent, m + flat % n)
        if a != b:
            parent[a] = b
            tree.append(flat)
            if len(tree) == m + n - 1:
                break
    return np.array(tree)


def solve_pairwise(
    mu: DiscreteMeasure, nu: DiscreteMeasure, p: float, *, _start: np.ndarray | None = None
) -> PairwiseResult:
    """Exact ``W_p^p`` between two discrete measures, with potentials.

    The transportation LP has one variable per atom pair and one
    constraint per atom; the target's last constraint is redundant and
    dropped, so its potential is zero at the last target atom.  The
    simplex starts from :func:`_axis_staircase`, which on the line is
    already optimal.
    """
    validate_measure(mu)
    validate_measure(nu)
    p = check_exponent(p)
    sizes = (len(mu), len(nu))
    cost = pairwise_cost_matrix(mu.points, nu.points, p)
    # A private start (atom pairs, heaviest first) is completed to a basis.
    start = _axis_staircase((mu, nu)) if _start is None else _spanning_tree(cost, _start)
    support, masses, value, potentials, _ = _transport_simplex(cost, [mu.weights, nu.weights], start)
    plan = MultiPlan(2, sizes, np.column_stack(np.unravel_index(support, sizes)), masses)
    return PairwiseResult(plan=plan, value=value, potentials=potentials, p=p)


def wb_value(
    nu: DiscreteMeasure,
    marginals: list[DiscreteMeasure] | tuple[DiscreteMeasure, ...],
    p: float,
    *,
    _plan: MmotResult | None = None,
) -> float:
    """Barycenter functional ``sum_i W_p^p(nu, mu_i)`` at the measure ``nu``.

    A private ``_plan``, the :class:`MmotResult` that ``nu`` was extracted
    from, starts each pairwise LP at that plan's projection.
    """
    starts = [None] * len(marginals) if _plan is None else _projected_pairs(_plan, nu)
    return float(sum(solve_pairwise(nu, mu, p, _start=pairs).value for mu, pairs in zip(marginals, starts)))


def _projected_pairs(result: MmotResult, nu: DiscreteMeasure) -> list[np.ndarray]:
    """Support of the plan projected onto (atom of ``nu``, atom of mu_i).

    ``nu`` is the barycenter extracted from ``result``; each plan tuple
    goes to the atom nearest its meeting point.  The projection is an
    optimal coupling of ``nu`` and each marginal.  One array of atom
    pairs per marginal, heaviest first, so a tree built from them keeps
    the mass of the projection where a cycle forces a pair out.
    """
    points = result.tuple_barycenters
    gap = points[:, None, :] - nu.points[None, :, :]
    atoms = (gap * gap).sum(axis=2).argmin(axis=1)
    out = []
    for k in range(result.plan.n_marginals):
        flat = atoms * len(result.marginals[k]) + result.plan.indices[:, k]
        pairs, where = np.unique(flat, return_inverse=True)
        mass = np.bincount(where, weights=result.plan.masses)
        pairs = pairs[np.argsort(-mass, kind="stable")]
        out.append(np.column_stack(np.divmod(pairs, len(result.marginals[k]))))
    return out


def c_transform(
    values: np.ndarray,
    points: np.ndarray,
    target_points: np.ndarray,
    p: float,
) -> np.ndarray:
    """c-transform of a potential under the power cost.

    Given ``values[i]`` at ``points[i]``, returns the vector
    ``min_i |t_j - points_i|^p - values[i]`` over ``target_points``.
    Transforming twice is monotone: the double transform dominates the
    original potential, with equality on the support of any optimal plan.
    """
    vals = np.asarray(values, dtype=float)
    cost = pairwise_cost_matrix(target_points, points, p)
    if vals.ndim != 1 or len(vals) != cost.shape[1]:
        raise DimensionMismatchError("one potential value per source point is required")
    return (cost - vals[None, :]).min(axis=1)


# ---------------------------------------------------------------------------
# multi-marginal problem
# ---------------------------------------------------------------------------

def _tuple_points(marginals: tuple[DiscreteMeasure, ...], indices: np.ndarray) -> np.ndarray:
    """Points of index tuples, shape (k, N, d): ``marginals[i].points[indices[:, i]]``."""
    return np.stack([mu.points[indices[:, i]] for i, mu in enumerate(marginals)], axis=1)


def _grid_points(atoms: list[np.ndarray]) -> np.ndarray:
    """Points of every tuple of the product grid, in the planes layout.

    ``atoms[k]`` holds marginal k's points, shape (n_k, d).  The result
    has shape (N, d, n_1 * ... * n_N): its slice ``[k, j]`` is coordinate j
    of marginal k's atom in every tuple, in the C order of ``np.indices``,
    written by broadcasting those n_k values along grid axis k.
    """
    sizes = tuple(len(a) for a in atoms)
    out = np.empty((len(atoms), atoms[0].shape[1], math.prod(sizes)))
    for k, (a, planes) in enumerate(zip(atoms, out)):
        axis = [1] * len(sizes)
        axis[k] = sizes[k]
        planes.reshape((-1,) + sizes)[...] = a.T.reshape([-1] + axis)
    return out


def _frame(marginals: tuple[DiscreteMeasure, ...]) -> tuple[np.ndarray, float]:
    """Centre of the supports' bounding box and its longest side.

    The size is 1 when every point coincides.  In the frame
    ``x -> (x - centre) / size`` every instance has unit size, and values
    scale back by ``size ** p``: value(s mu) = s^p value(mu).
    """
    points = np.concatenate([mu.points for mu in marginals])
    low, high = points.min(axis=0), points.max(axis=0)
    size = float((high - low).max())
    return 0.5 * low + 0.5 * high, size if size > 0.0 else 1.0


def solve_mmot(
    marginals: list[DiscreteMeasure] | tuple[DiscreteMeasure, ...],
    p: float,
    *,
    max_grid: int = MAX_GRID,
    _start: tuple[np.ndarray, np.ndarray | None] | None = None,
) -> MmotResult:
    """Solve the barycentric multi-marginal transport problem exactly.

    One LP variable per tuple of the product grid, one constraint per
    marginal atom; the last constraint of every marginal but the first
    is redundant and dropped, so those potentials are zero at the last
    atom.  Costs are the per-tuple infimal-convolution values, computed
    on the grid mapped into the instance's frame (see :func:`_frame`);
    meeting points and costs are mapped back.

    For p = 2 the tuple mean is the meeting point, so every cost is exact
    at once.  Otherwise costs are computed lazily, in LP rounds.  Each
    tuple starts with two closed-form bounds at its mean: the objective
    ``U`` there and the conjugate lower bound ``L`` that
    :func:`dual_feasibility_check` also uses.  The first LP prices the
    bounds' midpoint and every later one a tuple not yet computed at
    ``max(L, 0)``.  After each LP, Newton runs on the tuples not yet
    computed that are basic or whose reduced cost at ``L`` is below
    ``U - L``, and the simplex restarts from its last basis.  The rounds
    end when an LP on ``L`` leaves no such tuple.  Then every basic cost
    is exact and every other tuple has ``cost >= L >=`` its dual sum,
    within the pricing tolerance: the optimum is proven on the whole
    grid, as if every cost were exact.

    Without a start the first LP starts from :func:`_cold_start`: for
    N >= 3 in the plane or above with at least ``_GLUED_MIN_ROWS`` = 32
    basis rows, the optimal pairwise plans between marginal 0 and each
    other marginal on the frame points, glued at marginal 0's atoms
    (:func:`_glued_start`); otherwise the staircase along the principal
    axis (:func:`_axis_staircase`).
    A private ``_start`` of grid witness points, a basis and the mask of
    computed tuples (from a solve with the same weights) computes those
    tuples first, from those points, and starts the simplex at that
    basis; it changes only the path.

    Raises
    ------
    ProductGridError
        If the product of support sizes exceeds ``max_grid``.
    ConvergenceError
        If the barycenter of a grid tuple whose cost is computed misses
        the Newton tolerance.
    CycleLimitError
        If the transport simplex runs out of pivots or its basis
        degenerates numerically; in a pairwise LP of the glued start the
        message names that stage and the grid.
    """
    mus = tuple(marginals)
    if len(mus) < 2:
        raise DimensionMismatchError("need at least two marginals")
    p = check_exponent(p)
    dims = {mu.dim for mu in mus}
    if len(dims) > 1:
        raise DimensionMismatchError(f"marginals live in different dimensions: {sorted(dims)}")
    for mu in mus:
        validate_measure(mu)

    sizes = tuple(len(mu) for mu in mus)
    total = math.prod(sizes)
    if total > max_grid:
        raise ProductGridError(
            f"product grid has {total} tuples, above the cap {max_grid}; "
            "raise max_grid explicitly if this size is intended"
        )
    cold = _start is None
    centre, size = _frame(mus)
    atoms = [(mu.points - centre) / size for mu in mus]
    points = _grid_points(atoms)
    weights = [mu.weights for mu in mus]
    grid = "x".join(map(str, sizes))
    start_points, basis, pending = (None, None, np.zeros(total, dtype=bool)) if cold else _start
    if start_points is not None:
        start_points = (start_points - centre) / size
    if p == 2.0:
        # The tuple mean is the meeting point: every cost is exact at once.
        barycenters, costs = _grid_costs(points, p, start_points, grid, total)
        scale = _cost_scale(size, p, costs, grid)
        costs = costs * scale
        exact = np.ones(total, dtype=bool)
    else:
        barycenters, lower, upper = _mean_bounds(points, p)
        scale = _cost_scale(size, p, upper, grid)
        with np.errstate(over="ignore", invalid="ignore"):
            lower, upper = lower * scale, upper * scale
        exact = np.zeros(total, dtype=bool)
        # From a cold start, a first LP on the bounds' midpoint lands nearer
        # the exact optimum than one on the lower bound; later LPs price
        # every inexact tuple at its lower bound.
        costs = np.maximum(0.5 * lower + 0.5 * upper if cold else lower, 0.0)
    if cold:
        basis = _cold_start(mus, atoms, p, grid)
    estimated = cold
    while True:
        rows = np.flatnonzero(pending & ~exact)
        if rows.size:
            start = None if start_points is None else start_points[rows]
            barycenters[:, rows], refined = _grid_costs(points.take(rows, axis=2), p, start, grid, total)
            with np.errstate(over="ignore"):
                costs[rows] = refined * scale
            exact[rows] = True
        start_points = None  # the start covers the tuples of the first round
        support, masses, value, potentials, basis = _transport_simplex(costs.reshape(sizes), weights, basis)
        if exact.all():
            break
        # Refine the basic tuples, and those whose reduced cost at the
        # lower bound is below the bounds' gap: as the duals move, they
        # are the likeliest to enter.
        pending = lower - _potential_sums(potentials) < upper - lower
        pending[basis] = True
        if estimated:
            estimated = False
            costs[~exact] = np.maximum(lower[~exact], 0.0)
        elif not (pending & ~exact).any():
            break
    plan = MultiPlan(
        n_marginals=len(mus),
        support_sizes=sizes,
        indices=np.column_stack(np.unravel_index(support, sizes)),
        masses=masses,
    )
    return MmotResult(
        plan=plan,
        value=value,
        grid_barycenters=centre + size * barycenters.T,
        potentials=potentials,
        marginals=mus,
        p=p,
        _basis=basis,
        _exact=exact,
    )


def _cold_start(
    marginals: tuple[DiscreteMeasure, ...], atoms: list[np.ndarray], p: float, grid: str
) -> np.ndarray:
    """Flat grid indices of the first basis of a cold multi-marginal solve.

    With three or more marginals in the plane or above and at least
    ``_GLUED_MIN_ROWS`` basis rows, :func:`_glued_start` on the frame
    points ``atoms``; otherwise :func:`_axis_staircase`.
    """
    sizes = tuple(len(mu) for mu in marginals)
    if len(sizes) < 3 or marginals[0].dim < 2 or sum(sizes) - len(sizes) + 1 < _GLUED_MIN_ROWS:
        return _axis_staircase(marginals)
    return np.ravel_multi_index(_glued_start(marginals, atoms, p, grid).T, sizes)


def _potential_sums(potentials: list[np.ndarray]) -> np.ndarray:
    """``sum_k potentials[k][i_k]`` at every grid tuple, flat in C order,
    added from zero in marginal order."""
    summed = np.zeros(())
    for pot in potentials:
        summed = np.add.outer(summed, pot)
    return summed.reshape(-1)


def _cost_scale(size: float, p: float, frame_costs: np.ndarray, grid: str) -> float:
    """``size ** p``, the factor from frame costs to costs, once it is
    known that the largest cost, ``frame_costs.max()`` times it, is finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.power(size, p)
        top = scale * frame_costs.max()
    if not np.isfinite(top):
        raise NonFiniteCoordinateError(
            f"tuple grid {grid}: costs overflow floating point; the supports span {size:.3e}, "
            f"so the cost scale {size:.3e}^{p:g} = {scale:.3e} times the largest unit-frame "
            f"cost {frame_costs.max():.3e} is not finite"
        )
    return float(scale)


def _grid_costs(
    points: np.ndarray, p: float, start: np.ndarray | None, grid: str, total: int
) -> tuple[np.ndarray, np.ndarray]:
    """Meeting points (d, k) and costs of the k tuples of a grid of
    ``total`` whose points (N, d, k) are given; a ``ConvergenceError``
    names the grid."""
    try:
        barycenters, costs, _ = batch_barycenters(points.transpose(2, 0, 1), p, _start=start)
    except ConvergenceError as exc:
        raise ConvergenceError(
            f"tuple grid {grid}: {exc.unconverged} of {total} barycenters unconverged after "
            f"{DEFAULT_MAX_ITER} iterations (worst residual {exc.worst_residual:.3e}; "
            f"Newton ran on {points.shape[2]} of them)"
        ) from exc
    return barycenters.T, costs


def stationarity_residual(result: MmotResult) -> float:
    """Worst normalized defect of the barycenter condition on the support.

    Every support tuple's barycenter point must satisfy
    ``sum_i p |x_i - z|^(p-2) (x_i - z) = 0``; the defect norm is scaled
    by ``1 + sum_i |x_i - z|^(p-1)`` before taking the maximum over plan
    entries.
    """
    tuples = _tuple_points(result.marginals, result.plan.indices)
    return _balance_residual(tuples - result.tuple_barycenters[:, None, :], result.p)


def extract_barycenter(result: MmotResult) -> DiscreteMeasure:
    """Barycenter measure induced by an optimal multi-marginal plan.

    Pushes the plan mass forward through the per-tuple barycenter map and
    canonicalizes (tuples with coinciding barycenters merge).  The result
    minimizes ``nu -> sum_i W_p^p(nu, mu_i)`` and attains the
    multi-marginal optimal value there.
    """
    return canonicalize(DiscreteMeasure(result.tuple_barycenters, result.plan.masses))


def dual_feasibility_check(result: MmotResult) -> DualCertificate:
    """Certify the potentials of a solved multi-marginal problem.

    No barycenter is solved again: the solve's ``grid_barycenters`` serve
    only as witnesses, at which each tuple cost is bounded in closed form,
    from above by the objective and from below by the weak-duality bound
    of its conjugate, which holds at any point.  A wrong witness can only
    make the check fail.  Feasibility is measured against the smaller
    bound on the full grid, complementary slackness against the upper one
    on the plan support, and the duality gap against the reported value.
    """
    mus, sizes, p = result.marginals, result.plan.support_sizes, result.p
    points = _grid_points([mu.points for mu in mus])
    witnesses = np.ascontiguousarray(result.grid_barycenters.T)
    upper = _objective(points, witnesses, p)
    lower = np.minimum(_dual_lower_bound(points, witnesses, p), upper)
    summed = _potential_sums(result.potentials)
    max_violation = float((summed - lower).max())

    pairing = sum(float(pot @ mu.weights) for pot, mu in zip(result.potentials, mus))
    duality_gap = abs(pairing - result.value)

    flat = np.ravel_multi_index(result.plan.indices.T, sizes)
    support_slack = float(np.abs(upper[flat] - summed[flat]).max(initial=0.0))
    return DualCertificate(
        max_violation=max_violation,
        duality_gap=float(duality_gap),
        support_slack=support_slack,
    )
