"""First Dirichlet eigenpairs.

The Laplacian of a k-uniform supertree has degree on the diagonal and
-1/(k-1) between adjacent vertices; restricted to the interior it is the
Dirichlet matrix, whose smallest eigenvalue is simple and positive, with an
eigenvector positive on the interior. LAPACK's symmetric eigenvalue driver
(numpy.linalg.eigvalsh) gives every eigenvalue of that dense block and no
eigenvector. One numpy scatter builds the interior blocks of a stack of
supertrees with equal k and n0, of any n: first_dirichlet_eigenvalues solves
each such group in one eigvalsh call (one per interior size for a sweep's
classes), and first_dirichlet_eigenpair solves a stack of one, so the two
give the same lambda bit for bit. The one eigenvector returned comes from
one step of inverse iteration from the all-ones vector, at a shift just
below lambda.

Beside LAPACK, a pure-Python kernel asks one question, "is lambda <= sigma?",
and a tree-shaped LDL^T elimination answers it at the first pivot that is
not positive, exactly in integers or in floats. The float pass, carrying
each pivot's derivatives in sigma, drives Laguerre's method on
det(M - sigma) up to lambda alone, and a short bisection polish ends on
the least float where the answer turns yes: about ten O(n0) passes.
Single-family certificates and majorize use it; a sweep stacks its
classes on LAPACK. Stepping past the first pivot that is not positive, the
same pass and search give the second eigenvalue, with lambda deflated out
of the determinant, and the elimination solves the inverse-iteration
step, so the eigen and relabel commands take the whole pair from it
(_tree_eigenpair) with no dense block. Only this module uses numpy, and
only inside the LAPACK functions, so importing it (or the package), the
exact test or the pure-Python lambda and pair leave numpy unloaded.
"""

import itertools
import math
import sys
from collections import namedtuple

from .config import strictly_less
from .core import Supertree
from .errors import NoInteriorVertices

__all__ = [
    "DirichletEigenpair",
    "first_dirichlet_eigenpair",
    "first_dirichlet_eigenvalues",
]


class DirichletEigenpair(
        namedtuple("DirichletEigenpair", "lam f gap degenerate residual")):
    """First Dirichlet eigenpair of a supertree.

    ``f`` has one entry per vertex, zero on the boundary, positive on the
    interior, unit Euclidean norm: a numpy array from
    first_dirichlet_eigenpair. It is one step of inverse iteration,
    (M - sigma I) x = (1, ..., 1), with sigma a fixed multiple of
    eps * 2 * (max degree) below lambda; its angle to the true eigenvector
    is O(sqrt(r) * eps * ||M|| / gap) for an interior of r vertices, the
    same order as LAPACK's own eigenvector bound. ``gap`` is the distance to
    the second Dirichlet eigenvalue (infinite when the interior has one
    vertex) and ``degenerate`` flags a gap too small to certify simplicity.
    ``residual`` is ||M x - lambda x|| on the interior block, usable as a
    slack bound for strict comparisons between entries of f.
    """

    __slots__ = ()


_PAIRS: dict[int, tuple] = {}

# eps * 2 * (max degree) bounds eps * ||M|| (Gershgorin: each row's
# off-diagonal entries sum to at most its degree). eigvalsh puts lambda
# within about three such units of the true value on the blocks tested, so
# a shift of eight keeps M - sigma I positive definite, never exactly
# singular, even when r = 1 or lambda is an integer.
_SHIFT = 8 * 2 * sys.float_info.epsilon


def _laplacian_blocks(trees):
    """Stacked (B, n0, n0) interior Laplacian blocks of B supertrees with
    equal k and n0, with the interior mask of their disjoint union, which
    numbers each tree's vertices after the earlier trees'; a cumulative sum
    over the mask gives a vertex's row in the stack. Two edges share at most
    one vertex, so no entry is scattered twice. _PAIRS keeps each k's ordered
    member pairs of an edge. An empty interior raises NoInteriorVertices."""
    import numpy as np
    k, B = trees[0].k, len(trees)
    flat = itertools.chain.from_iterable
    degrees = np.fromiter(flat(G.degrees for G in trees), np.intp)
    picked = degrees >= 2
    row = np.cumsum(picked) - 1
    r = (int(row[-1]) + 1) // B
    if not r:
        raise NoInteriorVertices("every vertex has degree one")
    blocks = np.zeros((B, r * r))
    blocks[:, :: r + 1] = degrees[picked].reshape(B, r)
    if k not in _PAIRS:
        _PAIRS[k] = tuple(map(np.array, zip(*itertools.permutations(range(k), 2))))
    p, q = _PAIRS[k]
    union = np.fromiter(flat(flat(G.edges) for G in trees), np.intp).reshape(-1, k)
    if B > 1:
        n = np.fromiter((G.n for G in trees), np.intp, B)
        union += np.repeat(np.cumsum(n) - n, (n - 1) // (k - 1))[:, None]
    src, dst = union[:, p], union[:, q]
    both = picked[src] & picked[dst]
    blocks.ravel()[row[src[both]] * r + row[dst[both]] % r] = -1.0 / (k - 1)
    return blocks.reshape(B, r, r), picked


def first_dirichlet_eigenpair(G: Supertree) -> DirichletEigenpair:
    """Smallest Dirichlet eigenvalue with its normalized eigenfunction.

    The eigenfunction sign is fixed so its largest-magnitude entry is
    positive, which makes it positive throughout the interior. The pair is
    flagged degenerate when its second eigenvalue is not
    config.strictly_less above lambda.
    """
    import numpy as np
    blocks, picked = _laplacian_blocks([G])
    M = blocks[0]
    values = np.linalg.eigvalsh(M)
    lam = float(values[0])
    shifted = M.copy()
    shifted.ravel()[:: len(M) + 1] -= lam - _SHIFT * max(G.degrees)
    # the Perron vector is positive, so the all-ones start is never
    # orthogonal to it
    x = np.linalg.solve(shifted, np.ones(len(M)))
    if x[np.argmax(np.abs(x))] < 0.0:
        x = -x
    # math.sqrt(x @ x) is what np.linalg.norm computes for a real 1-D x
    x /= math.sqrt(x @ x)
    f = np.zeros(G.n)
    f[picked] = x
    gap = float(values[1] - values[0]) if len(values) > 1 else math.inf
    r = M @ x - lam * x
    residual = math.sqrt(r @ r)
    degenerate = len(values) > 1 and not strictly_less(lam, float(values[1]))
    return DirichletEigenpair(lam, f, gap, degenerate, residual)


def first_dirichlet_eigenvalues(trees) -> list[float]:
    """Smallest Dirichlet eigenvalue of each supertree, in input order.

    The supertrees are grouped by (k, n0); each group's interior blocks are
    built as one stack and solved in one numpy.linalg.eigvalsh call, which
    runs the same LAPACK driver on each block as first_dirichlet_eigenpair,
    so each value equals its ``lam`` exactly.

    Raises:
        NoInteriorVertices: a supertree has no interior vertex.
    """
    import numpy as np
    trees = list(trees)
    groups: dict[tuple[int, int], list[int]] = {}
    for i, G in enumerate(trees):
        groups.setdefault((G.k, G.n - G.degrees.count(1)), []).append(i)
    lams: dict[int, float] = {}
    for idx in groups.values():
        values = np.linalg.eigvalsh(_laplacian_blocks([trees[i] for i in idx])[0])
        lams.update(zip(idx, values[:, 0].tolist()))
    return [lams[i] for i in range(len(trees))]


def _inertia_plan(G: Supertree):
    """Elimination plan for (k - 1) times the Dirichlet matrix of G, whose
    entries are integers: (k - 1) * degree on the diagonal and -1 between
    two interior members of an edge.

    The nodes are G's interior vertices, numbered in BFS order from an
    interior root, and one hub per edge with three or more interior
    members. An edge with two interior members joins them directly. A hub
    has diagonal 1 and is joined by 1 to each member of its edge, and each
    member gains 1 on its diagonal; eliminating the hubs gives back the
    edge's clique, so at every sigma the nodes' matrix is positive definite
    exactly when (k - 1) * (M - sigma) is. Returns (base diagonal, sigma
    coefficient, parent node, a dict of each interior vertex's node), a
    node's parent numbered before it; a hub is a node with sigma
    coefficient 0.

    Raises:
        NoInteriorVertices: G has no interior vertex.
    """
    scale = G.k - 1
    at = {v: [] for v in range(G.n) if G.degrees[v] >= 2}
    if not at:
        raise NoInteriorVertices("every vertex has degree one")
    for e in G.edges:
        members = [v for v in e if v in at]
        if len(members) > 1:
            for v in members:
                at[v].append(members)
    root = next(iter(at))
    node, order, nodes = {root: 0}, [root], [[scale * G.degrees[root], scale, -1]]
    for v in order:
        for members in at[v]:
            # every member of the edge v was reached by is numbered already
            children = [w for w in members if w not in node]
            parent = node[v]
            if len(children) > 1:
                nodes[parent][0] += 1
                nodes.append([1, 0, parent])
                parent = len(nodes) - 1
            for w in children:
                node[w] = len(nodes)
                order.append(w)
                nodes.append([scale * G.degrees[w] + (len(children) > 1), scale, parent])
    return (*zip(*nodes), node)


def _exact_below(plan, sigma):
    """Whether the supertree that plan (from _inertia_plan) describes has a
    Dirichlet eigenvalue at or below the rational sigma.

    By Sylvester's law of inertia it has one exactly when the plan's matrix
    minus (k - 1) * sigma on the vertices is not positive definite, that is
    when an LDL^T elimination, last node first, meets a pivot that is not
    positive. Each pivot updates its parent node alone, so nothing fills
    in: the tree form of Jacobs and Trevisan, Linear Algebra Appl. 434
    (2011). It runs in integers, each pivot an unreduced pair (numerator,
    denominator > 0) whose sign is its numerator's, so no gcd is ever
    taken, and stops at the first numerator that is not positive.
    """
    from fractions import Fraction
    sigma = Fraction(sigma)
    p, q = sigma.numerator, sigma.denominator
    base, coef, up = plan[:3]
    num = [b * q - c * p for b, c in zip(base, coef)]
    den = [q] * len(num)
    for i in range(len(num) - 1, -1, -1):
        n = num[i]
        if n <= 0:
            return True
        if i:
            # num[j] / den[j] - den[i] / n, over den[j] * n > 0
            j = up[i]
            num[j], den[j] = num[j] * n - den[j] * den[i], den[j] * n
    return False


def _log_det_slopes(plan, sigma, stop=1):
    """(s1, s2), the sums over the Dirichlet eigenvalues lambda_j of
    1 / (lambda_j - sigma) and of its square, at a float sigma below all
    but stop - 1 of them; None where the float elimination says that stop
    of them lie at or below sigma.

    It runs _exact_below's elimination in floats, carrying each pivot's
    first and second derivative in sigma. The pivots multiply to
    det(M - sigma) times a constant, so their logarithmic derivatives sum
    to minus s1, and the derivatives of those to minus s2. By Sylvester's
    law the pivots at or below the smallest normal float (pivmin, as in
    LAPACK's dstebz) count the eigenvalues at or below sigma, a vanishing
    pivot included. It returns None at the stop-th; an earlier one is
    stepped past as dstebz does, with -pivmin in its place.
    """
    base, coef, up = plan[:3]
    x = [b - c * sigma for b, c in zip(base, coef)]
    dx = [-c for c in coef]
    ddx = [0] * len(x)
    s1 = s2 = 0
    pivmin = sys.float_info.min
    for i in range(len(x) - 1, -1, -1):
        pivot = x[i]
        if pivot <= pivmin:
            stop -= 1
            if not stop:
                return None
            pivot = min(pivot, -pivmin)
        q, h = dx[i] / pivot, ddx[i] / pivot
        s1 -= q
        s2 += q * q - h
        if i:
            j = up[i]
            x[j] -= 1 / pivot
            dx[j] += q / pivot
            ddx[j] += (h - 2 * q * q) / pivot
    return s1, s2


# Laguerre passes before the polish: for lambda_1 a median of 4 and at most
# 6 on the benchmark classes (13 on the test suite's reference trees), for
# lambda_2 a median of 5; clustered spectra such as long brooms can need
# more, and then the polish bisects.
_LAGUERRE_PASSES = 16


def _bisected_eigenvalue(G: Supertree, plan=None, pole=None):
    """(lambda, plan): G's smallest Dirichlet eigenvalue, the least float
    where _log_det_slopes returns None, and the plan it ran on (built
    unless given); the float that bisection of that answer on
    [0, 2 * max degree] (Gershgorin) ends on. Given pole = lambda_1, the
    same search with stop = 2 returns lambda_2.

    Laguerre's method on det(M - sigma), a polynomial of degree r (the
    interior size) with real roots, starts at sigma = 0 and, below lambda,
    rises monotonically and never passes it in exact arithmetic (Parlett,
    Math. Comp. 18 (1964)); one _log_det_slopes pass per step. Unlike
    Newton's step 1 / s1 it stays fast when eigenvalues cluster above
    lambda (a star of 1,000 two-edge legs took Newton 715 passes). With a
    pole it runs on det(M - sigma) / (pole - sigma), of degree r - 1 and
    least root lambda_2: s1 and s2 less the pole's terms. It stops when a
    step is no longer shorter than the last, is within the float floor
    eps * 2 * max degree (eps * ||M||), or rounds onto lambda or past it,
    when the deflated sums are not both positive (an iterate on the pole,
    or cancellation near it), or after _LAGUERRE_PASSES steps. A gallop
    away from the last iterate, doubling from the floor (or from the upper
    bound s1 / s2 on lambda - sigma), brackets the float where the answer
    turns yes, and bisection ends on it. Each bracket end is a pass's
    answer, so the pole steers the steps and never the result.

    Raises:
        NoInteriorVertices: G has no interior vertex.
    """
    plan = plan or _inertia_plan(G)
    r, stop = sum(1 for c in plan[1] if c), 1
    if pole is not None:
        r, stop = r - 1, 2
    floor = sys.float_info.epsilon * 2 * max(G.degrees)
    lo, hi = 0.0, float(2 * max(G.degrees))
    sigma, last = lo, math.inf
    for _ in range(_LAGUERRE_PASSES):
        slopes = _log_det_slopes(plan, sigma, stop)
        if slopes is None:
            hi = sigma
            break
        lo, (s1, s2) = sigma, slopes
        if pole is not None:
            t = 1 / (pole - sigma) if sigma != pole else math.inf
            s1, s2 = s1 - t, s2 - t * t
            if not (s1 > 0 and s2 > 0):
                s1, s2 = 0, 1  # the polish gallops from the floor
                break
        step = r / (s1 + math.sqrt(max(0, (r - 1) * (r * s2 - s1 * s1))))
        if not floor < step < last:
            break
        sigma, last = lo + step, step
    if hi == sigma:
        # a step rounded onto lambda or past it; lambda lies just below
        t = floor
        while hi - t > lo:
            if _log_det_slopes(plan, hi - t, stop) is not None:
                lo = hi - t
                break
            hi, t = hi - t, 2 * t
    else:
        # lambda - lo <= s1 / s2, since s2 <= s1 / (lambda - lo)
        t = max(floor, s1 / s2)
        while lo + t < hi:
            if _log_det_slopes(plan, lo + t, stop) is None:
                hi = lo + t
                break
            lo, t = lo + t, 2 * t
    while lo < (mid := (lo + hi) / 2) < hi:
        if _log_det_slopes(plan, mid, stop) is None:
            hi = mid
        else:
            lo = mid
    return hi, plan


def _tree_eigenpair(G: Supertree) -> DirichletEigenpair:
    """first_dirichlet_eigenpair on the elimination plan, in pure Python:
    no numpy, no dense block, O(n) memory.

    lambda and the plan come from _bisected_eigenvalue, and the second
    eigenvalue, for gap and degenerate, from the same search with lambda
    as its pole. f is the same inverse-iteration step at the same sigma as
    first_dirichlet_eigenpair's, (M - sigma I) x = (1, ..., 1), solved by
    one LDL^T elimination over the plan and one back substitution: a link
    between two vertices is -1, one at a hub +1, and a hub's right-hand
    side is 0, so eliminating the hubs leaves (k - 1) * (M - sigma) acting
    on the vertices. f is a list of G.n floats.

    Raises:
        NoInteriorVertices: G has no interior vertex.
    """
    lam, plan = _bisected_eigenvalue(G)
    base, coef, up, node = plan
    top = max(G.degrees)
    gap, degenerate = math.inf, False
    if len(node) > 1:
        second = _bisected_eigenvalue(G, plan, lam)[0]
        gap, degenerate = second - lam, not strictly_less(lam, second)
    sigma = lam - _SHIFT * top
    pivots = [b - c * sigma for b, c in zip(base, coef)]
    links = [-1 if c and coef[j] else 1 for c, j in zip(coef, up)]
    x = [1.0 if c else 0.0 for c in coef]
    for i in range(len(x) - 1, 0, -1):
        j, ratio = up[i], links[i] / pivots[i]
        pivots[j] -= links[i] * ratio
        x[j] -= ratio * x[i]
    x[0] /= pivots[0]
    for i in range(1, len(x)):
        x[i] = (x[i] - links[i] * x[up[i]]) / pivots[i]
    # the Perron vector is positive, so the all-ones start is never
    # orthogonal to it; hubs hold minus their members' sum, so they are left
    # out of the sign and the norm. fsum rounds once, where sum() and
    # math.hypot round differently from one Python version to the next
    x = [x[i] for i in node.values()]
    norm = math.sqrt(math.fsum(xv * xv for xv in x))
    if max(x, key=abs) < 0.0:
        norm = -norm
    f = [0.0] * G.n
    for v, xv in zip(node, x):
        f[v] = xv / norm
    # M f - lambda f on the interior, one product per edge
    near = [0.0] * G.n
    for e in G.edges:
        total = math.fsum(f[v] for v in e)
        for v in e:
            near[v] += total - f[v]
    residual = math.sqrt(math.fsum(
        ((G.degrees[v] - lam) * f[v] - near[v] / (G.k - 1)) ** 2 for v in node))
    return DirichletEigenpair(lam, f, gap, degenerate, residual)
