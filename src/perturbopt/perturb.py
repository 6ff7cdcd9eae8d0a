"""Gaussian perturbation, smoothed policy probabilities and risks.

The perturbation Z lives in R^{d(G)} with sqrt(d) Z standard normal, so
|Z| sqrt(d) follows a chi distribution with d degrees of freedom.

One rule picks the risk estimator, per row of a batch and per polytope
cell, from the row's lambda and the cell's polytope alone: at lam = 0 the
unperturbed policy; for lam > 0 the closed form where p_lambda has one (a
one-dimensional two-vertex polytope, Permutahedron(2)), and otherwise the
Monte Carlo mean over common random numbers: the noise block of instance
i depends only on (master_seed, i), never on the parameter w or on
lambda, so the map w -> empirical regularized risk is a fixed
deterministic surface either way.  A cell is the instances that share
one polytope object, as generate_instances and load_instances build them.

A risk pass fills one (n, M) table of per-instance terms, one row per
instance and one column per w, and one fold turns it into a risk: the
rows are summed left to right in instance order and divided by n.  The
kSoS surface and every reported risk use it, so
crn_risk_surface(...).values(W) equals the values of regularized_risk(W)
bit for bit.

Every per-instance consumer of theta works one polytope cell at a time
(_polytope_cells): one stacked matmul gives the thetas of all the cell's
instances and rows, bit for bit those of model.predict.  The risk pass
scores a cell's lam = 0 rows in one vertex-table scan and, in a
closed-form cell, costs each instance's vertices once for its lam = 0
and closed-form rows alike; tail_mass_V takes one internal-radius call
and one chi_tail call per cell over every w of a stack, and
theory.uw_moment one internal-radius call per cell.

A closed form is Phi of one argument per row, and Phi is _ndtr, 0.5
erfc(-a sqrt(1/2)) on libm's erfc through math, so a risk pass loads no
scipy module (importing scipy.special costs about 0.2 s).  It agrees
with scipy.special.ndtr to about 6e-14 relative, not bit for bit.  A
risk pass makes one _ndtr call per closed-form cell, over all its
instances and rows.  chi_tail's Q(d/2, x) is the finite sum that the
upper incomplete gamma is at integer d (Abramowitz and Stegun 6.5.13
and 26.4.21), on math's exp, log, lgamma and erfc, so the bias check
loads no scipy module either, at any d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import GeneralizedLinearModel, ParamSpace
from .polytopes import (
    EnumerationUnavailable,
    Permutahedron,
    SolutionPolytope,
    _vertex_argmax,
    internal_radius_batch,
    linear_oracle,
    p0,
)
from .problems import Instance
from .rngs import substream


@dataclass(frozen=True)
class PerturbationSpec:
    lam: float
    mc_samples: int = 512
    master_seed: int = 0

    def __post_init__(self):
        if not self.lam >= 0.0:
            raise ValueError("need lambda >= 0")
        if self.mc_samples < 1:
            raise ValueError("need at least one Monte Carlo sample")


@dataclass(frozen=True)
class RiskReport:
    value: float
    mc_std_error: float
    n_instances: int
    mc_samples: int
    lam: float
    seed_trace: dict
    mode: str
    ties_encountered: bool = False

    def to_doc(self) -> dict:
        return {
            "value": self.value,
            "mc_std_error": self.mc_std_error,
            "n_instances": self.n_instances,
            "mc_samples": self.mc_samples,
            "lambda": self.lam,
            "seed_trace": self.seed_trace,
            "mode": self.mode,
            "ties_encountered": self.ties_encountered,
        }


def sample_perturbation(d: int, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw size rows Z with sqrt(d) Z ~ N(0, Id): i.i.d. N(0, 1/d) entries."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return rng.standard_normal((size, d)) / np.sqrt(d)


def perturbation_block(spec: PerturbationSpec, instance_index: int, d: int) -> np.ndarray:
    """The frozen (K, d) noise block of an instance; row k is sample k.

    Depends only on (master_seed, instance index, k) - not on w - which is
    what makes the risk surface a fixed function under common random
    numbers.
    """
    rng = substream(spec.master_seed, f"perturb/{instance_index}")
    return sample_perturbation(d, rng, size=spec.mc_samples)


def chi_tail(threshold: float | np.ndarray, d: int) -> float | np.ndarray:
    """P(|Z| > threshold) for the d-dimensional perturbation law: the
    regularized upper incomplete gamma Q(d/2, x) at x = d t^2 / 2, which
    is 1 for t <= 0, 0 at t = inf and NaN at NaN.  A float for a scalar
    threshold, elementwise for an array.

    At integer d, Q is a finite sum (Abramowitz and Stegun 6.5.13 and
    26.4.21): sum_{j < d/2} x^j e^-x / j! for even d, and for odd d
    erfc(sqrt x) plus the same terms at the powers j + 1/2.  Each term is
    exp(-x + p log x - lgamma(p + 1)) and every term is positive, so the
    sum is good to about 1e-13 relative wherever Q is a normal float, at
    every d; a sum that rounds above 1 is 1.  exp, log and erfc are
    libm's (_libm), so the bits do not depend on numpy's SIMD build, and
    the terms are added in order of j, so a batch gives each threshold
    the bits of a single call.  One call over 12,000 thresholds costs 2-3
    ms at d = 1 or 2 and 4 ms at d = 5 (2-core x86-64 VM), mostly math
    calls and numpy dispatch, so callers batch their thresholds: the bias
    sweep takes every tail mass from one tail_mass_V call over its stack
    of w.

    The square is a product: on a numpy scalar ``** 2`` goes through pow,
    which can differ from the array square in the last bit."""
    x = np.sqrt(d) * np.maximum(threshold, 0.0)
    x = np.asarray(0.5 * (x * x), dtype=np.float64)
    flat = x.ravel()
    tail = np.full_like(flat, np.nan)  # NaN fails every test below
    tail[flat == 0.0] = 1.0  # x = 0 has no log
    tail[flat == np.inf] = 0.0
    live = (flat > 0.0) & (flat < np.inf)
    v = flat[live]
    half = 0.5 * (d % 2)
    total = _libm(math.erfc, np.sqrt(v)) if half else np.zeros_like(v)
    log_v = _libm(math.log, v)
    for j in range(d // 2):
        p = j + half
        total += _libm(math.exp, -v + p * log_v - math.lgamma(p + 1.0))
    tail[live] = np.minimum(total, 1.0)  # rounding can put a sum near 1 above it
    return float(tail[0]) if x.ndim == 0 else tail.reshape(x.shape)


# ---------------------------------------------------------------------------
# Smoothed policy probabilities


_SQRT1_2 = 0.70710678118654752440


def _libm(fn, x: np.ndarray) -> np.ndarray:
    """fn(x_i) over a 1-D array, element by element, fn a math function.
    math calls libm, whose bits do not depend on numpy's SIMD build
    (numpy's AVX-512 exp and log can differ from libm's in the last bit),
    and it has the erfc that numpy lacks."""
    return np.fromiter(map(fn, x.tolist()), np.float64, x.size)


def _ndtr(a: np.ndarray) -> np.ndarray:
    """Phi(a), the standard normal CDF, over a 1-D float64 array: 0.5
    erfc(-a sqrt(1/2)) from libm's erfc.  It is 0.5 at +-0, 1 at +inf
    and for a >= 8.3, 0 at -inf and for a <= -38.48, and NaN at NaN.

    It agrees with scipy.special.ndtr to about 6e-14 relative wherever
    Phi is 1e-300 or more, and is as close as scipy's to a 40-digit
    mpmath reference: over 24,000 points of [-37.6, 8.3] the worst
    relative error was 1.9e-13, and scipy's 2.4e-13.  For -38.48 < a <=
    -37.68 libm's erfc goes on into the subnormals where scipy's cephes
    returns 0.  The cost is a math call per element, about 0.09 us, plus
    a few us of numpy dispatch per call (2-core x86-64 VM)."""
    return 0.5 * _libm(math.erfc, -_SQRT1_2 * np.asarray(a, dtype=np.float64))


def exact_policy_distribution(
    polytope: SolutionPolytope, thetas: np.ndarray, lam: float | np.ndarray
) -> np.ndarray | None:
    """Closed-form p_lambda over the enumerated vertices for lam > 0 at each
    row of thetas (B, d): shape (B, N), row b the law at thetas[b].  lam is
    one lambda for every row or one per row, shape (B,); row b's law is the
    same bits either way, since theta / lam is elementwise.

    The closed forms are Permutahedron(2) and any other polytope in R^1
    with two vertices: Phi(t[b]) at one vertex and 1 - Phi(t[b]) at the
    other, from one _ndtr call over the B rows.  Elsewhere it returns None,
    which the polytope's kind and dimension decide without enumerating its
    vertices; this is the per-cell decision of a risk pass.  The lam = 0
    measure, ties included, is polytopes.p0.
    """
    thetas = np.asarray(thetas, dtype=np.float64)
    if isinstance(polytope, Permutahedron):
        if polytope.n != 2:
            return None
        # winner (2,1) iff theta_1 > theta_2; Z_1 - Z_2 ~ N(0, 1)
        t, hi = (thetas[:, 0] - thetas[:, 1]) / lam, polytope.vertices()[:, 0] == 2.0
    elif polytope.dim != 1 or len(verts := polytope.vertices()) != 2:
        return None
    else:
        gap = float(verts[1, 0] - verts[0, 0])
        t, hi = np.sign(gap) * thetas[:, 0] / lam, np.array([False, True])
    p = _ndtr(t)[:, None]
    return np.where(hi, p, 1.0 - p)


def sampled_policy_distribution(
    polytope: SolutionPolytope,
    theta: np.ndarray,
    lam: float,
    n_samples: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo p_lambda over the enumerated vertices: perturbed
    directions are generic, so the tie-free oracle applies."""
    verts = polytope.vertices()
    z = sample_perturbation(polytope.dim, rng, size=n_samples)
    winners, _ = _vertex_argmax(theta[None, :] + lam * z, verts)
    counts = np.bincount(winners, minlength=len(verts)).astype(np.float64)
    probs = counts / n_samples
    ses = np.sqrt(probs * (1.0 - probs) / n_samples)
    return probs, ses


# ---------------------------------------------------------------------------
# Risks


def _policy_cost_unperturbed(
    oracle, x: Instance, theta: np.ndarray, master_seed: int
) -> tuple[float, bool]:
    """Cost of the unperturbed policy at one theta, from the polytope's own
    oracle, with the measure-valued tie convention: off a tie, the cost of
    the oracle solution; on a tie, _tie_cost.  This is the lam = 0 path of
    a polytope past the enumeration cap, and the per-row reference of
    _unperturbed_terms."""
    res = linear_oracle(x.polytope, theta)
    if not res.tie:
        return float(oracle.eval_vertices(x, res.y[None])[0]), False
    return _tie_cost(oracle, x, theta, master_seed), True


def _tie_cost(oracle, x: Instance, theta: np.ndarray, master_seed: int) -> float:
    """Mean cost under polytopes.p0's split of the tie at theta, whose
    Gaussian draws (a tie that no symmetry splits exactly) come from the
    instance's "p0/<index>" substream.  p0 reads the vertex table, so a
    tie past the enumeration cap raises EnumerationUnavailable."""
    measure = p0(x.polytope, theta, substream(master_seed, f"p0/{x.index}"))
    costs = oracle.eval_vertices(x, np.array([v for v, _ in measure.atoms]))
    return float(sum(p * float(c) for (_, p), c in zip(measure.atoms, costs)))


def _unperturbed_terms(oracle, cell, thetas: np.ndarray, master_seed: int, costs=None):
    """(values, ties), each (n_c, P), of the unperturbed policy at row p of
    thetas (n_c, P, dim) for instance cell[c], each entry equal to
    _policy_cost_unperturbed's at thetas[c, p] bit for bit.  A polytope
    whose vertices enumerate, permutahedron or VspFlow, scores all n_c * P
    rows against its vertex table in one _vertex_argmax scan.  An untied
    row's value is its instance's cost at its winner: read from costs, the
    cell's (n_c, N) vertex-cost table, when the pass built one for its
    closed form, and otherwise from one eval_vertices call per instance
    over the instance's distinct winners.  A tied row's is _tie_cost, the
    mean cost under polytopes.p0's split.  Only a polytope past the
    enumeration cap solves its oracle per row."""
    n_c, P, dim = thetas.shape
    try:
        verts = cell[0].polytope.vertices()
    except EnumerationUnavailable:
        terms = np.array(
            [[_policy_cost_unperturbed(oracle, x, t, master_seed) for t in th] for x, th in zip(cell, thetas)]
        )  # (n_c, P, 2): the value and the tie flag
        return terms[..., 0], terms[..., 1] == 1.0
    winners, ties = (a.reshape(n_c, P) for a in _vertex_argmax(thetas.reshape(-1, dim), verts))
    if costs is not None:
        values = np.take_along_axis(costs, winners, axis=1)
    else:
        values = np.empty((n_c, P))
        for c, x in enumerate(cell):
            distinct, index = np.unique(winners[c], return_inverse=True)
            values[c] = oracle.eval_vertices(x, verts[distinct])[index]
    for c, p in zip(*np.nonzero(ties)):
        values[c, p] = _tie_cost(oracle, cell[c], thetas[c, p], master_seed)
    return values, ties


def _param_rows(W, model, space) -> np.ndarray:
    """W as a C-contiguous (M, d) float64 array; a single w is one row.
    Every row passes model.check_param, so a bad row raises what
    model.predict raises."""
    W = np.asarray(W, dtype=np.float64)
    for w in W if W.ndim == 2 else [W]:
        model.check_param(w, space)
    return np.ascontiguousarray(W.reshape(-1, model.d))


def _stacked_features(model, cell) -> np.ndarray:
    """The (n_c, dim, d) stack of the cell's feature matrices, each in the
    layout model.feature_matrix gives it: Fortran order when every matrix
    has it, else C order.  A gemv's bits depend on the layout it reads."""
    mats = [model.feature_matrix(x) for x in cell]
    if all(m.flags.f_contiguous and not m.flags.c_contiguous for m in mats):
        return np.stack([m.T for m in mats]).transpose(0, 2, 1)
    return np.stack(mats)


def _polytope_cells(instances, model, W: np.ndarray):
    """The polytope cells of instances, in the order of each cell's first
    instance, as (rows, cell, thetas): the positions of the cell's
    instances, the instances, and the (n_c, M, dim) stack of their thetas
    at the M rows of W.  A cell is the instances that share one polytope
    object, as generate_instances and load_instances build them.  The
    thetas come from one stacked matmul per cell, one gemv per instance
    and row as in model.predict(w, x), bit for bit."""
    cells = {}  # polytope object -> the positions of its instances
    for i, x in enumerate(instances):
        cells.setdefault(id(x.polytope), []).append(i)
    for rows in cells.values():
        cell = [instances[i] for i in rows]
        yield rows, cell, np.matmul(_stacked_features(model, cell)[:, None], W[:, :, None])[..., 0]


def _fold(table: np.ndarray) -> np.ndarray:
    """The module's one fold: the rows of an (n, M) table summed left to
    right, in instance order."""
    total = np.zeros(table.shape[1])
    for row in table:
        total += row
    return total


def median(values) -> float:
    """np.median of a nonempty list of finite floats, bit for bit: the
    middle value, or the mean (a + b) / 2 of the two middle ones.
    np.median imports numpy.ma, and statistics imports decimal and
    fractions."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    return float(ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0)


def _risk_terms(W, instances, oracle, model, spec, lams=None):
    """The one risk estimator, for the rows of W, an (M, d) array from
    _param_rows (a single w is M = 1), row m at lambda lams[m] (spec.lam
    for every row when lams is None).  Returns three (n, M) tables, row i
    for instances[i] and column m for W[m]: the risk terms; the Monte
    Carlo variances of their means, 0 where a term draws no noise (None
    when no term of the pass draws noise); and whether each lam = 0
    term's policy hit a tie.

    The tables fill one polytope cell at a time (_polytope_cells), the
    thetas of all the cell's instances and rows from one stacked matmul.
    A cell with a closed form makes one exact_policy_distribution call (so
    one _ndtr) over all its instances and rows at lam > 0, costs each
    instance's vertices once (one eval_vertices call), and dots each row's
    law with its instance's costs in one broadcast vecdot, each term as
    ``p @ costs``.  The rows at lam = 0 take the unperturbed policy, the
    whole cell in one vertex-table scan (_unperturbed_terms), reading the
    closed form's cost table where the cell has one.  In any other cell
    each instance draws its CRN noise block once for all rows at lam > 0
    and perturbs every theta in one eval_theta_batch call; the mean over
    the K samples of each row equals np.mean of that row's costs bit for
    bit, and the variance np.var's (_mean_var), the mean taken once.  The
    directions fill one (dim, P, K) column buffer per cell,
    reused by each instance, from the instance's noise block transposed
    once to (dim, K): lam * z is taken once per instance when every row
    shares lam (every train and surface pass), and once per row
    otherwise, and theta is added into the buffer.  The oracle reads the
    buffer's transposed view, the same (P * K, dim) rows, which the
    scheduling kernel ranks by columns without a copy.  theta / lam and
    lam * z are elementwise, so a term is the same bits whatever else the
    pass holds, and whether its lambda is shared or its own."""
    n, M = len(instances), len(W)
    lam = np.full(M, spec.lam) if lams is None else lams
    zero, smooth = np.flatnonzero(lam == 0.0), np.flatnonzero(lam > 0.0)
    lam = lam[smooth]
    terms, variances, ties = np.zeros((n, M)), np.zeros((n, M)), np.zeros((n, M), dtype=bool)
    sampled = False
    for rows, cell, thetas in _polytope_cells(instances, model, W):
        polytope = cell[0].polytope
        law = costs = None
        if smooth.size:
            law = exact_policy_distribution(
                polytope, thetas[:, smooth].reshape(-1, polytope.dim), np.tile(lam, len(rows))
            )
        if law is not None:
            costs = np.array([oracle.eval_vertices(x, polytope.vertices()) for x in cell])
            terms[np.ix_(rows, smooth)] = np.vecdot(law.reshape(len(rows), len(smooth), -1), costs[:, None])
        if zero.size:
            terms[np.ix_(rows, zero)], ties[np.ix_(rows, zero)] = _unperturbed_terms(
                oracle, cell, thetas[:, zero], spec.master_seed, costs
            )
        if law is not None or not smooth.size:
            continue
        sampled = True
        scale = lam[:1] if np.all(lam == lam[0]) else lam  # one lam * z per instance when shared
        dirs = np.empty((polytope.dim, len(smooth), spec.mc_samples))
        for i, x, t in zip(rows, cell, thetas[:, smooth]):
            z = np.ascontiguousarray(perturbation_block(spec, x.index, x.dim).T)  # (dim, K)
            np.add(scale[:, None] * z[:, None, :], t.T[:, :, None], out=dirs)
            costs = oracle.eval_theta_batch(x, dirs.reshape(x.dim, -1).T).reshape(len(smooth), -1)
            terms[i, smooth], var = _mean_var(costs)
            if var is not None:
                variances[i, smooth] = var / costs.shape[1]
    return terms, variances if sampled else None, ties


def _mean_var(costs: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """np.mean(costs, axis=1) and np.var(costs, axis=1, ddof=1) of a (P, K)
    table bit for bit, the variance None at K = 1, from one sum per row:
    the reductions those two run (add.reduce, divide by K, subtract,
    square in place, add.reduce, divide by K - 1), the mean taken once."""
    k = costs.shape[1]
    mean = np.add.reduce(costs, axis=1, keepdims=True)
    mean /= k
    if k == 1:
        return mean[:, 0], None
    dev = costs - mean
    np.square(dev, out=dev)
    return mean[:, 0], np.add.reduce(dev, axis=1) / (k - 1)


def regularized_risk(
    w,
    instances,
    oracle,
    model: GeneralizedLinearModel,
    space: ParamSpace,
    spec: PerturbationSpec,
    lams=None,
) -> RiskReport | list[RiskReport]:
    """Empirical regularized risk of the policy at parameter w, each
    instance scored by the module's rule: the unperturbed policy at
    lam = 0, the closed-form p_lambda times the vertex costs where one
    exists (std error 0), and elsewhere the common-random-number average of
    the oracle-solution cost over spec.mc_samples perturbed directions.
    The report's mode is "exactenum" when no instance drew noise at its
    lambda and "montecarlo" otherwise.

    The value is the module's one fold (_fold) of the term table of
    _risk_terms, its rows summed left to right in instance order and
    divided by n, and so equals crn_risk_surface's value at w bit for bit.
    The std error is the square root of the fold of the Monte Carlo
    variance table, divided by n, and a row's ties are any of its column
    of the tie table.

    w may be one parameter of shape (d,), which returns one report, or a
    batch of shape (M, d), which returns a list of M reports from one pass
    over the polytope cells: every row is checked before any oracle call,
    each noise block is drawn once for all rows, and report m equals the
    single call at W[m] bit for bit (value, std error, mode and ties).

    lams, shape (M,), gives row m its own lambda in place of spec.lam, so
    one pass scores one w at several lambdas.  Report m then carries
    lams[m], its own mode, std error and ties, and equals the single call
    at W[m] with spec.lam = lams[m] bit for bit.
    """
    n = len(instances)
    if n == 0:
        raise ValueError("empty instance list")
    W = _param_rows(w, model, space)
    if lams is not None:
        lams = np.asarray(lams, dtype=np.float64)
        if lams.shape != (len(W),) or not np.all(lams >= 0.0):
            raise ValueError(f"lams needs one lambda >= 0 per row of w, got {lams!r}")
    terms, variances, ties = _risk_terms(W, instances, oracle, model, spec, lams)
    sampled = variances is not None
    std_errors = np.sqrt(_fold(variances)) / n if sampled else np.zeros(len(W))
    lam_rows = [spec.lam] * len(W) if lams is None else lams.tolist()
    reports = [
        RiskReport(
            value=float(v),
            mc_std_error=float(se),
            n_instances=n,
            mc_samples=spec.mc_samples,
            lam=lam,
            seed_trace={"master_seed": spec.master_seed, "labels": "perturb/<instance>"},
            mode="montecarlo" if sampled and lam > 0.0 else "exactenum",
            ties_encountered=bool(t),
        )
        for v, se, t, lam in zip(_fold(terms) / n, std_errors, ties.any(axis=0), lam_rows)
    ]
    return reports if np.ndim(w) == 2 else reports[0]


def crn_risk_surface(instances, oracle, model, space, spec: PerturbationSpec):
    """The fixed deterministic map w -> empirical regularized risk, each
    instance scored by the module's rule (closed form where p_lambda has
    one, the CRN Monte Carlo mean elsewhere); the name keeps the CRN of
    its Monte Carlo terms.  Its values are regularized_risk's, bit for
    bit: both fold the term table of _risk_terms with the module's one
    fold; the surface discards the variance and tie tables.

    A noise block depends only on (master_seed, instance index), so each
    call draws the same blocks and repeated calls are bit-identical;
    suitable as the kernel-SoS objective.

    The returned function carries ``values(W)``: W of shape (M, d) in, the
    M surface values out, from one pass over the polytope cells (each
    noise block perturbs every row in one oracle batch).  Entry m equals the
    single call at W[m] and regularized_risk(W[m]).value bit for bit; the
    single call is ``values(w[None])[0]``.
    ``values`` is a function attribute rather than a method of a class, so
    that a ``functools.wraps`` wrapper of the surface, which copies
    ``__dict__``, still carries it.
    """
    if len(instances) == 0:
        raise ValueError("empty instance list")

    def values(W) -> np.ndarray:
        if np.ndim(W) != 2:
            raise ValueError(f"values takes W of shape (M, d), got shape {np.shape(W)}")
        terms, _, _ = _risk_terms(_param_rows(W, model, space), instances, oracle, model, spec)
        return _fold(terms) / len(instances)

    def surface(w) -> float:
        return float(values(np.asarray(w)[None])[0])

    surface.values = values
    return surface


def tail_mass_V(
    w,
    instances,
    model: GeneralizedLinearModel,
    space: ParamSpace,
    lam: float | np.ndarray,
) -> float | np.ndarray:
    """V_w(lam): average probability that the perturbation norm exceeds
    rho(psi_w(X)) / lam, from the exact chi tail.

    lam may be a scalar (returns a float) or a 1-D grid (returns a float64
    array with V_w(lam_j) at j).  w may be one parameter of shape (d,) or
    a stack of shape (n_w, d), which returns shape (n_w,) for a scalar lam
    and (n_w, G) for a grid, row i the call at W[i] bit for bit.

    Per polytope cell (_polytope_cells) the thetas of every instance and
    row come from one stacked matmul, the radii from one
    internal_radius_batch call over the cell's (n_c * n_w, 1, dim) stack
    of single directions (internal_radius's bits; a stack of n_w-row
    batches would round differently), and the tail from one chi_tail call
    over the cell's (n_c, n_w, G) thresholds; no model.predict call.  The
    (n, n_w, G) table is folded left to right in instance order (_fold),
    so each entry is the scalar call's value bit for bit.
    """
    lams = np.asarray(lam, dtype=np.float64)
    if np.any(lams <= 0.0):
        raise ValueError("lam must be positive")
    W = _param_rows(w, model, space)
    table = np.empty((len(instances), len(W), lams.size))
    for rows, cell, thetas in _polytope_cells(instances, model, W):
        rho = internal_radius_batch(cell[0].polytope, thetas.reshape(-1, 1, thetas.shape[-1]))
        table[rows] = chi_tail(rho.reshape(len(rows), len(W), 1) / lams.reshape(-1), cell[0].dim)
    v = (_fold(table.reshape(len(instances), -1)) / len(instances)).reshape(len(W), lams.size)
    if np.ndim(w) == 2:
        return v[:, 0] if lams.ndim == 0 else v
    return float(v[0, 0]) if lams.ndim == 0 else v[0]
