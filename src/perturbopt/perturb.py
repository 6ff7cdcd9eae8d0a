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

A closed form is Phi of one argument per row, and Phi is _ndtr, a numpy
port of the cephes ndtr that scipy.special.ndtr runs, equal to it bit
for bit, so a risk pass loads no scipy module (importing scipy.special
costs about 0.2 s).  The port costs about 0.14 ms of numpy dispatch per
call on a 2-core x86-64 VM, where the scipy ufunc costs 0.5 us, so a
risk pass makes one _ndtr call per closed-form cell, over all its
instances and rows.  chi_tail's Q is _igamc, a port of cephes igamc
equal to scipy.special.gammaincc bit for bit, so the bias check loads no
scipy module either; only for d > 40 does chi_tail import scipy.special,
where it is called.
"""

from __future__ import annotations

import itertools
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
    regularized upper incomplete gamma Q(d/2, d t^2 / 2), which is 1 for
    t <= 0.  A float for a scalar threshold, elementwise for an array.

    For d <= 40, Q is _igamc, a numpy port of the cephes igamc that
    scipy.special.gammaincc runs, equal to it bit for bit, so the bias
    check loads no scipy module.  By cephes' rules on x and a = d/2 it
    takes 1 - the power series of P, a series of Q for x <= 1.1, or the
    continued fraction (_igamc lists the branches).  Two details keep its
    bits: the series of Q calls cephes' own rational expm1, not libm's,
    which puts Q one or two ulps off on a quarter of the points at
    a = 1/2 in (0.45, 1.1]; and cephes' lgam1p(1/2) is its Taylor sum
    cut below n = 42, 258 ulps from lgam(3/2).  Past d = 40 (a > 20) cephes takes
    Temme's asymptotic series near x = a, whose coefficient table the
    port leaves out, and chi_tail imports scipy.special's gammaincc where
    it is called.  The port costs 3-4 ms per call over one w's 600
    thresholds at d = 1, against 0.4 ms for scipy's ufunc (2-core x86-64
    VM), mostly numpy dispatch, so callers batch their thresholds: on the
    bias sweep's 20 w, 20 calls of 600 take 41-43 ms and one call over
    all 12,000 takes 8-9 ms, so the sweep takes every tail mass from one
    tail_mass_V call over its stack of w.

    The square is a product: on a numpy scalar ``** 2`` goes through pow,
    which can differ from the array square in the last bit."""
    x = np.sqrt(d) * np.maximum(threshold, 0.0)
    if 1 <= d <= 40:
        tail = _igamc(0.5 * d, np.asarray(0.5 * (x * x), dtype=np.float64))
    else:
        from scipy.special import gammaincc

        tail = gammaincc(0.5 * d, 0.5 * (x * x))
    return float(tail) if np.ndim(tail) == 0 else tail


# ---------------------------------------------------------------------------
# Smoothed policy probabilities


# The cephes ndtr.c coefficients, highest degree first.  P/Q and R/S give
# erfc on [1, 8) and [8, inf), T/U gives erf on [0, 1].  Q, S and U are
# monic, and cephes evaluates them by p1evl, which starts from x + c[0];
# their leading 1.0 is written out here, and 1.0 * x + c[0] is the same
# bits, so _polevl serves for both.
_NDTR_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_NDTR_Q = (
    1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_NDTR_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0,
)
_NDTR_S = (
    1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0,
)
_NDTR_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_NDTR_U = (
    1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)
_MAXLOG = 7.09782712893383996732e2  # ln(DBL_MAX): exp(-z^2) underflows past it
_SQRT1_2 = 0.70710678118654752440


def _polevl(x: np.ndarray, coefs: tuple) -> np.ndarray:
    """cephes polevl: Horner's rule from the leading coefficient."""
    ans = np.full_like(x, coefs[0])
    for c in coefs[1:]:
        ans = ans * x + c
    return ans


def _libm(fn, x: np.ndarray, *args) -> np.ndarray:
    """fn(x_i, *args) element by element, fn a math function: math calls
    libm, as cephes does, where numpy's SIMD exp, log and pow can differ
    from it in the last bit (AVX-512 builds)."""
    return np.fromiter(map(fn, x.tolist(), *(itertools.repeat(v) for v in args)), np.float64, x.size)


def _erf(x: np.ndarray) -> np.ndarray:
    """cephes erf on |x| <= 1.  cephes takes -erf(-x) for x < 0, which
    is the same bits: x P(x^2) / Q(x^2) is odd in x, rounding included."""
    z = x * x
    return x * _polevl(z, _NDTR_T) / _polevl(z, _NDTR_U)


def _ndtr(a: np.ndarray) -> np.ndarray:
    """Phi(a), the standard normal CDF, elementwise over a float64 array:
    the cephes ndtr (with its erf and erfc) that scipy.special.ndtr runs,
    ported branch for branch, so it equals scipy's bit for bit, NaN, +-0,
    +-inf and subnormals included.  With x = a sqrt(1/2) and z = |x|:
    0.5 + 0.5 erf(x) for z < sqrt(1/2), else y = 0.5 erfc(z) and 1 - y
    for x > 0.  erfc(z) is 1 - erf(z) for z < 1, exp(-z^2) P(z) / Q(z)
    for z < 8, exp(-z^2) R(z) / S(z) beyond, and 0 once -z^2 < -MAXLOG.

    exp(-z^2) is libm's exp, which cephes calls, through math.exp on the
    erfc-branch elements only: numpy's SIMD exp differs from libm's in
    the last bit on some inputs (AVX-512 builds).  The numpy dispatch
    costs about 0.14 ms per call whatever its length, so callers batch
    their arguments."""
    x = np.asarray(a, dtype=np.float64) * _SQRT1_2
    z = np.abs(x)
    y = np.full_like(x, np.nan)  # NaN fails every branch test below
    core = z < _SQRT1_2
    y[core] = 0.5 + 0.5 * _erf(x[core])
    tail = z >= _SQRT1_2
    zt = z[tail]
    erfc = np.zeros_like(zt)
    near = zt < 1.0
    erfc[near] = 1.0 - _erf(zt[near])
    with np.errstate(over="ignore"):  # a square past DBL_MAX is past MAXLOG too
        far = ~near & (zt * zt <= _MAXLOG)
    u = zt[far]
    exp_neg_sq = _libm(math.exp, -(u * u))
    below8 = u < 8.0
    p = np.where(below8, _polevl(u, _NDTR_P), _polevl(u, _NDTR_R))
    q = np.where(below8, _polevl(u, _NDTR_Q), _polevl(u, _NDTR_S))
    erfc[far] = exp_neg_sq * p / q
    half = 0.5 * erfc
    y[tail] = np.where(x[tail] > 0.0, 1.0 - half, half)
    return y


# The cephes igam.c, lgam.c, unity.c (expm1) and lanczos.h constants.
# _LGAM_C is monic (p1evl) and _LGAM_A, B, C, _EXPM1_P, Q and the Lanczos
# sum are highest degree first, as _polevl reads them.
_MACHEP = 1.11022302462515654042e-16  # 2^-53
_MAXITER = 2000
_CF_BIG, _CF_BIGINV = 4.503599627370496e15, 2.22044604925031308085e-16
_LS2PI = 0.91893853320467274178  # log(sqrt(2 pi))
_LGAM_A = (
    8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
    -2.77777777730099687205e-3, 8.33333333333331927722e-2,
)
_LGAM_B = (
    -1.37825152569120859100e3, -3.88016315134637840924e4, -3.31612992738871184744e5,
    -1.16237097492762307383e6, -1.72173700820839662146e6, -8.53555664245765465627e5,
)
_LGAM_C = (
    1.0, -3.51815701436523470549e2, -1.70642106651881159223e4, -2.20528590553854454839e5,
    -1.13933444367982507207e6, -2.53252307177582951285e6, -2.01889141433532773231e6,
)
_EXPM1_P = (1.2617719307481059087798e-4, 3.0299440770744196129956e-2, 9.9999999999999999991025e-1)
_EXPM1_Q = (
    3.0019850513866445504159e-6, 2.5244834034968410419224e-3, 2.2726554820815502876593e-1,
    2.0000000000000000000897e0,
)
_LANCZOS_G = 6.024680040776729583740234375
_LANCZOS_NUM = (
    0.006061842346248906525783753964555936883222, 0.5098416655656676188125178644804694509993,
    19.51992788247617482847860966235652136208, 449.9445569063168119446858607650988409623,
    6955.999602515376140356310115515198987526, 75999.29304014542649875303443598909137092,
    601859.6171681098786670226533699352302507, 3481712.15498064590882071018964774556468,
    14605578.08768506808414169982791359218571, 43338889.32467613834773723740590533316085,
    86363131.28813859145546927288977868422342, 103794043.1163445451906271053616070238554,
    56906521.91347156388090791033559122686859,
)
_LANCZOS_DEN = (
    1.0, 66.0, 1925.0, 32670.0, 357423.0, 2637558.0, 13339535.0, 45995730.0, 105258076.0,
    150917976.0, 120543840.0, 39916800.0, 0.0,
)
# cephes lgam1p(0.5): its Taylor sum in zeta(n), cut at n < 42; lgam(1.5)
# is 258 ulps away
_LGAM1P_HALF = float.fromhex("-0x1.eeb95b094c296p-4")


def _lgam(x: float) -> float:
    """cephes lgam, log Gamma(x), on 0 < x < 1000: shift x into [2, 3)
    and take the rational B/C there below 13, Stirling's series above."""
    if x >= 13.0:
        q = (x - 0.5) * math.log(x) - x + _LS2PI
        return q + float(_polevl(1.0 / (x * x), _LGAM_A)) / x
    z, p, u = 1.0, 0.0, x
    while u >= 3.0:
        p -= 1.0
        u = x + p
        z *= u
    while u < 2.0:
        z /= u
        p += 1.0
        u = x + p
    if u == 2.0:
        return math.log(z)
    x = x + (p - 2.0)
    return math.log(z) + x * float(_polevl(x, _LGAM_B)) / float(_polevl(x, _LGAM_C))


def _expm1(x: np.ndarray) -> np.ndarray:
    """cephes expm1 on finite x: exp(x) - 1 for |x| > 0.5, the rational
    P/Q within.  It is not libm's expm1, which differs in the last bit."""
    out = np.empty_like(x)
    outside = np.abs(x) > 0.5
    out[outside] = _libm(math.exp, x[outside]) - 1.0
    u = x[~outside]
    xx = u * u
    r = u * _polevl(xx, _EXPM1_P)
    r = r / (_polevl(xx, _EXPM1_Q) - r)
    out[~outside] = r + r
    return out


def _each_until(step, rows: np.ndarray, n_iter: int, out: int) -> np.ndarray:
    """Run a cephes loop over arrays: rows is the (k, n) state, one row
    per loop variable and one column per element, and step(i, rows)
    updates it in place and returns the elements whose loop breaks after
    iteration i.  Those leave the active columns, so every element runs
    exactly its scalar sequence of operations.  Returns state row out at
    each element's break (or after n_iter), in input order."""
    final = np.empty(rows.shape[1])
    idx = np.arange(rows.shape[1])
    for i in range(n_iter):
        if not idx.size:
            break
        done = step(i, rows)
        if done.any():
            final[idx[done]] = rows[out, done]
            keep = ~done
            idx, rows = idx[keep], rows.compress(keep, axis=1)
    final[idx] = rows[out]
    return final


def _igamc(a: float, x: np.ndarray) -> np.ndarray:
    """Q(a, x), the regularized upper incomplete gamma, elementwise over
    x >= 0 for a in {0.5, 1, ..., 20}: the cephes igamc that
    scipy.special.gammaincc runs, ported branch for branch, so it equals
    scipy's bit for bit.  1 at x = 0, 0 at x = inf, NaN at NaN.  Else:

    - x > 1.1: 1 - igam_series if x < a, else the continued fraction;
    - x <= 0.5: 1 - igam_series if -0.4 / log x < a, else igamc_series;
    - otherwise: 1 - igam_series if 1.1 x < a, else igamc_series.

    igam_series and the continued fraction scale by igam_fac, x^a e^-x /
    Gamma(a): exp(a log x - x - lgam(a)) where |a - x| > 0.4 a, which is
    0 once its exponent is below -MAXLOG, and the Lanczos form elsewhere;
    a result of 0 there is 0 without the loop.  igamc_series is
    -expm1(a log x - lgam1p(a)) - x^a / Gamma(a) times its sum, with
    cephes' own expm1 (_expm1), and lgam1p(a) is the constant
    _LGAM1P_HALF at a = 0.5, 0 at a = 1 and lgam(a + 1) beyond.  Past
    a = 20 cephes takes Temme's series near x = a, which is left out.

    lgam, lgam1p and the Lanczos factor depend on a alone, so they are
    Python scalars, computed once per call.  log, exp and pow are libm's
    through math (_libm); each series or continued fraction runs over
    the elements still in its loop (_each_until)."""
    flat = x.ravel()
    out = np.full_like(flat, np.nan)  # NaN fails every branch test below
    out[flat == 0.0] = 1.0
    out[flat == np.inf] = 0.0
    live = (flat > 0.0) & (flat < np.inf)
    v = flat[live]
    lower = np.where(v > 1.1, v < a, v * 1.1 < a)
    small = v <= 0.5
    lower[small] = -0.4 / _libm(math.log, v[small]) < a
    fraction = (v > 1.1) & ~lower
    upper = ~lower & ~fraction

    lgam_a = _lgam(a)
    lanczos_fac = a + _LANCZOS_G - 0.5
    if a > 1.0:  # cephes ratevl: a polynomial in 1/a past 1
        y, num, den = 1.0 / a, _LANCZOS_NUM[::-1], _LANCZOS_DEN[::-1]
    else:
        y, num, den = a, _LANCZOS_NUM, _LANCZOS_DEN
    lanczos_sum = float(_polevl(y, num)) / float(_polevl(y, den))
    lanczos_res = math.sqrt(lanczos_fac / math.exp(1.0)) / lanczos_sum

    def igam_fac(t):
        fac = np.empty_like(t)
        far = np.abs(a - t) > 0.4 * a
        tf, tn = t[far], t[~far]
        ax = a * _libm(math.log, tf) - tf - lgam_a
        fac[far] = np.where(ax < -_MAXLOG, 0.0, _libm(math.exp, ax))
        fac[~far] = lanczos_res * (_libm(math.exp, a - tn) * _libm(math.pow, tn / lanczos_fac, a))
        return fac

    # In igam_series r = a + i + 1, in igamc_series n = i + 1, and in the
    # continued fraction c = i + 1 and y = 1 - a + i + 1: the cephes
    # running sums, exact for a half integer a.  x rides along in each
    # state, to be compacted with it.
    def series_step(i, s):
        c, ans, t = s
        c *= t / (a + (i + 1.0))
        ans += c
        return c <= _MACHEP * ans

    def fraction_step(i, s):  # s: ans, pkm2, qkm2, pkm1, qkm1, z
        ans, z = s[0], s[5]
        z += 2.0
        pk, qk = new = s[3:5] * z - s[1:3] * ((1.0 - a + (i + 1.0)) * (i + 1.0))
        r = pk / qk
        t = np.abs((ans - r) / r)
        if not qk.all():  # at qk = 0 cephes keeps ans and takes t = 1
            zero = qk == 0.0
            r[zero], t[zero] = ans[zero], 1.0
        s[0], s[1:3], s[3:5] = r, s[3:5], new
        big = np.abs(pk) > _CF_BIG
        if big.any():
            s[1:5] *= np.where(big, _CF_BIGINV, 1.0)
        return t <= _MACHEP

    def upper_step(i, s):
        fac, total, t = s
        fac *= -t / (i + 1.0)
        term = fac / (a + (i + 1.0))
        total += term
        return np.abs(term) <= _MACHEP * np.abs(total)

    def scaled(t, loop):  # cephes returns 0 before the loop where igam_fac is 0
        fac = igam_fac(t)
        ok = fac != 0.0
        out = np.zeros_like(t)
        out[ok] = loop(t[ok]) * fac[ok]
        return out

    def igam_series(t):
        return _each_until(series_step, np.stack([np.ones_like(t), np.ones_like(t), t]), _MAXITER, 1)

    def continued_fraction(t):
        z = t + (1.0 - a) + 1.0
        state = np.stack([(t + 1.0) / (z * t), np.ones_like(t), t, t + 1.0, z * t, z])
        with np.errstate(divide="ignore", invalid="ignore"):  # a zero qk or r, as in cephes
            return _each_until(fraction_step, state, _MAXITER, 0)

    res = np.empty_like(v)
    res[lower] = 1.0 - scaled(v[lower], igam_series) / a
    res[fraction] = scaled(v[fraction], continued_fraction)
    t = v[upper]
    total = _each_until(upper_step, np.stack([np.ones_like(t), np.zeros_like(t), t]), _MAXITER - 1, 1)
    logx = _libm(math.log, t)
    lgam1p_a = _LGAM1P_HALF if a == 0.5 else 0.0 if a == 1.0 else _lgam(a + 1.0)
    res[upper] = -_expm1(a * logx - lgam1p_a) - _libm(math.exp, a * logx - lgam_a) * total
    out[live] = res
    return out.reshape(x.shape)


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
