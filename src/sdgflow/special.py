"""The special functions that the rsd copula, the bench fixture and the
propensity model call, in numpy.

`ndtr` (the standard normal CDF) and `ndtri` (its inverse) are built from
+, -, *, /, sqrt, comparisons, np.frexp and exact powers of two alone.
IEEE 754 rounds each of those the same way on every CPU, so their bits
depend neither on the CPU nor on the C library, whose exp and log (and so
scipy.special's ndtr and ndtri) glibc picks by CPU, with or without FMA,
nor on numpy's SIMD dispatch. The exp and log they need are written here:
a Cody-Waite reduction by ln 2 and the polynomials of fdlibm's e_exp.c and
e_log.c.

- `ndtr` is Cody's rational erf and erfc (Math. Comp. 23:631, 1969; CALERF
  in netlib's specfun), with exp(-x^2/2) taken from x = xs + (x - xs), xs a
  multiple of 1/256 whose square is exact, as CALERF splits y^2.
- `ndtri` is Wichura's AS241 (PPND16, Appl. Statist. 37:477, 1988), then
  one Newton step on ndtr.

Both walk their input BLOCK values at a time, and each helper is a function
of one block's arrays that returns new ones, so a call allocates no
temporary as long as its input, and a value's bits do not depend on its
neighbours.

`expit` is 1 / (1 + exp(-t)) through numpy's exp. Its bits follow numpy's
SIMD dispatch; the propensity model calls it on about 20 million scores
per 100k-row evaluation, too many for an exp written in numpy ops.
"""

from __future__ import annotations

import numpy as np

BLOCK = 16_384  # values per block of ndtr and ndtri


def _pair(num: tuple[float, ...], den: tuple[float, ...]) -> list[np.ndarray]:
    """Two polynomials of one degree as one list of (2, 1) coefficient
    columns, highest power first, which _horner evaluates on both at once
    as two rows."""
    return list(np.array((num, den)).T[:, :, None])


_ROUND = 1.5 * 2.0**52  # (v + _ROUND) - _ROUND is v rounded to an integer, for |v| < 2**51
_SQRT1_2 = 0.70710678118654752440

# exp and log (fdlibm): ln 2 = _LN2_HI + _LN2_LO, _LN2_HI with 21 trailing
# zero bits, so k * _LN2_HI is exact for |k| < 2**20
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
_INV_LN2 = 1.44269504088896338700e00
# P5, ..., P1 and a 0, so that _horner gives t (P1 + t (P2 + ... + t P5))
_EXP_P = (4.13813679705723846039e-08, -1.65339022054652515390e-06, 6.61375632143793436117e-05,
          -2.77777777770155933842e-03, 1.66666666666666019037e-01, 0.0)  # fmt: skip
# R = z (Lg1 + w (Lg3 + w (Lg5 + w Lg7))) + w (Lg2 + w (Lg4 + w Lg6)),
# z = s^2 and w = z^2: the two brackets as one _pair in w
_LOG = _pair(
    (1.479819860511658591e-01, 1.818357216161805012e-01, 2.857142874366239149e-01,
        6.666666666666735130e-01),
    (0.0, 1.531383769920937332e-01, 2.222219843214978396e-01, 3.999999999940941908e-01),
)  # fmt: skip

# ndtr (Cody): erf on |y| <= _ERF_MAX, erfc on (_ERF_MAX, 4] and beyond 4.
# Coefficients run highest power first: (c0, c1, ..., cn) is c0 y^n + ... + cn.
_ERF_MAX = 0.46875
_ERF = _pair(
    (1.85777706184603153e-1, 3.16112374387056560e00, 1.13864154151050156e02,
        3.77485237685302021e02, 3.20937758913846947e03),
    (1.0, 2.36012909523441209e01, 2.44024637934444173e02, 1.28261652607737228e03,
        2.84423683343917062e03),
)  # fmt: skip
_ERFC = _pair(
    (2.15311535474403846e-8, 5.64188496988670089e-1, 8.88314979438837594e00,
        6.61191906371416295e01, 2.98635138197400131e02, 8.81952221241769090e02,
        1.71204761263407058e03, 2.05107837782607147e03, 1.23033935479799725e03),
    (1.0, 1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02,
        1.62138957456669019e03, 3.29079923573345963e03, 4.36261909014324716e03,
        3.43936767414372164e03, 1.23033935480374942e03),
)  # fmt: skip
_TAIL = _pair(
    (1.63153871373020978e-2, 3.05326634961232344e-1, 3.60344899949804439e-1,
        1.25781726111229246e-1, 1.60837851487422766e-2, 6.58749161529837803e-4),
    (1.0, 2.56852019228982242e00, 1.87295284992346725e00, 5.27905102951428412e-1,
        6.05183413124413191e-2, 2.33520497626869185e-3),
)  # fmt: skip
_ONE_OVER_SQRT_PI = 5.6418958354775628695e-1
_NDTR_MAX = 40.0  # beyond it ndtr rounds to 0 or 1
_POW2 = np.ldexp(1.0, -np.arange(1076))  # 2**-k, exact; 2**-1075 rounds to 0
_POW2_UP = np.ldexp(1.0, np.arange(541))  # 2**k; k <= 1080 is two of them
_SQRT_2PI = 2.50662827463100050242
_EXP_TAYLOR = (1 / 24, -1 / 6, 0.5, -1.0, 1.0)  # exp(-u) to 5e-6 for 0 <= u <= 0.23

# ndtri (AS241): |p - 0.5| <= 0.425, then sqrt(-log(min(p, 1 - p))) <= 5, then above
_CENTRAL = _pair(
    (2.5090809287301226727e03, 3.3430575583588128105e04, 6.7265770927008700853e04,
        4.5921953931549871457e04, 1.3731693765509461125e04, 1.9715909503065514427e03,
        1.3314166789178437745e02, 3.3871328727963666080e00),
    (5.2264952788528545610e03, 2.8729085735721942674e04, 3.9307895800092710610e04,
        2.1213794301586595867e04, 5.3941960214247511077e03, 6.8718700749205790830e02,
        4.2313330701600911252e01, 1.0),
)  # fmt: skip
_NEAR = _pair(
    (7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
        1.27045825245236838258e00, 3.64784832476320460504e00, 5.76949722146069140550e00,
        4.63033784615654529590e00, 1.42343711074968357734e00),
    (1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
        1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e00,
        2.05319162663775882187e00, 1.0),
)  # fmt: skip
_FAR = _pair(
    (2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
        2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e00,
        5.46378491116411436990e00, 6.65790464350110377720e00),
    (2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
        7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
        5.99832206555887937690e-1, 1.0),
)  # fmt: skip


def expit(t: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The logistic function 1 / (1 + exp(-t)), computed in `out` (which may
    be t itself); exp(-t) overflowing to inf gives 0, without a warning."""
    out = np.negative(t, out=out)
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    return np.reciprocal(out, out=out)


def ndtr(x) -> np.ndarray:
    """The standard normal CDF of each value of x, as float64."""
    return _blockwise(_ndtr_block, x)


def ndtri(p) -> np.ndarray:
    """The inverse of ndtr at each value of p, as float64: -inf at 0, inf at
    1, nan outside [0, 1]."""
    return _blockwise(_ndtri_block, p)


def _blockwise(kernel, values) -> np.ndarray:
    """kernel(block) over the flattened input BLOCK values at a time, in an
    array of the input's shape."""
    x = np.asarray(values, dtype=np.float64)
    src = x.reshape(-1)
    out = np.empty(src.size)
    for lo in range(0, src.size, BLOCK):
        out[lo : lo + BLOCK] = kernel(src[lo : lo + BLOCK])
    return out.reshape(x.shape)


def _horner(y: np.ndarray, coefs) -> np.ndarray:
    """The polynomial with `coefs`, highest power first, at y by Horner's
    rule: one row for scalar coefficients, two for a _pair."""
    acc = y * coefs[0]
    for c in coefs[1:-1]:
        acc += c
        acc *= y
    acc += coefs[-1]
    return acc


def _ratio(y: np.ndarray, coefs: list[np.ndarray]) -> np.ndarray:
    """num(y) / den(y) of a _pair (num, den)."""
    num, den = _horner(y, coefs)
    return num / den


def _flip(v: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """1 - v where upper is 1.0 and v where it is 0.0, without a branch:
    upper + (1 - 2 upper) v rounds as 1 - v or equals v."""
    return v * (upper * -2.0 + 1.0) + upper


def _rounded(v: np.ndarray) -> np.ndarray:
    """v, with |v| < 2**51, rounded to the nearest integer."""
    return (v + _ROUND) - _ROUND


def _pow2(table: np.ndarray, k: np.ndarray) -> np.ndarray:
    """table[k] for the integral floats k."""
    return table[k.astype(np.int64)]


# ----------------------------------------------------------------- ndtr ---

def _ndtr_block(x: np.ndarray) -> np.ndarray:
    y = np.abs(x) * _SQRT1_2  # Cody's argument: ndtr(x) = erfc(-x / sqrt 2) / 2
    out = np.empty(x.size)
    inner = np.flatnonzero(y <= _ERF_MAX)
    outer = np.flatnonzero((y > _ERF_MAX) & (y <= _NDTR_MAX * _SQRT1_2))
    if inner.size:
        out[inner] = _erf(x[inner] * _SQRT1_2) * 0.5 + 0.5
    if outer.size:
        a = x[outer]
        upper = (a > 0.0).astype(np.float64)
        a = np.abs(a)
        v = _erfc_ratio(y[outer])
        c, k = _exp_neg_half_square(a)
        v = v * c * 0.5  # ndtr(-a) 2**k
        v *= _pow2(_POW2, np.minimum(k, _POW2.size - 1))  # one rounding, if the result is subnormal
        out[outer] = _flip(v, upper)  # ndtr(x) = 1 - ndtr(-x)
    if inner.size + outer.size < x.size:
        rest = np.flatnonzero(~(y <= _NDTR_MAX * _SQRT1_2))  # nan, an infinity or |x| > _NDTR_MAX
        out[rest] = np.sign(x[rest]) * 0.5 + 0.5
    return out


def _erf(v: np.ndarray) -> np.ndarray:
    """erf(v) for |v| <= _ERF_MAX."""
    return _ratio(v * v, _ERF) * v  # Cody takes v num(z) / den(z); here num(z) / den(z) v


def _erfc_ratio(y: np.ndarray) -> np.ndarray:
    """erfc(y) exp(y^2) for _ERF_MAX < y: one rational function up to 4 and
    another in 1 / y^2 beyond."""
    v = _ratio(y, _ERFC)
    far = np.flatnonzero(y > 4.0)
    if far.size:
        yf = y[far]
        z = np.reciprocal(yf * yf)
        v[far] = (_ONE_OVER_SQRT_PI - _ratio(z, _TAIL) * z) / yf
    return v


def _exp_neg_half_square(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp(-a^2 / 2) = c 2**-k for 0 <= a <= _NDTR_MAX: returns (c, k),
    k an integral float.

    a = xs + d with xs a multiple of 1/256, so a^2 / 2 = h + l with
    h = xs^2 / 2 exact and l = d (a + xs) / 2, where d is exact and |l| is
    below 0.08. exp(-(h + l)) is fdlibm's: k = round((h + l) / ln 2) and
    r = k ln 2 - (h + l) held as hi - lo, where hi = k _LN2_HI - h is exact."""
    xs = _rounded(a * 256.0) / 256.0
    d = a - xs  # exact
    l = (a + xs) * d * 0.5
    h = xs * xs * 0.5
    k = _rounded((h + l) * _INV_LN2)
    hi = k * _LN2_HI - h
    lo = l - k * _LN2_LO
    r = hi - lo
    c = r - _horner(r * r, _EXP_P)  # r - t (P1 + t (P2 + ...)), t = r^2
    c = 1.0 - ((lo - c * r / (2.0 - c)) - hi)
    return c, k


# ---------------------------------------------------------------- ndtri ---

def _ndtri_block(p: np.ndarray) -> np.ndarray:
    """AS241, then one Newton step on ndtr, which takes AS241's rounding
    error in double (up to 7 ulp) down to ndtr's. The step takes ndtr from
    erf where |q| <= 0.25, so |z| / sqrt 2 <= 0.477, and from erfc beyond,
    each inside the range Cody fitted it on."""
    q = p - 0.5
    aq = np.abs(q)
    out = np.empty(p.size)
    inner = np.flatnonzero(aq <= 0.25)
    outer = np.flatnonzero((aq > 0.25) & (aq <= 0.425))
    if inner.size:
        qi = q[inner]
        out[inner] = _newton_inner(_ndtri_central(qi), qi)
    if outer.size:
        upper, pm = _lower_half(p[outer], q[outer])
        a = _ndtri_central(aq[outer])  # |z|: AS241 is odd in q
        out[outer] = _signed(_newton_outer(a, pm), upper)
    if inner.size + outer.size < p.size:
        tail = np.flatnonzero((aq > 0.425) & (p > 0.0) & (p < 1.0))
        upper, pm = _lower_half(p[tail], q[tail])
        out[tail] = _signed(_newton_outer(_ndtri_tail(pm), pm), upper)
        rest = np.flatnonzero(~((aq <= 0.425) | ((p > 0.0) & (p < 1.0))))  # 0, 1, nan, outside [0, 1]
        pr = p[rest]
        out[rest] = np.where(pr == 0.0, -np.inf, np.where(pr == 1.0, np.inf, np.nan))
    return out


def _lower_half(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(upper, min(p, 1 - p)), upper 1.0 where q = p - 0.5 > 0 and 0.0
    elsewhere; 1 - p is exact for p >= 0.5."""
    upper = (q > 0.0).astype(np.float64)
    return upper, _flip(p, upper)


def _signed(a: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """a where upper is 1.0 and -a where it is 0.0."""
    return a * (upper * 2.0 - 1.0)


def _newton_inner(z: np.ndarray, q: np.ndarray) -> np.ndarray:
    """z - (ndtr(z) - 0.5 - q) / pdf(z) for |z / sqrt 2| <= 0.5; q is exact
    there. The density's Taylor polynomial moves the step by a few
    millionths of itself, far below an ulp of z."""
    v = z * _SQRT1_2
    e = (_erf(v) * 0.5 - q) * _SQRT_2PI / _horner(v * v, _EXP_TAYLOR)  # v^2 = z^2 / 2
    return z - e


def _newton_outer(a: np.ndarray, p: np.ndarray) -> np.ndarray:
    """a + (ndtr(-a) - p) / pdf(a) for _ERF_MAX < a / sqrt 2 <= _NDTR_MAX /
    sqrt 2 and p <= 0.5. Both sides are scaled by 2**k = exp(-a^2 / 2) / c,
    so a subnormal p loses nothing."""
    v = _erfc_ratio(a * _SQRT1_2)
    c, k = _exp_neg_half_square(a)
    v = v * c * 0.5  # ndtr(-a) 2**k
    half = _rounded(k * 0.5)
    p = p * _pow2(_POW2_UP, half) * _pow2(_POW2_UP, k - half)
    return a + (v - p) * _SQRT_2PI / c  # v - p is exact, the two being close


def _ndtri_central(q: np.ndarray) -> np.ndarray:
    """AS241's ndtri(0.5 + q) for |q| <= 0.425."""
    return _ratio(0.180625 - q * q, _CENTRAL) * q  # AS241 takes q num(r) / den(r); here num(r) / den(r) q


def _ndtri_tail(p: np.ndarray) -> np.ndarray:
    """AS241's -ndtri(p) for 0 < p < 0.075."""
    r = np.sqrt(_neg_log(p))
    v = _ratio(r - 1.6, _NEAR)
    far = np.flatnonzero(r > 5.0)
    if far.size:
        v[far] = _ratio(r[far] - 5.0, _FAR)
    return v


def _neg_log(x: np.ndarray) -> np.ndarray:
    """-log(x) for 0 < x < inf (subnormal x too): fdlibm's e_log.c on
    x = 2**e m with sqrt(1/2) <= m < sqrt 2."""
    m, e = np.frexp(x)
    low = m < _SQRT1_2
    m[low] *= 2.0
    e[low] -= 1
    f = m - 1.0  # exact
    dk = e.astype(np.float64)
    sf = f / (f + 2.0)
    z = sf * sf
    w = z * z
    odd, even = _horner(w, _LOG)
    hfsq = f * f * 0.5
    u = (hfsq + (odd * z + even * w)) * sf + dk * _LN2_LO
    u = (hfsq - u) - f  # log(x) = dk _LN2_HI - u
    return u - dk * _LN2_HI
