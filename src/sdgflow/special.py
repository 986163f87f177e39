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

Both walk their input BLOCK values at a time through scratch rows that each
block reuses, so a call allocates no temporary as long as its input, and a
value's bits do not depend on its neighbours.

`expit` is 1 / (1 + exp(-t)) through numpy's exp. Its bits follow numpy's
SIMD dispatch; the propensity model calls it on about 20 million scores
per 100k-row evaluation, too many for an exp written in numpy ops.
"""

from __future__ import annotations

import numpy as np

BLOCK = 16_384  # values per block of ndtr and ndtri
_ROWS = 18  # scratch rows per block; the last is the kernels' integer row


def _pair(num: tuple[float, ...], den: tuple[float, ...]) -> list[np.ndarray]:
    """Two polynomials of one degree as one list of (2, 1) coefficient
    columns, highest power first, which _horner evaluates on both at once
    in a two-row accumulator."""
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


def ndtr(x, out: np.ndarray | None = None) -> np.ndarray:
    """The standard normal CDF of each value of x, as float64, in `out` (a
    C-contiguous float64 array of x's shape, which may be x itself)."""
    return _blockwise(_ndtr_block, x, out)


def ndtri(p, out: np.ndarray | None = None) -> np.ndarray:
    """The inverse of ndtr at each value of p, as float64: -inf at 0, inf at
    1, nan outside [0, 1]. `out` is as for ndtr."""
    return _blockwise(_ndtri_block, p, out)


def _blockwise(kernel, values, out: np.ndarray | None) -> np.ndarray:
    """Run kernel(scratch, dst) over the flattened input BLOCK values at a
    time: each block is copied into scratch[0] first, so `out` may be the
    input, and the other rows of scratch are the kernel's buffers."""
    x = np.asarray(values, dtype=np.float64)
    if out is None:
        out = np.empty(x.shape)
    elif out.shape != x.shape or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError("out must be a C-contiguous float64 array of the input's shape")
    src, dst = x.reshape(-1), out.reshape(-1)
    scratch = np.empty((_ROWS, min(BLOCK, src.size)))
    for lo in range(0, src.size, BLOCK):
        block = scratch[:, : min(BLOCK, src.size - lo)]
        np.copyto(block[0], src[lo : lo + BLOCK])
        kernel(block, dst[lo : lo + BLOCK])
    return out


def _ints(s: np.ndarray, dtype, n: int) -> np.ndarray:
    """n integers of dtype in the last row of s."""
    return s[-1].view(dtype)[:n]


def _horner(y: np.ndarray, coefs, acc: np.ndarray) -> np.ndarray:
    """The polynomial with `coefs`, highest power first, at y by Horner's
    rule, in acc (not y): one row for scalar coefficients, two for a
    _pair."""
    np.multiply(y, coefs[0], out=acc)
    for c in coefs[1:-1]:
        acc += c
        acc *= y
    acc += coefs[-1]
    return acc


def _ratio(y: np.ndarray, coefs: list[np.ndarray], acc: np.ndarray) -> np.ndarray:
    """num(y) / den(y) of a _pair (num, den), in acc[0]."""
    _horner(y, coefs, acc)
    acc[0] /= acc[1]
    return acc[0]


def _flip(v: np.ndarray, upper: np.ndarray, t: np.ndarray) -> np.ndarray:
    """v becomes 1 - v where upper is 1.0 and stays where it is 0.0, without
    a branch: upper + (1 - 2 upper) v rounds as 1 - v or equals v."""
    np.multiply(upper, -2.0, out=t)
    t += 1.0
    v *= t
    v += upper
    return v


def _rounded(v: np.ndarray) -> np.ndarray:
    """v, with |v| < 2**51, rounded in place to the nearest integer."""
    v += _ROUND
    v -= _ROUND
    return v


# ----------------------------------------------------------------- ndtr ---

def _ndtr_block(s: np.ndarray, dst: np.ndarray) -> None:
    x = s[0]
    y = np.abs(x, out=s[1])
    y *= _SQRT1_2  # Cody's argument: ndtr(x) = erfc(-x / sqrt 2) / 2
    inner = np.flatnonzero(y <= _ERF_MAX)
    outer = np.flatnonzero((y > _ERF_MAX) & (y <= _NDTR_MAX * _SQRT1_2))
    if inner.size:
        xi = np.take(x, inner, out=s[2, : inner.size])
        xi *= _SQRT1_2
        v = _erf(xi, s[3:])
        v *= 0.5
        v += 0.5
        dst[inner] = v
    if outer.size:
        n = outer.size
        a = np.take(x, outer, out=s[2, :n])
        upper = np.greater(a, 0.0, out=s[3, :n])
        np.abs(a, out=a)
        v = _erfc_ratio(np.take(y, outer, out=s[4, :n]), s[5:])
        c, k = _exp_neg_half_square(a, s[6:])
        v *= c
        v *= 0.5  # ndtr(-a) 2**k
        np.minimum(k, _POW2.size - 1, out=k)
        v *= _pow2(_POW2, k, s, c)  # one rounding, if the result is subnormal
        dst[outer] = _flip(v, upper, c)  # ndtr(x) = 1 - ndtr(-x)
    if inner.size + outer.size < x.size:
        rest = np.flatnonzero(~(y <= _NDTR_MAX * _SQRT1_2))  # nan, an infinity or |x| > _NDTR_MAX
        dst[rest] = np.sign(x[rest]) * 0.5 + 0.5


def _pow2(table: np.ndarray, k: np.ndarray, s: np.ndarray, out: np.ndarray) -> np.ndarray:
    """table[k] for the integral floats k, in out, through s's integer row."""
    i = _ints(s, np.int64, k.size)
    np.copyto(i, k, casting="unsafe")
    return np.take(table, i, out=out)


def _erf(v: np.ndarray, s: np.ndarray) -> np.ndarray:
    """erf(v) for |v| <= _ERF_MAX, in s[1]."""
    z = np.multiply(v, v, out=s[0, : v.size])
    e = _ratio(z, _ERF, s[1:3, : v.size])
    e *= v  # Cody takes v num(z) / den(z); here num(z) / den(z) v
    return e


def _erfc_ratio(y: np.ndarray, s: np.ndarray) -> np.ndarray:
    """erfc(y) exp(y^2) for _ERF_MAX < y, in s[0]: one rational function
    up to 4 and another in 1 / y^2 beyond."""
    n = y.size
    v = _ratio(y, _ERFC, s[:2, :n])
    far = np.flatnonzero(y > 4.0)
    if far.size:
        m = far.size
        yf = np.take(y, far, out=s[2, :m])
        z = np.multiply(yf, yf, out=s[3, :m])
        np.reciprocal(z, out=z)
        w = _ratio(z, _TAIL, s[4:6, :m])
        w *= z
        np.subtract(_ONE_OVER_SQRT_PI, w, out=w)
        w /= yf
        v[far] = w
    return v


def _exp_neg_half_square(a: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp(-a^2 / 2) = c 2**-k for 0 <= a <= _NDTR_MAX: returns (c, k),
    k an integral float, in s[0] and s[1]; a is kept.

    a = xs + d with xs a multiple of 1/256, so a^2 / 2 = h + l with
    h = xs^2 / 2 exact and l = d (a + xs) / 2, where d is exact and |l| is
    below 0.08. exp(-(h + l)) is fdlibm's: k = round((h + l) / ln 2) and
    r = k ln 2 - (h + l) held as hi - lo, where hi = k _LN2_HI - h is exact."""
    n = a.size
    xs = np.multiply(a, 256.0, out=s[2, :n])
    _rounded(xs)
    xs /= 256.0
    d = np.subtract(a, xs, out=s[3, :n])  # exact
    l = np.add(a, xs, out=s[4, :n])
    l *= d
    l *= 0.5
    h = np.multiply(xs, xs, out=xs)
    h *= 0.5
    k = np.add(h, l, out=s[1, :n])
    k *= _INV_LN2
    _rounded(k)
    hi = np.multiply(k, _LN2_HI, out=d)
    hi -= h
    lo = np.multiply(k, _LN2_LO, out=h)
    np.subtract(l, lo, out=lo)
    r = np.subtract(hi, lo, out=l)
    t = np.multiply(r, r, out=s[5, :n])
    c = _horner(t, _EXP_P, s[0, :n])  # t (P1 + t (P2 + ...))
    np.subtract(r, c, out=c)
    np.subtract(2.0, c, out=t)
    c *= r
    c /= t
    np.subtract(lo, c, out=c)
    c -= hi
    np.subtract(1.0, c, out=c)
    return c, k


# ---------------------------------------------------------------- ndtri ---

def _ndtri_block(s: np.ndarray, dst: np.ndarray) -> None:
    """AS241, then one Newton step on ndtr, which takes AS241's rounding
    error in double (up to 7 ulp) down to ndtr's. The step takes ndtr from
    erf where |q| <= 0.25, so |z| / sqrt 2 <= 0.477, and from erfc beyond,
    each inside the range Cody fitted it on."""
    p = s[0]
    q = np.subtract(p, 0.5, out=s[1])
    aq = np.abs(q, out=s[2])
    inner = np.flatnonzero(aq <= 0.25)
    outer = np.flatnonzero((aq > 0.25) & (aq <= 0.425))
    if inner.size:
        n = inner.size
        qi = np.take(q, inner, out=s[3, :n])
        dst[inner] = _newton_inner(_ndtri_central(qi, s[4:]), qi, s[7:])
    if outer.size:
        n = outer.size
        upper, pm = _lower_half(np.take(p, outer, out=s[3, :n]), np.take(q, outer, out=s[4, :n]), s[5])
        a = _ndtri_central(np.take(aq, outer, out=s[5, :n]), s[6:])  # |z|: AS241 is odd in q
        dst[outer] = _signed(_newton_outer(a, pm, s[9:]), upper)
    if inner.size + outer.size < p.size:
        tail = np.flatnonzero((aq > 0.425) & (p > 0.0) & (p < 1.0))
        n = tail.size
        upper, pm = _lower_half(np.take(p, tail, out=s[3, :n]), np.take(q, tail, out=s[4, :n]), s[5])
        dst[tail] = _signed(_newton_outer(_ndtri_tail(pm, s[5:]), pm, s[9:]), upper)
        rest = np.flatnonzero(~((aq <= 0.425) | ((p > 0.0) & (p < 1.0))))  # 0, 1, nan, outside [0, 1]
        pr = p[rest]
        dst[rest] = np.where(pr == 0.0, -np.inf, np.where(pr == 1.0, np.inf, np.nan))


def _lower_half(p: np.ndarray, q: np.ndarray, row: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(upper, min(p, 1 - p)), upper 1.0 where q = p - 0.5 > 0 and 0.0
    elsewhere, in q and p; 1 - p is exact for p >= 0.5."""
    upper = np.greater(q, 0.0, out=q)
    return upper, _flip(p, upper, row[: p.size])


def _signed(a: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """a where upper is 1.0 and -a where it is 0.0, in a; upper is spent."""
    upper *= 2.0
    upper -= 1.0
    a *= upper
    return a


def _newton_inner(z: np.ndarray, q: np.ndarray, s: np.ndarray) -> np.ndarray:
    """z - (ndtr(z) - 0.5 - q) / pdf(z) for |z / sqrt 2| <= 0.5, in z; q is
    exact there. The density's Taylor polynomial moves the step by a few
    millionths of itself, far below an ulp of z."""
    n = z.size
    v = np.multiply(z, _SQRT1_2, out=s[0, :n])
    e = _erf(v, s[1:])  # in s[2]; s[1] holds v^2 = z^2 / 2
    e *= 0.5
    e -= q
    e *= _SQRT_2PI
    e /= _horner(s[1, :n], _EXP_TAYLOR, s[3, :n])
    z -= e
    return z


def _newton_outer(a: np.ndarray, p: np.ndarray, s: np.ndarray) -> np.ndarray:
    """a + (ndtr(-a) - p) / pdf(a) for _ERF_MAX < a / sqrt 2 <= _NDTR_MAX /
    sqrt 2 and p <= 0.5, in a (which s may not hold); p is spent. Both
    sides are scaled by 2**k = exp(-a^2 / 2) / c, so a subnormal p loses
    nothing."""
    n = a.size
    v = _erfc_ratio(np.multiply(a, _SQRT1_2, out=s[0, :n]), s[1:])  # in s[1]
    c, k = _exp_neg_half_square(a, s[2:])  # in s[2], s[3]
    v *= c
    v *= 0.5  # ndtr(-a) 2**k
    half = np.multiply(k, 0.5, out=s[4, :n])
    _rounded(half)
    k -= half
    p *= _pow2(_POW2_UP, half, s, half)
    p *= _pow2(_POW2_UP, k, s, k)
    v -= p  # exact, the two being close
    v *= _SQRT_2PI
    v /= c
    a += v
    return a


def _ndtri_central(q: np.ndarray, s: np.ndarray) -> np.ndarray:
    """AS241's ndtri(0.5 + q) for |q| <= 0.425, in s[1]."""
    r = np.multiply(q, q, out=s[0, : q.size])
    np.subtract(0.180625, r, out=r)
    v = _ratio(r, _CENTRAL, s[1:3, : q.size])
    v *= q  # AS241 takes q num(r) / den(r); here num(r) / den(r) q
    return v


def _ndtri_tail(p: np.ndarray, s: np.ndarray) -> np.ndarray:
    """AS241's -ndtri(p) for 0 < p < 0.075, in s[3]; p is kept."""
    n = p.size
    r = _neg_log(p, s[1:])  # in s[2]
    np.sqrt(r, out=r)
    t = np.subtract(r, 1.6, out=s[0, :n])
    v = _ratio(t, _NEAR, s[3:5, :n])
    far = np.flatnonzero(r > 5.0)
    if far.size:
        t = np.take(r, far, out=s[5, : far.size])
        t -= 5.0
        v[far] = _ratio(t, _FAR, s[6:8, : far.size])
    return v


def _neg_log(x: np.ndarray, s: np.ndarray) -> np.ndarray:
    """-log(x) for 0 < x < inf (subnormal x too), in s[1]; fdlibm's e_log.c
    on x = 2**e m with sqrt(1/2) <= m < sqrt 2. x is kept."""
    n = x.size
    m, e = s[0, :n], _ints(s, np.int32, n)
    np.frexp(x, out=(m, e))
    low = m < _SQRT1_2
    m[low] *= 2.0
    e[low] -= 1
    f = m
    f -= 1.0  # exact
    dk = s[1, :n]
    np.copyto(dk, e)
    sf = np.add(f, 2.0, out=s[2, :n])
    np.divide(f, sf, out=sf)  # f / (2 + f)
    z = np.multiply(sf, sf, out=s[3, :n])
    w = np.multiply(z, z, out=s[4, :n])
    terms = _horner(w, _LOG, s[5:7, :n])
    terms[0] *= z
    terms[1] *= w
    big_r = np.add(terms[0], terms[1], out=terms[0])
    hfsq = np.multiply(f, f, out=z)
    hfsq *= 0.5
    u = np.add(hfsq, big_r, out=big_r)
    u *= sf
    u += np.multiply(dk, _LN2_LO, out=w)
    np.subtract(hfsq, u, out=u)
    u -= f  # log(x) = dk _LN2_HI - u
    dk *= _LN2_HI
    np.subtract(u, dk, out=dk)
    return dk
