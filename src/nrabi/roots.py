"""Closed-form eigenvalue solvers for 3x3 and 4x4 coupling matrices.

The characteristic polynomial of a zero-diagonal real symmetric Q is a
depressed cubic (n = 3) or a depressed quartic (n = 4) in the couplings, and
its roots are all real.  So both solvers work in real arithmetic: Viete's
trigonometric form for the cubic, and Ferrari's split of the quartic into two
real quadratics, whose shift is the largest root of a resolvent cubic solved
by Viete too.  Roots closer than 1e-4 of the spectral radius are reported as
one repeated value (see ``_finish_spectrum``), so every real symmetric 3x3
and 4x4 Q gets a spectrum.  That merge is the one degeneracy verdict: auto
dispatch in ``propagator`` takes the Lagrange route exactly when no cluster
was merged (``degeneracy_gap > 0``).  A Q whose largest coupling lies outside
[2^-150, 2^150] is solved scaled by a power of two (``scale_exponent``), so
no intermediate of the formulas under- or overflows.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidInputError
from .model import CouplingMatrix, _real

# neighbouring roots within this fraction of the spectral radius form one cluster
_CLUSTER_RTOL = 1e-4
_RESIDUAL_RTOL = 1e-9
# Newton's power sums of the returned roots agree with the coefficients' to
# this fraction of scale^k: a merged cluster moves each root by at most about
# 1e-4 of the radius, so s_k by under 4e-3 of scale^k, while the roots a
# collapsed Ferrari split leaves miss some s_k by a multiple of scale^k
_POWER_SUM_RTOL = 1e-2
# max|Q| in this band keeps every intermediate of the characteristic
# polynomials and of the resolvent (its g^6 terms p^3 and q^2) a normal float
_SAFE_BAND = (2.0 ** -150, 2.0 ** 150)
# the quartic's roots' scale max(|p|^(1/2), |q|^(1/3), |r|^(1/4)) in
# [2^-150, 2^152] keeps every intermediate of ``solve_quartic`` normal: the
# 2nd, 3rd and 4th powers of the band bound |p|, |q| and |r|.  The band holds
# the coefficients of every Q in the safe band (|p| <= 6 max|Q|^2,
# |q| <= 8 max|Q|^3, |r| <= 9 max|Q|^4), so those are solved unscaled
_COEFFICIENT_LO = (2.0 ** -300, 2.0 ** -450, 2.0 ** -600)
_COEFFICIENT_HI = (2.0 ** 304, 2.0 ** 456, 2.0 ** 608)
_MAX_QUARTIC_ROOT = sys.float_info.max ** 0.25


@dataclass(frozen=True)
class CubicCoeffs:
    """Coefficients of the depressed cubic lambda^3 - c1*lambda - c0 = 0."""

    c1: float
    c0: float


@dataclass(frozen=True)
class QuarticCoeffs:
    """Coefficients of the depressed quartic lambda^4 + p*lambda^2 + q*lambda + r = 0."""

    p: float
    q: float
    r: float


@dataclass(frozen=True)
class Spectrum:
    """All-real eigenvalues sorted descending, with degeneracy metadata.

    ``degeneracy_gap`` is the minimum pairwise absolute eigenvalue difference,
    0 when the radical solvers merged a cluster: auto dispatch then
    diagonalizes instead of taking the Lagrange route.
    """

    eigenvalues: np.ndarray
    degeneracy_gap: float
    n: int

    def __post_init__(self):
        values = np.array(self.eigenvalues, dtype=float)
        values.setflags(write=False)
        object.__setattr__(self, "eigenvalues", values)

    @cached_property
    def spectral_radius(self) -> float:
        # computed on the first read and kept: the eigenvalues are read-only;
        # the largest |x| over Python floats is the float np.max(np.abs(...)) gives
        return max(map(abs, self.eigenvalues.tolist()))


# Python floats (ndarray.item), not numpy scalars: the same IEEE operations
# without numpy's per-operation dispatch
def _three_couplings(q: CouplingMatrix) -> tuple[float, float, float]:
    a = q.entries
    return a.item(0, 1), a.item(1, 2), a.item(0, 2)


def _six_couplings(q: CouplingMatrix) -> tuple[float, ...]:
    a = q.entries
    # (g1..g6) = adjacent pairs first, then the skips: 01, 12, 23, 02, 13, 03
    return a.item(0, 1), a.item(1, 2), a.item(2, 3), a.item(0, 2), a.item(1, 3), a.item(0, 3)


def scale_exponent(q: CouplingMatrix) -> int:
    """The e with which ``closed_form_spectrum`` solves 2^-e Q in place of Q.

    0 when max|Q| lies in [2^-150, 2^150] or Q = 0, else the binary exponent
    of max|Q|, so that 2^-e Q has max|Q| in [1/2, 1); scaling by a power of
    two is exact.
    """
    top = max(map(abs, q.entries.ravel().tolist()))
    if top == 0.0 or _SAFE_BAND[0] <= top <= _SAFE_BAND[1]:
        return 0
    return math.frexp(top)[1]


def _cubic(g1: float, g2: float, g3: float) -> CubicCoeffs:
    return CubicCoeffs(c1=g1 * g1 + g2 * g2 + g3 * g3, c0=2.0 * g1 * g2 * g3)


def char_poly_3(q: CouplingMatrix) -> CubicCoeffs:
    """Characteristic polynomial of a 3x3 coupling matrix.

    det(lambda I - Q) = lambda^3 - (g1^2+g2^2+g3^2) lambda - 2 g1 g2 g3 with
    (g1, g2, g3) = (Q01, Q12, Q02).
    """
    if q.n != 3:
        raise InvalidInputError(f"char_poly_3 needs n = 3, got n = {q.n}")
    return _cubic(*_three_couplings(q))


def char_poly_4(q: CouplingMatrix) -> QuarticCoeffs:
    """Characteristic polynomial of a 4x4 coupling matrix.

    With (g1..g6) = (Q01, Q12, Q23, Q02, Q13, Q03):
      p = -(g1^2 + ... + g6^2)
      q = -2 (g1 g2 g4 + g1 g5 g6 + g2 g3 g5 + g3 g4 g6)
      r = g1^2 g3^2 + g2^2 g6^2 + g4^2 g5^2
          - 2 g1 g2 g3 g6 - 2 g1 g3 g4 g5 - 2 g2 g4 g5 g6
    """
    if q.n != 4:
        raise InvalidInputError(f"char_poly_4 needs n = 4, got n = {q.n}")
    return _quartic(*_six_couplings(q))


def _quartic(g1: float, g2: float, g3: float, g4: float, g5: float, g6: float) -> QuarticCoeffs:
    p = -(g1 * g1 + g2 * g2 + g3 * g3 + g4 * g4 + g5 * g5 + g6 * g6)
    qq = -2.0 * (g1 * g2 * g4 + g1 * g5 * g6 + g2 * g3 * g5 + g3 * g4 * g6)
    r = (
        g1 * g1 * g3 * g3
        + g2 * g2 * g6 * g6
        + g4 * g4 * g5 * g5
        - 2.0 * g1 * g2 * g3 * g6
        - 2.0 * g1 * g3 * g4 * g5
        - 2.0 * g2 * g4 * g5 * g6
    )
    return QuarticCoeffs(p=p, q=qq, r=r)


def _horner(poly: tuple[float, ...], x: float) -> float:
    y = 0.0
    for c in poly:
        y = y * x + c
    return y


def _derivative(poly: tuple[float, ...]) -> tuple[float, ...]:
    degree = len(poly) - 1
    return tuple(c * (degree - k) for k, c in enumerate(poly[:-1]))


def _newton(f: tuple[float, ...], df: tuple[float, ...], x: float, steps: int) -> float:
    """Up to ``steps`` Newton steps on the polynomial f, each kept only if it reduces |f|.

    The guard protects multiple roots, where the derivative vanishes.
    """
    for _ in range(steps):
        fx = _horner(f, x)
        dfx = _horner(df, x)
        if dfx == 0.0:
            break
        candidate = x - fx / dfx
        if not abs(_horner(f, candidate)) < abs(fx):
            break
        x = candidate
    return x


def _finish_spectrum(roots: list[float], poly: tuple[float, ...], e: int = 0) -> Spectrum:
    """Polish, check, sort and cluster the real roots of the monic ``poly``,
    a polynomial in 2^-e lambda, and scale them back by 2^e.

    Each root gets one Newton step and must then leave a residual below 1e-9
    of radius^degree, with the spectral radius taken over the polished roots:
    that is the scale of the coefficients' rounding error, so a root small
    next to the couplings is not refused.  Then every run of sorted roots
    whose neighbouring gaps are at most 1e-4 of the spectral radius becomes
    one value repeated: a root of multiplicity m is only eps^(1/m) accurate
    when taken from the coefficients, but it is a simple root of the (m-1)-th
    derivative, so Newton on that derivative, started from the cluster mean,
    refines it.  A merged pair of distinct roots lies within 5e-5 of the
    radius of each, a merged triple within 1e-4; the cluster's gap of 0 sends
    the propagator dispatch to diagonalization.  Last, the roots must
    reproduce the coefficients' power sums (``_check_power_sums``).
    """
    degree = len(poly) - 1
    slope = _derivative(poly)
    lam = sorted((_newton(poly, slope, x, 1) for x in roots), reverse=True)
    radius = max(map(abs, lam))
    bound = _RESIDUAL_RTOL * radius ** degree
    for x in lam:
        if not abs(_horner(poly, x)) <= bound:
            raise InvalidInputError(
                f"root {math.ldexp(x, e)!r} fails the characteristic polynomial residual bound; "
                "coefficients are not from a real symmetric matrix"
            )
    start = 0
    for k in range(1, degree + 1):
        if k == degree or lam[k - 1] - lam[k] > _CLUSTER_RTOL * radius:
            size = k - start
            if size > 1:
                mean = sum(lam[start:k]) / size
                f = slope
                for _ in range(size - 2):
                    f = _derivative(f)  # the (size - 1)-th derivative, built only here
                lam[start:k] = [_newton(f, _derivative(f), mean, 3)] * size
            start = k
    _check_power_sums(lam, poly)
    gap = min(lam[k] - lam[k + 1] for k in range(degree - 1))
    if e:
        lam, gap = [math.ldexp(x, e) for x in lam], math.ldexp(gap, e)
    return Spectrum(eigenvalues=lam, degeneracy_gap=gap, n=degree)


def _check_power_sums(lam: list[float], poly: tuple[float, ...]) -> None:
    """Refuse roots whose power sums s_k = sum lambda^k, k = 1..degree, miss
    the coefficients' by more than 1e-2 scale^k, with the root scale
    scale = max(|p|^(1/2), |q|^(1/3), |r|^(1/4)).

    Newton's identities give the sums of lambda^4 + p lambda^2 + q lambda + r
    from its coefficients alone: s_1..s_4 = 0, -2p, -3q, 2p^2 - 4r; the cubic
    lambda^3 + p lambda + q is the case r = 0 and needs s_1..s_3.  The
    residual test checks each root on its own; a polynomial with complex
    roots can still leave real roots that each pass it, say four zeros when
    the residual bound is 0, but never with all its power sums right.
    """
    p, q, r = poly[2], poly[3], poly[4] if len(poly) == 5 else 0.0
    scale = max(abs(p) ** 0.5, abs(q) ** (1.0 / 3.0), abs(r) ** 0.25)
    squares = [x * x for x in lam]
    sums = (sum(lam), sum(squares), sum([y * x for y, x in zip(squares, lam)]), sum([y * y for y in squares]))
    expected = (0.0, -2.0 * p, -3.0 * q, 2.0 * p * p - 4.0 * r)
    bound = _POWER_SUM_RTOL
    for k in range(len(lam)):
        bound *= scale
        if not abs(sums[k] - expected[k]) <= bound:
            raise InvalidInputError(
                f"the roots miss the power sum s{k + 1} of the characteristic polynomial; "
                "coefficients are not from a real symmetric matrix"
            )


def _viete(c1: float, c0: float) -> list[float]:
    """Roots r cos(theta/3 - 2 pi k/3), k = 0, 1, 2, of lambda^3 - c1*lambda - c0 = 0.

    r = 2 sqrt(c1/3) and cos(theta) = 4 c0 / r^3, with c1 clamped at 0 and
    the cosine at [-1, 1].  theta lies in [0, pi], so the roots come out
    descending and k = 0 is the largest, also when it is a double or triple
    root.
    """
    r = 2.0 * math.sqrt(max(c1, 0.0) / 3.0)
    cube = r ** 3
    ratio = 4.0 * c0 / cube if cube > 0.0 else 0.0
    third = math.acos(min(1.0, max(-1.0, ratio))) / 3.0
    return [r * math.cos(third - 2.0 * math.pi * k / 3.0) for k in range(3)]


def _out_of_range(coeffs) -> InvalidInputError:
    # a power of a root, or of the spectral radius, past the float range
    return InvalidInputError(f"the roots of {coeffs} overflow the float range")


def solve_cubic_depressed(coeffs: CubicCoeffs) -> Spectrum:
    """All three real roots of lambda^3 - c1*lambda - c0 = 0 by Viete's trigonometric form.

    The roots are real exactly when c1 >= 0 and |4 c0| <= r^3 with
    r = 2 sqrt(c1/3).  A negative c1 raises InvalidInputError.  The ratio
    4 c0 / r^3 is clamped to [-1, 1], which only absorbs roundoff (equal
    couplings put it at +-1, and subnormal coefficients can be a few ulps
    past): a ratio clearly outside leaves roots that fail the residual check,
    which raises InvalidInputError.  So do coefficients that are not reals
    (``model._real``) and roots whose powers overflow the float range.
    """
    c1 = _real(coeffs.c1, "cubic coefficient c1")
    c0 = _real(coeffs.c0, "cubic coefficient c0")
    if c1 < 0.0:
        raise InvalidInputError(
            f"three real roots need c1 >= 0, got c1 = {c1!r}; "
            "coefficients are not from a real symmetric matrix"
        )
    try:
        return _finish_spectrum(_viete(c1, c0), (1.0, 0.0, -c1, -c0))
    except OverflowError:
        raise _out_of_range(coeffs) from None


def _root_exponent(p: float, q: float, r: float) -> int:
    """The e with which ``solve_quartic`` solves for 2^-e lambda.

    0 when the roots' scale max(|p|^(1/2), |q|^(1/3), |r|^(1/4)) lies in
    [2^-150, 2^152] or p = q = r = 0, else the least e that puts it below 2^e.
    """
    a, b, c = abs(p), abs(q), abs(r)
    hi, lo = _COEFFICIENT_HI, _COEFFICIENT_LO
    if a <= hi[0] and b <= hi[1] and c <= hi[2]:
        if a >= lo[0] or b >= lo[1] or c >= lo[2] or a == b == c == 0.0:
            return 0
    # |x| < 2^f with f its binary exponent, so |x|^(1/k) < 2^ceil(f/k)
    return max(-(-math.frexp(x)[1] // k) for x, k in ((a, 2), (b, 3), (c, 4)) if x)


def solve_quartic(coeffs: QuarticCoeffs) -> Spectrum:
    """All four real roots of lambda^4 + p*lambda^2 + q*lambda + r = 0 by Ferrari's method.

    With m the largest root of the resolvent cubic
    m^3 + p m^2 + (p^2/4 - r) m - q^2/8 = 0 and s = sqrt(2m), the quartic
    splits into the real quadratics

        lambda^2 + s lambda + p/2 + m - q/(2s)  and  lambda^2 - s lambda + p/2 + m + q/(2s),

    each solved with its discriminant clamped at 0.  For real roots x_i the
    resolvent roots are (x_i + x_j)^2 / 2.  It is depressed by m = y - p/3
    and solved by Viete with both clamps and no check: its coefficients carry
    cancellation error relative to p^2, so a double or triple resolvent root
    (near-equal couplings) can look complex by roundoff.  The largest root y
    stays >= 0, so m >= -p/3 > 0 for any Q but Q = 0, where p = q = r = 0 and
    every root is 0.  Coefficients without four real roots fail the residual
    check or, where the split collapses (p = r = 0, say), the power-sum check
    instead; the inputs are checked as in ``solve_cubic_depressed``.

    The resolvent's terms are of degree 6 in the roots, so coefficients whose
    roots' scale lies outside [2^-150, 2^152] are solved for 2^-e lambda, with
    p, q and r times 2^-2e, 2^-3e and 2^-4e, and the roots scaled back
    (``_root_exponent``): the verdict and the roots do not depend on the
    coefficients' scale, but for roots whose 4th power passes the float
    range, which are refused as the cubic's whose cube does.  Inside the band
    e = 0.
    """
    p, q, r = (_real(getattr(coeffs, k), f"quartic coefficient {k}") for k in "pqr")
    e = _root_exponent(p, q, r)
    if e:
        p, q, r = math.ldexp(p, -2 * e), math.ldexp(q, -3 * e), math.ldexp(r, -4 * e)
    try:
        m = _viete(p * p / 12.0 + r, p ** 3 / 108.0 - p * r / 3.0 + q * q / 8.0)[0] - p / 3.0
        s = math.sqrt(max(2.0 * m, 0.0))
        shift = q / (2.0 * s) if s > 0.0 else 0.0
        roots = []
        for b, c in ((s, p / 2.0 + m - shift), (-s, p / 2.0 + m + shift)):
            half = 0.5 * math.sqrt(max(b * b - 4.0 * c, 0.0))
            roots += [-0.5 * b + half, -0.5 * b - half]
        spectrum = _finish_spectrum(roots, (1.0, 0.0, p, q, r), e)
    except OverflowError:
        raise _out_of_range(coeffs) from None
    if e > 0 and spectrum.spectral_radius > _MAX_QUARTIC_ROOT:
        raise _out_of_range(coeffs)
    return spectrum


def closed_form_spectrum(q: CouplingMatrix) -> Spectrum:
    """Spectrum of a 3x3 or 4x4 coupling matrix through the radical formulas.

    Outside the safe band (``scale_exponent``), the spectrum of 2^-e Q is
    solved and its eigenvalues and gap are scaled back by 2^e.
    """
    if q.n == 3:
        g, coefficients, solve = _three_couplings(q), _cubic, solve_cubic_depressed
    elif q.n == 4:
        g, coefficients, solve = _six_couplings(q), _quartic, solve_quartic
    else:
        raise InvalidInputError(
            f"closed-form spectra exist only for n = 3 or 4, got n = {q.n}"
        )
    e = scale_exponent(q)
    if not e:
        return solve(coefficients(*g))
    scaled = solve(coefficients(*(math.ldexp(x, -e) for x in g)))
    try:
        lam = [math.ldexp(x, e) for x in scaled.eigenvalues.tolist()]
    except OverflowError:
        raise InvalidInputError(f"the eigenvalues of {q.n}x{q.n} Q overflow the float range") from None
    return Spectrum(eigenvalues=lam, degeneracy_gap=math.ldexp(scaled.degeneracy_gap, e), n=q.n)
