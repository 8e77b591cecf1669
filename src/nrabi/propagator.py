"""Unitary propagators exp(-itQ) for coupling matrices.

Every closed-form route gives Sylvester's sum exp(-itQ) =
sum_j e^{-it lambda_j} P_j, with real symmetric projectors P_j that sum to I;
a route only decides how lambda and P are found:

* two-level (n = 2) and rank-one equal coupling (any n): lambda =
  ((n-1) g, -g) and P = (J/n, I - J/n), J the all-ones matrix,
* Cayley-Hamilton / Lagrange (n = 3, 4, non-degenerate spectrum): P_j = l_j(Q)
  = prod_{k != j} (Q - lambda_k I) / (lambda_j - lambda_k), no diagonalization;
  auto dispatch takes it when the radical solvers merged no eigenvalue
  cluster (``roots``' one 1e-4 threshold), and ``DEGENERACY_GAP_RTOL`` gates
  only a forced Lagrange route and ``lagrange_coeffs``,
* diagonalization by the closed-form 3x3 eigenvectors (each read off the
  adjugate adj(lambda I - Q)) or LAPACK ``eigh`` (any n): P_j = v_j v_j^T.

A scaling-and-squaring reference exponential stays independent of them.
``spectral_plan`` picks a route for one Q and builds lambda and P once; the
plan then evaluates any number of times in one batched call.  A plan never
changes after it is built: a caller that evaluates one plan again and again
on one state keeps that state's projections itself, as ``model.trajectory``
does on the system.  ``propagator`` and the per-route functions are its
single-time case, exposed so the routes can be cross-checked against each
other.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateSpectrumError, InvalidInputError
from .model import _MAX_LEVELS, CouplingMatrix, _as_times, _count, _real, _upper_triangle
from .roots import Spectrum, closed_form_spectrum, scale_exponent

#: relative eigenvalue gap below which the Lagrange gap products lose too
#: much precision: the gate of forced Lagrange and of ``lagrange_coeffs``
DEGENERACY_GAP_RTOL = 1e-8
_EQUAL_COUPLING_RTOL = 1e-12
_EIGENVECTOR_RESIDUAL_RTOL = 1e-8
_DIRECTION_RTOL = 1e-10
_ORTHONORMALITY_ATOL = 1e-10


class Method(str, Enum):
    """How a propagator matrix was (or should be) computed."""

    TWO_LEVEL = "two_level"
    LAGRANGE3 = "lagrange3"
    LAGRANGE4 = "lagrange4"
    EQUAL_COUPLING = "equal_coupling"
    CLOSED_EIGEN3 = "closed_eigen3"
    JACOBI = "jacobi"
    REFERENCE = "reference"


_LAGRANGE = (Method.LAGRANGE3, Method.LAGRANGE4)


def _method(method) -> Method | None:
    # a requested method: None (automatic), a Method or its value
    if method is None or isinstance(method, Method):
        return method
    try:
        return Method(method)
    except ValueError:
        raise InvalidInputError(f"unknown propagator method {method!r}") from None


@dataclass(frozen=True)
class Propagator:
    """exp(-itQ) as a read-only complex matrix, tagged with its construction."""

    n: int
    matrix: np.ndarray
    t: float
    method: Method


@dataclass(frozen=True)
class LagrangeCoeffs:
    """Coefficients f_k with exp(-itQ) = sum_k f_k(t) Q^k.

    ``f[k]`` multiplies Q^k; by construction sum_k f_k lambda_j^k = e^{-it lambda_j}
    for every eigenvalue lambda_j.
    """

    f: np.ndarray
    t: float
    spectrum: Spectrum


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectrum plus the orthogonal eigenvector matrix (columns) of Q."""

    spectrum: Spectrum
    vectors: np.ndarray


@dataclass(frozen=True)
class SpectralPlan:
    """exp(-itQ) for one coupling matrix, ready to evaluate at many times.

    ``method`` is the route that runs.  Every route but ``reference`` holds
    Sylvester's form exp(-itQ) = sum_j e^{-it lambda_j} P_j: ``eigenvalues``
    lambda, shape (m,), and real symmetric ``projectors`` P, shape (m, n, n),
    that sum to I, both finite or InvalidInputError.  ``q`` holds the entries
    of Q for the reference exponential.

    A plan is never changed after construction.  Its own phase rates are
    worked out on first use and kept (``_rates``); a caller that evaluates
    the plan in a frame or on one state many times keeps the joined rates
    (``_phase_rates``) and the projections (``_projections``) itself.
    """

    method: Method
    n: int
    eigenvalues: np.ndarray | None = None
    projectors: np.ndarray | None = None
    q: np.ndarray | None = None

    def __post_init__(self):
        # the one finite-spectrum gate: an eigenvalue past the float range
        # (the rank-one (n - 1) g, or eigh's) would make NaN phases
        for a in (self.eigenvalues, self.projectors):
            if a is not None and np.count_nonzero(np.isfinite(a)) != a.size:
                raise InvalidInputError(f"the eigenvalues of {self.n}x{self.n} Q overflow the float range")

    def _phase_rates(self, frame=None) -> tuple[np.ndarray | None, float]:
        """-i (lambda, frame) as one read-only complex array, None when there is
        neither, and the largest |rate| (0.0 for none), max|Q_ij| counted for
        ``reference``.

        The real parts are -0.0, so t * rate, with t cast to complex, has the
        imaginary part -(t * rate) and a zero real part: the phases are those
        of exp(-1j * (t * (lambda, frame))) bit for bit, zero signs included.
        """
        real = [a for a in (self.eigenvalues, frame) if a is not None]
        rates, top = None, 0.0
        if real:
            joined = np.concatenate(real)
            top = max(map(abs, joined.tolist()))  # over Python floats, as Spectrum.spectral_radius
            rates = -1j * joined  # imaginary parts exactly -(lambda, frame)
            rates.real = -0.0
            rates.setflags(write=False)
        if self.q is not None:
            # the reference route holds no eigenvalues but forms t Q: max|Q_ij|
            # counts as its rate, so that t Q stays finite
            top = max(top, max(map(abs, self.q.ravel().tolist())))
        return rates, top

    @functools.cached_property
    def _rates(self) -> tuple[np.ndarray | None, float]:
        # the plan's own rates -i lambda and their largest magnitude, kept: the fields are read-only
        return self._phase_rates()

    def _projections(self, block: np.ndarray) -> np.ndarray | None:
        """P_j @ block for every j as a read-only (m, n * k) complex array;
        None for ``reference``, which holds no projectors."""
        if self.projectors is None:
            return None
        # on the interleaved real and imaginary parts, so numpy never makes a
        # complex copy of the (m, n, n) projector stack
        parts = np.ascontiguousarray(block, dtype=complex).view(float)
        projected = (self.projectors @ parts).view(complex).reshape(-1, block.size)
        projected.setflags(write=False)
        return projected

    def _apply(self, block, t, rates, top, projected) -> np.ndarray:
        """exp(-itQ) @ block at every time, shape (T, n, k); t = 0 gives block exactly.

        ``rates`` and ``top`` come from ``_phase_rates`` and ``projected``
        from ``_projections(block)``.  When ``rates`` also hold frame rates
        a, shape (n,), row i at time t is then multiplied by e^{-i a_i t};
        those phases and the eigenphases come from one exponential.  A
        t * rate past the float range is refused first.
        """
        n, k = block.shape
        _check_phases(abs(t.item()) if t.size == 1 else float(np.abs(t).max()), top, self.n)
        phases = None if rates is None else np.exp(t[:, None] * rates)
        if self.method is Method.REFERENCE:
            from .oracle import reference_expm  # deferred: oracle imports model types

            m = 0
            out = np.array([reference_expm(-1j * x * self.q) @ block for x in t])
        else:
            m = len(self.eigenvalues)
            out = (phases[:, :m] @ projected).reshape(t.size, n, k)
        if np.count_nonzero(t) != t.size:
            out[t == 0.0] = block
        if phases is not None and phases.shape[1] > m:
            # phases first: complex products round in operand order (FMA)
            np.multiply(phases[:, m:, None], out, out=out)
        return out

    def propagators(self, times) -> np.ndarray:
        """exp(-itQ) at every time, shape (T, n, n); t = 0 gives the exact identity."""
        eye = np.eye(self.n)
        return self._apply(eye, _as_times(times), *self._rates, self._projections(eye))

    def evolve(self, psi0, times) -> np.ndarray:
        """exp(-itQ) psi0 at every time, shape (T, n), without forming the propagators."""
        t = _as_times(times)
        psi = np.asarray(psi0, dtype=complex)
        if psi.shape != (self.n,):
            raise InvalidInputError(f"state must have shape ({self.n},), got {psi.shape}")
        block = psi[:, None]
        return self._apply(block, t, *self._rates, self._projections(block))[:, :, 0]


def _check_phases(span: float, top: float, n: int) -> None:
    # max |t| times the largest |rate|: past the float range the phases would be NaN
    if not math.isfinite(span * top):
        raise InvalidInputError(f"the phases t * lambda of {n}x{n} Q at |t| = {span!r} overflow the float range")


def _scaled(q: CouplingMatrix, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # (Q, lambda) times 2^-e, as the radical solvers scale Q: the Lagrange
    # projectors and the eigenvectors are homogeneous of degree 0 in the
    # pair, and built from it no product under- or overflows; e = 0 in the band
    e = scale_exponent(q)
    if not e:
        return q.entries, lam
    return np.ldexp(q.entries, -e), np.ldexp(lam, -e)


def _lagrange_nodes(spectrum: Spectrum) -> np.ndarray:
    # the eigenvalues as interpolation nodes, whose every gap is a divisor
    if not spectrum.degeneracy_gap > DEGENERACY_GAP_RTOL * spectrum.spectral_radius:
        raise DegenerateSpectrumError(
            f"eigenvalue gap {spectrum.degeneracy_gap:.3e} is below "
            f"{DEGENERACY_GAP_RTOL:.0e} of the spectral radius; use a diagonalization method"
        )
    return spectrum.eigenvalues


@functools.cache
def _others(m: int) -> np.ndarray:
    # row j: every index in range(m) but j, built once per m and shared read-only
    others = np.array([[k for k in range(m) if k != j] for j in range(m)])
    others.setflags(write=False)
    return others


def _rank_one_plan(method: Method, n: int, g: float) -> SpectralPlan:
    # Q = g (J - I) with J the all-ones matrix: J/n projects onto eigenvalue
    # (n-1) g and I - J/n onto -g; n = 2 is the two-level form
    mean = np.full((n, n), 1.0 / n)
    return SpectralPlan(method, n, np.array([(n - 1) * g, -g]), np.array([mean, np.eye(n) - mean]))


def _at(plan: SpectralPlan, t: float) -> Propagator:
    matrix = plan.propagators([t])[0]
    matrix.setflags(write=False)
    return Propagator(plan.n, matrix, t, plan.method)


def propagator_two_level(g: float, t: float) -> Propagator:
    """Resonant two-level propagator [[cos gt, -i sin gt], [-i sin gt, cos gt]]; g, t finite."""
    return _at(_rank_one_plan(Method.TWO_LEVEL, 2, _real(g, "coupling")), t)


def propagator_equal_coupling(n: int, g: float, t: float) -> Propagator:
    """Closed form for Q = g*R with R the all-ones off-diagonal matrix.

    R + I is rank one, so exp(-itQ) = e^{igt} (I + (e^{-ingt} - 1)/n * J) with
    J the all-ones matrix; n is an integer >= 2, and g and t are finite.
    """
    n = _count(n, "n", 2, _MAX_LEVELS)
    return _at(_rank_one_plan(Method.EQUAL_COUPLING, n, _real(g, "coupling")), t)


def lagrange_coeffs(spectrum: Spectrum, t: float) -> LagrangeCoeffs:
    """Polynomial coefficients interpolating e^{-it lambda} on the spectrum.

    f is the coefficient vector of sum_j e^{-it lambda_j} l_j(lambda) with
    l_j the Lagrange basis polynomials: LAPACK's solution of the Vandermonde
    system sum_k f_k lambda_j^k = e^{-it lambda_j}.  A near-degenerate
    spectrum is rejected, and so is a t that is not a finite int or float
    or whose t * lambda passes the float range.
    """
    span = abs(_as_times([t]).item())
    lam = _lagrange_nodes(spectrum)
    _check_phases(span, spectrum.spectral_radius, spectrum.n)
    f = np.linalg.solve(np.vander(lam, increasing=True), np.exp(-1j * t * lam))
    return LagrangeCoeffs(f=f, t=t, spectrum=spectrum)


def propagator_lagrange(q: CouplingMatrix, t: float) -> Propagator:
    """exp(-itQ) = sum_j e^{-it lambda_j} l_j(Q), the interpolation polynomial, for n = 3, 4.

    The eigenvalues come from the radical solvers; each l_j(Q) is the product
    of the shifted matrices Q - lambda_k I, k != j, over its eigenvalue gaps,
    so this path never diagonalizes.  Any other n raises InvalidInputError.
    """
    return propagator(q, t, Method.LAGRANGE3 if q.n == 3 else Method.LAGRANGE4)


def eigenvectors_three_level(q: CouplingMatrix, spectrum: Spectrum) -> EigenDecomposition:
    """Closed-form normalized eigenvectors of a 3x3 coupling matrix.

    With g1, g2, g3 the couplings (0, 1), (1, 2), (0, 2) and D = 3 lambda^2 -
    (g1^2 + g2^2 + g3^2), a simple eigenvalue lambda has adj(lambda I - Q) =
    D v v^T (the eigenvector-eigenvalue identity): the diagonal, lambda^2 -
    g2^2, lambda^2 - g3^2, lambda^2 - g1^2, gives the magnitudes and the rest,
    lambda g1 + g2 g3, lambda g2 + g1 g3, lambda g3 + g1 g2, the signs.
    Column j is the column of v v^T with the largest diagonal entry over that
    entry's square root, first component non-negative.  The spectrum must
    hold three eigenvalues.  D, the derivative of the characteristic
    polynomial, vanishes (to 1e-10 ||Q||^2) on Q = 0 and on every pair that
    ``closed_form_spectrum`` merges: degeneracy error.  So is a residual
    ||Q v - lambda v|| above 1e-8 ||Q||, or columns max |V^T V - I| above
    1e-10 from orthonormal (a near-degenerate spectrum that was not merged,
    say from another solver).  A Q outside the radical solvers' safe band is
    scaled with its eigenvalues by 2^-e first (``roots.scale_exponent``).
    """
    if q.n != 3:
        raise InvalidInputError(f"closed-form eigenvectors need n = 3, got n = {q.n}")
    if len(spectrum.eigenvalues) != 3:
        raise InvalidInputError(
            f"closed-form eigenvectors need 3 eigenvalues, got {len(spectrum.eigenvalues)}"
        )
    a, lams = _scaled(q, spectrum.eigenvalues)
    lams = lams.tolist()
    g1, g2, g3 = a[0, 1].item(), a[1, 2].item(), a[0, 2].item()
    gsq = g1 * g1 + g2 * g2 + g3 * g3
    norm_q = float(np.linalg.norm(a))
    residual_bound = _EIGENVECTOR_RESIDUAL_RTOL * norm_q
    vectors = np.empty((3, 3))
    for j, lam in enumerate(lams):
        d = 3.0 * lam * lam - gsq
        if abs(d) <= _DIRECTION_RTOL * norm_q * norm_q:  # Q = 0 too
            raise DegenerateSpectrumError(
                f"normalization denominator {d:.3e} vanishes for eigenvalue "
                f"{lam!r}; use the Jacobi path"
            )
        sq, c01, c12, c02 = lam * lam, lam * g1 + g2 * g3, lam * g2 + g1 * g3, lam * g3 + g1 * g2
        adj = [[sq - g2 * g2, c01, c02], [c01, sq - g3 * g3, c12], [c02, c12, sq - g1 * g1]]
        vvt = np.array(adj) / d  # v v^T
        k = int(np.argmax(vvt.diagonal()))
        column = vvt[k] / math.sqrt(vvt[k, k])
        column = (-column if column[0] < 0.0 else column) + 0.0  # + 0.0 clears any -0.0
        if float(np.linalg.norm(a @ column - lam * column)) > residual_bound:
            raise DegenerateSpectrumError(
                f"closed-form eigenvector residual exceeds {residual_bound:.1e} "
                f"for eigenvalue {lam!r}"
            )
        vectors[:, j] = column
    defect = float(np.max(np.abs(vectors.T @ vectors - np.eye(3))))
    if not defect <= _ORTHONORMALITY_ATOL:
        raise DegenerateSpectrumError(
            f"closed-form eigenvectors are {defect:.3e} from orthonormal, above "
            f"{_ORTHONORMALITY_ATOL:.0e}; use the Jacobi path"
        )
    return EigenDecomposition(spectrum, vectors)


def _eigen_plan(method: Method, decomp: EigenDecomposition) -> SpectralPlan:
    # P_j = v_j v_j^T for each eigenvector column v_j
    v = decomp.vectors.T
    return SpectralPlan(method, len(v), decomp.spectrum.eigenvalues, v[:, :, None] * v[:, None, :])


def jacobi_eigendecompose(q: CouplingMatrix) -> EigenDecomposition:
    """Diagonalization of a coupling matrix by LAPACK (``numpy.linalg.eigh``), any n >= 2.

    The ``jacobi`` route: eigenvalues are returned descending with the
    orthonormal eigenvector columns permuted to match.
    """
    lam, vectors = np.linalg.eigh(q.entries)
    lam = lam[::-1]
    gap = float(np.min(np.abs(np.diff(lam))))
    spectrum = Spectrum(eigenvalues=lam, degeneracy_gap=gap, n=q.n)
    return EigenDecomposition(spectrum, np.ascontiguousarray(vectors[:, ::-1]))


def propagator_from_eigen(
    decomp: EigenDecomposition, t: float, method: Method = Method.JACOBI
) -> Propagator:
    """exp(-itQ) = O diag(e^{-it lambda}) O^T from an eigendecomposition.

    ``method`` labels the result: ``jacobi`` or ``closed_eigen3``.
    """
    if method not in (Method.JACOBI, Method.CLOSED_EIGEN3):
        raise InvalidInputError(f"an eigendecomposition is jacobi or closed_eigen3, not {method!r}")
    return _at(_eigen_plan(Method(method), decomp), t)


def equal_coupling_value(q: CouplingMatrix) -> float | None:
    """The shared coupling g when all off-diagonal entries agree within 1e-12 relative.

    g is their mean, taken over 2^-e Q outside the radical solvers' safe band
    (``roots.scale_exponent``), so that the sum does not overflow.
    """
    off = q.entries[_upper_triangle(q.n)].tolist()
    lo, hi = min(off), max(off)
    largest = max(hi, -lo)  # the largest |entry|
    if largest == 0.0:
        return 0.0
    if hi - lo <= _EQUAL_COUPLING_RTOL * largest:
        e = scale_exponent(q)
        return math.ldexp(float(np.mean(np.ldexp(off, -e))), e)
    return None


def spectral_plan(q: CouplingMatrix, method=None) -> SpectralPlan:
    """Pick the route to exp(-itQ) for Q, unless forced, and do its one-off work.

    Automatic dispatch: n = 2 goes to the two-level form; an equal-coupling
    pattern goes to the rank-one form (its spectrum is maximally degenerate,
    so the polynomial route would divide by zero); n = 3, 4 use the
    Lagrange expansion when the radical solvers merged no eigenvalue cluster
    and Jacobi otherwise; larger n always diagonalizes.  Forcing a method
    applies it as-is and lets its own preconditions raise.
    """
    method = _method(method)
    spectrum = g = None
    if method is None:
        if q.n == 2:
            method = Method.TWO_LEVEL
        elif (g := equal_coupling_value(q)) is not None:
            method = Method.EQUAL_COUPLING
        elif q.n in (3, 4):
            spectrum = closed_form_spectrum(q)
            if spectrum.degeneracy_gap > 0.0:  # the radical solvers merged no cluster
                method = Method.LAGRANGE3 if q.n == 3 else Method.LAGRANGE4
            else:
                method = Method.JACOBI
        else:
            method = Method.JACOBI

    if method is Method.TWO_LEVEL:
        if q.n != 2:
            raise InvalidInputError(f"two-level method needs n = 2, got n = {q.n}")
        return _rank_one_plan(method, 2, float(q.entries[0, 1]))
    if method is Method.EQUAL_COUPLING:
        g = equal_coupling_value(q) if g is None else g  # auto dispatch found it already
        if g is None:
            raise InvalidInputError("couplings are not all equal")
        return _rank_one_plan(method, q.n, g)
    if method in _LAGRANGE:
        expected = 3 if method is Method.LAGRANGE3 else 4
        if q.n != expected:
            raise InvalidInputError(f"{method.value} needs n = {expected}, got n = {q.n}")
        if spectrum is None:
            spectrum = closed_form_spectrum(q)
        # P_j = l_j(Q) = prod_{k != j} (Q - lambda_k I) / (lambda_j - lambda_k): one
        # batched product per factor over the shifted stack, then one division
        lam = _lagrange_nodes(spectrum)
        a, nodes = _scaled(q, lam)
        others = _others(len(lam))
        factors = (a - nodes[:, None, None] * np.eye(q.n))[others]  # (m, m - 1, n, n)
        lams = nodes.tolist()
        gaps = [math.prod(lams[j] - lams[k] for k in row) for j, row in enumerate(others.tolist())]
        products = functools.reduce(np.matmul, factors.swapaxes(0, 1))
        return SpectralPlan(method, q.n, lam, products / np.array(gaps)[:, None, None])
    if method is Method.REFERENCE:
        return SpectralPlan(method, q.n, q=q.entries)
    if method is Method.CLOSED_EIGEN3:
        if q.n != 3:
            raise InvalidInputError(f"closed_eigen3 needs n = 3, got n = {q.n}")
        decomp = eigenvectors_three_level(q, closed_form_spectrum(q))
    else:
        decomp = jacobi_eigendecompose(q)
    return _eigen_plan(method, decomp)


def propagator(q: CouplingMatrix, t: float, method=None) -> Propagator:
    """exp(-itQ) at one time through ``spectral_plan`` (same dispatch, same errors)."""
    return _at(spectral_plan(q, method), t)
