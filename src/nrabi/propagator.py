"""Unitary propagators exp(-itQ) for coupling matrices.

Every closed-form route gives Sylvester's sum exp(-itQ) =
sum_j e^{-it lambda_j} P_j, with real symmetric projectors P_j that sum to I;
a route only decides how lambda and P are found:

* two-level (n = 2) and rank-one equal coupling (any n): lambda =
  ((n-1) g, -g) and P = (J/n, I - J/n), J the all-ones matrix,
* Cayley-Hamilton / Lagrange (n = 3, 4, non-degenerate spectrum): P_j = l_j(Q)
  = prod_{k != j} (Q - lambda_k I) / (lambda_j - lambda_k), no diagonalization,
* diagonalization by the closed-form 3x3 eigenvectors (each read off the
  adjugate adj(lambda I - Q)) or LAPACK ``eigh`` (any n): P_j = v_j v_j^T.

A scaling-and-squaring reference exponential stays independent of them.
``spectral_plan`` picks a route for one Q and builds lambda and P once; the
plan then evaluates any number of times in one batched call, and keeps its
last joined phase rates and P applied to its last state, so that a call on
the same state at new times repeats only the phase work.  ``propagator``
and the per-route functions are its single-time case, exposed so the routes
can be cross-checked against each other.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DegenerateSpectrumError, InvalidInputError
from .model import _BOOL_TYPES, _MAX_LEVELS, CouplingMatrix, _count, _real
from .roots import DEGENERACY_GAP_RTOL, Spectrum, closed_form_spectrum

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
    """exp(-itQ) as a concrete complex matrix, tagged with its construction."""

    n: int
    matrix: np.ndarray
    t: float
    method: Method

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


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


def _as_times(times) -> np.ndarray:
    # the one check on sample times, made before any phase is computed; a
    # float conversion would take "1.5" and True, so the type is checked
    # first, item by item in a list or tuple: numpy makes [0.0, True] floats
    try:
        t = np.array(times)  # a fresh copy, so the caller's array is never exposed
    except ValueError:  # ragged, as [0.0, [1.0]]
        raise InvalidInputError("times must be a non-empty 1-D array") from None
    if t.dtype.kind not in "iuf" or (
        isinstance(times, (list, tuple)) and not _BOOL_TYPES.isdisjoint(map(type, times))
    ):
        # numpy holds an int outside the 64-bit range, like any non-number, as an object
        cause = "ints outside the 64-bit range" if t.dtype.kind == "O" else "booleans, strings"
        raise InvalidInputError(f"sample times must be ints or floats, not {cause} or other objects")
    if t.ndim != 1 or t.size == 0:
        raise InvalidInputError("times must be a non-empty 1-D array")
    t = t.astype(float, copy=False)
    if np.count_nonzero(np.isfinite(t)) != t.size:
        raise InvalidInputError("sample times must be finite")
    return t


@dataclass(frozen=True)
class SpectralPlan:
    """exp(-itQ) for one coupling matrix, ready to evaluate at many times.

    ``method`` is the route that runs.  Every route but ``reference`` holds
    Sylvester's form exp(-itQ) = sum_j e^{-it lambda_j} P_j: ``eigenvalues``
    lambda, shape (m,), and real symmetric ``projectors`` P, shape (m, n, n),
    that sum to I.  ``q`` holds the entries of Q for the reference exponential.

    A plan also keeps two results of its last call, each with the bytes it
    was computed from, so that a call with the same frame or the same state
    at new times reuses them: the joined phase rates -i (lambda, frame) and
    the projections P_j @ block.  Both are derived from the call's content
    alone, so a hit gives the same bits as a miss.
    """

    method: Method
    n: int
    eigenvalues: np.ndarray | None = None
    projectors: np.ndarray | None = None
    q: np.ndarray | None = None
    # (frame bytes or None, rates) and (block bytes, projections), each one
    # tuple so a reader never pairs one call's key with another's value
    _rates: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _projected: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def _joined_rates(self, frame) -> np.ndarray | None:
        """-i (lambda, frame) as one complex array, None when there is neither.

        The real parts are -0.0, so t * rate, with t cast to complex, has the
        imaginary part -(t * rate) and a zero real part: the phases are those
        of exp(-1j * (t * (lambda, frame))) bit for bit, zero signs included.
        """
        key = None if frame is None else frame.tobytes()
        memo = self._rates
        if memo is not None and memo[0] == key:
            return memo[1]
        real = [a for a in (self.eigenvalues, frame) if a is not None]
        rates = None
        if real:
            rates = -1j * np.concatenate(real)  # imaginary parts exactly -(lambda, frame)
            rates.real = -0.0
            rates.setflags(write=False)
        object.__setattr__(self, "_rates", (key, rates))
        return rates

    def _projections(self, block: np.ndarray) -> np.ndarray:
        """P_j @ block for every j as an (m, n * k) complex array."""
        # on the interleaved real and imaginary parts, so numpy never makes a
        # complex copy of the (m, n, n) projector stack
        parts = np.ascontiguousarray(block, dtype=complex).view(float)
        key = parts.tobytes()
        memo = self._projected
        if memo is not None and memo[0] == key:
            return memo[1]
        projected = (self.projectors @ parts).view(complex).reshape(-1, block.size)
        projected.setflags(write=False)
        object.__setattr__(self, "_projected", (key, projected))
        return projected

    def _apply(self, block: np.ndarray, t: np.ndarray, frame=None) -> np.ndarray:
        """exp(-itQ) @ block at every time, shape (T, n, k); t = 0 gives block exactly.

        With ``frame`` rates a, shape (n,), row i at time t is then multiplied
        by e^{-i a_i t}; those phases and the eigenphases come from one
        exponential.
        """
        n, k = block.shape
        rates = self._joined_rates(frame)
        phases = None if rates is None else np.exp(t[:, None] * rates)
        if self.method is Method.REFERENCE:
            from .oracle import reference_expm  # deferred: oracle imports model types

            out = np.array([reference_expm(-1j * x * self.q) @ block for x in t])
        else:
            m = len(self.eigenvalues)
            out = (phases[:, :m] @ self._projections(block)).reshape(t.size, n, k)
        if np.count_nonzero(t) != t.size:
            out[t == 0.0] = block
        if frame is not None:
            # phases first: complex products round in operand order (FMA)
            np.multiply(phases[:, -n:, None], out, out=out)
        return out

    def propagators(self, times) -> np.ndarray:
        """exp(-itQ) at every time, shape (T, n, n); t = 0 gives the exact identity."""
        return self._apply(np.eye(self.n), _as_times(times))

    def evolve(self, psi0, times) -> np.ndarray:
        """exp(-itQ) psi0 at every time, shape (T, n), without forming the propagators."""
        t = _as_times(times)
        psi = np.asarray(psi0, dtype=complex)
        if psi.shape != (self.n,):
            raise InvalidInputError(f"state must have shape ({self.n},), got {psi.shape}")
        return self._apply(psi[:, None], t)[:, :, 0]

    def _evolve_in_frame(self, psi: np.ndarray, times, frame: np.ndarray) -> np.ndarray:
        """diag(e^{-i frame t}) exp(-itQ) psi at every time, shape (T, n).

        ``trajectory``'s one call: ``psi`` is a complex (n,) array, ``times``
        came from ``_as_times`` and ``frame`` holds the (n,) frame rates.  A
        later call with the same ``frame`` and ``psi`` costs one exponential,
        one (T, m) @ (m, n) product and the frame product.
        """
        return self._apply(psi[:, None], times, frame)[:, :, 0]


def _separated(spectrum: Spectrum) -> bool:
    # every eigenvalue gap above DEGENERACY_GAP_RTOL of the spectral radius
    return spectrum.degeneracy_gap > DEGENERACY_GAP_RTOL * spectrum.spectral_radius


def _lagrange_nodes(spectrum: Spectrum) -> np.ndarray:
    # the eigenvalues as interpolation nodes, whose every gap is a divisor
    if not _separated(spectrum):
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
    return Propagator(plan.n, plan.propagators([t])[0], t, plan.method)


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
    spectrum is rejected, and so is a t that is not a finite int or float.
    """
    _as_times([t])
    lam = _lagrange_nodes(spectrum)
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
    say from another solver).
    """
    if q.n != 3:
        raise InvalidInputError(f"closed-form eigenvectors need n = 3, got n = {q.n}")
    lams = spectrum.eigenvalues.tolist()
    if len(lams) != 3:
        raise InvalidInputError(f"closed-form eigenvectors need 3 eigenvalues, got {len(lams)}")
    a = q.entries
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


@functools.cache
def _upper_triangle(n: int) -> tuple[np.ndarray, np.ndarray]:
    # row-major (i, j) with i < j, built once per n and shared read-only
    rows, cols = np.triu_indices(n, k=1)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def equal_coupling_value(q: CouplingMatrix) -> float | None:
    """The shared coupling g when all off-diagonal entries agree within 1e-12 relative."""
    off = q.entries[_upper_triangle(q.n)].tolist()
    lo, hi = min(off), max(off)
    largest = max(hi, -lo)  # the largest |entry|
    if largest == 0.0:
        return 0.0
    if hi - lo <= _EQUAL_COUPLING_RTOL * largest:
        return float(np.mean(off))
    return None


def spectral_plan(q: CouplingMatrix, method=None) -> SpectralPlan:
    """Pick the route to exp(-itQ) for Q, unless forced, and do its one-off work.

    Automatic dispatch: n = 2 goes to the two-level form; an equal-coupling
    pattern goes to the rank-one form (its spectrum is maximally degenerate,
    so the polynomial route would divide by zero); n = 3, 4 use the
    Lagrange expansion when the eigenvalue gaps are safe and Jacobi otherwise;
    larger n always diagonalizes.  Forcing a method applies it as-is and lets
    its own preconditions raise.
    """
    method = _method(method)
    spectrum = None
    if method is None:
        if q.n == 2:
            method = Method.TWO_LEVEL
        elif equal_coupling_value(q) is not None:
            method = Method.EQUAL_COUPLING
        elif q.n in (3, 4):
            spectrum = closed_form_spectrum(q)
            if _separated(spectrum):
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
        g = equal_coupling_value(q)
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
        others = _others(len(lam))
        factors = (q.entries - lam[:, None, None] * np.eye(q.n))[others]  # (m, m - 1, n, n)
        lams = lam.tolist()
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
