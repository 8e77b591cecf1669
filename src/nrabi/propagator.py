"""Unitary propagators exp(-itQ) for coupling matrices.

Several routes to the same matrix, each valid on its own domain:

* two-level closed form (n = 2),
* Cayley-Hamilton / Lagrange-interpolation polynomial in Q (n = 3, 4,
  non-degenerate spectrum),
* rank-one closed form when all couplings are equal (any n),
* diagonalization, either through the closed-form 3x3 eigenvectors or
  LAPACK ``eigh`` (any n),
* a scaling-and-squaring reference exponential.

``spectral_plan`` picks a route for one Q and does that route's one-off work
(spectrum, eigenvectors or Lagrange basis); the plan then evaluates any
number of times in one batched call.  ``propagator`` and the per-route
functions are the single-time case of a plan, and stay exposed so the routes
can be cross-checked against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateSpectrumError, InvalidInputError
from .model import CouplingMatrix
from .roots import DEGENERACY_GAP_RTOL, Spectrum, closed_form_spectrum

_EQUAL_COUPLING_RTOL = 1e-12
_EIGENVECTOR_RESIDUAL_RTOL = 1e-8
_DIRECTION_RTOL = 1e-10
_FALLBACK_RTOL = 1e-8


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
_EIGEN = (Method.CLOSED_EIGEN3, Method.JACOBI)


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
    # the one check on sample times, made before any phase is computed
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise InvalidInputError("times must be a non-empty 1-D array")
    if not np.isfinite(t).all():
        raise InvalidInputError("sample times must be finite")
    return t


@dataclass(frozen=True)
class SpectralPlan:
    """exp(-itQ) for one coupling matrix, ready to evaluate at many times.

    ``method`` is the route that runs.  The other fields hold that route's
    data: ``coupling`` the shared g (two-level and equal-coupling forms);
    ``spectrum`` the eigenvalues (Lagrange and eigenvector routes);
    ``vectors`` the eigenvector columns (``closed_eigen3``, ``jacobi``);
    ``basis`` the Lagrange basis B with f(t) = e^{-it lambda} @ B; ``q`` the
    entries of Q (Lagrange powers and the reference exponential).
    """

    method: Method
    n: int
    coupling: float | None = None
    spectrum: Spectrum | None = None
    vectors: np.ndarray | None = None
    basis: np.ndarray | None = None
    q: np.ndarray | None = None

    def _phases(self, t: np.ndarray) -> np.ndarray:
        return np.exp(-1j * np.outer(t, self.spectrum.eigenvalues))

    def _powers(self, start: np.ndarray) -> np.ndarray:
        # start, Q start, ..., Q^{n-1} start by repeated multiplication
        out = [start]
        for _ in range(1, self.n):
            out.append(self.q @ out[-1])
        return np.array(out)

    def _apply(self, block: np.ndarray, t: np.ndarray) -> np.ndarray:
        """exp(-itQ) @ block at every time, shape (T, n, k); t = 0 gives block exactly."""
        n, k = block.shape
        method = self.method
        if method is Method.TWO_LEVEL:
            # exp(-itgX) = cos(gt) I - i sin(gt) X with X the swap matrix
            c = np.cos(self.coupling * t)[:, None, None]
            s = -1j * np.sin(self.coupling * t)[:, None, None]
            out = c * block + s * block[::-1]
        elif method is Method.EQUAL_COUPLING:
            # exp(-itgR) = phase I + shared J with J the all-ones matrix
            phase = np.exp(1j * self.coupling * t)[:, None, None]
            shared = phase * (np.exp(-1j * n * self.coupling * t)[:, None, None] - 1.0) / n
            out = phase * block + shared * block.sum(axis=0)
        elif method in _LAGRANGE:
            powers = self._powers(block).reshape(n, n * k)
            out = (self._phases(t) @ self.basis @ powers).reshape(t.size, n, k)
        elif method in _EIGEN:
            # U(t) = V diag(e^{-it lambda}) V^T is symmetric, so column j of
            # U(t) X is the row (e^{-it lambda} * c_j) V^T with c = V^T X; one
            # product then covers every time and column
            v = self.vectors
            rows = self._phases(t)[:, None, :] * (v.T @ block).T
            out = (rows.reshape(-1, n) @ v.T).reshape(t.size, k, n).transpose(0, 2, 1)
        else:
            from .oracle import reference_expm  # deferred: oracle imports model types

            out = np.array([reference_expm(-1j * x * self.q) @ block for x in t])
        out[t == 0.0] = block
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


def _lagrange_basis(spectrum: Spectrum) -> np.ndarray:
    """Row j: ascending monomial coefficients of the Lagrange basis polynomial l_j.

    l_j(lambda) = prod_{k != j} (lambda - lambda_k) / (lambda_j - lambda_k), so
    the interpolation coefficients of e^{-it lambda} are e^{-it lambda} @ B.  The
    denominators contain every eigenvalue gap, so a near-degenerate spectrum
    is rejected.
    """
    if spectrum.degeneracy_gap <= DEGENERACY_GAP_RTOL * spectrum.spectral_radius:
        raise DegenerateSpectrumError(
            f"eigenvalue gap {spectrum.degeneracy_gap:.3e} is below "
            f"{DEGENERACY_GAP_RTOL:.0e} of the spectral radius; "
            "use a diagonalization method"
        )
    lam = [float(x) for x in spectrum.eigenvalues]
    rows = []
    for j, lam_j in enumerate(lam):
        coeffs = [1.0]
        denom = 1.0
        for k, lam_k in enumerate(lam):
            if k == j:
                continue
            # multiply by (lambda - lambda_k)
            coeffs = (
                [-lam_k * coeffs[0]]
                + [coeffs[i - 1] - lam_k * coeffs[i] for i in range(1, len(coeffs))]
                + [coeffs[-1]]
            )
            denom *= lam_j - lam_k
        rows.append([c / denom for c in coeffs])
    return np.array(rows)


def propagator_two_level(g: float, t: float) -> Propagator:
    """Resonant two-level propagator [[cos gt, -i sin gt], [-i sin gt, cos gt]]."""
    plan = SpectralPlan(Method.TWO_LEVEL, 2, coupling=g)
    return Propagator(2, plan.propagators([t])[0], t, Method.TWO_LEVEL)


def propagator_equal_coupling(n: int, g: float, t: float) -> Propagator:
    """Closed form for Q = g*R with R the all-ones off-diagonal matrix.

    R + I is rank one, so exp(-itQ) = e^{igt} (I + (e^{-ingt} - 1)/n * J) with
    J the all-ones matrix.
    """
    if n < 2:
        raise InvalidInputError("equal-coupling propagator needs n >= 2")
    plan = SpectralPlan(Method.EQUAL_COUPLING, n, coupling=g)
    return Propagator(n, plan.propagators([t])[0], t, Method.EQUAL_COUPLING)


def lagrange_coeffs(spectrum: Spectrum, t: float) -> LagrangeCoeffs:
    """Polynomial coefficients interpolating e^{-it lambda} on the spectrum.

    f is the coefficient vector of sum_j e^{-it lambda_j} l_j(lambda) with
    l_j the Lagrange basis polynomials, i.e. the solution of the Vandermonde
    system sum_k f_k lambda_j^k = e^{-it lambda_j}.  A near-degenerate
    spectrum is rejected.
    """
    f = np.exp(-1j * t * spectrum.eigenvalues) @ _lagrange_basis(spectrum)
    return LagrangeCoeffs(f=f, t=t, spectrum=spectrum)


def propagator_lagrange(q: CouplingMatrix, t: float) -> Propagator:
    """exp(-itQ) = f_0 I + f_1 Q + ... + f_{n-1} Q^{n-1} for n = 3, 4.

    The eigenvalues come from the radical solvers; the Q powers are formed by
    repeated symmetric multiplication so this path never diagonalizes.
    """
    if q.n not in (3, 4):
        raise InvalidInputError(
            f"the polynomial expansion is implemented for n = 3, 4, got n = {q.n}"
        )
    return propagator(q, t, Method.LAGRANGE3 if q.n == 3 else Method.LAGRANGE4)


def _unnormalized_eigenvector(
    g1: float, g2: float, g3: float, lam: float
) -> np.ndarray:
    # elimination form of (Q - lam I) x = 0 solved for the third component
    return np.array([lam * g3 + g1 * g2, lam * g2 + g1 * g3, lam * lam - g1 * g1])


def eigenvectors_three_level(q: CouplingMatrix, spectrum: Spectrum) -> EigenDecomposition:
    """Closed-form normalized eigenvectors of a 3x3 coupling matrix.

    Column j has components sqrt((lambda_j^2 - g_{k+1}^2) / D_j) for k = 0..2
    with g_4 = g_1 and D_j = 3 lambda_j^2 - (g1^2 + g2^2 + g3^2).  The square
    roots fix magnitudes only; the sign pattern (first component kept
    non-negative) is chosen by exhaustive search to minimize ||Q x - lambda x||.
    When lambda_j^2 sits within 1e-8 of some g_k^2 the cancellation spoils the
    magnitudes, and the unnormalized elimination form
    (lambda g3 + g1 g2, lambda g2 + g1 g3, lambda^2 - g1^2) is used instead.
    A vanishing D_j means the eigendirection is not isolated: degeneracy error.
    """
    if q.n != 3:
        raise InvalidInputError(f"closed-form eigenvectors need n = 3, got n = {q.n}")
    a = q.entries
    g1, g2, g3 = a[0, 1], a[1, 2], a[0, 2]
    gsq = g1 * g1 + g2 * g2 + g3 * g3
    norm_q = float(np.linalg.norm(a))
    residual_bound = _EIGENVECTOR_RESIDUAL_RTOL * max(norm_q, 1e-30)
    columns = []
    for lam in spectrum.eigenvalues:
        d = 3.0 * lam * lam - gsq
        if abs(d) < _DIRECTION_RTOL * max(norm_q * norm_q, 1e-30):
            raise DegenerateSpectrumError(
                f"normalization denominator {d:.3e} vanishes for eigenvalue "
                f"{lam!r}; use the Jacobi path"
            )
        paired = (g2, g3, g1)
        near_cancel = any(
            abs(lam * lam - g * g) <= _FALLBACK_RTOL * max(1.0, gsq) for g in paired
        )
        column = None
        if not near_cancel:
            mags = np.sqrt(np.maximum([(lam * lam - g * g) / d for g in paired], 0.0))
            best_res = math.inf
            for s1 in (1.0, -1.0):
                for s2 in (1.0, -1.0):
                    x = mags * (1.0, s1, s2)
                    res = float(np.linalg.norm(a @ x - lam * x))
                    if res < best_res:
                        best_res = res
                        column = x
            if best_res > residual_bound:
                column = None  # cancellation worse than predicted; fall back
        if column is None:
            x = _unnormalized_eigenvector(g1, g2, g3, lam)
            nrm = np.linalg.norm(x)
            if nrm <= _DIRECTION_RTOL * max(norm_q * norm_q, 1e-30):
                raise DegenerateSpectrumError(
                    f"eigendirection for {lam!r} is not resolvable in closed form"
                )
            column = x / nrm
            if float(np.linalg.norm(a @ column - lam * column)) > residual_bound:
                raise DegenerateSpectrumError(
                    f"closed-form eigenvector residual exceeds {residual_bound:.1e} "
                    f"for eigenvalue {lam!r}"
                )
        columns.append(column)
    return EigenDecomposition(spectrum, np.column_stack(columns))


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
    """exp(-itQ) = O diag(e^{-it lambda}) O^T from an eigendecomposition."""
    n = decomp.spectrum.n
    plan = SpectralPlan(method, n, spectrum=decomp.spectrum, vectors=decomp.vectors)
    return Propagator(n, plan.propagators([t])[0], t, method)


def equal_coupling_value(q: CouplingMatrix) -> float | None:
    """The shared coupling g when all off-diagonal entries agree within 1e-12 relative."""
    off = q.entries[np.triu_indices(q.n, k=1)]
    largest = float(np.max(np.abs(off)))
    if largest == 0.0:
        return 0.0
    if float(np.max(off) - np.min(off)) <= _EQUAL_COUPLING_RTOL * largest:
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
    if method is not None and not isinstance(method, Method):
        method = Method(method)

    spectrum = None
    if method is None:
        if q.n == 2:
            method = Method.TWO_LEVEL
        elif equal_coupling_value(q) is not None:
            method = Method.EQUAL_COUPLING
        elif q.n in (3, 4):
            # a spectrum the radical solvers cannot certify counts as unsafe
            try:
                spectrum = closed_form_spectrum(q)
                safe = (
                    spectrum.degeneracy_gap
                    > DEGENERACY_GAP_RTOL * spectrum.spectral_radius
                )
            except InvalidInputError:
                safe = False
            if safe:
                method = Method.LAGRANGE3 if q.n == 3 else Method.LAGRANGE4
            else:
                method = Method.JACOBI
        else:
            method = Method.JACOBI

    if method is Method.TWO_LEVEL:
        if q.n != 2:
            raise InvalidInputError(f"two-level method needs n = 2, got n = {q.n}")
        return SpectralPlan(method, 2, coupling=float(q.entries[0, 1]))
    if method is Method.EQUAL_COUPLING:
        g = equal_coupling_value(q)
        if g is None:
            raise InvalidInputError("couplings are not all equal")
        return SpectralPlan(method, q.n, coupling=g)
    if method in _LAGRANGE:
        expected = 3 if method is Method.LAGRANGE3 else 4
        if q.n != expected:
            raise InvalidInputError(f"{method.value} needs n = {expected}, got n = {q.n}")
        if spectrum is None:
            spectrum = closed_form_spectrum(q)
        basis = _lagrange_basis(spectrum)
        return SpectralPlan(method, q.n, spectrum=spectrum, basis=basis, q=q.entries)
    if method is Method.CLOSED_EIGEN3:
        if q.n != 3:
            raise InvalidInputError(f"closed_eigen3 needs n = 3, got n = {q.n}")
        decomp = eigenvectors_three_level(q, closed_form_spectrum(q))
    elif method is Method.JACOBI:
        decomp = jacobi_eigendecompose(q)
    elif method is Method.REFERENCE:
        return SpectralPlan(method, q.n, q=q.entries)
    else:
        raise InvalidInputError(f"unknown propagator method {method!r}")
    return SpectralPlan(method, q.n, spectrum=decomp.spectrum, vectors=decomp.vectors)


def propagator(q: CouplingMatrix, t: float, method=None) -> Propagator:
    """exp(-itQ) at one time through ``spectral_plan`` (same dispatch, same errors)."""
    plan = spectral_plan(q, method)
    return Propagator(q.n, plan.propagators([t])[0], t, plan.method)
