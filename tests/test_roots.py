import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from nrabi import (
    CubicCoeffs,
    DegenerateSpectrumError,
    InvalidInputError,
    QuarticCoeffs,
    char_poly_3,
    char_poly_4,
    closed_form_spectrum,
    eigenvectors_three_level,
    jacobi_eigendecompose,
    solve_cubic_depressed,
    solve_quartic,
    spectral_plan,
)
from nrabi.roots import scale_exponent

from conftest import coupling_matrix, random_coupling_matrix

finite = st.floats(0.0, 5.0, allow_nan=False, allow_infinity=False)


def faddeev_leverrier(a):
    """Monic characteristic polynomial coefficients, descending powers."""
    n = a.shape[0]
    m = np.zeros_like(a)
    coeffs = [1.0]
    for k in range(1, n + 1):
        m = a @ m + coeffs[-1] * np.eye(n)
        coeffs.append(-np.trace(a @ m) / k)
    return np.array(coeffs)


def companion_roots(coeffs_desc):
    return np.sort(np.roots(coeffs_desc).real)[::-1]


class TestCharPoly3:
    @pytest.mark.parametrize(
        "g, expected",
        [
            ((1.0, 1.0, 1.0), (3.0, 2.0)),
            ((1.0, 2.0, 3.0), (14.0, 12.0)),
            ((1.0, 2.0, 0.0), (5.0, 0.0)),
        ],
    )
    def test_printed_coefficients(self, g, expected):
        # build_q layout: off-diagonal order (0,1), (0,2), (1,2) = (g1, g3, g2)
        g1, g2, g3 = g
        q = coupling_matrix([g1, g3, g2], 3)
        coeffs = char_poly_3(q)
        assert (coeffs.c1, coeffs.c0) == pytest.approx(expected)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            char_poly_3(coupling_matrix([1.0], 2))

    @given(finite, finite, finite)
    def test_matches_faddeev_leverrier(self, g1, g2, g3):
        q = coupling_matrix([g1, g3, g2], 3)
        coeffs = char_poly_3(q)
        ref = faddeev_leverrier(q.entries)  # [1, 0, -c1, -c0]
        assert coeffs.c1 == pytest.approx(-ref[2], abs=1e-10, rel=1e-10)
        assert coeffs.c0 == pytest.approx(-ref[3], abs=1e-10, rel=1e-10)


class TestCharPoly4:
    def test_all_ones(self):
        q = coupling_matrix([1.0] * 6, 4)
        coeffs = char_poly_4(q)
        assert (coeffs.p, coeffs.q, coeffs.r) == (-6.0, -8.0, -3.0)

    def test_single_coupling(self):
        q = coupling_matrix([1.3, 0, 0, 0, 0, 0], 4)
        coeffs = char_poly_4(q)
        assert coeffs.p == pytest.approx(-1.3 ** 2)
        assert coeffs.q == 0.0 and coeffs.r == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            char_poly_4(coupling_matrix([1.0, 1.0, 1.0], 3))

    @given(st.lists(finite, min_size=6, max_size=6))
    def test_matches_faddeev_leverrier(self, gs):
        q = coupling_matrix(gs, 4)
        coeffs = char_poly_4(q)
        ref = faddeev_leverrier(q.entries)  # [1, 0, p, q, r]
        scale = max(1.0, np.max(np.abs(ref)))
        assert abs(coeffs.p - ref[2]) <= 1e-9 * scale
        assert abs(coeffs.q - ref[3]) <= 1e-9 * scale
        assert abs(coeffs.r - ref[4]) <= 1e-9 * scale


class TestCubicSolver:
    def test_factored_fixture(self):
        spectrum = solve_cubic_depressed(CubicCoeffs(3.0, 2.0))
        assert np.allclose(spectrum.eigenvalues, [2.0, -1.0, -1.0], atol=1e-12)
        assert spectrum.degeneracy_gap == pytest.approx(0.0, abs=1e-12)

    def test_vanishing_constant_term(self):
        g1, g2 = 1.1, 0.6
        lam = math.hypot(g1, g2)
        spectrum = solve_cubic_depressed(CubicCoeffs(g1 * g1 + g2 * g2, 0.0))
        assert np.allclose(spectrum.eigenvalues, [lam, 0.0, -lam], atol=1e-12)

    def test_frozen_companion_values(self):
        # np.roots([1, 0, -14, -12]) for lambda^3 - 14 lambda - 12
        expected = [4.113090584324947, -0.9111788076462433, -3.201911776678706]
        spectrum = solve_cubic_depressed(CubicCoeffs(14.0, 12.0))
        assert np.allclose(spectrum.eigenvalues, expected, atol=1e-9)
        assert np.sum(spectrum.eigenvalues) == pytest.approx(0.0, abs=1e-9)
        assert np.prod(spectrum.eigenvalues) == pytest.approx(12.0, rel=1e-9)

    def test_all_zero(self):
        spectrum = solve_cubic_depressed(CubicCoeffs(0.0, 0.0))
        assert np.array_equal(spectrum.eigenvalues, np.zeros(3))

    def test_complex_roots_rejected(self):
        # lambda^3 + 3 lambda - 2 has a single real root
        with pytest.raises(InvalidInputError):
            solve_cubic_depressed(CubicCoeffs(-3.0, 2.0))

    @pytest.mark.parametrize("s", [1.0, 1e-6, 1e-40])
    def test_complex_roots_rejected_at_any_scale(self, s):
        # lambda^3 - lambda - 1000 has one real root; scaled by s, the residual
        # bound was absolute below radius 1, and s = 1e-6 passed with wrong roots
        with pytest.raises(InvalidInputError, match="residual bound"):
            solve_cubic_depressed(CubicCoeffs(s * s, 1000.0 * s ** 3))

    @given(finite, finite, finite)
    def test_matches_companion_oracle(self, g1, g2, g3):
        coeffs = CubicCoeffs(
            g1 * g1 + g2 * g2 + g3 * g3, 2.0 * g1 * g2 * g3
        )
        spectrum = solve_cubic_depressed(coeffs)
        # near a multiple root the companion oracle itself is only sqrt(eps)
        # accurate; exact degenerate cases are pinned in their own fixtures
        assume(spectrum.degeneracy_gap > 1e-4 * max(1.0, spectrum.spectral_radius))
        oracle = companion_roots([1.0, 0.0, -coeffs.c1, -coeffs.c0])
        assert np.max(np.abs(spectrum.eigenvalues - oracle)) <= 1e-9


class TestQuarticSolver:
    def test_triple_root_fixture(self):
        spectrum = solve_quartic(QuarticCoeffs(-6.0, -8.0, -3.0))
        assert np.allclose(spectrum.eigenvalues, [3.0, -1.0, -1.0, -1.0], atol=1e-9)

    def test_biquadratic_fixture(self):
        spectrum = solve_quartic(QuarticCoeffs(-2.0, 0.0, 1.0))
        assert np.allclose(spectrum.eigenvalues, [1.0, 1.0, -1.0, -1.0], atol=1e-12)

    def test_single_coupling_biquadratic(self):
        spectrum = solve_quartic(QuarticCoeffs(-4.0, 0.0, 0.0))
        assert np.allclose(spectrum.eigenvalues, [2.0, 0.0, 0.0, -2.0], atol=1e-12)

    @pytest.mark.parametrize("g", [0.3, 1.0182816163978958])
    def test_equal_couplings_triple_root(self, g):
        q = coupling_matrix([g] * 6, 4)
        oracle = np.linalg.eigh(q.entries)[0][::-1]
        assert np.max(np.abs(closed_form_spectrum(q).eigenvalues - oracle)) <= 1e-12

    def test_random_matrix_coefficients_match_jacobi(self, rng):
        for _ in range(200):
            q = random_coupling_matrix(rng, 4)
            spectrum = solve_quartic(char_poly_4(q))
            oracle = jacobi_eigendecompose(q).spectrum.eigenvalues
            scale = max(1.0, np.max(np.abs(oracle)))
            assert np.max(np.abs(spectrum.eigenvalues - oracle)) <= 1e-9 * scale

    @given(st.lists(finite, min_size=6, max_size=6))
    def test_matches_companion_oracle(self, gs):
        coeffs = char_poly_4(coupling_matrix(gs, 4))
        spectrum = solve_quartic(coeffs)
        assume(spectrum.degeneracy_gap > 1e-4 * max(1.0, spectrum.spectral_radius))
        oracle = companion_roots([1.0, 0.0, coeffs.p, coeffs.q, coeffs.r])
        assert np.max(np.abs(spectrum.eigenvalues - oracle)) <= 1e-9


    @pytest.mark.parametrize("k", [-240, -230, -200, -160, 160, 200, 240])
    def test_scales_bit_for_bit_with_its_coefficients(self, k, rng):
        # (4^k p, 8^k q, 16^k r) has the roots 2^k lambda: outside its band the
        # solver scales them back by a power of two, so the bits follow; at
        # k = -230 (couplings near 1e-69) the resolvent's degree-6 terms
        # underflowed and valid coefficients were refused
        for _ in range(50):
            c = char_poly_4(random_coupling_matrix(rng, 4))
            scaled = QuarticCoeffs(math.ldexp(c.p, 2 * k), math.ldexp(c.q, 3 * k), math.ldexp(c.r, 4 * k))
            spectrum, expected = solve_quartic(scaled), solve_quartic(c)
            assert np.array_equal(spectrum.eigenvalues, np.ldexp(expected.eigenvalues, k))
            assert spectrum.degeneracy_gap == math.ldexp(expected.degeneracy_gap, k)

    def test_single_tiny_coupling(self):
        # drawn by test_matches_companion_oracle and refused by the residual bound
        g = 1.75034844649128e-69
        spectrum = solve_quartic(char_poly_4(coupling_matrix([0.0] * 5 + [g], 4)))
        assert spectrum.eigenvalues.tolist() == pytest.approx([g, 0.0, 0.0, -g], rel=1e-12, abs=1e-80)


class TestPowerSums:
    """Roots are checked against the coefficients' power sums s_1..s_4 too."""

    @pytest.mark.parametrize("coeffs", [(0.0, 1.0, 0.0), (1.0, 1.0, 0.0), (0.0, -1.0, -1e-12)])
    def test_collapsed_split_is_refused(self, coeffs):
        # each has a complex root pair, and each came back as four zeros
        with pytest.raises(InvalidInputError, match="power sum"):
            solve_quartic(QuarticCoeffs(*coeffs))

    def test_collapsed_split_beyond_the_root_bound_is_refused(self):
        # roots 0, -2.37e72 and a complex pair: the scaled split left roots
        # +-6.9e78 at a root scale of 0.67, radius ** 4 overflowed, and the
        # refusal read "the roots ... overflow the float range"
        coeffs = QuarticCoeffs(p=-1.8362613096147856e-172, q=1.3322068759529163e217, r=2.209706741819728e-281)
        with pytest.raises(InvalidInputError, match=r"\(Fujiwara's bound\); coefficients are not from a real"):
            solve_quartic(coeffs)

    def test_every_complex_root_draw_is_refused(self):
        rng = np.random.default_rng(7)
        complex_draws = 0
        for _ in range(3000):
            c = rng.normal(size=3)
            c[rng.random(3) < 0.3] = 0.0
            p, q, r = c.tolist()
            if np.abs(np.roots([1.0, 0.0, p, q, r]).imag).max() <= 1e-9:
                continue
            complex_draws += 1
            with pytest.raises(InvalidInputError):
                solve_quartic(QuarticCoeffs(p, q, r))
        assert complex_draws > 2000

    @pytest.mark.parametrize("n", [3, 4])
    def test_no_refusal_on_valid_matrices(self, n):
        # random, sparse, near-equal (relative spread 1e-1 down to 1e-10) and
        # scaled by 2^-200 or 2^200
        rng = np.random.default_rng(11 + n)
        k = n * (n - 1) // 2
        for draw in range(1000):
            kind = draw % 4
            g = rng.uniform(0.0, 2.0, k)
            if kind == 1:
                g *= rng.random(k) < 0.5
            elif kind == 2:
                g = rng.uniform(0.5, 2.0) * (1.0 + 10.0 ** rng.uniform(-10.0, -1.0) * rng.uniform(-1.0, 1.0, k))
            elif kind == 3:
                g = np.ldexp(g, int(rng.choice([-200, 200])))
            closed_form_spectrum(coupling_matrix(g, n))


class TestSpectrumInvariants:
    @pytest.mark.parametrize("n", [3, 4])
    def test_trace_identities_and_gershgorin(self, n, rng):
        for _ in range(200):
            q = random_coupling_matrix(rng, n)
            spectrum = closed_form_spectrum(q)
            lam = spectrum.eigenvalues
            radius = spectrum.spectral_radius
            assert abs(np.sum(lam)) <= 1e-9 * max(radius, 1e-30)
            sum_sq = 2.0 * np.sum(np.triu(q.entries, 1) ** 2)
            assert np.sum(lam ** 2) == pytest.approx(sum_sq, rel=1e-8)
            if n == 3:
                det = np.linalg.det(q.entries)
                a = q.entries
                assert np.prod(lam) == pytest.approx(
                    2.0 * a[0, 1] * a[1, 2] * a[0, 2], abs=1e-8 * max(1.0, abs(det))
                )
            gershgorin = np.max(np.sum(np.abs(q.entries), axis=1))
            assert radius <= gershgorin + 1e-12

    @pytest.mark.parametrize("n", [3, 4])
    def test_polynomial_residuals(self, n, rng):
        for _ in range(100):
            q = random_coupling_matrix(rng, n)
            spectrum = closed_form_spectrum(q)
            poly = faddeev_leverrier(q.entries)
            for lam in spectrum.eigenvalues:
                residual = abs(np.polyval(poly, lam))
                assert residual <= 1e-9 * max(1.0, abs(lam) ** n)

    def test_sorted_descending_with_gap(self, rng):
        q = random_coupling_matrix(rng, 4)
        spectrum = closed_form_spectrum(q)
        lam = spectrum.eigenvalues
        assert np.all(np.diff(lam) <= 0.0)
        assert spectrum.degeneracy_gap == pytest.approx(np.min(np.abs(np.diff(lam))))

    @given(
        st.sampled_from([3, 4]),
        st.floats(0.2, 3.0),
        st.one_of(st.just(0.0), st.floats(-12.0, -1.0).map(lambda e: 10.0 ** e)),
        st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6),
    )
    def test_near_equal_couplings_match_eigh(self, n, s, delta, u):
        q = coupling_matrix([s * (1.0 + delta * x) for x in u[: n * (n - 1) // 2]], n)
        lam = closed_form_spectrum(q).eigenvalues
        oracle = np.linalg.eigh(q.entries)[0][::-1]
        radius = np.max(np.abs(oracle))
        # a merged pair spans at most 1e-4 * radius, so its one value is within
        # half that of each root; a merged triple (n = 4) spans two such gaps
        # and its mean can sit one full gap from its end roots
        bound = 1e-12 if delta == 0.0 else (5e-5 if n == 3 else 1e-4) * radius + 1e-12
        assert np.max(np.abs(lam - oracle)) <= bound

    def test_small_root_beside_large_couplings(self):
        # one eigenvalue near -464 beside couplings up to 1.2e6: the residual
        # is judged against the spectral radius, not against the small root
        q = coupling_matrix([337840.99662167154, 1220843.4019179184, 902.070320768722], 3)
        lam = closed_form_spectrum(q).eigenvalues
        oracle = np.linalg.eigh(q.entries)[0][::-1]
        assert np.max(np.abs(lam - oracle)) <= 1e-12 * np.max(np.abs(oracle))

    @given(
        st.sampled_from([3, 4]),
        st.lists(st.floats(-3.0, 6.5), min_size=6, max_size=6),
        st.lists(st.sampled_from([-1.0, 1.0]), min_size=6, max_size=6),
    )
    def test_mixed_scale_couplings_match_eigh(self, n, exponents, signs):
        k = n * (n - 1) // 2
        q = coupling_matrix([s * 10.0 ** e for s, e in zip(signs[:k], exponents[:k])], n)
        lam = closed_form_spectrum(q).eigenvalues
        oracle = np.linalg.eigh(q.entries)[0][::-1]
        # merged clusters are the only loss, as in the near-equal property
        assert np.max(np.abs(lam - oracle)) <= 1e-4 * np.max(np.abs(oracle))

    def test_closed_form_spectrum_rejects_other_sizes(self, rng):
        with pytest.raises(InvalidInputError):
            closed_form_spectrum(random_coupling_matrix(rng, 5))


class TestPowerOfTwoScaling:
    """Outside max|Q| in [2^-150, 2^150], Q is solved as 2^-e Q: exact in both directions."""

    @given(
        st.sampled_from([3, 4]),
        st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 0.99), st.floats(-0.99, -1e-6)), min_size=6, max_size=6),
        st.one_of(st.integers(-1000, -151), st.integers(151, 1000)),
    )
    def test_spectrum_plan_and_vectors_scale_bit_for_bit(self, n, g, k):
        # max|Q| in [1/2, 1): 2^k Q is solved as Q itself, and the Lagrange
        # projectors and closed-form eigenvectors are built from (Q, lambda)
        # again; every 2^k g stays normal
        g = [0.75] + g[1 : n * (n - 1) // 2]
        q = coupling_matrix(g, n)
        scaled = coupling_matrix([math.ldexp(x, k) for x in g], n)
        assert scale_exponent(q) == 0 and scale_exponent(scaled) == k
        spectrum, spectrum_k = closed_form_spectrum(q), closed_form_spectrum(scaled)
        assert spectrum_k.eigenvalues.tobytes() == np.ldexp(spectrum.eigenvalues, k).tobytes()
        assert spectrum_k.degeneracy_gap == math.ldexp(spectrum.degeneracy_gap, k)
        # an eigenvalue that 2^k makes subnormal loses bits on its way back
        assume(np.ldexp(spectrum_k.eigenvalues, -k).tobytes() == spectrum.eigenvalues.tobytes())

        def outcome(build):
            try:
                return build().tobytes()
            except DegenerateSpectrumError:
                return "degenerate"

        method = "lagrange3" if n == 3 else "lagrange4"
        assert outcome(lambda: spectral_plan(scaled, method).projectors) == outcome(
            lambda: spectral_plan(q, method).projectors
        )
        if n == 3:
            assert outcome(lambda: eigenvectors_three_level(scaled, spectrum_k).vectors) == outcome(
                lambda: eigenvectors_three_level(q, spectrum).vectors
            )

    def test_in_band_spectra_are_not_scaled(self):
        for top in (2.0 ** -150, 1.0, 2.0 ** 150):
            assert scale_exponent(coupling_matrix([top, 0.5 * top, 0.25 * top], 3)) == 0
        assert scale_exponent(coupling_matrix([2.0 ** 151, 1.0, 1.0], 3)) == 152

    def test_eigenvalues_past_the_float_range_are_refused(self):
        # every coupling is finite, the largest eigenvalue (about 3.2e308) is not
        with pytest.raises(InvalidInputError, match="overflow the float range"):
            closed_form_spectrum(coupling_matrix([1.7e308, 1.6e308, 1.5e308], 3))


class TestMergedClusters:
    """A merged cluster is the mean of its polished roots: a pair lies within
    half its gap, 5e-5 of the spectral radius, of each eigenvalue."""

    def test_pair_beside_an_unmerged_root(self):
        # a near-equal n = 4 quartic: roots -1.51006, -1.51053, -1.51097 with
        # relative gaps 1.04e-4 and 9.7e-5, so only the last two merge; Newton
        # on the derivative, pulled by the unmerged root, put the pair 5.6e-5
        # of the radius from -1.51053
        coeffs = QuarticCoeffs(-13.690016151698968, -27.57204841651393, -15.618043291630071)
        spectrum = solve_quartic(coeffs)
        oracle = companion_roots([1.0, 0.0, coeffs.p, coeffs.q, coeffs.r])
        lam = spectrum.eigenvalues
        assert spectrum.degeneracy_gap == 0.0 and lam[2] == lam[3] != lam[1]
        radius = np.max(np.abs(oracle))
        assert np.max(np.abs(lam[2:] - oracle[2:])) <= 5e-5 * radius
        assert np.max(np.abs(lam[:2] - oracle[:2])) <= 1e-9 * radius

    def test_exact_double_root_stays_in_its_cluster(self):
        # levels 1, 2, 3 coupled equally, level 0 alone: eigenvalues 2g, 0,
        # -g, -g.  Ferrari returns -g exactly, where the derivative is
        # rounding noise; a free Newton step jumped to the root 0, and the
        # spectrum was refused by the power sums
        g = 4.796835543276725
        q = coupling_matrix([0.0, 0.0, 0.0, g, g, g], 4)
        for spectrum in (closed_form_spectrum(q), solve_quartic(char_poly_4(q))):
            oracle = np.linalg.eigh(q.entries)[0][::-1]
            assert spectrum.degeneracy_gap == 0.0
            assert np.max(np.abs(spectrum.eigenvalues - oracle)) <= 1e-12 * 2.0 * g

    def test_seeded_near_equal_clusters_hold_the_bound(self):
        # 10 000 valid Q: couplings g0 (1 + delta u), u uniform in [-1, 1],
        # n = 3 and 4, giving 3688 merged pairs and 2723 merged triples; eigh
        # is the oracle
        rng = np.random.default_rng(3)
        merged = {2: 0, 3: 0}
        for n in (3, 4):
            k = n * (n - 1) // 2
            g = rng.uniform(0.5, 2.0, (5000, 1)) * (
                1.0 + np.repeat([1e-3, 3e-4, 1e-4, 3e-5], 1250)[:, None] * rng.uniform(-1.0, 1.0, (5000, k))
            )
            matrices = [coupling_matrix(row, n) for row in g]
            oracles = np.linalg.eigvalsh(np.array([q.entries for q in matrices]))[:, ::-1]
            for q, oracle in zip(matrices, oracles):
                lam = closed_form_spectrum(q).eigenvalues
                radius = np.max(np.abs(oracle))
                start = 0
                for j in range(1, n + 1):
                    if j == n or lam[j] != lam[j - 1]:
                        size = j - start
                        if size > 1:
                            # a pair within half its gap of each root, a triple
                            # within its two gaps, each at most 1e-4 of the
                            # radius; 1e-11 covers the polished roots' own error
                            bound = (5e-5 if size == 2 else 1e-4) + 1e-11
                            assert np.max(np.abs(lam[start:j] - oracle[start:j])) <= bound * radius
                            merged[size] += 1
                        start = j
        assert merged[2] > 3000 and merged[3] > 2000
