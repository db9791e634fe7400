import dataclasses
import math

import numpy as np
import pytest

from mfbsde.problem import (
    H1,
    H1PRIME,
    AffineCoeffs,
    LipschitzProfile,
    MfProblem,
    MonotonicityProfile,
    PiecewiseConstant,
    map_path,
    matmul,
    shaped_path,
    check_H1,
    contraction_constants,
    problem_from_config,
    smallness_bound,
)


def gaussian_mean(rng, n, d):
    """The mean of a Gaussian cloud of n points in R^d: what a table reads of a law."""
    return rng.standard_normal((n, d)).mean(axis=0)


def affine_problem_from_blocks(s11, s12, s21, s22, sigma_const=0.4):
    """Problem with f = -(S21 x + S22 y), h = -(S11 x + S12 y), constant
    sigma, so that A(t,u,u',nu) = -(dx, dy)' S (dx, dy)."""
    s11, s12, s21, s22 = (-np.atleast_2d(np.asarray(s, dtype=float)) for s in (s11, s12, s21, s22))
    m = len(s11)
    return MfProblem(np.zeros(m), 1.0, f=AffineCoeffs(m, "f", x=s21, y=s22), h=AffineCoeffs(m, "h", x=s11, y=s12),
                     sigma=AffineCoeffs(m, "sigma", const=sigma_const), g=AffineCoeffs(m, "g", x=1.0))


def block_matrix(seed):
    """sym(randn(4x4)) + 3I from ``default_rng(seed)``: a 2-D block form
    whose smallest eigenvalue is the exact k of its block problem."""
    raw = np.random.default_rng(seed).standard_normal((4, 4))
    return (raw + raw.T) / 2 + 3.0 * np.eye(4)


class TestCheckH1:
    def test_lq_reduced_estimates_k(self):
        from mfbsde.lqgame import GameSpec, build_aggregated

        gs = GameSpec(n=1, horizon=1.0, x0=[0.0], A=np.zeros((1, 1)),
                      C=[[[1.0]]], N=[[[1.0]]], Q=[[[1.0]]], M=[[[0.5]]])
        rep = check_H1(build_aggregated(gs))
        assert rep.passed
        assert rep.computed["k"] == pytest.approx(0.5, abs=1e-12)

    def test_identity_terminal_estimates_k_prime(self, martingale_problem):
        rep = check_H1(martingale_problem)
        assert rep.computed["k_prime"] == pytest.approx(1.0, abs=1e-12)

    def test_counterexample_terminal_monotonicity_fails(self):
        from mfbsde.lqgame import build_aggregated, example3_game

        agg = build_aggregated(example3_game(1.0))
        rep = check_H1(agg)
        assert not rep.terminal_ok
        assert rep.computed["k_prime"] == pytest.approx(-1.0, abs=1e-12)  # eigenvalues {-1, 3}
        assert not rep.passed

    def test_probe_estimates_match_eigen_bounds(self):
        # spectral oracle: smallest eigenvalue of the symmetrized block form
        rng = np.random.default_rng(3)
        raw = rng.standard_normal((2, 2))
        s = (raw + raw.T) / 2 + 1.5 * np.eye(2)
        p = affine_problem_from_blocks(s[:1, :1], s[:1, 1:], s[1:, :1], s[1:, 1:])
        p = dataclasses.replace(p, monotonicity=MonotonicityProfile(k=1e-6, k_prime=1e-6, variant=H1PRIME))
        rep = check_H1(p)
        lam_min = float(np.linalg.eigvalsh(s)[0])
        assert rep.computed["k"] == pytest.approx(lam_min, abs=1e-12)

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_block_problem_k_is_the_smallest_eigenvalue(self, seed):
        s = block_matrix(seed)
        p = affine_problem_from_blocks(s[:2, :2], s[:2, 2:], s[2:, :2], s[2:, 2:])
        rep = check_H1(p)
        assert rep.computed["k"] == pytest.approx(float(np.linalg.eigvalsh(s)[0]), abs=1e-12)

    def test_declared_k_above_the_exact_k_fails(self):
        # a random probe's minimum overestimates k (1.6206 against 1.6071) and passed this declaration
        s = block_matrix(4)
        p = affine_problem_from_blocks(s[:2, :2], s[:2, 2:], s[2:, :2], s[2:, 2:])
        p = dataclasses.replace(p, monotonicity=MonotonicityProfile(k=1.615, k_prime=1.0, variant=H1PRIME))
        rep = check_H1(p)
        assert rep.computed["k"] == pytest.approx(1.6070996, abs=1e-7)
        assert not rep.operator_ok and rep.terminal_ok and not rep.passed
        assert rep.to_dict()["margins"]["k"] == pytest.approx(rep.computed["k"] - 1.615, abs=1e-15)

    @pytest.mark.parametrize(
        "a, c, k",
        [(1.0, 1.0, 0.75), (0.0, 0.0, 1.0), (1.0, 0.0, -math.inf), (0.0, -1.0, -math.inf)],
        ids=["absorbed", "no_z", "unabsorbed_cross", "positive_z_block"],
    )
    def test_relaxed_k_is_the_sup_over_z(self, a, c, k):
        # A = -dx^2 - dy^2 + a dx dz - c dz^2: sup over dz is -(1 - a^2 / 4c) dx^2 - dy^2 for c > 0
        p = problem_from_config({"dim": 1, "horizon": 1.0, "x0": [0.0], "f": {"y": -1.0},
                                 "h": {"x": -1.0, "z": a}, "sigma": {"z": -c, "const": 0.2}, "g": {"x": 1.0}})
        assert check_H1(p).computed["k"] == pytest.approx(k, abs=1e-12)

    def test_strong_variant_counts_dz(self):
        # the same A under H1 bounds the whole form: k = -lambda_max([[-1, 1/2], [1/2, -1]]) = 1/2
        p = problem_from_config({"dim": 1, "horizon": 1.0, "x0": [0.0], "f": {"y": -1.0},
                                 "h": {"x": -1.0, "z": 1.0}, "sigma": {"z": -1.0},
                                 "g": {"x": 1.0}, "monotonicity": {"k": 0.5, "k_prime": 1.0, "variant": "H1"}})
        rep = check_H1(p)
        assert rep.computed["k"] == pytest.approx(0.5, abs=1e-12) and rep.passed

    def test_piecewise_coefficient_read_at_every_node(self):
        # h.x = -0.2 on [0.5, 0.6): the worst node gives k = 0.2
        pieces = [{"t_from": 0.0, "value": -1.0}, {"t_from": 0.5, "value": -0.2}, {"t_from": 0.6, "value": -1.0}]
        p = problem_from_config({"dim": 1, "horizon": 1.0, "x0": [0.0], "f": {"y": -1.0},
                                 "h": {"x": {"piecewise": pieces}}, "sigma": {"const": 0.2}, "g": {"x": 1.0}})
        assert check_H1(p).computed["k"] == pytest.approx(0.2, abs=1e-12)

    @pytest.mark.parametrize("h_x, pieces, k", [
        (-1.0, [0.0], 1.0),
        ({"piecewise": [{"t_from": 0.0, "value": -1.0}, {"t_from": 0.5, "value": -0.2}]}, [0.0, 0.5], 0.2),
    ], ids=["constant", "two_pieces"])
    def test_table_problem_is_read_once_per_piece(self, monkeypatch, h_x, pieces, k):
        # a table is constant between its breakpoints, so it is read once per piece
        p = problem_from_config({"dim": 1, "horizon": 1.0, "x0": [0.0], "f": {"y": -1.0},
                                 "h": {"x": h_x}, "sigma": {"const": 0.2}, "g": {"x": 1.0}})
        times, at = [], AffineCoeffs.at

        def counted_at(table, t):
            if table is p.f:
                times.append(t)
            return at(table, t)

        monkeypatch.setattr(AffineCoeffs, "at", counted_at)
        rep = check_H1(p)
        assert sorted(set(times)) == pieces
        assert rep.computed["k"] == pytest.approx(k, abs=1e-12)

    @pytest.mark.parametrize("name, callback", [
        ("f", lambda t, x, y, z, nu: -y**3),
        ("f", lambda t, x, y, z, nu: -y * (1.0 + nu.mean()[0])),
        ("g", lambda x, mu: x**3),
        ("f", lambda t, x, y, z, nu: -y + nu.points.var()),
        ("g", lambda x, mu: x + mu.points.var()),
    ], ids=["cubic_drift", "measure_dependent_slope", "cubic_terminal", "variance_drift", "variance_terminal"])
    def test_non_affine_coefficient_is_rejected(self, name, callback):
        # a coefficient is a table, so a callable one is rejected on construction, naming it
        tables = {key: AffineCoeffs(1, key, **terms) for key, terms in
                  (("f", {"y": -1.0}), ("h", {"x": -1.0}), ("sigma", {}), ("g", {"x": 1.0}))}
        with pytest.raises(ValueError, match=f"^{name} must be an AffineCoeffs table, got function$"):
            MfProblem([0.0], 1.0, **{**tables, name: callback})

    def test_drift_linear_in_y_alone_gives_k_zero(self):
        # f = -y, h = 0 and a constant sigma: A = -|dy|^2, whose form [[0, 0], [0, -1]] leaves k = 0
        p = problem_from_config({"dim": 1, "horizon": 1.0, "x0": [0.0], "f": {"y": -1.0},
                                 "sigma": {"const": 0.7}, "g": {"x": 1.0}})
        rep = check_H1(p)
        assert rep.computed["k"] == 0.0 and not rep.operator_ok

    def test_random_block_problem_k_is_the_smallest_eigenvalue_of_the_symmetric_part(self):
        # A = -w'Sw for a non-symmetric S: only sym(S) enters k
        rng = np.random.default_rng(2)
        for _ in range(10):
            m = int(rng.integers(1, 3))
            s = rng.standard_normal((2 * m, 2 * m))
            p = affine_problem_from_blocks(s[:m, :m], s[:m, m:], s[m:, :m], s[m:, m:])
            want = float(np.linalg.eigvalsh((s + s.T) / 2)[0])
            assert check_H1(p).computed["k"] == pytest.approx(want, abs=1e-12)

    def test_report_serializes(self, toy_problem):
        d = check_H1(toy_problem).to_dict()
        assert d["pass"] is True
        assert d["computed"] == pytest.approx({"k": 1.0, "k_prime": 1.0, "C_nu": 0.1, "C_g_nu": 0.1}, abs=1e-12)
        assert set(d["declared"]) == set(d["margins"]) == set(d["computed"])
        assert set(d) == {"variant", "computed", "declared", "margins", "bound",
                          "operator_ok", "terminal_ok", "smallness_ok", "pass"}

    def test_mean_constants_match_the_aggregated_game(self):
        # the aggregated game's C_nu = ||[[D, 0], [sum K_i Gamma_i, D']]|| and C_g_nu = ||sum K_i R_i|| (K = I)
        from mfbsde.lqgame import GameSpec, build_aggregated

        d = np.array([[0.3, 0.1], [-0.2, 0.1]])
        gamma = np.array([[0.4, 0.1], [0.1, 0.2]])
        r = np.array([[0.2, 0.05], [0.05, 0.1]])
        gs = GameSpec(n=2, horizon=1.0, x0=[0.0, 0.0], A=np.zeros((2, 2)), D=d,
                      C=[np.eye(2)], N=[np.eye(2)], Q=[np.eye(2)], M=[np.eye(2)], Gamma=[gamma], R=[r])
        rep = check_H1(build_aggregated(gs))
        block = np.block([[d, np.zeros((2, 2))], [gamma, d.T]])
        assert rep.computed["C_nu"] == pytest.approx(np.linalg.norm(block, 2), abs=1e-12)
        assert rep.computed["C_g_nu"] == pytest.approx(np.linalg.norm(r, 2), abs=1e-12)
        assert rep.declared == {} and rep.margins == {}


def mean_coupled(c_nu, c_g_nu, variant):
    """1-D problem with k = k' = 1 under both variants (sigma.z = -1 adds -dz^2 to A) and mean couplings
    f.mean_x = c_nu, g.mean_x = c_g_nu, declaring the exact k and k'."""
    return problem_from_config({"dim": 1, "horizon": 1.0, "x0": [0.0], "f": {"y": -1.0, "mean_x": c_nu},
                                "h": {"x": -1.0}, "sigma": {"z": -1.0, "const": 0.2},
                                "g": {"x": 1.0, "mean_x": c_g_nu},
                                "monotonicity": {"k": 1.0, "k_prime": 1.0, "variant": variant}})


class TestCheckSmallness:
    def test_zero_coupling_passes(self):
        rep = check_H1(mean_coupled(0.0, 0.0, H1))
        assert rep.computed["C_nu"] == 0.0 and rep.computed["C_g_nu"] == 0.0
        assert rep.smallness_ok and rep.passed

    def test_relaxed_variant_bound(self):
        rep = check_H1(mean_coupled(0.1, 0.1, H1PRIME))
        assert rep.bound == smallness_bound(1.0, 1.0, H1PRIME)
        assert rep.bound == pytest.approx(min(2 * (math.sqrt(2) - 1), math.sqrt(2) / 2))
        assert rep.bound == pytest.approx(0.70710678, abs=1e-7)
        assert rep.passed and rep.variant == H1PRIME

    def test_strong_variant_fail(self):
        rep = check_H1(mean_coupled(0.6, 0.0, H1))
        assert rep.bound == pytest.approx(min(math.sqrt(3) - 1, math.sqrt(3) / 3))
        assert rep.bound == pytest.approx(0.57735027, abs=1e-7)
        assert rep.computed["C_nu"] == pytest.approx(0.6, abs=1e-12)
        assert rep.operator_ok and rep.terminal_ok
        assert not rep.smallness_ok and not rep.passed and rep.variant == H1

    def test_report_json_shape(self):
        d = check_H1(mean_coupled(0.1, 0.1, H1PRIME)).to_dict()
        assert set(d["computed"]) == {"k", "k_prime", "C_nu", "C_g_nu"}
        # only the declared constants get a margin
        assert set(d["declared"]) == set(d["margins"]) == {"k", "k_prime"}


def constants(k, k_prime, c_nu, c_g_nu):
    return {"k": k, "k_prime": k_prime, "C_nu": c_nu, "C_g_nu": c_g_nu}


class TestContractionConstants:
    def test_relaxed_variant_reference_values(self):
        lam, theta = contraction_constants(
            constants(1.0, 1.0, 0.1, 0.1), H1PRIME,
            eps=1.0, alpha=math.sqrt(2) / 2, delta=0.01,
        )
        assert lam == pytest.approx(0.93428932, abs=1e-6)
        assert theta == pytest.approx(0.07571068, abs=1e-6)
        assert theta / lam == pytest.approx(0.081, abs=5e-4)

    def test_zero_coupling_limit(self):
        consts = constants(2.0, 0.8, 0.0, 0.0)
        for delta in (0.1, 1e-3, 1e-6):
            lam, theta = contraction_constants(consts, H1PRIME, delta=delta)
            assert theta == pytest.approx(delta / 2)
            assert lam == pytest.approx(min(0.8, delta / 2 + 2.0))
        assert theta / lam < 1e-6

    def test_strong_variant_canonical_parameters_minimize(self):
        # eps = 1 minimizes eps/2 + 1/(2 eps); alpha = sqrt(3)/3 minimizes
        # 1/(2 alpha) + 3 alpha / 2; the canonical choice maximizes lam - theta
        consts = constants(1.0, 1.0, 0.3, 0.3)
        delta = 1e-4

        def margin(eps, alpha):
            lam, theta = contraction_constants(consts, H1, eps=eps, alpha=alpha, rho=1.0, delta=delta)
            return lam - theta

        best = margin(1.0, math.sqrt(3) / 3)
        for eps in (0.5, 0.8, 1.3, 2.0):
            for alpha in (0.3, 0.5, 0.8, 1.0):
                assert margin(eps, alpha) <= best + 1e-12

    def test_invalid_parameters(self):
        consts = constants(1.0, 1.0, 0.1, 0.1)
        for kwargs in ({"eps": 0.0}, {"alpha": -1.0}, {"rho": 0.0}, {"delta": 0.0}):
            with pytest.raises(ValueError):
                contraction_constants(consts, H1PRIME, **kwargs)

    def test_smallness_pass_implies_contraction_params_exist(self):
        rng = np.random.default_rng(5)
        found_pass = 0
        for _ in range(40):
            k, kp = rng.uniform(0.2, 2.0, size=2)
            c_nu, c_g = rng.uniform(0.0, 1.0, size=2)
            variant = H1 if rng.random() < 0.5 else H1PRIME
            consts = constants(k, kp, c_nu, c_g)
            if not max(c_nu, c_g) < smallness_bound(k, kp, variant):
                continue
            found_pass += 1
            ok = False
            for eps in np.linspace(0.2, 3.0, 12):
                for alpha in np.linspace(0.2, 2.0, 12):
                    for delta in (1e-6, 1e-4, 1e-2):
                        lam, theta = contraction_constants(consts, variant, eps=eps, alpha=alpha, rho=1.0, delta=delta)
                        if lam > 0 and theta < lam:
                            ok = True
                            break
                    if ok:
                        break
                if ok:
                    break
            assert ok, f"no contraction parameters found for {consts}, {variant}"
        assert found_pass >= 5


class TestProfiles:
    def test_lipschitz_rejects_negative(self):
        with pytest.raises(ValueError):
            LipschitzProfile(-0.1, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["c_u", "c_nu", "c_g_x", "c_g_nu", "k", "k_prime"])
    def test_non_finite_constant_rejected(self, name, value):
        lip = {"c_u": 1.0, "c_nu": 0.1, "c_g_x": 1.0, "c_g_nu": 0.1}
        profile = LipschitzProfile if name in lip else MonotonicityProfile
        kwargs = {**(lip if name in lip else {"k": 1.0, "k_prime": 1.0}), name: value}
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            profile(**kwargs)

    def test_monotonicity_validation(self):
        with pytest.raises(ValueError):
            MonotonicityProfile(0.0, 1.0)
        with pytest.raises(ValueError):
            MonotonicityProfile(1.0, 1.0, variant="H2")

    @pytest.mark.parametrize("law_free", [True, False])
    def test_relaxed_variant_needs_law_free_sigma(self, law_free):
        # sigma is law-free when it has no mean term
        base = affine_problem_from_blocks(1.0, 0.0, 0.0, 1.0)
        sigma = AffineCoeffs(1, "sigma", const=0.4, **({} if law_free else {"mean_y": 0.1}))
        assert dataclasses.replace(base, sigma=sigma).law_free_sigma is law_free
        for variant in (H1, H1PRIME):
            mono = MonotonicityProfile(1.0, 1.0, variant)
            if variant == H1PRIME and not law_free:
                with pytest.raises(ValueError, match='^variant "H1prime" needs a law-free sigma; declare variant="H1"$'):
                    dataclasses.replace(base, sigma=sigma, monotonicity=mono)
            else:
                assert dataclasses.replace(base, sigma=sigma, monotonicity=mono).monotonicity is mono


def two_dim_tables(**overrides):
    """Zero f, h and sigma and g = x on R^2, with ``overrides`` in their place."""
    tables = {name: AffineCoeffs(2, name) for name in ("f", "h", "sigma")}
    return {**tables, "g": AffineCoeffs(2, "g", x=1.0), **overrides}


class TestSpotCheck:
    def test_shape_violation_detected(self):
        # every table must have the dimension of x0, checked on construction
        with pytest.raises(ValueError, match="^f has dimension 1, but x0 has 2 entries$"):
            MfProblem([0.0, 0.0], 1.0, **two_dim_tables(f=AffineCoeffs(1, "f", y=-1.0)))
        p = MfProblem([0.0, 0.0], 1.0, **two_dim_tables())
        with pytest.raises(ValueError, match="^f has dimension 2, but x0 has 3 entries$"):
            dataclasses.replace(p, x0=np.zeros(3))

    @pytest.mark.parametrize("name", ["x0", "h"])
    def test_fields_cannot_be_assigned_after_construction(self, name):
        # a table assigned later would skip the checks; a changed copy comes from dataclasses.replace
        p = MfProblem([0.0, 0.0], 1.0, **two_dim_tables())
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(p, name, lambda t, x, y, z, nu: -x)

    def test_terminal_map_reads_only_x_and_its_mean(self):
        with pytest.raises(ValueError, match=r"^g supports the terms x, mean_x and const; got \['mean_y', 'y'\]$"):
            MfProblem([0.0, 0.0], 1.0, **two_dim_tables(g=AffineCoeffs(2, "g", x=1.0, y=0.5, mean_y=0.1)))

    @pytest.mark.parametrize("x0", [[], [[1.0, 2.0]], [np.nan]])
    def test_x0_must_be_a_finite_vector(self, x0):
        with pytest.raises(ValueError, match="^x0 must be a nonempty finite vector"):
            MfProblem(x0, 1.0, **two_dim_tables())


class TestPiecewisePaths:
    def test_piecewise_lookup_and_clamp(self):
        p = PiecewiseConstant([0.0, 1.0], [np.eye(1), 2 * np.eye(1)])
        assert p(-0.5) == pytest.approx(1.0)
        assert p(0.5) == pytest.approx(1.0)
        assert p(1.0) == pytest.approx(2.0)
        assert p(7.0) == pytest.approx(2.0)

    @pytest.mark.parametrize("breakpoints", [[0.0, np.nan, 0.5], [0.0, np.inf], [-np.inf, 0.0]])
    def test_breakpoints_must_be_finite_and_increasing(self, breakpoints):
        with pytest.raises(ValueError, match="breakpoints must be finite and strictly increasing"):
            PiecewiseConstant(breakpoints, np.ones(len(breakpoints)))

    def test_as_path_forms(self):
        assert np.allclose(shaped_path(3.0, (1, 1), "a")(0.1), 3.0)
        assert np.allclose(shaped_path({"const": [[1.0, 0.0], [0.0, 1.0]]}, (2, 2), "a")(0.5), np.eye(2))
        pw = shaped_path({"piecewise": [{"t_from": 0.0, "value": 1.0}, {"t_from": 0.5, "value": 2.0}]}, (1, 1), "a")
        assert pw(0.25) == pytest.approx(1.0) and pw(0.75) == pytest.approx(2.0)

    def test_as_path_rejects_bad_dict(self):
        with pytest.raises(ValueError):
            shaped_path({"weird": 1}, (1, 1), "a")

    def test_as_path_rejects_piece_without_value(self):
        with pytest.raises(ValueError, match="'value'"):
            shaped_path({"piecewise": [{"t_from": 0.0}, {"t_from": 0.1, "value": -1.0}]}, (1, 1), "a")
        with pytest.raises(ValueError, match="'value'"):
            shaped_path({"piecewise": [{"t_from": 0.0, "value": None}]}, (1, 1), "a")
        with pytest.raises(ValueError, match="'value'"):
            shaped_path({"piecewise": [{"t_from": 0.0, "matrix": 1.0}]}, (1, 1), "a")

    def test_shaped_path_builds_a_new_table(self):
        pw = PiecewiseConstant([0.0, 0.5], [0.1, 0.2])
        shaped = shaped_path(pw, (2, 2), "A")
        assert shaped is not pw
        assert pw.values.shape == (2,)
        assert np.array_equal(shaped(0.7), 0.2 * np.eye(2))
        assert np.array_equal(shaped_path(pw, (3,), "b")(0.0), np.full(3, 0.1))
        with pytest.raises(ValueError, match=r"b: expected shape \(2,\), got \(3,\)"):
            shaped_path(np.ones(3), (2,), "b")
        with pytest.raises(ValueError, match="^b must be a constant or a piecewise table, got a callable$"):
            shaped_path(lambda t: np.ones(2), (2,), "b")

    def test_map_path_merges_breakpoints(self):
        a = PiecewiseConstant([0.0, 0.5], [np.eye(2), 2 * np.eye(2)])
        b = PiecewiseConstant([0.0, 0.25], [np.ones((2, 2)), np.zeros((2, 2))])
        ab = map_path(lambda u, v: u @ v, a, b)
        assert isinstance(ab, PiecewiseConstant)
        assert np.array_equal(ab.breakpoints, [0.0, 0.25, 0.5])
        for t in (-1.0, 0.1, 0.3, 0.6):
            assert np.array_equal(ab(t), a(t) @ b(t))


class TestAffineCoeffs:
    def test_terms_match_written_formula(self):
        rng = np.random.default_rng(3)
        cx, cy, cz, cmx, cmy = rng.standard_normal((5, 2, 2))
        c0 = rng.standard_normal(2)
        table = AffineCoeffs(2, "f", x=cx, y=cy, z=cz, mean_x=cmx, mean_y=cmy, const=c0)
        x, y, z = rng.standard_normal((3, 2, 5))  # (m, P) blocks
        mean = gaussian_mean(rng, 7, 4)
        want = cx @ x + cy @ y + cz @ z + (cmx @ mean[:2] + cmy @ mean[2:] + c0)[:, None]
        got = table(0.3, x, y, z, mean)
        assert got.shape == (2, 5) and np.allclose(got, want, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("rows", [1, 3])
    def test_one_column_product_equals_the_matmul(self, rows):
        rng = np.random.default_rng(rows)
        a, b = rng.standard_normal((rows, 1)), rng.standard_normal((1, 5000))
        assert np.array_equal(matmul(a, b), a @ b)
        # a stack of blocks, as the pricing's (nodes, 1, P) controls
        stack = rng.standard_normal((4, 1, 300))
        assert np.array_equal(matmul(a, stack), a @ stack)

    def test_zero_piecewise_terms_are_dropped(self):
        table = AffineCoeffs(
            2, "h", x=0.0, y={"piecewise": [{"t_from": 0.0, "value": 0.0}, {"t_from": 0.5, "value": 1.0}]},
            mean_x=np.zeros((2, 2)), const={"piecewise": [{"t_from": 0.0, "value": 0.0}, {"t_from": 0.3, "value": 0.0}]},
        )
        assert sorted(table.terms) == ["y"]
        x = np.ones((2, 3))
        # no measure is needed once the mean terms are gone
        assert np.array_equal(table(0.7, x, 2 * x), 2 * x)

    def test_terms_compiled_once_per_time(self):
        steps = {"piecewise": [{"t_from": 0.0, "value": 1.0}, {"t_from": 0.5, "value": 3.0}]}
        halves = {"piecewise": [{"t_from": 0.0, "value": 0.25}, {"t_from": 0.5, "value": 0.5}]}
        table = AffineCoeffs(2, "f", x=steps, mean_x=halves)
        # a time exactly on a breakpoint takes the right-hand piece
        assert np.array_equal(table.at(0.5)["x"], 3.0 * np.eye(2))
        assert np.array_equal(table.at(0.25)["x"], np.eye(2))
        # each time is compiled once and kept
        assert table.at(0.5) is table.at(0.5)
        assert np.array_equal(table.at(0.5)["mean_x"], 0.5 * np.eye(2))

        rng = np.random.default_rng(4)
        cm = rng.standard_normal((2, 6))
        mean = gaussian_mean(rng, 7, 4)
        c_ordered = table(0.5, cm, mean=mean)
        f_ordered = table(0.5, np.asfortranarray(cm), mean=mean)
        assert c_ordered.shape == (2, 6) and c_ordered.flags.c_contiguous
        assert np.array_equal(f_ordered, c_ordered)
        assert np.allclose(c_ordered, 3.0 * cm + 0.5 * mean[:2, None], rtol=0.0, atol=1e-12)

    def test_shapes_checked_once_with_term_names(self):
        with pytest.raises(ValueError, match=r"g\.x: expected shape \(2, 2\)"):
            AffineCoeffs(2, "g", x=np.ones((3, 3)))
        with pytest.raises(TypeError):
            AffineCoeffs(2, "g", w=1.0)


class TestProblemFromConfig:
    def config(self):
        return {
            "kind": "problem",
            "dim": 1, "horizon": 0.25, "x0": [1.0],
            "f": {"y": -1.0, "mean_x": 0.1},
            "h": {"x": -1.0, "z": -0.3, "mean_y": 0.1},
            "sigma": {"x": 0.3, "const": 0.2},
            "g": {"x": 1.0, "mean_x": 0.1},
            "lipschitz": {"c_u": 1.0, "c_nu": 0.1, "c_g_x": 1.0, "c_g_nu": 0.1},
            "monotonicity": {"k": 1.0, "k_prime": 1.0, "variant": "H1prime"},
        }

    def test_matches_hand_built_toy(self, toy_problem):
        p = problem_from_config(self.config())
        rng = np.random.default_rng(0)
        x, y, z = rng.standard_normal((3, 1, 5))  # (m, P) blocks
        mean = gaussian_mean(rng, 8, 2)
        mean_t = gaussian_mean(rng, 8, 1)
        assert np.allclose(p.f(0.1, x, y, z, mean), toy_problem.f(0.1, x, y, z, mean))
        assert np.allclose(p.h(0.1, x, y, z, mean), toy_problem.h(0.1, x, y, z, mean))
        assert np.allclose(p.sigma(0.1, x, y, z), toy_problem.sigma(0.1, x, y, z))
        assert np.allclose(p.g(p.horizon, x, mean=mean_t), toy_problem.g(p.horizon, x, mean=mean_t))
        assert p.law_free_sigma
        assert p.monotonicity.variant == H1PRIME

    def test_probes_pass_on_config_problem(self):
        p = problem_from_config(self.config())
        p.spot_check()
        rep = check_H1(p)
        assert rep.passed and rep.smallness_ok
        assert (rep.computed["C_nu"], rep.computed["C_g_nu"]) == pytest.approx((0.1, 0.1), abs=1e-12)

    def test_missing_field_rejected(self):
        cfg = self.config()
        del cfg["horizon"]
        with pytest.raises(ValueError, match="horizon"):
            problem_from_config(cfg)

    def test_sigma_measure_terms_rejected(self):
        cfg = self.config()
        cfg["sigma"]["mean_x"] = 0.5
        with pytest.raises(ValueError, match="law-free"):
            problem_from_config(cfg)

    @pytest.mark.parametrize("block,key", [
        (None, "horizn"), ("f", "mean_xx"), ("h", "zz"), ("sigma", "mean_y"), ("g", "y"),
        ("lipschitz", "c_x"), ("monotonicity", "kprime"),
    ])
    def test_unknown_keys_rejected(self, block, key):
        cfg = self.config()
        (cfg if block is None else cfg[block])[key] = 0.5
        with pytest.raises(ValueError, match=rf"\['{key}'\]"):
            problem_from_config(cfg)

    def test_piecewise_driver_switches_at_breakpoint(self):
        cfg = self.config()
        cfg["h"]["x"] = {"piecewise": [{"t_from": 0.0, "value": -1.0}, {"t_from": 0.1, "value": -2.0}]}
        p = problem_from_config(cfg)
        x = np.ones((1, 3))
        y = np.zeros((1, 3))
        z = np.zeros((1, 3))
        mean = np.zeros(2)
        assert np.allclose(p.h(0.05, x, y, z, mean), -1.0)
        assert np.allclose(p.h(0.2, x, y, z, mean), -2.0)

    def test_wrong_kind_rejected(self):
        cfg = self.config()
        cfg["kind"] = "game"
        with pytest.raises(ValueError, match="kind"):
            problem_from_config(cfg)
