import bisect
import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renewalopt import lp, ocmdp
from renewalopt.acceptance import grid_project
from oracles import (
    coupled_baseline_dual_scan,
    recover_policy,
    run_fixed_policy,
    sample_tables_two_draws,
)


def _spec_2x2(seed, noise=0.0, m=1):
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.05, 1.0, size=(2, 2, 2))
    p /= p.sum(axis=2, keepdims=True)
    f = rng.uniform(-1.0, 1.0, size=(2, 2))
    g = rng.uniform(-1.0, 1.0, size=(m, 2, 2))
    return ocmdp.MdpSpec(transitions=p, f_mean=f, g_means=g, noise=noise)


def _stationary(p):
    n = p.shape[0]
    a = np.vstack([p.T - np.eye(n), np.ones(n)])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    return np.linalg.lstsq(a, b, rcond=None)[0]


class TestMdpSpec:
    def test_rejects_rows_that_do_not_sum_to_one(self):
        p = np.array([[[0.5, 0.4], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]]])
        with pytest.raises(ValueError, match="sum to 1"):
            ocmdp.MdpSpec(p, np.zeros((2, 2)), np.zeros((1, 2, 2)))

    def test_rejects_negative_probability(self):
        p = np.array([[[1.2, -0.2], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]]])
        with pytest.raises(ValueError, match="nonnegative"):
            ocmdp.MdpSpec(p, np.zeros((2, 2)), np.zeros((1, 2, 2)))

    @staticmethod
    def _with_bad(name, bad):
        p = np.full((2, 2, 2), 0.5)
        f = np.zeros((2, 2))
        g = np.zeros((1, 2, 2))
        extra = {}
        if name == "transitions":
            p[1, 0, 0] = bad
        elif name == "f_mean":
            f[0, 1] = bad
        elif name == "g_means":
            g[0, 1, 1] = bad
        elif name == "drift-direction":
            extra["f_drift"] = (np.array([[0.0, bad], [0.0, 0.0]]), 10.0)
        elif name == "drift-period":
            extra["f_drift"] = (np.zeros((2, 2)), bad)
        else:
            extra[name] = bad
        return ocmdp.MdpSpec(p, f, g, **extra)

    @pytest.mark.parametrize("name, bad", [
        ("transitions", math.nan), ("transitions", math.inf),
        ("f_mean", math.nan), ("f_mean", math.inf), ("f_mean", -math.inf),
        ("g_means", math.nan), ("g_means", -math.inf),
        ("noise", math.inf), ("psi", math.nan), ("psi", math.inf),
        ("drift-direction", math.nan), ("drift-period", math.inf),
    ])
    def test_rejects_non_finite_fields(self, name, bad):
        with pytest.raises(ValueError, match="must be finite"):
            self._with_bad(name, bad)

    def test_rejects_wrong_f_shape(self):
        p = np.full((2, 2, 2), 0.5)
        with pytest.raises(ValueError, match="f_mean"):
            ocmdp.MdpSpec(p, np.zeros((3, 2)), np.zeros((1, 2, 2)))

    def test_rejects_too_small_psi(self):
        p = np.full((2, 2, 2), 0.5)
        with pytest.raises(ValueError, match="psi"):
            ocmdp.MdpSpec(p, np.full((2, 2), 3.0), np.zeros((1, 2, 2)), noise=0.5, psi=3.2)

    def test_psi_defaults_to_reach(self):
        p = np.full((2, 2, 2), 0.5)
        spec = ocmdp.MdpSpec(p, np.full((2, 2), 3.0), np.zeros((1, 2, 2)), noise=0.5)
        assert spec.psi == pytest.approx(3.5)

    def test_tables_stay_within_psi(self):
        spec = _spec_2x2(7, noise=0.6)
        rng = np.random.default_rng(0)
        for t in range(200):
            tables = spec.sample_tables(t, rng.random(2 * spec.dim).tolist())
            assert len(tables) == 2 * spec.dim
            assert max(map(abs, tables)) <= spec.psi + 1e-12

    @pytest.mark.parametrize("noise, m, drift", [
        (0.0, 1, False), (0.4, 1, False), (0.4, 0, False), (0.4, 2, True), (0.0, 0, True),
    ])
    def test_one_draw_tables_equal_two_draws(self, noise, m, drift):
        rng = np.random.default_rng(m)
        p = np.full((3, 2, 2), 0.5)
        direction = (rng.uniform(-1.0, 1.0, size=(2, 3)), 17.0) if drift else None
        spec = ocmdp.MdpSpec(p, rng.uniform(-1.0, 1.0, size=(2, 3)),
                             rng.uniform(-1.0, 1.0, size=(m, 2, 3)),
                             noise=noise, f_drift=direction)
        ours, twin = np.random.default_rng(9), np.random.default_rng(9)
        size = spec.dim * (1 + m)
        for t in range(60):
            uniforms = ours.random(size).tolist() if noise else []
            new = spec.sample_tables(t, uniforms)
            f, g = sample_tables_two_draws(spec, t, twin)
            assert len(new) == f.size + g.size == size
            assert np.array(new).tobytes() == np.concatenate((f.ravel(), g.ravel())).tobytes()
        assert ours.bit_generator.state == twin.bit_generator.state

    def test_noisy_tables_need_one_uniform_per_entry(self):
        spec = _spec_2x2(7, noise=0.6)
        with pytest.raises(ValueError, match="need 8 uniforms, got 7"):
            spec.sample_tables(0, [0.5] * 7)

    def test_drift_moves_the_mean(self):
        p = np.full((2, 2, 2), 0.5)
        direction = np.array([[1.0, 0.0], [0.0, -1.0]])
        spec = ocmdp.MdpSpec(
            p, np.zeros((2, 2)), np.zeros((1, 2, 2)), f_drift=(direction, 8.0)
        )
        assert np.allclose(spec.mean_f_at(0), 0.0)
        assert np.allclose(spec.mean_f_at(2), direction)
        assert np.allclose(spec.mean_f_at(6), -direction)


class TestPolyhedron:
    def test_one_state_reduces_to_action_simplex(self):
        p = np.ones((3, 1, 1))
        spec = ocmdp.MdpSpec(p, np.zeros((1, 3)), np.zeros((0, 1, 3)))
        poly = ocmdp.build_polyhedron(spec)
        assert poly.aff_a.shape == (1, 3)
        np.testing.assert_allclose(poly.aff_a, np.ones((1, 3)))
        np.testing.assert_allclose(poly.aff_b, [1.0])
        assert poly.membership_residual(np.array([0.2, 0.3, 0.5])) < 1e-12
        assert poly.membership_residual(np.array([0.2, 0.2, 0.2])) > 0.3

    def test_action_independent_chain_pins_state_marginals(self):
        chain = np.array([[0.6, 0.4], [0.3, 0.7]])
        p = np.stack([chain, chain])
        spec = ocmdp.MdpSpec(p, np.zeros((2, 2)), np.zeros((0, 2, 2)))
        poly = ocmdp.build_polyhedron(spec)
        d = _stationary(chain)
        for split in (0.0, 0.25, 1.0):
            theta = np.array([d[0] * split, d[0] * (1 - split), d[1] * 0.5, d[1] * 0.5])
            assert poly.membership_residual(theta) < 1e-12
        wrong = np.array([0.5 * 0.3, 0.5 * 0.7, 0.5 * 0.3, 0.5 * 0.7])
        assert poly.membership_residual(wrong) > 1e-3

    def test_random_3x2_uniform_stationary_is_member(self):
        rng = np.random.default_rng(42)
        p = rng.uniform(0.1, 1.0, size=(2, 3, 3))
        p /= p.sum(axis=2, keepdims=True)
        spec = ocmdp.MdpSpec(p, np.zeros((3, 2)), np.zeros((0, 3, 2)))
        poly = ocmdp.build_polyhedron(spec)
        d = _stationary(p.mean(axis=0))
        theta = np.repeat(d, 2) / 2.0
        assert poly.membership_residual(theta) < 1e-9
        np.testing.assert_allclose(poly.uniform_theta, theta, atol=1e-12)

    def test_nonfinite_vector_is_infinitely_far(self):
        poly = ocmdp.build_polyhedron(_spec_2x2(4))
        for bad in (np.nan, np.inf, -np.inf):
            theta = poly.uniform_theta.copy()
            theta[2] = bad
            assert poly.membership_residual(theta) == math.inf

    def test_frozen_spec_refuses_mutation(self):
        # MdpSpec is the validation gate, and an Instance's polyhedra and
        # fingerprint are built from it once: no field or entry may change
        p = np.full((2, 2, 2), 0.5)
        direction = np.zeros((2, 2))
        spec = ocmdp.MdpSpec(p, np.zeros((2, 2)), np.zeros((1, 2, 2)), f_drift=(direction, 9.0))
        for array in (spec.transitions, spec.f_mean, spec.g_means, spec.f_drift[0]):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] += 0.2
        for name in ("transitions", "noise", "psi", "f_drift"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(spec, name, None)
        # the spec holds copies, so the caller's arrays stay writable
        p[0, 0, 0] += 0.2
        direction[0, 0] = 1.0
        assert spec.transitions[0, 0, 0] == 0.5 and spec.f_drift[0][0, 0] == 0.0


class TestProjection:
    def test_member_is_a_fixed_point(self):
        spec = _spec_2x2(11)
        poly = ocmdp.build_polyhedron(spec)
        out = ocmdp.project_onto_theta(poly, poly.uniform_theta)
        np.testing.assert_allclose(out, poly.uniform_theta, atol=1e-10)

    def test_symmetric_simplex_projection(self):
        p = np.ones((2, 1, 1))
        spec = ocmdp.MdpSpec(p, np.zeros((1, 2)), np.zeros((0, 1, 2)))
        poly = ocmdp.build_polyhedron(spec)
        out = ocmdp.project_onto_theta(poly, np.array([0.8, 0.8]))
        np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-9)

    def test_matches_grid_oracle(self):
        for seed in range(8):
            spec = _spec_2x2(100 + seed)
            poly = ocmdp.build_polyhedron(spec)
            x = np.random.default_rng(200 + seed).uniform(-2.0, 2.0, size=4)
            ours = ocmdp.project_onto_theta(poly, x)
            ref = grid_project(poly.aff_a, poly.aff_b, x)
            assert np.abs(ours - ref).max() < 1e-4

    def test_idempotent(self):
        for seed in range(6):
            spec = _spec_2x2(300 + seed)
            poly = ocmdp.build_polyhedron(spec)
            x = np.random.default_rng(seed).normal(size=4) * 2.0
            once = ocmdp.project_onto_theta(poly, x)
            twice = ocmdp.project_onto_theta(poly, once)
            assert np.abs(twice - once).max() < 1e-9

    def test_nonexpansive(self):
        spec = _spec_2x2(17)
        poly = ocmdp.build_polyhedron(spec)
        rng = np.random.default_rng(5)
        for _ in range(20):
            x, y = rng.normal(size=4) * 3.0, rng.normal(size=4) * 3.0
            px = ocmdp.project_onto_theta(poly, x)
            py = ocmdp.project_onto_theta(poly, y)
            assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-9

    def test_rejects_nonfinite_input(self):
        poly = ocmdp.build_polyhedron(_spec_2x2(1))
        with pytest.raises(ValueError, match="finite"):
            ocmdp.project_onto_theta(poly, np.array([np.nan, 0.0, 0.0, 0.0]))

    def test_rejects_wrong_length(self):
        poly = ocmdp.build_polyhedron(_spec_2x2(1))
        with pytest.raises(ValueError, match="length"):
            ocmdp.project_onto_theta(poly, np.zeros(5))

    def test_lands_on_the_vertex_nearest_a_far_input(self):
        # Dykstra's alternating projections stop on this input with an affine
        # residual of 3.2e-2. The minimizer is the vertex theta[1] = theta[2] = 0.
        p = np.array([
            [[0.12027658125421935, 0.8797234187457806],
             [0.9979898495305376, 0.002010150469462327]],
            [[0.8776868759257099, 0.12231312407429014],
             [0.03249123086232267, 0.9675087691376774]],
        ])
        poly = ocmdp.build_polyhedron(
            ocmdp.MdpSpec(p, np.zeros((2, 2)), np.zeros((0, 2, 2))))
        x = np.array([5.180409658216698, -0.19770725617168572,
                      -0.9868286599239827, 10.40770874588137])
        out = ocmdp.project_onto_theta(poly, x)
        assert poly.membership_residual(out) <= 1e-8
        assert out.min() >= 0.0
        vertex = np.zeros(4)
        vertex[[0, 3]] = np.linalg.solve(poly.aff_a[:, [0, 3]], poly.aff_b)
        np.testing.assert_allclose(vertex, [0.0356179665, 0.0, 0.0, 0.9643820334], atol=1e-10)
        np.testing.assert_allclose(out, vertex, rtol=0.0, atol=1e-12)

    def test_zero_multipliers_do_not_make_it_revisit_faces(self):
        # y = z + A^T lam projects onto z with every bound multiplier exactly
        # zero; rounding leaves them at +-1e-17. Dropping a bound on such
        # noise can re-add it with a zero-length step, over and over. These
        # seeds did so without the rounding threshold on the multipliers.
        for seed in (538, 846, 945, 1280):
            rng = np.random.default_rng(seed)
            p = rng.uniform(size=(2, 3, 3)) ** 3
            p /= p.sum(axis=2, keepdims=True)
            poly = ocmdp.build_polyhedron(
                ocmdp.MdpSpec(p, np.zeros((3, 2)), np.zeros((0, 3, 2))))
            z = ocmdp.project_onto_theta(
                poly, poly.uniform_theta + rng.normal(scale=2.0, size=poly.dim))
            assert (z == 0.0).any()
            y = z + poly.aff_a.T @ rng.normal(scale=3.0, size=3)
            visits = []
            face = poly.face

            def counted(free):
                visits.append(free)
                assert len(visits) <= 2 * poly.dim, "projection keeps revisiting faces"
                return face(free)

            poly.face = counted
            np.testing.assert_allclose(ocmdp.project_onto_theta(poly, y), z, rtol=0.0, atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=3),
        st.booleans(),
        st.sampled_from([0.1, 1.0, 5.0]),
        st.integers(min_value=0, max_value=10 ** 6),
    )
    def test_output_satisfies_the_kkt_conditions(self, n_s, n_a, same_chain, sigma, seed):
        rng = np.random.default_rng(seed)
        p = rng.uniform(size=(n_a, n_s, n_s)) ** 3
        if same_chain:
            p[:] = p[0]
        p /= p.sum(axis=2, keepdims=True)
        poly = ocmdp.build_polyhedron(
            ocmdp.MdpSpec(p, np.zeros((n_s, n_a)), np.zeros((0, n_s, n_a))))
        x = poly.uniform_theta + rng.normal(scale=sigma, size=poly.dim)
        z = ocmdp.project_onto_theta(poly, x)
        assert poly.membership_residual(z) <= 1e-8
        assert z.min() >= 0.0
        # z - x = A^T lam + mu, mu zero on the support and nonnegative off it
        support = z > 0.0
        lam = np.linalg.lstsq(poly.aff_a[:, support].T, (z - x)[support], rcond=None)[0]
        mu = z - x - poly.aff_a.T @ lam
        assert np.abs(mu[support]).max() <= 1e-9
        if not support.all():
            assert mu[~support].min() >= -1e-9

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=3),
        st.booleans(),
        st.sampled_from([0.1, 1.0, 5.0]),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=10 ** 6),
    )
    def test_warm_start_gives_the_cold_start_bits(self, n_s, n_a, same_chain, sigma, mix, seed):
        # the family of test_output_satisfies_the_kkt_conditions; the start is
        # a member: a mix of a projected point, on a face, and the interior
        # uniform point, with mix = 1 keeping the face exactly
        rng = np.random.default_rng(seed)
        p = rng.uniform(size=(n_a, n_s, n_s)) ** 3
        if same_chain:
            p[:] = p[0]
        p /= p.sum(axis=2, keepdims=True)
        poly = ocmdp.build_polyhedron(
            ocmdp.MdpSpec(p, np.zeros((n_s, n_a)), np.zeros((0, n_s, n_a))))
        x = poly.uniform_theta + rng.normal(scale=sigma, size=poly.dim)
        on_face = ocmdp.project_onto_theta(
            poly, poly.uniform_theta + rng.normal(scale=sigma, size=poly.dim))
        start = on_face if mix == 1.0 else mix * on_face + (1.0 - mix) * poly.uniform_theta
        assert poly.membership_residual(start) <= 1e-8
        cold = ocmdp.project_onto_theta(poly, x)
        warm = ocmdp.project_onto_theta(poly, x, start=start)
        assert warm.tobytes() == cold.tobytes()
        # and from the answer itself, as the run's next slot would start
        assert ocmdp.project_onto_theta(poly, x, start=cold).tobytes() == cold.tobytes()

    def test_rejects_nonfinite_or_short_start(self):
        poly = ocmdp.build_polyhedron(_spec_2x2(1))
        with pytest.raises(ValueError, match="finite"):
            ocmdp.project_onto_theta(poly, np.zeros(4), start=[np.inf, 0.0, 0.0, 1.0])
        with pytest.raises(ValueError, match="length"):
            ocmdp.project_onto_theta(poly, np.zeros(4), start=[1.0])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 6), st.integers(min_value=0, max_value=10 ** 6))
    def test_projection_lands_inside_for_random_inputs(self, inst_seed, x_seed):
        spec = _spec_2x2(inst_seed)
        poly = ocmdp.build_polyhedron(spec)
        x = np.random.default_rng(x_seed).uniform(-5.0, 5.0, size=4)
        out = ocmdp.project_onto_theta(poly, x)
        assert poly.membership_residual(out) <= 1e-8
        assert out.min() >= 0.0


class TestPolicyRecovery:
    def test_rows_sum_to_one_where_marginal_positive(self):
        theta = np.array([0.1, 0.3, 0.0, 0.6])
        policy = recover_policy(theta, 2, 2)
        np.testing.assert_allclose(policy.sum(axis=1), [1.0, 1.0])
        np.testing.assert_allclose(policy[0], [0.25, 0.75])
        np.testing.assert_allclose(policy[1], [0.0, 1.0])

    def test_zero_marginal_gets_uniform_row(self):
        theta = np.array([0.0, 0.0, 0.4, 0.6])
        policy = recover_policy(theta, 2, 2)
        np.testing.assert_allclose(policy[0], [0.5, 0.5])
        np.testing.assert_allclose(policy[1], [0.4, 0.6])


class TestStep:
    def test_v_zero_and_empty_queue_keeps_theta(self):
        specs = [_spec_2x2(21), _spec_2x2(22)]
        polys = [ocmdp.build_polyhedron(s) for s in specs]
        thetas = [p.uniform_theta.tolist() for p in polys]
        tables = [s.sample_tables(0) for s in specs]
        nxt, queues = ocmdp.ocmdp_step(polys, thetas, [0.0], tables, 0.0, 100.0)
        for before, after in zip(thetas, nxt):
            assert np.abs(np.subtract(after, before)).max() < 1e-10
        assert len(queues) == 1

    @pytest.mark.parametrize("v, alpha, name", [
        (math.nan, 10.0, "v"), (math.inf, 10.0, "v"), (-1.0, 10.0, "v"),
        (1.0, math.nan, "alpha"), (1.0, math.inf, "alpha"), (1.0, 0.0, "alpha"),
    ])
    def test_nonfinite_v_or_alpha_is_refused_up_front(self, monkeypatch, v, alpha, name):
        # an infinite v used to fail in slot 1 as "projection input must be
        # finite", and an infinite alpha froze the controller without a word
        instance = ocmdp.two_mdp_example()
        polys = instance.polys
        message = f"{name} must be finite and"
        with pytest.raises(ValueError, match=message):
            ocmdp.ocmdp_step(polys, [p.uniform_theta.tolist() for p in polys], [0.0],
                             [s.sample_tables(0, [0.5] * 8) for s in instance.specs], v, alpha)
        monkeypatch.setattr(ocmdp, "_spawn_rngs", lambda *args: pytest.fail("run started"))
        with pytest.raises(ValueError, match=message):
            ocmdp.run_ocmdp(instance, 10, v=v, alpha=alpha)

    def test_no_constraints_runs_unconstrained(self):
        specs = [_spec_2x2(31, m=1), ]
        spec = ocmdp.MdpSpec(specs[0].transitions, specs[0].f_mean, np.zeros((0, 2, 2)))
        log = ocmdp.run_ocmdp(ocmdp.Instance((spec,)), 50, v=5.0, alpha=50.0, seed=1)
        assert log.queues.shape == (51, 0)
        assert log.realized_g.shape == (50, 0)

    def test_descends_toward_cheaper_actions_without_constraints(self):
        p = np.full((2, 2, 2), 0.5)
        f = np.array([[1.0, 0.0], [1.0, 0.0]])
        spec = ocmdp.MdpSpec(p, f, np.zeros((0, 2, 2)))
        log = ocmdp.run_ocmdp(ocmdp.Instance((spec,)), 400, v=10.0, alpha=200.0, seed=0)
        start = log.thetas[0][0]
        end = log.thetas[0][-1]
        assert f.ravel() @ end < f.ravel() @ start - 0.2

    @staticmethod
    def _step_with_face(face):
        instance = ocmdp.two_mdp_example(noise=0.0)
        for poly in instance.polys:
            poly.face = face
        return ocmdp.ocmdp_step(
            instance.polys, [p.uniform_theta.tolist() for p in instance.polys], [0.0],
            [s.sample_tables(0) for s in instance.specs], 1.0, 10.0,
        )

    def test_bad_projection_output_is_caught(self):
        # The projection's clamp and affine check is the one membership gate
        # on each new theta. A face whose "nearest point" is the input itself
        # leaves the affine hull, and the step must stop there.
        def identity_face(free):
            n = len(free)
            return np.eye(n).tolist(), [0.0] * n, [[0.0] * n for f in free if not f]

        with pytest.raises(RuntimeError, match="projection affine residual"):
            self._step_with_face(identity_face)

    def test_nan_projection_output_is_caught(self):
        def nan_face(free):
            n = len(free)
            return [[math.nan] * n] * n, [0.0] * n, [[0.0] * n for f in free if not f]

        with pytest.raises(RuntimeError, match="projection affine residual nan"):
            self._step_with_face(nan_face)


class TestSampling:
    """The draws must pick the index ``Generator.choice`` picks, from the
    same stream, so seeded runs keep their trajectories."""

    _weights = st.one_of(st.just(0.0), st.floats(min_value=1e-9, max_value=1e3))

    @staticmethod
    def _two_states(n_actions, seed):
        p = np.random.default_rng(seed).uniform(size=(n_actions, 2, 2))
        p /= p.sum(axis=2, keepdims=True)
        spec = ocmdp.MdpSpec(p, np.zeros((2, n_actions)), np.zeros((0, 2, n_actions)))
        return p, ocmdp.build_polyhedron(spec)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_action_draw_matches_generator_choice(self, data):
        # n >= 8 takes numpy's pairwise summation for the state marginal
        n = data.draw(st.integers(min_value=1, max_value=12))
        theta = np.array(data.draw(st.lists(self._weights, min_size=2 * n, max_size=2 * n)))
        s = data.draw(st.integers(min_value=0, max_value=1))
        seed = data.draw(st.integers(min_value=0, max_value=2 ** 32 - 1))
        p, poly = self._two_states(n, seed)
        ours, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        a, s_next = ocmdp._play(poly, theta.tolist(), s, ours.random(), ours.random())
        row = recover_policy(theta, 2, n)[s]
        assert a == twin.choice(n, p=row / row.sum())
        assert s_next == twin.choice(2, p=p[a, s])
        assert ours.bit_generator.state == twin.bit_generator.state

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_transition_draw_matches_generator_choice(self, data):
        n = data.draw(st.integers(min_value=1, max_value=12))
        law = np.array(data.draw(st.lists(self._weights, min_size=n, max_size=n)
                                 .filter(lambda w: sum(w) > 0.0)))
        law /= law.sum()
        seed = data.draw(st.integers(min_value=0, max_value=2 ** 32 - 1))
        # one action whose next state is drawn from the same law everywhere
        p = np.tile(law, (1, n, 1))
        poly = ocmdp.build_polyhedron(ocmdp.MdpSpec(p, np.zeros((n, 1)), np.zeros((0, n, 1))))
        s = data.draw(st.integers(min_value=0, max_value=n - 1))
        ours, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        cdf = ocmdp._choice_cdf(law.tolist())
        assert bisect.bisect_right(cdf, ours.random()) == twin.choice(n, p=law)
        a, s_next = ocmdp._play(poly, law.tolist(), s, ours.random(), ours.random())
        assert a == twin.choice(1, p=[1.0])
        assert s_next == twin.choice(n, p=law)
        assert ours.bit_generator.state == twin.bit_generator.state

    @staticmethod
    def _choice_cdf_reference(p):
        # what Generator.choice(p.size, p=p) searches with its uniform
        cdf = p.cumsum()
        cdf /= cdf[-1]
        return cdf

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_draws_split_exactly_where_choice_does(self, data):
        # uniforms one ulp either side of each CDF step tell apart CDFs
        # that differ in their last bit, which random uniforms almost never do
        n = data.draw(st.integers(min_value=1, max_value=12))
        theta = np.array(data.draw(st.lists(self._weights, min_size=2 * n, max_size=2 * n)))
        s = data.draw(st.integers(min_value=0, max_value=1))
        p, poly = self._two_states(n, data.draw(st.integers(min_value=0, max_value=10 ** 6)))
        row = recover_policy(theta, 2, n)[s]
        action_cdf = self._choice_cdf_reference(row / row.sum())
        for edge in action_cdf:
            for u in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)):
                if u >= 1.0:
                    continue
                a = int(action_cdf.searchsorted(u, "right"))
                state_cdf = self._choice_cdf_reference(p[a, s])
                for w in (np.nextafter(state_cdf[0], 0.0), state_cdf[0], np.nextafter(state_cdf[0], 1.0)):
                    drawn = ocmdp._play(poly, theta.tolist(), s, float(u), float(w))
                    assert drawn == (a, int(state_cdf.searchsorted(w, "right")))

    @pytest.mark.parametrize("p, accepted", [
        ([0.25, 0.75 + 1e-9], True),
        ([0.25, 0.75 + 1e-7], False),
        ([0.5, -0.0, 0.5], True),
        ([1.1, -0.1], False),
        ([np.nan, 1.0], False),
        ([np.inf, 0.0], False),
    ])
    def test_distribution_check_agrees_with_generator_choice(self, p, accepted):
        p = np.array(p)
        if accepted:
            np.random.default_rng(0).choice(p.size, p=p)
            ocmdp._choice_cdf(p.tolist())
            return
        with pytest.raises(ValueError):
            np.random.default_rng(0).choice(p.size, p=p)
        with pytest.raises(ValueError, match="nonnegative and sum to 1"):
            ocmdp._choice_cdf(p.tolist())


class TestRun:
    def test_first_two_queue_rows_are_exactly_zero(self):
        instance = ocmdp.two_mdp_example()
        log = ocmdp.run_ocmdp(instance, 40, v=5.0, alpha=100.0, seed=2)
        assert np.all(log.queues[0] == 0.0)
        assert np.all(log.queues[1] == 0.0)
        assert log.queues.shape == (41, 1)
        # every system starts in state 0 on its uniform-policy vector
        assert log.states[0].tolist() == [0, 0]
        for poly, thetas in zip(instance.polys, log.thetas):
            assert thetas[0].tobytes() == poly.uniform_theta.tobytes()

    def test_noise_free_trajectory_matches_manual_replay(self):
        instance = ocmdp.two_mdp_example(noise=0.0)
        specs, polys = instance.specs, instance.polys
        v, alpha, horizon = 8.0, 60.0, 6
        log = ocmdp.run_ocmdp(instance, horizon, v, alpha, seed=9)
        thetas = [p.uniform_theta.copy() for p in polys]
        queues = np.zeros(1)
        for t in range(1, horizon):
            new_thetas = []
            for k, spec in enumerate(specs):
                w = v * spec.f_mean + np.tensordot(queues, spec.g_means, axes=1)
                new_thetas.append(
                    ocmdp.project_onto_theta(polys[k], thetas[k] - w.ravel() / (2 * alpha))
                )
            drift = sum(
                spec.g_means.reshape(1, -1) @ new_thetas[k]
                for k, spec in enumerate(specs)
            )
            queues = np.maximum(queues + drift, 0.0)
            thetas = new_thetas
            for k in range(2):
                np.testing.assert_allclose(log.thetas[k][t], thetas[k], atol=1e-12)
            np.testing.assert_allclose(log.queues[t + 1], queues, atol=1e-12)

    def test_same_seed_reproduces_and_seeds_differ(self):
        instance = ocmdp.two_mdp_example()
        a = ocmdp.run_ocmdp(instance, 300, v=5.0, alpha=300.0, seed=4)
        b = ocmdp.run_ocmdp(instance, 300, v=5.0, alpha=300.0, seed=4)
        c = ocmdp.run_ocmdp(instance, 300, v=5.0, alpha=300.0, seed=5)
        np.testing.assert_array_equal(a.realized_f, b.realized_f)
        np.testing.assert_array_equal(a.actions, b.actions)
        np.testing.assert_array_equal(a.queues, b.queues)
        assert not np.array_equal(a.realized_f, c.realized_f)

    def test_rejects_bad_arguments(self):
        instance = ocmdp.two_mdp_example()
        specs = instance.specs
        with pytest.raises(ValueError, match="horizon"):
            ocmdp.run_ocmdp(instance, 0, 1.0, 1.0)
        with pytest.raises(ValueError, match="alpha"):
            ocmdp.run_ocmdp(instance, 10, 1.0, 0.0)
        with pytest.raises(ValueError, match="nonnegative"):
            ocmdp.run_ocmdp(instance, 10, -1.0, 1.0)
        with pytest.raises(ValueError, match="constraint count"):
            ocmdp.Instance((specs[0], ocmdp.MdpSpec(specs[1].transitions, specs[1].f_mean,
                                                    np.zeros((0, 2, 2)))))
        with pytest.raises(ValueError, match="at least one system"):
            ocmdp.Instance(())

    def test_slater_violating_instance_is_rejected(self):
        p = np.full((2, 2, 2), 0.5)
        hopeless = ocmdp.MdpSpec(p, np.zeros((2, 2)), np.full((1, 2, 2), 0.3))
        with pytest.raises(ValueError, match="Slater"):
            ocmdp.Instance((hopeless,))
        poly = ocmdp.build_polyhedron(hopeless)
        assert ocmdp.slater_margin([poly], [hopeless.g_means]) <= 0.0

    def test_slater_margin_at_least_best_vertex_certificate(self):
        instance = ocmdp.two_mdp_example()
        specs = instance.specs
        margin = ocmdp.slater_margin(instance.polys, [s.g_means for s in specs])
        certificate = 0.0
        for spec in specs:
            all_one = np.zeros(4)
            d = _stationary(spec.transitions[1])
            all_one[1] = d[0]
            all_one[3] = d[1]
            certificate -= float(spec.g_means[0].ravel() @ all_one)
        assert margin >= certificate - 1e-8
        assert margin > 0.1

    def test_slater_margin_and_baseline_values_are_pinned(self):
        instance = ocmdp.two_mdp_example()
        margin = ocmdp.slater_margin(instance.polys, [s.g_means for s in instance.specs])
        assert margin.hex() == "0x1.888888888888ap-1"
        assert ocmdp.solve_baseline(instance).value.hex() == "0x1.4c0cf1dce9b00p+0"


# Two sha256 digests of run_ocmdp(two_mdp_example(), 2000, v=sqrt(2000),
# alpha, seed), keyed by (alpha, seed). The draw digest covers actions,
# states, realized_f and realized_g: what the seed's stream decides, which no
# change of float arithmetic may move. The float digest covers queues and the
# thetas, whose last bits follow the projection's rounding.
PINNED_RUNS = {
    (2000.0, 0): ("026be63d6e41cc110de1ce1f773d13056ec8c35104e10f8714e688919e591898",
                  "cc58c10c4cd2b70ded83d0d889a5bd1e9fdb68a53e9579e765210bc9aa414fa9"),
    (2000.0, 1): ("1bd22198cf7729e71f7848049c679ba443fe8d1bfd9cc578cc8007e445a34588",
                  "294ee50ac5a430ab8919a11fff59ea983208e1b0f5a1a5af50f84b1de80a4bca"),
    (200.0, 0): ("403831438a7ae924e9e4ce23665a152b47e98d6e7a64f490499c405a5f2501e3",
                 "91e9483323202cecf670361348d7c5e9ac687d618900d0d47c62412482ce6937"),
    (200.0, 1): ("f11c89188d97ffd43deaebb08725b531d39ad3e343c28e06f076813eefb688cf",
                 "96edcb50a2774754353f946b4641407c86bfc860331b9b668be0383acb849269"),
}


def _digests(log):
    draw, floats = hashlib.sha256(), hashlib.sha256()
    for arr in (log.actions, log.states, log.realized_f, log.realized_g):
        draw.update(np.ascontiguousarray(arr).tobytes())
    for arr in (log.queues, *log.thetas):
        floats.update(np.ascontiguousarray(arr).tobytes())
    return draw.hexdigest(), floats.hexdigest()


def _three_systems():
    # every draw width: noise 0 (two uniforms a slot), noise on a 3x2 system
    # and noise with a drifting f on a 2x3 one (2 + 6 * 3), two constraints
    # that action 0 satisfies everywhere
    rng = np.random.default_rng(2024)
    specs = []
    for n_s, n_a, noise, drift in ((2, 2, 0.0, False), (3, 2, 0.3, False), (2, 3, 0.2, True)):
        p = rng.uniform(0.05, 1.0, size=(n_a, n_s, n_s))
        p /= p.sum(axis=2, keepdims=True)
        f = rng.uniform(0.0, 1.0, size=(n_s, n_a))
        g = rng.uniform(0.1, 0.6, size=(2, n_s, n_a))
        g[:, :, 0] = -rng.uniform(0.3, 0.6, size=(2, n_s))
        f_drift = (rng.uniform(-0.5, 0.5, size=(n_s, n_a)), 97.0) if drift else None
        specs.append(ocmdp.MdpSpec(p, f, g, noise=noise, f_drift=f_drift))
    return ocmdp.Instance(tuple(specs))


@pytest.mark.parametrize("horizon", [1, 2, 7])
def test_run_steps_once_between_slots(monkeypatch, horizon):
    # perfbench traces the module-level ocmdp_step as the "ocmdp.step" span:
    # each run must reach it through that name, once per slot boundary
    calls = []
    step = ocmdp.ocmdp_step

    def counted(*args):
        calls.append(1)
        return step(*args)

    monkeypatch.setattr(ocmdp, "ocmdp_step", counted)
    ocmdp.run_ocmdp(ocmdp.two_mdp_example(), horizon, v=2.0, alpha=20.0, seed=1)
    assert len(calls) == horizon - 1


@pytest.mark.parametrize("alpha, seed", sorted(PINNED_RUNS))
def test_seeded_output_is_pinned(alpha, seed):
    log = ocmdp.run_ocmdp(ocmdp.two_mdp_example(), 2000, v=math.sqrt(2000), alpha=alpha, seed=seed)
    assert _digests(log) == PINNED_RUNS[(alpha, seed)]


def test_draws_of_every_width_across_chunks_are_pinned():
    # 600 slots cross two chunk boundaries and end inside a third chunk; the
    # draw digest was recorded when each system drew per slot, not in chunks
    log = ocmdp.run_ocmdp(_three_systems(), 600, v=math.sqrt(600), alpha=600.0, seed=3)
    assert log.horizon > 2 * ocmdp._CHUNK
    assert _digests(log)[0] == "d4722a365f2dc5bed3e523922cb4de69bb784b83ebf33800a898220c69da0c5a"


class TestRegret:
    def test_baseline_matches_dual_scan_oracle(self):
        instance = ocmdp.two_mdp_example()
        specs = instance.specs
        base = ocmdp.solve_baseline(instance)
        scan = coupled_baseline_dual_scan(
            [s.transitions for s in specs],
            [s.f_mean for s in specs],
            [s.g_means[0] for s in specs],
        )
        assert base.value == pytest.approx(scan, abs=1e-3)

    def test_fixed_baseline_policy_has_near_zero_regret(self):
        instance = ocmdp.two_mdp_example()
        base = ocmdp.solve_baseline(instance)
        horizon = 20000
        log = run_fixed_policy(instance, base.thetas, horizon, seed=3)
        regret, violations = ocmdp.measure_regret(instance, log, base)
        assert abs(regret) < 0.03 * horizon
        assert abs(violations[0]) < 0.05 * horizon

    def test_nan_fixed_policy_is_rejected(self):
        instance = ocmdp.two_mdp_example()
        base = ocmdp.solve_baseline(instance)
        with pytest.raises(ValueError, match="outside its polyhedron"):
            run_fixed_policy(instance, [np.full(4, np.nan), base.thetas[1]], 5)

    def test_fingerprint_mismatch_is_rejected(self):
        instance = ocmdp.two_mdp_example()
        other = ocmdp.two_mdp_example(noise=0.1)
        base = ocmdp.solve_baseline(instance)
        log = ocmdp.run_ocmdp(other, 20, 2.0, 20.0, seed=0)
        with pytest.raises(ValueError, match="different instances"):
            ocmdp.measure_regret(instance, log, base)
        with pytest.raises(ValueError, match="different instances"):
            ocmdp.measure_regret(other, log, base)

    def test_fingerprint_tracks_content(self):
        instance = ocmdp.two_mdp_example()
        again = ocmdp.two_mdp_example()
        assert instance.fingerprint == again.fingerprint
        first, second = again.specs
        f_mean = first.f_mean.copy()
        f_mean[0, 0] += 1e-9
        nudged = ocmdp.Instance((dataclasses.replace(first, f_mean=f_mean), second))
        assert instance.fingerprint != nudged.fingerprint
        assert instance.fingerprint != ocmdp.Instance((second, first)).fingerprint

    def test_short_run_stays_inside_polytopes_and_queues_stay_modest(self):
        instance = ocmdp.two_mdp_example()
        specs, polys = instance.specs, instance.polys
        horizon = 2500
        log = ocmdp.run_ocmdp(instance, horizon, horizon ** 0.5, float(horizon), seed=0)
        for k, poly in enumerate(polys):
            worst = max(poly.membership_residual(row) for row in log.thetas[k][::50])
            assert worst <= 1e-8
        assert log.queues.max() < 4.0 * horizon ** 0.5
        expected_usage = sum(
            float(np.tensordot(log.thetas[k], specs[k].g_means[0].ravel(), axes=1).sum())
            for k in range(2)
        )
        assert expected_usage < 5.0 * horizon ** 0.5


class TestInstanceFiles:
    def test_json_roundtrip_preserves_fingerprint(self, tmp_path):
        instance = ocmdp.two_mdp_example()
        path = tmp_path / "instance.json"
        ocmdp.save_instance(instance, str(path))
        loaded = ocmdp.load_instance(str(path))
        assert loaded.fingerprint == instance.fingerprint
        doc = json.loads(path.read_text())
        assert len(doc["systems"]) == 2

    def test_json_roundtrip_with_drift(self, tmp_path):
        p = np.full((2, 2, 2), 0.5)
        direction = np.array([[0.5, 0.0], [0.0, 0.5]])
        # a strictly feasible constraint: an Instance refuses a zero one
        spec = ocmdp.MdpSpec(
            p, np.zeros((2, 2)), np.full((1, 2, 2), -0.5),
            noise=0.1, f_drift=(direction, 50.0),
        )
        path = tmp_path / "drifting.json"
        instance = ocmdp.Instance((spec,))
        ocmdp.save_instance(instance, str(path))
        loaded = ocmdp.load_instance(str(path))
        assert loaded.specs[0].f_drift is not None
        assert loaded.fingerprint == instance.fingerprint


class TestDrift:
    def test_drifting_run_and_regret_accounting(self):
        p = np.full((2, 2, 2), 0.5)
        direction = np.array([[0.4, -0.4], [0.4, -0.4]])
        spec = ocmdp.MdpSpec(
            p,
            np.array([[0.5, 0.6], [0.5, 0.6]]),
            np.array([[[0.2, -0.4], [0.2, -0.4]]]),
            noise=0.0,
            f_drift=(direction, 40.0),
        )
        instance = ocmdp.Instance((spec,))
        base = ocmdp.solve_baseline(instance)
        log = run_fixed_policy(instance, base.thetas, 400, seed=0)
        regret, _ = ocmdp.measure_regret(instance, log, base)
        flat = base.thetas[0]
        slots = np.arange(400)
        wave = np.sin(2 * np.pi * slots / 40.0)
        manual = 0.0
        for t in range(400):
            s, a = log.states[t, 0], log.actions[t, 0]
            table = spec.f_mean + wave[t] * direction
            manual += table[s, a]
        bench = 400 * float(spec.f_mean.ravel() @ flat) + wave.sum() * float(direction.ravel() @ flat)
        assert regret == pytest.approx(manual - bench, abs=1e-9)
