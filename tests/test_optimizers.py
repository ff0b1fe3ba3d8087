"""Unit tests for the seven optimizer update rules."""

import math
import zlib
from dataclasses import asdict, replace

import numpy as np
import pytest

from optbench.optimizers import (
    ConfigError,
    OptimizerKind,
    adabound_bounds,
    apply_step,
    default_config,
    init_state,
)
from optbench.tuning import (
    Regime,
    StudyRecord,
    TrialRecord,
    TrialStatus,
    _SEARCHED,
    load_study_json,
    save_study_json,
)
from reference_optimizers import ref_step

# the paper's five adaptive optimizers, stated here rather than imported, so the
# check does not read the table it tests
ADAPTIVE_KINDS = (OptimizerKind.ADAM, OptimizerKind.NADAM, OptimizerKind.ADAMW,
                  OptimizerKind.ADAMAX, OptimizerKind.ADABOUND)

ALL_KINDS = list(OptimizerKind)


def cfg(kind, **kw):
    return replace(default_config(kind), **kw)


# ---------------------------------------------------------------------------
# init_state
# ---------------------------------------------------------------------------

def test_init_state_zero():
    t, s, r = init_state(3)
    assert t == 0
    np.testing.assert_array_equal(s, [0, 0, 0])
    np.testing.assert_array_equal(r, [0, 0, 0])


def test_init_state_sgdm_and_adabound():
    # one zero state starts every kind: SGDM's velocity and AdaBound's moments
    g = np.array([1.0, -2.0])
    c = default_config(OptimizerKind.SGDM)
    _, (t, s, _) = apply_step(c, init_state(2), np.zeros(2), g)
    assert t == 1 and s.tolist() == (-c.epsilon * g).tolist()
    c = default_config(OptimizerKind.ADABOUND)
    _, (_, s, r) = apply_step(c, init_state(2), np.zeros(2), g)
    assert s.tolist() == ((1.0 - c.rho1) * g).tolist()
    assert r.tolist() == ((1.0 - c.rho2) * g * g).tolist()


def test_init_state_rejects_dim_zero():
    with pytest.raises(ValueError, match="dim must be >= 1, got 0"):
        init_state(0)


# ---------------------------------------------------------------------------
# Hand-computed single steps
# ---------------------------------------------------------------------------

def test_sgd_scalar_step():
    c = cfg(OptimizerKind.SGD, epsilon=0.1)
    theta, (t, _, _) = apply_step(c, init_state(1), [1.0], [0.5])
    np.testing.assert_allclose(theta, [0.95], rtol=1e-12)
    assert t == 1


def test_sgd_zero_gradient():
    c = cfg(OptimizerKind.SGD, epsilon=0.37)
    theta, _ = apply_step(c, init_state(2), [2.0, -1.0], [0.0, 0.0])
    np.testing.assert_array_equal(theta, [2.0, -1.0])


def test_sgd_default_rate():
    c = default_config(OptimizerKind.SGD)
    assert c.epsilon == 1e-3
    theta, _ = apply_step(c, init_state(1), [0.0], [1.0])
    np.testing.assert_allclose(theta, [-0.001], rtol=1e-12)


def test_sgdm_two_steps():
    c = cfg(OptimizerKind.SGDM, epsilon=0.1, alpha=0.9)
    state = init_state(1)
    theta, state = apply_step(c, state, [1.0], [0.5])
    _, s, _ = state
    np.testing.assert_allclose(theta, [0.95], rtol=1e-12)
    np.testing.assert_allclose(s, [-0.05], rtol=1e-12)
    theta, (_, s, _) = apply_step(c, state, theta, [0.5])
    np.testing.assert_allclose(theta, [0.855], rtol=1e-12)
    np.testing.assert_allclose(s, [-0.095], rtol=1e-12)


def test_adam_first_step():
    c = default_config(OptimizerKind.ADAM)
    theta, (_, s, r) = apply_step(c, init_state(1), [0.0], [1.0])
    np.testing.assert_allclose(s, [0.1], rtol=1e-12)
    np.testing.assert_allclose(r, [0.001], rtol=1e-12)
    np.testing.assert_allclose(theta, [-9.99999990e-4], rtol=1e-6)


def test_nadam_first_step():
    c = cfg(OptimizerKind.NADAM, epsilon=1e-3)
    theta, _ = apply_step(c, init_state(1), [0.0], [1.0])
    np.testing.assert_allclose(theta, [-1.47442e-3], rtol=1e-5)
    np.testing.assert_allclose(theta, [-0.0014744215909724947], rtol=1e-12)


def test_adamw_first_step():
    c = cfg(OptimizerKind.ADAMW, lambda_=0.01)
    theta, _ = apply_step(c, init_state(1), [0.5], [1.0])
    np.testing.assert_allclose(theta, [0.49400], rtol=1e-5)


def test_adamax_first_step():
    c = cfg(OptimizerKind.ADAMAX, epsilon=2e-3)
    theta, (_, s, r) = apply_step(c, init_state(1), [0.0], [1.0])
    np.testing.assert_allclose(s, [0.1], rtol=1e-12)
    np.testing.assert_allclose(r, [1.0], rtol=1e-12)
    np.testing.assert_allclose(theta, [-0.002], rtol=1e-9)


def test_adamax_zero_gradient_from_fresh_state():
    c = default_config(OptimizerKind.ADAMAX)
    theta, _ = apply_step(c, init_state(1), [0.7], [0.0])
    np.testing.assert_array_equal(theta, [0.7])  # 0/0 convention


def test_adamax_second_moment_is_decaying_max():
    c = cfg(OptimizerKind.ADAMAX, rho2=0.999)
    state = init_state(1)
    theta, state = apply_step(c, state, [0.0], [1.0])
    theta, (_, _, r) = apply_step(c, state, theta, [0.5])
    np.testing.assert_allclose(r, [0.999], rtol=1e-12)


def test_adabound_bounds_examples():
    c = cfg(OptimizerKind.ADABOUND, eps_star=0.1, gamma=1e-3)
    lo, hi = adabound_bounds(1, c)
    np.testing.assert_allclose(lo, 9.99001e-5, rtol=1e-5)
    np.testing.assert_allclose(hi, 100.1, rtol=1e-12)
    lo, hi = adabound_bounds(1000, c)
    np.testing.assert_allclose([lo, hi], [0.05, 0.2], rtol=1e-12)
    with pytest.raises(ValueError, match="bounds need t >= 1, got 0"):
        adabound_bounds(0, c)


def test_adabound_first_step():
    c = default_config(OptimizerKind.ADABOUND)
    theta, (_, _, r) = apply_step(c, init_state(1), [0.0], [1.0])
    np.testing.assert_allclose(r, [0.001], rtol=1e-12)
    np.testing.assert_allclose(theta, [-3.16227e-3], rtol=1e-5)


def test_adabound_clip_saturates_at_upper_bound():
    # tiny gamma*t keeps hi small only when eps_star is small; instead force
    # saturation by making the raw rate enormous via a tiny gradient
    c = cfg(OptimizerKind.ADABOUND, epsilon=1.0, eps_star=0.01, gamma=10.0)
    _, hi = adabound_bounds(1, c)
    theta, (_, s, _) = apply_step(c, init_state(1), [0.0], [1e-8])
    # raw eta = 1.0 / (1e-8*sqrt(1-rho2) + delta) >> hi, so eta == hi exactly
    expected = -hi * s[0]
    np.testing.assert_allclose(theta, [expected], rtol=0, atol=0)


def test_adabound_point_clip_reduces_to_momentum_update():
    c = cfg(OptimizerKind.ADABOUND, epsilon=1e-3, eps_star=0.05, gamma=1e6)
    # with huge gamma both bounds are eps_star to ~1e-6 relative: update ~ -c*s'
    theta, (_, s, _) = apply_step(c, init_state(1), [0.0], [1.0])
    np.testing.assert_allclose(theta, [-0.05 * s[0]], rtol=1e-5)


# ---------------------------------------------------------------------------
# Randomized steps against the scalar reference
# ---------------------------------------------------------------------------

def random_config(kind, rng):
    return cfg(
        kind,
        epsilon=10.0 ** rng.uniform(-7, -1),
        rho1=rng.uniform(0.0, 0.99),
        rho2=rng.uniform(0.0, 0.9999),
        delta=10.0 ** rng.uniform(-9, -6),
        alpha=rng.uniform(0.0, 0.99),
        lambda_=rng.uniform(1e-4, 0.5),
        eps_star=10.0 ** rng.uniform(-2, -1),
        gamma=10.0 ** rng.uniform(-4, 0),
    )


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_randomized_steps_match_scalar_reference(kind):
    rng = np.random.default_rng(zlib.crc32(kind.value.encode()))
    for trial in range(100):
        c = random_config(kind, rng)
        dim = int(rng.integers(1, 8))
        t0 = int(rng.integers(0, 40))
        theta = rng.normal(0, 2, dim)
        g = rng.normal(0, 3, dim)
        s = rng.normal(0, 1, dim)
        r = np.abs(rng.normal(0, 1, dim))
        theta2, (t2, s2, r2) = apply_step(c, (t0, s.copy(), r.copy()), theta, g)
        # SGDM keeps its velocity, the reference's v, in s
        ref_theta, ref_s, ref_r, ref_v, ref_t = ref_step(
            kind.value, asdict(c), t0, theta.tolist(), g.tolist(),
            s.tolist(), r.tolist(), s.tolist())
        assert t2 == ref_t
        np.testing.assert_allclose(theta2, ref_theta, rtol=1e-9, atol=0)
        np.testing.assert_allclose(s2, ref_v if kind is OptimizerKind.SGDM else ref_s,
                                   rtol=1e-9)
        np.testing.assert_allclose(r2, ref_r, rtol=1e-9)


# ---------------------------------------------------------------------------
# Identities and invariants
# ---------------------------------------------------------------------------

def test_sgdm_alpha_zero_is_bitwise_sgd():
    rng = np.random.default_rng(3)
    c_sgd = cfg(OptimizerKind.SGD, epsilon=0.01)
    c_sgdm = cfg(OptimizerKind.SGDM, epsilon=0.01, alpha=0.0)
    theta_a = theta_b = rng.normal(0, 1, 5)
    st_a, st_b = init_state(5), init_state(5)
    for _ in range(1000):
        g = rng.normal(0, 1, 5)
        theta_a, st_a = apply_step(c_sgd, st_a, theta_a, g)
        theta_b, st_b = apply_step(c_sgdm, st_b, theta_b, g)
        assert np.array_equal(theta_a, theta_b)  # bitwise


@pytest.mark.parametrize("variant", [OptimizerKind.ADAM, OptimizerKind.ADAMW])
def test_bias_correction_identity_constant_gradient(variant):
    c = default_config(variant)
    g_star = np.array([0.7, -1.3, 0.02])
    theta = np.zeros(3)
    state = init_state(3)
    for _ in range(100):
        theta, state = apply_step(c, state, theta, g_star)
        t, s, r = state
        s_hat = s / (1 - c.rho1 ** t)
        r_hat = r / (1 - c.rho2 ** t)
        np.testing.assert_allclose(s_hat, g_star, rtol=1e-12)
        np.testing.assert_allclose(r_hat, g_star**2, rtol=1e-12)


def test_zero_gradient_fixpoints():
    zero = np.zeros(3)
    theta0 = np.array([0.4, -2.0, 1.5])
    for kind in ALL_KINDS:
        if kind is OptimizerKind.ADAMW:
            continue
        c = default_config(kind)
        theta, state = theta0.copy(), init_state(3)
        for _ in range(20):
            theta, state = apply_step(c, state, theta, zero)
        np.testing.assert_array_equal(theta, theta0)


def test_adamw_zero_gradient_decay():
    c = cfg(OptimizerKind.ADAMW, lambda_=0.03)
    theta0 = np.array([0.4, -2.0, 1.5])
    theta, state = theta0.copy(), init_state(3)
    for t in range(1, 51):
        theta, state = apply_step(c, state, theta, np.zeros(3))
        np.testing.assert_allclose(theta, theta0 * (1 - c.lambda_) ** t, rtol=1e-12)


def test_adamax_brute_force_max_history():
    c = default_config(OptimizerKind.ADAMAX)
    rng = np.random.default_rng(11)
    grads = rng.normal(0, 2, size=(50, 4))
    theta, state = np.zeros(4), init_state(4)
    for t in range(50):
        theta, state = apply_step(c, state, theta, grads[t])
        expected = np.max(
            [c.rho2 ** (t - j) * np.abs(grads[j]) for j in range(t + 1)], axis=0)
        _, _, r = state
        np.testing.assert_allclose(r, expected, rtol=1e-12)


def test_adabound_bound_monotonicity_and_convergence():
    c = cfg(OptimizerKind.ADABOUND, eps_star=0.07, gamma=2e-3)
    ts = np.unique(np.geomspace(1, 10 * math.ceil(1e6 / c.gamma), 200).astype(int))
    los, his = zip(*(adabound_bounds(int(t), c) for t in ts))
    los, his = np.array(los), np.array(his)
    assert np.all(np.diff(los) > 0) and np.all(np.diff(his) < 0)
    assert np.all(los < c.eps_star) and np.all(his > c.eps_star)
    t_far = math.ceil(1e6 / c.gamma)
    lo, hi = adabound_bounds(t_far, c)
    assert abs(lo - c.eps_star) < 1e-6 * c.eps_star
    assert abs(hi - c.eps_star) < 1e-6 * c.eps_star


def test_first_adam_step_magnitude():
    rng = np.random.default_rng(5)
    for _ in range(50):
        c = default_config(OptimizerKind.ADAM)
        g = rng.normal(0, 10, 4)
        g[np.abs(g) < 1e-6] = 1.0
        theta, _ = apply_step(c, init_state(4), np.zeros(4), g)
        expected = c.epsilon * np.abs(g) / (c.delta + np.abs(g))
        np.testing.assert_allclose(np.abs(theta), expected, rtol=1e-9)
        assert np.all(np.abs(theta) < c.epsilon)


def test_steps_are_pure_and_do_not_mutate_inputs():
    rng = np.random.default_rng(9)
    for kind in ALL_KINDS:
        c = default_config(kind)
        theta = rng.normal(0, 1, 4)
        g = rng.normal(0, 1, 4)
        state = t, s, r = init_state(4)
        snap = (theta.copy(), g.copy(), s.copy(), r.copy())
        out1 = apply_step(c, state, theta, g)
        out2 = apply_step(c, state, theta, g)
        np.testing.assert_array_equal(out1[0], out2[0])
        np.testing.assert_array_equal(theta, snap[0])
        np.testing.assert_array_equal(g, snap[1])
        np.testing.assert_array_equal(s, snap[2])
        np.testing.assert_array_equal(r, snap[3])
        assert t == 0


def test_updates_finite_for_finite_inputs():
    rng = np.random.default_rng(21)
    for kind in ALL_KINDS:
        for _ in range(25):
            c = random_config(kind, rng)
            state = init_state(3)
            theta, g = rng.normal(0, 1e6, 3), rng.normal(0, 1e6, 3)
            theta2, (_, s2, r2) = apply_step(c, state, theta, g)
            assert np.isfinite(theta2).all()
            for arr in (s2, r2):
                assert np.isfinite(arr).all()


# ---------------------------------------------------------------------------
# Errors and validation
# ---------------------------------------------------------------------------

SHAPES = "theta, g, s and r must be 1-d vectors of one length, got shapes "


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_dimension_mismatch_raises(kind):
    c = default_config(kind)
    with pytest.raises(ValueError, match=SHAPES):
        apply_step(c, init_state(2), [1.0, 2.0], [1.0])
    with pytest.raises(ValueError, match=SHAPES):
        apply_step(c, init_state(3), [1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError, match=SHAPES):
        apply_step(c, init_state(2), [[1.0, 2.0], [3.0, 4.0]], [1.0, 2.0])
    with pytest.raises(ValueError, match=SHAPES):
        apply_step(c, init_state(2), [1.0, 2.0], [[1.0], [2.0]])
    short = (0, np.zeros(1), np.zeros(1))
    with pytest.raises(ValueError, match=SHAPES):
        apply_step(c, short, [1.0, 2.0], [1.0, 2.0])


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_state_that_is_not_three_values_raises(kind):
    with pytest.raises(ValueError, match="expected 3"):
        apply_step(default_config(kind), (0, np.zeros(2)), [1.0, 2.0], [1.0, 2.0])


@pytest.mark.parametrize("s, r, theta", [
    ((3,), (1,), (3,)),     # an Adam r of length 1 used to broadcast silently
    ((3,), (3,), (2,)),     # SGD and SGDM, which never read r, check it too
    ((2,), (3,), (2,)),
    ((3, 1), (3, 1), (3, 1)),
    ((), (), ()),
])
def test_state_rejects_mismatched_moments(s, r, theta):
    # theta and g share a shape, so only the moments (or the rank) are wrong
    state = (0, np.zeros(s), np.zeros(r))
    for kind in ALL_KINDS:
        with pytest.raises(ValueError, match=SHAPES):
            apply_step(default_config(kind), state, np.zeros(theta), np.zeros(theta))


def test_nonfinite_gradient_reaches_theta():
    # the training loop judges divergence by theta' alone, so a NaN or an
    # infinity in any gradient coordinate must never be absorbed by a step
    theta = np.array([0.1, -0.2, 0.3])
    for kind in ALL_KINDS:
        c = default_config(kind)
        for bad in (np.nan, np.inf, -np.inf):
            for coord in range(theta.size):
                g = np.array([0.5, -0.25, 0.125])
                g[coord] = bad
                with np.errstate(invalid="ignore"):
                    theta2, _ = apply_step(c, init_state(theta.size), theta, g)
                assert not np.isfinite(theta2).all(), (kind, bad, coord)


def test_sgdm_rejects_alpha_at_or_above_one():
    with pytest.raises(ConfigError):
        cfg(OptimizerKind.SGDM, alpha=1.0)


@pytest.mark.parametrize("bad", [
    dict(epsilon=0.0), dict(epsilon=-1.0), dict(rho1=1.0), dict(rho1=-0.1),
    dict(rho2=1.0), dict(delta=0.0), dict(alpha=-0.5), dict(lambda_=0.0),
    dict(lambda_=1.0), dict(eps_star=0.0), dict(gamma=0.0),
])
def test_config_validation_rejects_out_of_range(bad):
    with pytest.raises(ConfigError):
        cfg(OptimizerKind.ADAM, **bad)


# ---------------------------------------------------------------------------
# Config serialization (the study JSON file is the one config format)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ALL_KINDS)
def test_config_roundtrip_defaults(kind, tmp_path):
    study = StudyRecord(optimizer=kind, regime=Regime.DEFAULTS, sampler_seed=0, max_trials=1)
    study.add(TrialRecord(default_config(kind), (0.5,), TrialStatus.COMPLETED))
    save_study_json(study, tmp_path / "study.json")
    assert load_study_json(tmp_path / "study.json").trials[0].config == default_config(kind)


def test_default_epsilon_values():
    assert default_config(OptimizerKind.ADAM).epsilon == 1e-3
    assert default_config(OptimizerKind.ADAMW).epsilon == 1e-3
    assert default_config(OptimizerKind.ADABOUND).epsilon == 1e-3
    assert default_config(OptimizerKind.NADAM).epsilon == 2e-3
    assert default_config(OptimizerKind.ADAMAX).epsilon == 2e-3
    assert default_config(OptimizerKind.SGD).epsilon == 1e-3
    assert default_config(OptimizerKind.SGDM).epsilon == 1e-3
    assert default_config(OptimizerKind.SGDM).alpha == 0.9
    assert default_config(OptimizerKind.NADAM).alpha == 4e-3
    assert default_config(OptimizerKind.ADABOUND).eps_star == 0.1
    assert default_config(OptimizerKind.ADABOUND).gamma == 1e-3
    for kind in ADAPTIVE_KINDS:
        c = default_config(kind)
        assert (c.rho1, c.rho2, c.delta) == (0.9, 0.999, 1e-8)


# Searched hyperparameters that no update rule reads: Nadam's momentum strength
# and AdaMax's delta (ROADMAP item 14).
UNREAD_SEARCHED = {(OptimizerKind.NADAM, "alpha"), (OptimizerKind.ADAMAX, "delta")}


def test_every_searched_hyperparameter_but_the_unread_ones_changes_a_step():
    # nonzero moments and velocity, with AdaMax's r above |g| in coordinate 0. At
    # t' = 1 the tiny coordinate 2 keeps AdaBound's epsilon / sqrt(r') above its
    # lower bound, so epsilon acts; at t' = 10**4 the bounds have closed in on
    # eps_star and clip every coordinate, so eps_star and gamma act.
    theta, g = np.array([0.5, -1.0, 2.0]), np.array([0.3, -0.2, 1e-4])
    states = [(t, np.array([0.1, -0.05, 1e-5]), np.array([0.5, 0.01, 1e-8]))
              for t in (0, 9_999)]

    def step(kind, name, value, state):
        theta2, (_, s2, r2) = apply_step(cfg(kind, **{name: value}), state, theta, g)
        return theta2, s2, r2

    read = set()
    for kind, params in _SEARCHED.items():
        for p in params:
            for state in states:
                low, high = step(kind, p.name, p.low, state), step(kind, p.name, p.high, state)
                if not all(np.array_equal(a, b) for a, b in zip(low, high)):
                    read.add((kind, p.name))
    searched = {(kind, p.name) for kind, params in _SEARCHED.items() for p in params}
    assert searched - read == UNREAD_SEARCHED
