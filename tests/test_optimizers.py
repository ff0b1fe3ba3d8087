"""Unit tests for the seven optimizer update rules."""

import math
import zlib

import numpy as np
import pytest

from optbench.optimizers import (
    ADAPTIVE_KINDS,
    ConfigError,
    DimensionError,
    NonFiniteError,
    OptimizerConfig,
    OptimizerKind,
    adabound_bounds,
    adabound_step,
    adam_step,
    adamax_step,
    apply_step,
    default_config,
    init_state,
    sgd_step,
    sgdm_step,
)
from reference_optimizers import ref_step

ALL_KINDS = list(OptimizerKind)


def cfg(kind, **kw):
    return default_config(kind).with_values(**kw)


# ---------------------------------------------------------------------------
# init_state
# ---------------------------------------------------------------------------

def test_init_state_zero():
    state = init_state(default_config(OptimizerKind.ADAM), 3)
    assert state.t == 0
    np.testing.assert_array_equal(state.s, [0, 0, 0])
    np.testing.assert_array_equal(state.r, [0, 0, 0])
    np.testing.assert_array_equal(state.v, [0, 0, 0])


def test_init_state_sgdm_and_adabound():
    assert init_state(default_config(OptimizerKind.SGDM), 1).v.tolist() == [0.0]
    st = init_state(default_config(OptimizerKind.ADABOUND), 2)
    assert st.t == 0 and st.s.tolist() == [0.0, 0.0]


def test_init_state_rejects_dim_zero():
    with pytest.raises(DimensionError):
        init_state(default_config(OptimizerKind.SGD), 0)


# ---------------------------------------------------------------------------
# Hand-computed single steps
# ---------------------------------------------------------------------------

def test_sgd_scalar_step():
    c = cfg(OptimizerKind.SGD, epsilon=0.1)
    theta, state = sgd_step(init_state(c, 1), [1.0], [0.5], c)
    np.testing.assert_allclose(theta, [0.95], rtol=1e-12)
    assert state.t == 1


def test_sgd_zero_gradient():
    c = cfg(OptimizerKind.SGD, epsilon=0.37)
    theta, _ = sgd_step(init_state(c, 2), [2.0, -1.0], [0.0, 0.0], c)
    np.testing.assert_array_equal(theta, [2.0, -1.0])


def test_sgd_default_rate():
    c = default_config(OptimizerKind.SGD)
    assert c.epsilon == 1e-3
    theta, _ = sgd_step(init_state(c, 1), [0.0], [1.0], c)
    np.testing.assert_allclose(theta, [-0.001], rtol=1e-12)


def test_sgdm_two_steps():
    c = cfg(OptimizerKind.SGDM, epsilon=0.1, alpha=0.9)
    state = init_state(c, 1)
    theta, state = sgdm_step(state, [1.0], [0.5], c)
    np.testing.assert_allclose(theta, [0.95], rtol=1e-12)
    np.testing.assert_allclose(state.v, [-0.05], rtol=1e-12)
    theta, state = sgdm_step(state, theta, [0.5], c)
    np.testing.assert_allclose(theta, [0.855], rtol=1e-12)
    np.testing.assert_allclose(state.v, [-0.095], rtol=1e-12)


def test_adam_first_step():
    c = default_config(OptimizerKind.ADAM)
    theta, state = adam_step(init_state(c, 1), [0.0], [1.0], c, OptimizerKind.ADAM)
    np.testing.assert_allclose(state.s, [0.1], rtol=1e-12)
    np.testing.assert_allclose(state.r, [0.001], rtol=1e-12)
    np.testing.assert_allclose(theta, [-9.99999990e-4], rtol=1e-6)


def test_nadam_first_step():
    c = cfg(OptimizerKind.NADAM, epsilon=1e-3)
    theta, _ = adam_step(init_state(c, 1), [0.0], [1.0], c, OptimizerKind.NADAM)
    np.testing.assert_allclose(theta, [-1.47442e-3], rtol=1e-5)
    np.testing.assert_allclose(theta, [-0.0014744215909724947], rtol=1e-12)


def test_adamw_first_step():
    c = cfg(OptimizerKind.ADAMW, lambda_=0.01)
    theta, _ = adam_step(init_state(c, 1), [0.5], [1.0], c, OptimizerKind.ADAMW)
    np.testing.assert_allclose(theta, [0.49400], rtol=1e-5)


def test_adamax_first_step():
    c = cfg(OptimizerKind.ADAMAX, epsilon=2e-3)
    theta, state = adamax_step(init_state(c, 1), [0.0], [1.0], c)
    np.testing.assert_allclose(state.s, [0.1], rtol=1e-12)
    np.testing.assert_allclose(state.r, [1.0], rtol=1e-12)
    np.testing.assert_allclose(theta, [-0.002], rtol=1e-9)


def test_adamax_zero_gradient_from_fresh_state():
    c = default_config(OptimizerKind.ADAMAX)
    theta, _ = adamax_step(init_state(c, 1), [0.7], [0.0], c)
    np.testing.assert_array_equal(theta, [0.7])  # 0/0 convention


def test_adamax_second_moment_is_decaying_max():
    c = cfg(OptimizerKind.ADAMAX, rho2=0.999)
    state = init_state(c, 1)
    theta, state = adamax_step(state, [0.0], [1.0], c)
    theta, state = adamax_step(state, theta, [0.5], c)
    np.testing.assert_allclose(state.r, [0.999], rtol=1e-12)


def test_adabound_bounds_examples():
    c = cfg(OptimizerKind.ADABOUND, eps_star=0.1, gamma=1e-3)
    lo, hi = adabound_bounds(1, c)
    np.testing.assert_allclose(lo, 9.99001e-5, rtol=1e-5)
    np.testing.assert_allclose(hi, 100.1, rtol=1e-12)
    lo, hi = adabound_bounds(1000, c)
    np.testing.assert_allclose([lo, hi], [0.05, 0.2], rtol=1e-12)
    with pytest.raises(ConfigError):
        adabound_bounds(0, c)


def test_adabound_first_step():
    c = default_config(OptimizerKind.ADABOUND)
    theta, state = adabound_step(init_state(c, 1), [0.0], [1.0], c)
    np.testing.assert_allclose(state.r, [0.001], rtol=1e-12)
    np.testing.assert_allclose(theta, [-3.16227e-3], rtol=1e-5)


def test_adabound_clip_saturates_at_upper_bound():
    # tiny gamma*t keeps hi small only when eps_star is small; instead force
    # saturation by making the raw rate enormous via a tiny gradient
    c = cfg(OptimizerKind.ADABOUND, epsilon=1.0, eps_star=0.01, gamma=10.0)
    _, hi = adabound_bounds(1, c)
    theta, state = adabound_step(init_state(c, 1), [0.0], [1e-8], c)
    # raw eta = 1.0 / (1e-8*sqrt(1-rho2) + delta) >> hi, so eta == hi exactly
    expected = -hi * state.s[0]
    np.testing.assert_allclose(theta, [expected], rtol=0, atol=0)


def test_adabound_point_clip_reduces_to_momentum_update():
    c = cfg(OptimizerKind.ADABOUND, epsilon=1e-3, eps_star=0.05, gamma=1e6)
    # with huge gamma both bounds are eps_star to ~1e-6 relative: update ~ -c*s'
    theta, state = adabound_step(init_state(c, 1), [0.0], [1.0], c)
    np.testing.assert_allclose(theta, [-0.05 * state.s[0]], rtol=1e-5)


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
        v = rng.normal(0, 1, dim)
        state = init_state(c, dim)
        state = type(state)(t=t0, s=s.copy(), r=r.copy(), v=v.copy())
        theta2, state2 = apply_step(c, state, theta, g)
        ref_theta, ref_s, ref_r, ref_v, ref_t = ref_step(
            kind.value, c.values_by_key(), t0, theta.tolist(), g.tolist(),
            s.tolist(), r.tolist(), v.tolist())
        assert state2.t == ref_t
        np.testing.assert_allclose(theta2, ref_theta, rtol=1e-9, atol=0)
        np.testing.assert_allclose(state2.s, ref_s, rtol=1e-9)
        np.testing.assert_allclose(state2.r, ref_r, rtol=1e-9)
        np.testing.assert_allclose(state2.v, ref_v, rtol=1e-9)


# ---------------------------------------------------------------------------
# Identities and invariants
# ---------------------------------------------------------------------------

def test_sgdm_alpha_zero_is_bitwise_sgd():
    rng = np.random.default_rng(3)
    c_sgd = cfg(OptimizerKind.SGD, epsilon=0.01)
    c_sgdm = cfg(OptimizerKind.SGDM, epsilon=0.01, alpha=0.0)
    theta_a = theta_b = rng.normal(0, 1, 5)
    st_a, st_b = init_state(c_sgd, 5), init_state(c_sgdm, 5)
    for _ in range(1000):
        g = rng.normal(0, 1, 5)
        theta_a, st_a = sgd_step(st_a, theta_a, g, c_sgd)
        theta_b, st_b = sgdm_step(st_b, theta_b, g, c_sgdm)
        assert np.array_equal(theta_a, theta_b)  # bitwise


@pytest.mark.parametrize("variant", [OptimizerKind.ADAM, OptimizerKind.ADAMW])
def test_bias_correction_identity_constant_gradient(variant):
    c = default_config(variant)
    g_star = np.array([0.7, -1.3, 0.02])
    theta = np.zeros(3)
    state = init_state(c, 3)
    for _ in range(100):
        theta, state = adam_step(state, theta, g_star, c, variant)
        s_hat = state.s / (1 - c.rho1 ** state.t)
        r_hat = state.r / (1 - c.rho2 ** state.t)
        np.testing.assert_allclose(s_hat, g_star, rtol=1e-12)
        np.testing.assert_allclose(r_hat, g_star**2, rtol=1e-12)


def test_zero_gradient_fixpoints():
    zero = np.zeros(3)
    theta0 = np.array([0.4, -2.0, 1.5])
    for kind in ALL_KINDS:
        if kind is OptimizerKind.ADAMW:
            continue
        c = default_config(kind)
        theta, state = theta0.copy(), init_state(c, 3)
        for _ in range(20):
            theta, state = apply_step(c, state, theta, zero)
        np.testing.assert_array_equal(theta, theta0)


def test_adamw_zero_gradient_decay():
    c = cfg(OptimizerKind.ADAMW, lambda_=0.03)
    theta0 = np.array([0.4, -2.0, 1.5])
    theta, state = theta0.copy(), init_state(c, 3)
    for t in range(1, 51):
        theta, state = apply_step(c, state, theta, np.zeros(3))
        np.testing.assert_allclose(theta, theta0 * (1 - c.lambda_) ** t, rtol=1e-12)


def test_adamax_brute_force_max_history():
    c = default_config(OptimizerKind.ADAMAX)
    rng = np.random.default_rng(11)
    grads = rng.normal(0, 2, size=(50, 4))
    theta, state = np.zeros(4), init_state(c, 4)
    for t in range(50):
        theta, state = adamax_step(state, theta, grads[t], c)
        expected = np.max(
            [c.rho2 ** (t - j) * np.abs(grads[j]) for j in range(t + 1)], axis=0)
        np.testing.assert_allclose(state.r, expected, rtol=1e-12)


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
        theta, _ = adam_step(init_state(c, 4), np.zeros(4), g, c, OptimizerKind.ADAM)
        expected = c.epsilon * np.abs(g) / (c.delta + np.abs(g))
        np.testing.assert_allclose(np.abs(theta), expected, rtol=1e-9)
        assert np.all(np.abs(theta) < c.epsilon)


def test_steps_are_pure_and_do_not_mutate_inputs():
    rng = np.random.default_rng(9)
    for kind in ALL_KINDS:
        c = default_config(kind)
        theta = rng.normal(0, 1, 4)
        g = rng.normal(0, 1, 4)
        state = init_state(c, 4)
        snap = (theta.copy(), g.copy(), state.s.copy(), state.r.copy(), state.v.copy())
        out1 = apply_step(c, state, theta, g)
        out2 = apply_step(c, state, theta, g)
        np.testing.assert_array_equal(out1[0], out2[0])
        np.testing.assert_array_equal(theta, snap[0])
        np.testing.assert_array_equal(g, snap[1])
        np.testing.assert_array_equal(state.s, snap[2])
        np.testing.assert_array_equal(state.r, snap[3])
        np.testing.assert_array_equal(state.v, snap[4])
        assert state.t == 0


def test_updates_finite_for_finite_inputs():
    rng = np.random.default_rng(21)
    for kind in ALL_KINDS:
        for _ in range(25):
            c = random_config(kind, rng)
            state = init_state(c, 3)
            theta, g = rng.normal(0, 1e6, 3), rng.normal(0, 1e6, 3)
            theta2, state2 = apply_step(c, state, theta, g)
            assert np.isfinite(theta2).all()
            for arr in (state2.s, state2.r, state2.v):
                assert np.isfinite(arr).all()


# ---------------------------------------------------------------------------
# Errors and validation
# ---------------------------------------------------------------------------

def test_dimension_mismatch_raises():
    c = default_config(OptimizerKind.SGD)
    with pytest.raises(DimensionError):
        sgd_step(init_state(c, 2), [1.0, 2.0], [1.0], c)
    with pytest.raises(DimensionError):
        sgd_step(init_state(c, 3), [1.0, 2.0], [1.0, 2.0], c)


def test_nonfinite_gradient_raises():
    c = default_config(OptimizerKind.ADAM)
    with pytest.raises(NonFiniteError):
        adam_step(init_state(c, 2), [0.0, 0.0], [1.0, np.nan], c, OptimizerKind.ADAM)
    with pytest.raises(NonFiniteError):
        sgd_step(init_state(default_config(OptimizerKind.SGD), 1), [np.inf], [1.0],
                 default_config(OptimizerKind.SGD))


def test_invalid_adam_variant_rejected():
    c = default_config(OptimizerKind.ADAM)
    with pytest.raises(ConfigError):
        adam_step(init_state(c, 1), [0.0], [1.0], c, OptimizerKind.ADAMAX)


def test_sgdm_rejects_alpha_at_or_above_one():
    with pytest.raises(ConfigError):
        cfg(OptimizerKind.SGDM, alpha=1.0)
    text = default_config(OptimizerKind.SGDM).to_text()
    text = text.replace("alpha = 0.9", "alpha = 1.0")
    with pytest.raises(ConfigError):
        OptimizerConfig.from_text(text)


@pytest.mark.parametrize("bad", [
    dict(epsilon=0.0), dict(epsilon=-1.0), dict(rho1=1.0), dict(rho1=-0.1),
    dict(rho2=1.0), dict(delta=0.0), dict(alpha=-0.5), dict(lambda_=0.0),
    dict(lambda_=1.0), dict(eps_star=0.0), dict(gamma=0.0),
])
def test_config_validation_rejects_out_of_range(bad):
    with pytest.raises(ConfigError):
        cfg(OptimizerKind.ADAM, **bad)


# ---------------------------------------------------------------------------
# Config document round-trip
# ---------------------------------------------------------------------------

def test_config_roundtrip_preserves_irrelevant_fields():
    c = cfg(OptimizerKind.SGD, epsilon=3e-4, rho1=0.83, rho2=0.95, delta=2e-8,
            alpha=0.25, lambda_=0.3, eps_star=0.05, gamma=7e-4)
    assert OptimizerConfig.from_text(c.to_text()) == c


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_config_roundtrip_defaults(kind):
    c = default_config(kind)
    assert OptimizerConfig.from_text(c.to_text()) == c


def test_config_document_rejects_unknown_duplicate_missing():
    base = default_config(OptimizerKind.ADAM).to_text()
    with pytest.raises(ConfigError, match="unknown"):
        OptimizerConfig.from_text(base + "momentum = 0.9\n")
    with pytest.raises(ConfigError, match="duplicate"):
        OptimizerConfig.from_text(base + "epsilon = 1e-3\n")
    with pytest.raises(ConfigError, match="missing"):
        OptimizerConfig.from_text("kind = adam\nepsilon = 1e-3\n")
    with pytest.raises(ConfigError):
        OptimizerConfig.from_text(base.replace("0.999", "not-a-number"))


def test_config_document_ignores_comments_and_blanks():
    text = "# tuned by hand\n\n" + default_config(OptimizerKind.NADAM).to_text()
    assert OptimizerConfig.from_text(text) == default_config(OptimizerKind.NADAM)


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
