"""Seven stochastic-gradient optimizers as pure state-transition functions.

Implemented update rules (all vector operations elementwise, float64):

    SGD       theta' = theta - epsilon * g
    SGDM      theta' = theta - epsilon * g + alpha * v
              v'     = alpha * v - epsilon * g
    Adam      s' = rho1*s + (1-rho1)*g;  r' = rho2*r + (1-rho2)*g^2
              s_hat = s'/(1-rho1^t');    r_hat = r'/(1-rho2^t')
              theta' = theta - epsilon * s_hat / (delta + sqrt(r_hat))
    Nadam     as Adam, except
              s_hat = rho1*s'/(1-rho1^(t'+1)) + (1-rho1)*g/(1-rho1^t')
              r_hat = rho2 * r'/(1-rho2^t')
    AdamW     as Adam, plus a decoupled decay term  - lambda * theta
    AdaMax    r' = max(rho2*r, |g|)  (per coordinate, no bias correction of r)
              theta' = theta - epsilon/(1-rho1^t') * s'/r'
    AdaBound  eta = clip(epsilon/(sqrt(r') + delta), lo(t'), hi(t'))
              theta' = theta - eta * s'
              lo(t) = eps_star*(1 - 1/(gamma*t + 1)),  hi(t) = eps_star*(1 + 1/(gamma*t))

The step counter t starts at 0 and is incremented before being used in any
power term, so the first update uses t' = 1.

``apply_step`` is the one entry point and the one input check: it converts
theta and g to float64 arrays unless they already are (the training loop's
always are, so a step converts nothing), raises DimensionError unless theta,
g and the state's s, r and v are 1-d vectors of one length, and dispatches
on ``config.kind`` to a private rule that only does arithmetic, with ufuncs
rather than their Python wrappers. Steps are pure: they never mutate their
inputs and identical inputs produce identical outputs, so concurrent
training runs only need to own their own state. A NaN or infinity in the
gradient propagates into the returned parameters, where the training loop
detects it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "OptimizerKind",
    "OptimizerConfig",
    "OptimizerState",
    "ConfigError",
    "DimensionError",
    "ADAPTIVE_KINDS",
    "default_config",
    "init_state",
    "adabound_bounds",
    "apply_step",
]


class ConfigError(ValueError):
    """A hyperparameter value is out of range or a name or name list is invalid."""


class DimensionError(ValueError):
    """Parameter, gradient, or state vectors are not 1-d or their lengths disagree."""


class OptimizerKind(str, Enum):
    SGD = "sgd"
    SGDM = "sgdm"
    ADAM = "adam"
    NADAM = "nadam"
    ADAMW = "adamw"
    ADAMAX = "adamax"
    ADABOUND = "adabound"

    @classmethod
    def parse(cls, text: str) -> "OptimizerKind":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise ConfigError(f"unknown optimizer kind: {text!r}") from None


# The five optimizers that rescale their learning rate per coordinate.
ADAPTIVE_KINDS = (
    OptimizerKind.ADAM,
    OptimizerKind.NADAM,
    OptimizerKind.ADAMW,
    OptimizerKind.ADAMAX,
    OptimizerKind.ADABOUND,
)

@dataclass(frozen=True)
class OptimizerConfig:
    """Full hyperparameter set for any of the seven optimizers.

    Fields irrelevant to ``kind`` are stored anyway so that configs
    round-trip through serialization unchanged; ``tuning`` writes and reads
    a config's study-file form.

    epsilon   learning rate (> 0)
    rho1      first-moment decay in [0, 1)
    rho2      second-moment decay in [0, 1)
    delta     numerical stability constant (> 0)
    alpha     momentum: SGDM velocity decay in [0, 1) / Nadam momentum strength (>= 0)
    lambda_   AdamW decoupled weight decay in (0, 1)
    eps_star  AdaBound terminal learning rate (> 0)
    gamma     AdaBound bound-convergence speed (> 0)
    """

    kind: OptimizerKind
    epsilon: float = 1e-3
    rho1: float = 0.9
    rho2: float = 0.999
    delta: float = 1e-8
    alpha: float = 0.0
    lambda_: float = 0.01
    eps_star: float = 0.1
    gamma: float = 1e-3

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ConfigError(f"epsilon must be > 0, got {self.epsilon}")
        if not 0.0 <= self.rho1 < 1.0:
            raise ConfigError(f"rho1 must be in [0, 1), got {self.rho1}")
        if not 0.0 <= self.rho2 < 1.0:
            raise ConfigError(f"rho2 must be in [0, 1), got {self.rho2}")
        if not self.delta > 0:
            raise ConfigError(f"delta must be > 0, got {self.delta}")
        if not self.alpha >= 0:
            raise ConfigError(f"alpha must be >= 0, got {self.alpha}")
        if self.kind is OptimizerKind.SGDM and not self.alpha < 1.0:
            raise ConfigError(f"SGDM momentum alpha must be in [0, 1), got {self.alpha}")
        if not 0.0 < self.lambda_ < 1.0:
            raise ConfigError(f"lambda must be in (0, 1), got {self.lambda_}")
        if not self.eps_star > 0:
            raise ConfigError(f"eps_star must be > 0, got {self.eps_star}")
        if not self.gamma > 0:
            raise ConfigError(f"gamma must be > 0, got {self.gamma}")


def default_config(kind: OptimizerKind) -> OptimizerConfig:
    """The untuned hyperparameter values for ``kind``.

    epsilon is 2e-3 for Nadam and AdaMax and 1e-3 for everything else;
    alpha is 0.9 for SGDM and 4e-3 for Nadam. Fields an optimizer never
    reads keep their generic values so configs stay fully populated.
    """
    epsilon = 2e-3 if kind in (OptimizerKind.NADAM, OptimizerKind.ADAMAX) else 1e-3
    alpha = {OptimizerKind.SGDM: 0.9, OptimizerKind.NADAM: 4e-3}.get(kind, 0.0)
    return OptimizerConfig(kind=kind, epsilon=epsilon, alpha=alpha)


@dataclass(frozen=True)
class OptimizerState:
    """Mutable-per-run optimizer memory, passed and returned by value.

    t  step counter, incremented by exactly 1 per step
    s  first moment (Adam family, AdaBound)
    r  second moment (sum of squares, or running max of |g| for AdaMax)
    v  velocity (SGDM)

    ``apply_step`` requires s, r and v to be 1-d vectors of one length.
    """

    t: int
    s: np.ndarray
    r: np.ndarray
    v: np.ndarray


def init_state(config: OptimizerConfig, dim: int) -> OptimizerState:
    """Zero-initialized state for a ``dim``-dimensional parameter vector."""
    if dim < 1:
        raise DimensionError(f"dim must be >= 1, got {dim}")
    zeros = np.zeros(dim, dtype=np.float64)
    return OptimizerState(t=0, s=zeros.copy(), r=zeros.copy(), v=zeros.copy())


def _sgd(config, state, theta, g):
    theta2 = theta - config.epsilon * g
    return theta2, OptimizerState(t=state.t + 1, s=state.s, r=state.r, v=state.v)


def _sgdm(config, state, theta, g):
    theta2 = theta - config.epsilon * g + config.alpha * state.v
    v2 = config.alpha * state.v - config.epsilon * g
    return theta2, OptimizerState(t=state.t + 1, s=state.s, r=state.r, v=v2)


def _adam(config, state, theta, g):
    # Adam, Nadam and AdamW; config.kind picks the bias correction and decay
    rho1, rho2 = config.rho1, config.rho2
    t2 = state.t + 1
    s2 = rho1 * state.s + (1.0 - rho1) * g
    r2 = rho2 * state.r + (1.0 - rho2) * g * g
    if config.kind is OptimizerKind.NADAM:
        s_hat = rho1 * s2 / (1.0 - rho1 ** (t2 + 1)) + (1.0 - rho1) * g / (1.0 - rho1**t2)
        r_hat = rho2 * r2 / (1.0 - rho2**t2)
    else:
        s_hat = s2 / (1.0 - rho1**t2)
        r_hat = r2 / (1.0 - rho2**t2)
    update = config.epsilon * s_hat / (config.delta + np.sqrt(r_hat))
    theta2 = theta - update
    if config.kind is OptimizerKind.ADAMW:
        # decoupled decay of the pre-step theta, not scaled by epsilon
        theta2 = theta2 - config.lambda_ * theta
    return theta2, OptimizerState(t=t2, s=s2, r=r2, v=state.v)


def _adamax(config, state, theta, g):
    # a coordinate whose whole gradient history is zero has r' = s' = 0 and
    # moves by 0
    rho1 = config.rho1
    t2 = state.t + 1
    s2 = rho1 * state.s + (1.0 - rho1) * g
    r2 = np.maximum(config.rho2 * state.r, np.abs(g))
    # != rather than >: a NaN in r' must reach theta' instead of reading as 0
    ratio = np.divide(s2, r2, out=np.zeros(s2.shape), where=r2 != 0.0)
    theta2 = theta - (config.epsilon / (1.0 - rho1**t2)) * ratio
    return theta2, OptimizerState(t=t2, s=s2, r=r2, v=state.v)


def adabound_bounds(t: int, config: OptimizerConfig) -> tuple[float, float]:
    """Dynamic per-step clip window for AdaBound's effective learning rate.

    lo(t) = eps_star * (1 - 1/(gamma*t + 1)) rises from ~0,
    hi(t) = eps_star * (1 + 1/(gamma*t)) falls from ~infinity,
    and both converge to eps_star as t grows.
    """
    if t < 1:
        raise ConfigError(f"bounds need t >= 1, got {t}")
    lo = config.eps_star * (1.0 - 1.0 / (config.gamma * t + 1.0))
    hi = config.eps_star * (1.0 + 1.0 / (config.gamma * t))
    return lo, hi


def _adabound(config, state, theta, g):
    # delta guards coordinates with all-zero gradient history; the numerator
    # uses the uncorrected first moment
    rho1, rho2 = config.rho1, config.rho2
    t2 = state.t + 1
    s2 = rho1 * state.s + (1.0 - rho1) * g
    r2 = rho2 * state.r + (1.0 - rho2) * g * g
    lo, hi = adabound_bounds(t2, config)
    eta = np.minimum(np.maximum(config.epsilon / (np.sqrt(r2) + config.delta), lo), hi)
    theta2 = theta - eta * s2
    return theta2, OptimizerState(t=t2, s=s2, r=r2, v=state.v)


_RULES = {
    OptimizerKind.SGD: _sgd,
    OptimizerKind.SGDM: _sgdm,
    OptimizerKind.ADAM: _adam,
    OptimizerKind.NADAM: _adam,
    OptimizerKind.ADAMW: _adam,
    OptimizerKind.ADAMAX: _adamax,
    OptimizerKind.ADABOUND: _adabound,
}


def apply_step(config, state, theta, g):
    """One update step of ``config.kind``'s rule. Returns (theta', state').

    Raises DimensionError unless theta, g and the state's s, r and v are 1-d
    vectors of one length; this is the only check on a step's inputs.
    """
    if type(theta) is not np.ndarray or theta.dtype != np.float64:
        theta = np.asarray(theta, dtype=np.float64)
    if type(g) is not np.ndarray or g.dtype != np.float64:
        g = np.asarray(g, dtype=np.float64)
    if theta.ndim != 1 or not (
            theta.shape == g.shape == state.s.shape == state.r.shape == state.v.shape):
        raise DimensionError(f"theta, g, s, r and v must be 1-d vectors of one length, got "
                             f"shapes {theta.shape}, {g.shape}, {state.s.shape}, "
                             f"{state.r.shape} and {state.v.shape}")
    return _RULES[config.kind](config, state, theta, g)
