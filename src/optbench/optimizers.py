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

All step functions are pure: they never mutate their inputs and identical
inputs produce identical outputs, so concurrent training runs only need to
own their own state. They are arithmetic only: a NaN or infinity in the
gradient propagates into the returned parameters, where the training loop
detects it, and the only error a step raises on its vectors is
DimensionError for a shape or length mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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
    "sgd_step",
    "sgdm_step",
    "adam_step",
    "adamax_step",
    "adabound_bounds",
    "adabound_step",
    "apply_step",
]


class ConfigError(ValueError):
    """A hyperparameter value is out of range or a config document is malformed."""


class DimensionError(ValueError):
    """Parameter, gradient, and state vector lengths disagree."""


class OptimizerKind(str, Enum):
    SGD = "sgd"
    SGDM = "sgdm"
    ADAM = "adam"
    NADAM = "nadam"
    ADAMW = "adamw"
    ADAMAX = "adamax"
    ADABOUND = "adabound"

    @property
    def display(self) -> str:
        return _DISPLAY[self]

    @classmethod
    def parse(cls, text: str) -> "OptimizerKind":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise ConfigError(f"unknown optimizer kind: {text!r}") from None


_DISPLAY = {
    OptimizerKind.SGD: "SGD",
    OptimizerKind.SGDM: "SGDM",
    OptimizerKind.ADAM: "Adam",
    OptimizerKind.NADAM: "Nadam",
    OptimizerKind.ADAMW: "AdamW",
    OptimizerKind.ADAMAX: "AdaMax",
    OptimizerKind.ADABOUND: "AdaBound",
}

# The five optimizers that rescale their learning rate per coordinate.
ADAPTIVE_KINDS = (
    OptimizerKind.ADAM,
    OptimizerKind.NADAM,
    OptimizerKind.ADAMW,
    OptimizerKind.ADAMAX,
    OptimizerKind.ADABOUND,
)

_ADAM_FAMILY = (OptimizerKind.ADAM, OptimizerKind.NADAM, OptimizerKind.ADAMW)

# Wire-format keys of the plain-text config document, in canonical order.
CONFIG_KEYS = (
    "kind",
    "epsilon",
    "rho1",
    "rho2",
    "delta",
    "alpha",
    "lambda",
    "eps_star",
    "gamma",
)


@dataclass(frozen=True)
class OptimizerConfig:
    """Full hyperparameter set for any of the seven optimizers.

    Fields irrelevant to ``kind`` are stored anyway so that configs
    round-trip through serialization unchanged.

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
        if not isinstance(self.kind, OptimizerKind):
            object.__setattr__(self, "kind", OptimizerKind.parse(str(self.kind)))
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

    def values_by_key(self) -> dict:
        """Map wire-format keys to values (``lambda_`` appears as ``lambda``)."""
        return {
            "kind": self.kind.value,
            "epsilon": self.epsilon,
            "rho1": self.rho1,
            "rho2": self.rho2,
            "delta": self.delta,
            "alpha": self.alpha,
            "lambda": self.lambda_,
            "eps_star": self.eps_star,
            "gamma": self.gamma,
        }

    def to_text(self) -> str:
        """Serialize to the plain-text key-value document format."""
        kv = self.values_by_key()
        return "".join(f"{key} = {kv[key]!r}\n" if isinstance(kv[key], float)
                       else f"{key} = {kv[key]}\n" for key in CONFIG_KEYS)

    @classmethod
    def from_text(cls, text: str) -> "OptimizerConfig":
        """Parse the plain-text key-value document.

        Every key must appear exactly once; unknown keys are rejected.
        """
        seen: dict[str, str] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in CONFIG_KEYS:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
            if key in seen:
                raise ConfigError(f"line {lineno}: duplicate key {key!r}")
            seen[key] = value.strip()
        missing = [k for k in CONFIG_KEYS if k not in seen]
        if missing:
            raise ConfigError(f"missing keys: {', '.join(missing)}")
        try:
            numbers = {k: float(seen[k]) for k in CONFIG_KEYS if k != "kind"}
        except ValueError as exc:
            raise ConfigError(f"non-numeric value: {exc}") from None
        numbers["lambda_"] = numbers.pop("lambda")
        return cls(kind=OptimizerKind.parse(seen["kind"]), **numbers)

    def with_values(self, **updates) -> "OptimizerConfig":
        if "lambda" in updates:
            updates["lambda_"] = updates.pop("lambda")
        return replace(self, **updates)


def default_config(kind: OptimizerKind) -> OptimizerConfig:
    """The untuned hyperparameter values for ``kind``.

    epsilon is 2e-3 for Nadam and AdaMax and 1e-3 for everything else;
    alpha is 0.9 for SGDM and 4e-3 for Nadam. Fields an optimizer never
    reads keep their generic values so configs stay fully populated.
    """
    kind = OptimizerKind.parse(kind) if not isinstance(kind, OptimizerKind) else kind
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
    """

    t: int
    s: np.ndarray
    r: np.ndarray
    v: np.ndarray

    @property
    def dim(self) -> int:
        return self.s.shape[0]


def init_state(config: OptimizerConfig, dim: int) -> OptimizerState:
    """Zero-initialized state for a ``dim``-dimensional parameter vector."""
    if dim < 1:
        raise DimensionError(f"dim must be >= 1, got {dim}")
    zeros = np.zeros(dim, dtype=np.float64)
    return OptimizerState(t=0, s=zeros.copy(), r=zeros.copy(), v=zeros.copy())


def _as_vector(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise DimensionError(f"{name} must be a 1-d vector, got shape {arr.shape}")
    return arr


def _check_step_inputs(state: OptimizerState, theta, g) -> tuple[np.ndarray, np.ndarray]:
    theta = _as_vector(theta, "theta")
    g = _as_vector(g, "g")
    if theta.shape[0] != g.shape[0] or theta.shape[0] != state.dim:
        raise DimensionError(
            f"length mismatch: theta={theta.shape[0]}, g={g.shape[0]}, state={state.dim}"
        )
    return theta, g


def sgd_step(state, theta, g, config):
    """theta' = theta - epsilon * g; moments and velocity untouched."""
    theta, g = _check_step_inputs(state, theta, g)
    theta2 = theta - config.epsilon * g
    return theta2, replace(state, t=state.t + 1)


def sgdm_step(state, theta, g, config):
    """SGDM update: velocity is a decaying sum of past scaled gradients.

    theta' = theta - epsilon * g + alpha * v
    v'     = alpha * v - epsilon * g

    With alpha = 0 the momentum term is skipped entirely, so the theta
    trajectory is bitwise identical to plain SGD.
    """
    theta, g = _check_step_inputs(state, theta, g)
    alpha = config.alpha
    if alpha == 0.0:
        theta2 = theta - config.epsilon * g
    else:
        theta2 = theta - config.epsilon * g + alpha * state.v
    v2 = alpha * state.v - config.epsilon * g
    return theta2, replace(state, t=state.t + 1, v=v2)


def adam_step(state, theta, g, config, variant: OptimizerKind = OptimizerKind.ADAM):
    """One Adam / Nadam / AdamW step.

    The three variants share the moment updates

        s' = rho1 * s + (1 - rho1) * g
        r' = rho2 * r + (1 - rho2) * g^2

    and differ in bias correction and decay:

        Adam/AdamW: s_hat = s'/(1-rho1^t'),  r_hat = r'/(1-rho2^t')
        Nadam:      s_hat = rho1*s'/(1-rho1^(t'+1)) + (1-rho1)*g/(1-rho1^t')
                    r_hat = rho2 * r'/(1-rho2^t')
        update:     theta' = theta - epsilon * s_hat / (delta + sqrt(r_hat))
        AdamW only: theta' -= lambda * theta   (pre-step theta, not scaled
                    by epsilon)
    """
    if variant not in _ADAM_FAMILY:
        raise ConfigError(f"invalid Adam variant: {variant!r}")
    theta, g = _check_step_inputs(state, theta, g)
    rho1, rho2 = config.rho1, config.rho2
    t2 = state.t + 1
    s2 = rho1 * state.s + (1.0 - rho1) * g
    r2 = rho2 * state.r + (1.0 - rho2) * g * g
    if variant is OptimizerKind.NADAM:
        s_hat = rho1 * s2 / (1.0 - rho1 ** (t2 + 1)) + (1.0 - rho1) * g / (1.0 - rho1**t2)
        r_hat = rho2 * r2 / (1.0 - rho2**t2)
    else:
        s_hat = s2 / (1.0 - rho1**t2)
        r_hat = r2 / (1.0 - rho2**t2)
    update = config.epsilon * s_hat / (config.delta + np.sqrt(r_hat))
    theta2 = theta - update
    if variant is OptimizerKind.ADAMW:
        theta2 = theta2 - config.lambda_ * theta
    return theta2, replace(state, t=t2, s=s2, r=r2)


def adamax_step(state, theta, g, config):
    """AdaMax step: the second moment is a decaying max of |g|, not an average.

    Coordinates whose entire gradient history is zero have r' = 0 (and
    necessarily s' = 0); their update component is defined as 0.
    """
    theta, g = _check_step_inputs(state, theta, g)
    rho1 = config.rho1
    t2 = state.t + 1
    s2 = rho1 * state.s + (1.0 - rho1) * g
    r2 = np.maximum(config.rho2 * state.r, np.abs(g))
    # != rather than >: a NaN in r' must reach theta' instead of reading as 0
    ratio = np.divide(s2, r2, out=np.zeros_like(s2), where=r2 != 0.0)
    theta2 = theta - (config.epsilon / (1.0 - rho1**t2)) * ratio
    return theta2, replace(state, t=t2, s=s2, r=r2)


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


def adabound_step(state, theta, g, config):
    """AdaBound step: Adam-style moments with a clipped effective rate.

        eta    = clip(epsilon / (sqrt(r') + delta), lo(t'), hi(t'))
        theta' = theta - eta * s'

    delta in the denominator guards coordinates with all-zero gradient
    history; the numerator uses the uncorrected first moment.
    """
    theta, g = _check_step_inputs(state, theta, g)
    rho1, rho2 = config.rho1, config.rho2
    t2 = state.t + 1
    s2 = rho1 * state.s + (1.0 - rho1) * g
    r2 = rho2 * state.r + (1.0 - rho2) * g * g
    lo, hi = adabound_bounds(t2, config)
    eta = np.clip(config.epsilon / (np.sqrt(r2) + config.delta), lo, hi)
    theta2 = theta - eta * s2
    return theta2, replace(state, t=t2, s=s2, r=r2)


def apply_step(config, state, theta, g):
    """Dispatch one update step on ``config.kind``. Returns (theta', state')."""
    kind = config.kind
    if kind is OptimizerKind.SGD:
        return sgd_step(state, theta, g, config)
    if kind is OptimizerKind.SGDM:
        return sgdm_step(state, theta, g, config)
    if kind in _ADAM_FAMILY:
        return adam_step(state, theta, g, config, variant=kind)
    if kind is OptimizerKind.ADAMAX:
        return adamax_step(state, theta, g, config)
    if kind is OptimizerKind.ADABOUND:
        return adabound_step(state, theta, g, config)
    raise ConfigError(f"unknown optimizer kind: {kind!r}")
