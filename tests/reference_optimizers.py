"""Independent scalar reference for the seven update rules.

Pure-Python, per-coordinate, written directly from the update rule
definitions with no shared code with the package's vectorized
implementations. Used as the oracle in randomized step tests.
"""

import math


def ref_bounds(t, eps_star, gamma):
    lo = eps_star * (1.0 - 1.0 / (gamma * t + 1.0))
    hi = eps_star * (1.0 + 1.0 / (gamma * t))
    return lo, hi


def ref_step(kind, cfg, t, theta, g, s, r, v):
    """One update step on plain lists. Returns (theta', s', r', v', t')."""
    n = len(theta)
    eps = cfg["epsilon"]
    rho1, rho2 = cfg["rho1"], cfg["rho2"]
    delta, alpha, lam = cfg["delta"], cfg["alpha"], cfg["lambda_"]
    t2 = t + 1
    theta2, s2, r2, v2 = list(theta), list(s), list(r), list(v)

    if kind == "sgd":
        for i in range(n):
            theta2[i] = theta[i] - eps * g[i]
    elif kind == "sgdm":
        for i in range(n):
            if alpha == 0.0:
                theta2[i] = theta[i] - eps * g[i]
            else:
                theta2[i] = theta[i] - eps * g[i] + alpha * v[i]
            v2[i] = alpha * v[i] - eps * g[i]
    elif kind in ("adam", "nadam", "adamw"):
        for i in range(n):
            s2[i] = rho1 * s[i] + (1.0 - rho1) * g[i]
            r2[i] = rho2 * r[i] + (1.0 - rho2) * g[i] * g[i]
            if kind == "nadam":
                s_hat = (rho1 * s2[i] / (1.0 - rho1 ** (t2 + 1))
                         + (1.0 - rho1) * g[i] / (1.0 - rho1 ** t2))
                r_hat = rho2 * r2[i] / (1.0 - rho2 ** t2)
            else:
                s_hat = s2[i] / (1.0 - rho1 ** t2)
                r_hat = r2[i] / (1.0 - rho2 ** t2)
            theta2[i] = theta[i] - eps * s_hat / (delta + math.sqrt(r_hat))
            if kind == "adamw":
                theta2[i] -= lam * theta[i]
    elif kind == "adamax":
        for i in range(n):
            s2[i] = rho1 * s[i] + (1.0 - rho1) * g[i]
            r2[i] = max(rho2 * r[i], abs(g[i]))
            ratio = 0.0 if r2[i] == 0.0 else s2[i] / r2[i]
            theta2[i] = theta[i] - (eps / (1.0 - rho1 ** t2)) * ratio
    elif kind == "adabound":
        lo, hi = ref_bounds(t2, cfg["eps_star"], cfg["gamma"])
        for i in range(n):
            s2[i] = rho1 * s[i] + (1.0 - rho1) * g[i]
            r2[i] = rho2 * r[i] + (1.0 - rho2) * g[i] * g[i]
            eta = eps / (math.sqrt(r2[i]) + delta)
            eta = min(max(eta, lo), hi)
            theta2[i] = theta[i] - eta * s2[i]
    else:
        raise ValueError(kind)
    return theta2, s2, r2, v2, t2
