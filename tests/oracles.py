"""Analytic reference phantoms and independent quadrature oracles.

Everything here exists to validate the measurement and reconstruction
code against values computed by deliberately separate means: closed-form
expressions where they exist, and a self-contained near-uniform
quadrature rule otherwise.  The module is test reference code: it
imports nothing from synfocus, so no code is shared with the
implementations it checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# fractional part of the golden ratio, used by the direction lattice below
_PHI_FRAC = (np.sqrt(5.0) + 1.0) / 2.0 - 1.0


@dataclass(frozen=True, eq=False)
class AnalyticPhantom:
    """Closed-form test object: a gaussian bump or a ball indicator.

    ``scale`` is the gaussian standard deviation or the ball radius.
    For the ball the closed-ball convention applies: points with
    |x - center| = scale evaluate to the full amplitude.
    """

    kind: str
    center: np.ndarray
    scale: float
    amplitude: float = 1.0

    def __post_init__(self):
        if self.kind not in ("gaussian", "ball"):
            raise ValueError(f"unknown phantom kind {self.kind!r}")
        center = np.array(self.center, dtype=float)
        center.flags.writeable = False
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "scale", float(self.scale))
        object.__setattr__(self, "amplitude", float(self.amplitude))
        if not self.scale > 0:
            raise ValueError("phantom scale must be positive")
        if center.shape not in ((2,), (3,)):
            raise ValueError("phantom center must be a 2d or 3d point")

    @property
    def dim(self):
        return int(self.center.size)


def eval_phantom(phantom, points):
    """Evaluate an AnalyticPhantom at an (n, dim) array of points."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != phantom.dim:
        raise ValueError("point dimension does not match the phantom")
    r = np.linalg.norm(pts - phantom.center[None, :], axis=1)
    if phantom.kind == "gaussian":
        return phantom.amplitude * np.exp(-r * r / (2.0 * phantom.scale ** 2))
    return phantom.amplitude * (r <= phantom.scale).astype(float)


def _directions(dim, n):
    """Near-uniform unit directions: midpoint angles on the circle in 2d,
    a golden-ratio lattice on the sphere in 3d."""
    k = np.arange(n)
    if dim == 2:
        ang = 2.0 * np.pi * (k + 0.5) / n
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    z = 1.0 - (2.0 * k + 1.0) / n
    rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    ang = 2.0 * np.pi * np.mod(k * _PHI_FRAC, 1.0)
    return np.stack([rho * np.cos(ang), rho * np.sin(ang), z], axis=1)


def spherical_mean_quadrature(phantom, z, t, n_quad=4096):
    """Integral of the phantom over the sphere |x - z| = t.

    This is the raw surface (2d: arc-length) integral, not a normalized
    average; a constant phantom of amplitude A yields A * 4*pi*t^2 in 3d.
    Equal-weight near-uniform quadrature with a fixed summation order, so
    repeated calls agree exactly and doubling ``n_quad`` probes
    convergence.
    """
    return float(spherical_mean_profile(phantom, z, [t], n_quad)[0])


def spherical_mean_profile(phantom, z, radii, n_quad=4096):
    """spherical_mean_quadrature at several radii, with one direction set."""
    z = np.asarray(z, dtype=float)
    radii = np.asarray(radii, dtype=float)
    if z.size != phantom.dim:
        raise ValueError("center dimension does not match the phantom")
    if not np.all(radii > 0):
        raise ValueError("sphere radii must be positive")
    if n_quad < 64:
        raise ValueError("need at least 64 quadrature points")
    dirs = _directions(phantom.dim, n_quad)
    out = np.empty(radii.size)
    for i, t in enumerate(radii):
        vals = eval_phantom(phantom, z[None, :] + t * dirs)
        measure = 2.0 * np.pi * t if phantom.dim == 2 else 4.0 * np.pi * t * t
        out[i] = np.sum(vals) * measure / n_quad
    return out


def spherical_mean_exact(phantom, z, radii):
    """Closed-form spherical integrals of a 3d phantom, shape (n_z, n_t)
    for centers z (n_z, 3), or (n_t,) for one center.

    Same quantity as spherical_mean_quadrature.  With d = |z - c|, a
    gaussian gives 2 pi t s^2/d [e^{-(t-d)^2/2s^2} - e^{-(t+d)^2/2s^2}]
    (4 pi t^2 e^{-t^2/2s^2} at d = 0), written with expm1 so it stays
    accurate as d -> 0; a ball of radius rho gives 4 pi t^2 when the
    sphere lies inside it (t + d <= rho), the cap area
    pi t (rho^2 - (d - t)^2)/d when the two surfaces cross, else 0.
    """
    if phantom.dim != 3:
        raise ValueError("closed-form spherical integrals are 3d only")
    z = np.asarray(z, dtype=float)
    if z.shape[-1] != 3:
        raise ValueError("center dimension does not match the phantom")
    t = np.asarray(radii, dtype=float)[None, :]
    if np.any(t <= 0):
        raise ValueError("sphere radii must be positive")
    d = np.linalg.norm(np.atleast_2d(z) - phantom.center[None, :], axis=1)[:, None]
    area = 4.0 * np.pi * t * t
    if phantom.kind == "gaussian":
        s2 = phantom.scale ** 2
        x = t * d / s2
        # (1 - e^{-2x}) / 2x, the d -> 0 limit being 1
        ratio = np.ones_like(x)
        np.divide(-np.expm1(-2.0 * x), 2.0 * x, out=ratio, where=x > 0)
        out = area * np.exp(-((t - d) ** 2) / (2.0 * s2)) * ratio
    else:
        rho = phantom.scale
        cap = np.pi * t * (rho * rho - (d - t) ** 2) / np.where(d > 0, d, 1.0)
        out = np.where(t + d <= rho, area, np.where(np.abs(d - t) < rho, cap, 0.0))
    out = phantom.amplitude * out
    return out[0] if z.ndim == 1 else out


def line_integral(phantom, angle, offset):
    """Closed-form integral of a 2d phantom along the line
    { offset * w + tau * w_perp } with w = (cos angle, sin angle).

    A ball gives the chord length 2*sqrt(rho^2 - d^2) times the amplitude,
    a gaussian gives amplitude * s * sqrt(2*pi) * exp(-d^2 / (2 s^2)),
    where d is the distance of the line from the phantom center.
    """
    if phantom.dim != 2:
        raise ValueError("line integrals are defined for 2d phantoms")
    w = np.array([np.cos(angle), np.sin(angle)])
    d = abs(offset - float(np.dot(phantom.center, w)))
    if phantom.kind == "ball":
        rho = phantom.scale
        if d >= rho:
            return 0.0
        return phantom.amplitude * 2.0 * np.sqrt(rho * rho - d * d)
    s = phantom.scale
    return phantom.amplitude * s * np.sqrt(2.0 * np.pi) * np.exp(-d * d / (2.0 * s * s))


def disk_sinogram(phantom, angles, offsets):
    """Closed-form sinogram of a 2d phantom, shape (n_angles, n_offsets)."""
    return np.array([[line_integral(phantom, a, s) for s in np.asarray(offsets, dtype=float)]
                     for a in np.asarray(angles, dtype=float)])
