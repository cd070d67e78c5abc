"""Fourier multiplier operators built on the anisotropic projection:
fractional derivatives, projected-symbol operators, the smoothing
operator with symbol (1 - theta)/quasi-norm, and a numerical certifier
for the Marcinkiewicz derivative bounds.

Branch convention for fractional powers: i^a = exp(i a pi / 2), so the
symbol of the order-a derivative along axis k is
|2 pi xi_k|^a * exp(i a (pi/2) sgn(xi_k)), with the xi_k = 0 modes
annihilated.  fractional_factor is the one place that evaluates it.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .anisotropy import (
    AnisotropyProfile,
    fibre_point,
    project_lattice,
    project_to_P,
    quasi_norm,
)
from .errors import DomainError
from .spectral import FREQUENCY, PHYSICAL, SpectralField, forward_dft, inverse_dft


@dataclass
class SymbolOnP:
    """A scalar symbol defined on the manifold P.

    eval is vectorized: it accepts an array of shape (..., d) of points on P
    and returns a new complex array of shape (...), which
    projected_symbol_lattice may write into.  With projected=False the
    symbol is a raw function of the frequency itself and is never composed
    with the projection (useful for certifying non-projected symbols)."""

    eval: Callable[[np.ndarray], np.ndarray]
    name: str = "symbol"
    projected: bool = True


def smooth_ramp(s: np.ndarray) -> np.ndarray:
    """C-infinity ramp: 0 for s <= 0, 1 for s >= 1, strictly increasing
    in between (the standard e^{-1/s} partition-of-unity ramp)."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    out[s >= 1] = 1.0
    mid = (s > 0) & (s < 1)
    sm = s[mid]
    a = np.exp(-1.0 / sm)
    b = np.exp(-1.0 / (1.0 - sm))
    out[mid] = a / (a + b)
    return out


# --- built-in symbol registry -------------------------------------------------

def _parse_kv(spec: str) -> dict:
    """Split "k1=v1,k2=v2" on commas that are not inside brackets."""
    out = {}
    parts, depth, cur = [], 0, []
    for ch in spec:
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
            continue
        depth += ch in "[("
        depth -= ch in "])"
        cur.append(ch)
    parts.append("".join(cur))
    for part in parts:
        if not part:
            continue
        key, _, val = part.partition("=")
        out[key.strip()] = val.strip()
    return out


def _axis_index(text: str, name: str, d: int) -> int:
    """The axis k written in a symbol name, an integer in [0, d)."""
    try:
        k = int(text)
    except ValueError:
        k = -1
    if not 0 <= k < d:
        raise DomainError(f"symbol {name!r} needs an axis in 0..{d - 1}")
    return k


def symbol_from_name(name: str, profile: AnisotropyProfile) -> SymbolOnP:
    """Resolve a registry name: "one", "coordinate:k",
    "bump:center=[...],width=w", "sector:axis=k,sign=+|-".  A malformed
    name, a center or width that is not finite, a width <= 0 and a sign
    other than + or - raise DomainError."""
    if not isinstance(name, str):
        raise DomainError(f"symbol name must be a string, got {name!r}")
    if name == "one":
        return SymbolOnP(lambda xi: np.ones(xi.shape[:-1], dtype=complex),
                         name="one")
    kind, _, rest = name.partition(":")
    if kind == "coordinate":
        k = _axis_index(rest, name, profile.d)
        return SymbolOnP(lambda xi: xi[..., k].astype(complex), name=name)
    if kind == "bump":
        kv = _parse_kv(rest)
        try:
            center = np.asarray(json.loads(kv["center"]), dtype=float)
            np.broadcast_shapes(center.shape, (profile.d,))
            width = float(kv["width"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"symbol {name!r} needs center=[...] and "
                              f"width=w: {exc!r}") from None
        if not (np.all(np.isfinite(center)) and np.isfinite(width) and width > 0):
            raise DomainError(f"symbol {name!r} needs a finite center and a "
                              f"finite width > 0")

        def _bump(xi, center=center, width=width):
            # in float64, silently: a width whose square overflows gives
            # r2 = 0 (the bump is 1), one whose square underflows, or an
            # offset whose square overflows, r2 = inf or NaN (outside)
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                r2 = np.sum((xi - center) ** 2, axis=-1) / np.square(width)
            out = np.zeros(xi.shape[:-1])
            inside = r2 < 1
            out[inside] = np.exp(1.0 - 1.0 / (1.0 - r2[inside]))
            return out.astype(complex)

        return SymbolOnP(_bump, name=name)
    if kind == "sector":
        kv = _parse_kv(rest)
        k = _axis_index(kv.get("axis", ""), name, profile.d)
        sign = {"+": 1.0, "-": -1.0}.get(kv.get("sign", "+"))
        if sign is None:
            raise DomainError(f"symbol {name!r} needs sign=+ or sign=-")

        def _sector(xi, k=k, sign=sign):
            return smooth_ramp(sign * xi[..., k] / 0.2).astype(complex)

        return SymbolOnP(_sector, name=name)
    if name == "sin-inverse-quasinorm":
        # raw (non-projected) symbol sin(1/quasi_norm(xi)): the canonical
        # example failing the derivative bounds near the origin
        def _sininv(xi, profile=profile):
            qn = quasi_norm(xi, profile)
            return np.where(qn > 0, np.sin(1.0 / np.where(qn > 0, qn, 1.0)),
                            0.0).astype(complex)

        return SymbolOnP(_sininv, name=name, projected=False)
    raise DomainError(f"unknown symbol name {name!r}")


# --- multiplier application ---------------------------------------------------

def _apply_spatial_multiplier(f: SpectralField, symbol: np.ndarray) -> SpectralField:
    """Multiply the spatial spectrum by `symbol` (broadcastable to the
    spatial lattice), returning a field in the caller's original space."""
    was_physical = f.space == PHYSICAL
    F = forward_dft(f) if was_physical else f
    out = SpectralField(f.grid, F.values * f.grid.lift(symbol), FREQUENCY)
    return inverse_dft(out) if was_physical else out


def fractional_factor(xi, order: float):
    """(2 pi i xi)^order with the branch i^a = exp(i a pi / 2):
    |2 pi xi|^a exp(i a (pi/2) sgn(xi)), elementwise."""
    xi = np.asarray(xi, dtype=float)
    return (np.abs(2 * np.pi * xi) ** order
            * np.exp(1j * order * (np.pi / 2) * np.sign(xi)))


def fractional_axis_symbol(grid, axis: int, order: float,
                           conjugate_direction: bool = False) -> np.ndarray:
    """Lattice symbol of the order-a one-axis fractional derivative.  With
    conjugate_direction=True returns the symbol of (-d/dx_k)^a instead."""
    if not 0 <= axis < grid.d:
        raise DomainError(f"axis {axis} out of range for a {grid.d}-d grid")
    xi = grid.frequencies()[axis]
    return fractional_factor(-xi if conjugate_direction else xi, order)


def fractional_derivative(f: SpectralField, axis: int, order: float) -> SpectralField:
    """Fractional derivative along one spatial axis; accepts physical or
    frequency input and returns a field in the same space."""
    if order <= 0:
        raise DomainError("derivative order must be positive")
    return _apply_spatial_multiplier(f, fractional_axis_symbol(f.grid, axis, order))


def projected_symbol_lattice(psi: SymbolOnP, grid, profile: AnisotropyProfile) -> np.ndarray:
    """psi(pi_P(xi)) on the spatial frequency lattice, zero at xi = 0."""
    xi = grid.frequency_vectors()
    arg = project_lattice(xi, profile) if psi.projected else xi
    vals = np.asarray(psi.eval(arg), dtype=complex)
    if (vals.shape != grid.n_per_axis or not vals.flags.owndata
            or not vals.flags.writeable):
        vals = np.array(np.broadcast_to(vals, grid.n_per_axis))
    vals[(0,) * grid.d] = 0.0  # the mode xi = 0 comes first in FFT order
    return vals


def apply_projected_symbol(f: SpectralField, psi: SymbolOnP,
                           profile: AnisotropyProfile) -> SpectralField:
    """Multiplier operator with symbol psi o pi_P; the mean mode is
    annihilated (pi_P is undefined at the origin)."""
    sym = projected_symbol_lattice(psi, f.grid, profile)
    return _apply_spatial_multiplier(f, sym)


def smoothing_symbol_lattice(grid, profile: AnisotropyProfile,
                             cutoff_radius: float) -> np.ndarray:
    """Lattice symbol (1 - theta(xi)) / quasi_norm(xi) with theta == 1 for
    quasi_norm <= R/2 and theta == 0 for quasi_norm >= R."""
    if cutoff_radius <= 0:
        raise DomainError("cutoff radius must be positive")
    xi = grid.frequency_vectors()
    qn = quasi_norm(xi, profile)
    one_minus_theta = smooth_ramp(2 * qn / cutoff_radius - 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        sym = np.where(qn > 0, one_minus_theta / np.where(qn > 0, qn, 1.0), 0.0)
    return sym.astype(complex)


def smoothing_inverse(f: SpectralField, profile: AnisotropyProfile,
                      cutoff_radius: float) -> SpectralField:
    """The smoothing operator gaining one anisotropic derivative: divides
    by the quasi-norm outside the cutoff and kills low modes."""
    sym = smoothing_symbol_lattice(f.grid, profile, cutoff_radius)
    return _apply_spatial_multiplier(f, sym)


# --- Marcinkiewicz certifier --------------------------------------------------

@dataclass
class MarcinkiewiczReport:
    """Sampled estimate of sup |xi^beta d^beta (psi o pi_P)| over dyadic
    quasi-norm shells, for all multi-indices |beta| <= d."""

    constant_estimate: float
    per_beta_sup: dict[tuple[int, ...], float]
    diverged: bool = False

    def to_json_dict(self) -> dict:
        return {
            "constant": self.constant_estimate,
            "per_beta": {"".join(map(str, b)): v for b, v in self.per_beta_sup.items()},
            "diverged": self.diverged,
        }


def _central_difference(fn, xi: np.ndarray, beta: tuple[int, ...],
                        steps: np.ndarray) -> np.ndarray:
    """Nested central differences for the mixed partial d^beta fn, vectorized
    over the leading axes of xi."""
    for k, bk in enumerate(beta):
        if bk > 0:
            b_rest = beta[:k] + (bk - 1,) + beta[k + 1:]
            h = steps[..., k]
            e = np.zeros(xi.shape[-1])
            e[k] = 1.0
            plus = _central_difference(fn, xi + h[..., None] * e, b_rest, steps)
            minus = _central_difference(fn, xi - h[..., None] * e, b_rest, steps)
            return (plus - minus) / (2 * h)
    return fn(xi)


def _shell_samples(profile: AnisotropyProfile, j: int, count: int) -> np.ndarray:
    """Deterministic sample points with quasi-norm in [2^j, 2^(j+1)], kept
    away from the coordinate hyperplanes (finite differences would straddle
    the |xi_k| kinks there).  Directions are drawn in blocks from the
    shell's own generator, which gives the vectors of a one-at-a-time draw
    (an overshoot costs nothing); np.vecdot runs np.linalg.norm's dot
    kernel, so the norms are bitwise those of one vector too."""
    rng = np.random.Generator(np.random.Philox(key=abs(j) * 2 + (j < 0) + 7))
    dirs = np.empty((0, profile.d))
    while len(dirs) < count:
        v = rng.standard_normal((count, profile.d))
        v /= np.sqrt(np.vecdot(v, v))[:, None]
        dirs = np.concatenate([dirs, v[np.min(np.abs(v), axis=1) >= 0.05]])
    # Python float powers: numpy's vectorised power can differ in the last bit
    l = profile.l
    t = np.array([(2.0 ** (j + (i + 0.5) / count)) ** l for i in range(count)])
    return fibre_point(project_to_P(dirs[:count], profile), t, profile)


_STEP = 1e-3  # difference step of the certifier, relative to max(|xi_k|, 2^j)


def shells_in_float_range(profile: AnisotropyProfile, shells: int) -> bool:
    """Whether the certifier's refined scan, shells j in [-(shells + 2),
    shells + 2), stays in the float range.  Its fibre parameters lie in
    [2^(-(shells + 2) l), 2^((shells + 2) l)]: the upper end must be
    finite (the lower end is then positive).  The differences on the top
    shell reach |xi_k| + d h_k, with |xi_k| <= 2^((shells + 2) / alpha_k)
    and step h_k = _STEP max(|xi_k|, 2^(shells + 1)), and the constraint
    sum there must be finite too."""
    top = shells + 2
    if top * profile.l >= 1024:
        return False
    ex = np.asarray(profile.exponents)
    xi = 2.0 ** (top * profile.l / ex)
    reach = xi + profile.d * _STEP * np.maximum(xi, 2.0 ** (top - 1))
    with np.errstate(over="ignore"):
        return bool(np.isfinite(np.sum(reach ** ex)))


def _scan_level(psi: SymbolOnP, profile: AnisotropyProfile,
                j_range, samples_per_shell: int) -> dict[tuple[int, ...], float]:
    d = profile.d

    def psi_P(xi):
        arg = project_to_P(xi, profile) if psi.projected else xi
        return np.asarray(psi.eval(arg), dtype=complex)

    # every multi-index |beta| <= d; beta = 0, first, bounds |psi| itself
    betas = [b for b in itertools.product(range(d + 1), repeat=d) if sum(b) <= d]
    sups = dict.fromkeys(betas, 0.0)
    for j in j_range:
        xi = _shell_samples(profile, j, samples_per_shell)
        steps = _STEP * np.maximum(np.abs(xi), 2.0 ** j)
        for b in betas:
            deriv = _central_difference(psi_P, xi, b, steps)
            weight = np.prod(xi ** np.asarray(b), axis=-1)
            sups[b] = max(sups[b], float(np.max(np.abs(weight * deriv))))
    return sups


def marcinkiewicz_certify(psi: SymbolOnP, profile: AnisotropyProfile,
                          shells: int, samples_per_shell: int) -> MarcinkiewiczReport:
    """Estimate the Marcinkiewicz constant sup_beta sup_xi
    |xi^beta d^beta (psi o pi_P)(xi)| by finite differences on dyadic
    shells.  Divergence (sup growing more than tenfold when the scan is
    refined toward the origin) is reported as data, not an error."""
    if shells < 3:
        raise DomainError("need at least 3 dyadic shells")
    if samples_per_shell < 1:
        raise DomainError(f"samples_per_shell must be positive, got "
                          f"{samples_per_shell}")
    if not shells_in_float_range(profile, shells):
        raise DomainError(f"{shells} dyadic shells leave the float range "
                          f"for alpha {profile.alpha}")
    coarse = _scan_level(psi, profile, range(-shells, shells), samples_per_shell)
    fine = _scan_level(psi, profile, range(-(shells + 2), shells + 2),
                       2 * samples_per_shell)
    c_fine = max(fine.values())
    return MarcinkiewiczReport(c_fine, fine,
                               diverged=c_fine > 10.0 * max(coarse.values()))
