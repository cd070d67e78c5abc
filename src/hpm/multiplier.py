"""Fourier multiplier operators built on the anisotropic projection:
fractional derivatives, projected-symbol operators, the smoothing
operator with symbol (1 - theta)/quasi-norm, and a numerical certifier
for the Marcinkiewicz derivative bounds.

Branch convention for fractional powers: i^a = exp(i a pi / 2), so the
symbol of the order-a derivative along axis k is
|2 pi xi_k|^a * exp(i a (pi/2) sgn(xi_k)), with the xi_k = 0 modes
annihilated, and exactly real or imaginary for an integer order below
100.  fractional_factor is the one place that evaluates it.
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
from .errors import DomainError, IntegrityError
from .spectral import SpectralField, forward_dft, inverse_dft


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

def _parse_kv(spec: str, name: str, keys: set) -> dict:
    """Split "k1=v1,k2=v2" on commas that are not inside brackets; a key
    outside `keys`, or one given twice, raises DomainError naming the
    symbol `name`."""
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
        key = key.strip()
        if key not in keys or key in out:
            raise DomainError(f"symbol {name!r} takes each of the keys "
                              f"{sorted(keys)} at most once, got {key!r}")
        out[key] = val.strip()
    return out


def _center(text: str, name: str, d: int) -> np.ndarray:
    """The center of the bump `name`: one JSON number or a list of d, as
    floats; DomainError otherwise."""
    try:
        value = json.loads(text)
        numbers = value if isinstance(value, list) and len(value) == d else [value]
        if all(type(v) in (int, float) for v in numbers):
            return np.array(value, dtype=float)
    except (ValueError, OverflowError, RecursionError):  # an integer past floats
        pass
    raise DomainError(f"symbol {name!r} needs a center of one number or a "
                      f"list of {d}")


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
    name, a key the kind does not take or one given twice, a center other
    than one number or d, a center or width that is not finite, a width
    <= 0 and a sign other than + or - raise DomainError."""
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
        kv = _parse_kv(rest, name, {"center", "width"})
        try:
            text, width = kv["center"], float(kv["width"])
        except (KeyError, ValueError) as exc:
            raise DomainError(f"symbol {name!r} needs center=[...] and "
                              f"width=w: {exc!r}") from None
        center = _center(text, name, profile.d)
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
        kv = _parse_kv(rest, name, {"axis", "sign"})
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

def _apply_spatial_multiplier(f, symbol):
    """Multiply the spatial spectrum of f, a band or a field (whose
    spectrum is the band of every index), by symbol(B), an array over the
    box of its band B; the result is a band or a field, as f is."""
    if isinstance(f, SpectralField):
        return inverse_dft(_apply_spatial_multiplier(forward_dft(f), symbol))
    return f.with_values(f.values * f.grid.lift(symbol(f)))


def fractional_factor(xi, order: float):
    """(2 pi i xi)^order with the branch i^a = exp(i a pi / 2):
    |2 pi xi|^a i^(a sgn(xi)), elementwise; numpy forms an integer power
    of i below 100 by products, so i^1 = 1j and i^2 = -1 exactly."""
    xi = np.asarray(xi, dtype=float)
    return np.abs(2 * np.pi * xi) ** order * np.power(1j, order * np.sign(xi))


def fractional_derivative(f, axis: int, order: float):
    """Fractional derivative along one spatial axis of a band or a field
    (see _apply_spatial_multiplier)."""
    if order <= 0:
        raise DomainError(f"derivative order must be positive, got {order!r}")
    if not 0 <= axis < f.grid.d:
        raise DomainError(f"axis {axis} out of range for a {f.grid.d}-d grid")
    return _apply_spatial_multiplier(f, lambda B: fractional_factor(B.frequencies()[axis], order))


def projected_symbol_lattice(psi: SymbolOnP, at, profile: AnisotropyProfile) -> np.ndarray:
    """psi(pi_P(xi)) on the spatial frequency lattice of a grid, or on the
    box of a band, zero at xi = 0."""
    xi = at.frequency_vectors()
    arg = project_lattice(xi, profile) if psi.projected else xi
    vals = np.asarray(psi.eval(arg), dtype=complex)
    shape = xi.shape[:-1]
    if vals.shape != shape or not vals.flags.owndata or not vals.flags.writeable:
        vals = np.array(np.broadcast_to(vals, shape))
    if vals.size and not np.any(xi[(0,) * len(shape)]):  # xi = 0 comes first
        vals[(0,) * len(shape)] = 0.0
    return vals


def apply_projected_symbol(f, psi: SymbolOnP, profile: AnisotropyProfile):
    """Multiplier operator with symbol psi o pi_P on a band or a field; the
    mean mode is annihilated (pi_P is undefined at the origin)."""
    return _apply_spatial_multiplier(f, lambda B: projected_symbol_lattice(psi, B, profile))


def smoothing_symbol_lattice(at, profile: AnisotropyProfile,
                             cutoff_radius: float) -> np.ndarray:
    """Symbol (1 - theta(xi)) / quasi_norm(xi) on the frequency lattice of
    a grid, or on the box of a band, with theta == 1 for quasi_norm <= R/2
    and theta == 0 for quasi_norm >= R."""
    if cutoff_radius <= 0:
        raise DomainError(f"cutoff radius must be positive, got {cutoff_radius!r}")
    qn = quasi_norm(at.frequency_vectors(), profile)
    one_minus_theta = smooth_ramp(2 * qn / cutoff_radius - 1)
    sym = np.where(qn > 0, one_minus_theta / np.where(qn > 0, qn, 1.0), 0.0)
    return sym.astype(complex)


def smoothing_inverse(f, profile: AnisotropyProfile, cutoff_radius: float):
    """The smoothing operator gaining one anisotropic derivative, on a band
    or a field: divides by the quasi-norm outside the cutoff, kills low modes."""
    return _apply_spatial_multiplier(
        f, lambda B: smoothing_symbol_lattice(B, profile, cutoff_radius))


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


_AXIS_FLOOR = 0.05  # least |v_k| of a shell sample's unit direction v


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
        dirs = np.concatenate([dirs, v[np.min(np.abs(v), axis=1) >= _AXIS_FLOOR]])
    # Python float powers: numpy's vectorised power can differ in the last bit
    l = profile.l
    t = np.array([(2.0 ** (j + (i + 0.5) / count)) ** l for i in range(count)])
    return fibre_point(project_to_P(dirs[:count], profile), t, profile)


_STEP = 1e-3  # difference step of the certifier, relative to max(|xi_k|, 2^j)


def _scan_level(psi: SymbolOnP, profile: AnisotropyProfile,
                j_range, samples_per_shell: int) -> dict[tuple[int, ...], float]:
    """sup over the shells of j_range of |xi^beta d^beta (psi o pi_P)|, per
    |beta| <= d: the shells' samples differenced in one batch, each row with
    its shell's step floor 2^j.  Every point the differences evaluate, a
    sample or a stencil point, is projected to P, also for a symbol that is
    not projected: a constraint sum that is not finite and normal is
    project_to_P's DomainError (a SingularPointError at 0).  A sample that
    is not finite is an IntegrityError."""
    d = profile.d

    def psi_P(xi):
        on_P = project_to_P(xi, profile)
        return np.asarray(psi.eval(on_P if psi.projected else xi), dtype=complex)

    xi = np.concatenate([_shell_samples(profile, j, samples_per_shell) for j in j_range])
    floors = np.repeat([2.0 ** j for j in j_range], samples_per_shell)
    steps = _STEP * np.maximum(np.abs(xi), floors[:, None])
    # every multi-index |beta| <= d; beta = 0, first, bounds |psi| itself
    sups = {}
    for b in [b for b in itertools.product(range(d + 1), repeat=d) if sum(b) <= d]:
        deriv = _central_difference(psi_P, xi, b, steps)
        sample = np.abs(np.prod(xi ** np.asarray(b), axis=-1) * deriv)
        if not np.all(np.isfinite(sample)):
            raise IntegrityError(f"symbol {psi.name!r}: |xi^beta d^beta psi| "
                                 f"is not finite for beta = {b}")
        sups[b] = float(np.max(sample))
    return sups


def marcinkiewicz_certify(psi: SymbolOnP, profile: AnisotropyProfile,
                          shells: int, samples_per_shell: int) -> MarcinkiewiczReport:
    """Estimate the Marcinkiewicz constant sup_beta sup_xi
    |xi^beta d^beta (psi o pi_P)(xi)| by finite differences on dyadic
    shells.  Divergence (sup growing more than tenfold when the scan is
    refined toward the origin) is reported as data, not an error.

    A shell count is admitted when every point its scans project has a
    finite, normal constraint sum (_scan_level); any other count is one
    DomainError naming the float range and the projection's message.  The
    one check ahead of the scans is the top shell's fibre parameter
    2^((shells + 2) l), a Python float power that would raise
    OverflowError past the float range."""
    if shells < 3:
        raise DomainError("need at least 3 dyadic shells")
    if samples_per_shell < 1:
        raise DomainError(f"samples_per_shell must be positive, got "
                          f"{samples_per_shell}")
    leave = f"{shells} dyadic shells leave the float range for alpha {profile.alpha}"
    if (shells + 2) * profile.l >= 1024:
        raise DomainError(f"{leave}: the fibre parameter "
                          f"2^{(shells + 2) * profile.l} is not finite")
    try:
        coarse = _scan_level(psi, profile, range(-shells, shells), samples_per_shell)
        fine = _scan_level(psi, profile, range(-(shells + 2), shells + 2),
                           2 * samples_per_shell)
    except DomainError as exc:  # project_to_P's, SingularPointError included
        raise DomainError(f"{leave}: {exc}") from None
    c_fine = max(fine.values())
    return MarcinkiewiczReport(c_fine, fine,
                               diverged=c_fine > 10.0 * max(coarse.values()))
