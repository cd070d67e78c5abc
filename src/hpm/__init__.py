"""hpm: numerical toolkit for anisotropic microlocal analysis.

Modules:
    spectral   - periodic grids, physical fields and spectral bands, DFTs,
                 field serialization
    anisotropy - the frequency manifold P, quasi-norm, projection, fibres
    multiplier - fractional derivatives, projected symbols, certification
    hmeasure   - microlocal defect measure estimation
    averaging  - velocity averaging experiments and non-degeneracy scans
    kinetic    - kinetic transform, ultraparabolic manifold, entropy checks
    cli        - deterministic experiment runner
"""

from .anisotropy import AnisotropyProfile, compute_l, project_to_P, quasi_norm
from .errors import (
    ConfigError,
    DomainError,
    FieldCorruptionError,
    FieldFormatError,
    HpmError,
    IntegrityError,
    SingularPointError,
    SpaceTagError,
    SupportWarning,
)
from .spectral import (
    SpectralBand,
    SpectralField,
    SpectralGrid,
    forward_dft,
    inverse_dft,
    read_field,
    write_field,
)

__all__ = [
    "AnisotropyProfile", "compute_l", "project_to_P", "quasi_norm",
    "SpectralField", "SpectralBand", "SpectralGrid", "forward_dft",
    "inverse_dft", "read_field", "write_field",
    "HpmError", "DomainError", "SingularPointError", "SpaceTagError",
    "FieldFormatError", "FieldCorruptionError", "IntegrityError",
    "ConfigError", "SupportWarning",
]

__version__ = "0.1.0"
