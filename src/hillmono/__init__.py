"""Lifted monodromy of Hill's equation on the universal cover of SL(2, R).

The package computes fundamental solutions of -v'' + q(t) v = 0 over one
period together with their winding data, converts between potentials,
fundamental curves and swept orbits (a Kepler-style change of clock),
synthesizes potentials with prescribed lifted monodromy, reads periodic
spectra along lines off Chebyshev proxies of the monodromy and labels them
by the trace-2 stratification, and solves self-adjoint
boundary condition problems through the same group-level data.
"""

__version__ = "0.1.0"

from .errors import DomainError, NumericalInvariantError
from .cover import (
    CoverElement,
    Stratum,
    IwasawaTriple,
    CartanTriple,
    identity,
    center_power,
    reflection,
    rotation,
    from_left_iwasawa,
    to_left_iwasawa,
    from_right_iwasawa,
    to_right_iwasawa,
    from_cartan,
    to_cartan,
    from_cone_coords,
    from_trace_coords,
    from_schur,
    multiply,
    arg_variation,
    winding_exceeds,
    classify,
    element_to_dict,
    element_from_dict,
)
from .potentials import Potential, load_potential
from .integrate import (
    FundamentalPath,
    MonodromyResult,
    integrate,
    monodromy,
    monodromies,
    solution_winding,
)
from .kepler import (
    FundamentalCurve,
    Orbit,
    curve_of,
    orbit_of,
    curve_of_orbit,
    potential_of_curve,
    potential_of_orbit,
    save_curve_csv,
    load_curve_csv,
    orbit_to_dict,
    orbit_from_dict,
)
from .synthesis import (
    SynthesizedOrbit,
    base_polynomial,
    perturbation_basis,
    perturbation_polynomial,
    normalize_c,
    synthesize_orbit,
    potential_with_monodromy,
)
from .spectral import (
    C1Component,
    EigenvalueRecord,
    in_c1,
    in_c2,
    c1_component,
    oscillation_eigenvalues,
)
from .boundary import (
    SeparatedBC,
    GeneralBC,
    BetaImage,
    separated_residual,
    separated_has_solution,
    separated_index,
    general_residual,
    general_has_solution,
    general_all_solutions,
    principal_lift,
    beta_image,
)
from .serialize import fmt_float, dumps_json, write_json, read_json
