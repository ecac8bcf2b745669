"""hessianlab: a numerical laboratory for complex m-Hessian equations.

Gamma-cone algebra, periodic finite-difference complex Hessians, a Newton
solver started from a coarse companion solve or a continuity path for the
exponential-type and normalized equations, penalized m-subharmonic envelopes, and randomized verification
of the pointwise cone inequalities.
"""

from .envelope import EnvelopeReport, contact_set, msh_envelope
from .errors import InputError
from .experiments import manufactured_problem, manufactured_terms, mms_study
from .geometry import (
    MetricField,
    ScalarField,
    TorusGrid,
    make_field,
    read_field,
    write_field,
)
from .hessop import (
    LinearizationField,
    OperatorValue,
    linearization,
    mixed_product,
    polarization_constant,
    sigma_m,
    sigma_of_form,
)
from .inequalities import (
    DecayReport,
    MaxPrincipleReport,
    StabilityRecord,
    check_max_principle,
    lp_norm,
    stability_sweep,
    sublevel_volume_decay,
)
from .solver import (
    NormalizedReport,
    SolveReport,
    SolverConfig,
    krylov_solve,
    solve_exponential,
    solve_normalized,
)
from .symfunc import (
    ConeSuiteReport,
    sample_cone,
    verify_cone_inequalities,
)

__version__ = "0.1.0"
