"""ghostlet: ridgelet operator calculus on sampled grids.

Integral representations of shallow networks, ridgelet transforms and their
Fourier-slice fast paths, admissibility and null-space (ghost) analysis,
function-series encoding into ghosts, ε-mollified finite models, and the
projected-norm generalization-bound calculator.

Importing ghostlet makes numpy's and scipy's BLAS single-threaded for the
whole process, where their bundled OpenBLAS allows it (`ghostlet.parallel`):
the program's only worker threads are its own, they may call BLAS, and its
results do not depend on the BLAS thread count. Where BLAS cannot be pinned,
the program runs on the calling thread alone.
"""

__version__ = "0.1.0"

from . import parallel  # first, so that no BLAS call runs before the pin
from .grids import (
    DataError,
    DomainError,
    Grid,
    ParamDistribution,
    QuadratureScheme,
    SampledFunction,
    SpectralFunction,
    UnsupportedProfileError,
    l2_inner,
    l2_norm,
    sample,
    weighted_omega_inner,
    weighted_omega_norm,
)
from .fourier import (
    fourier_forward,
    fourier_inverse,
    fractional_bracket,
    partial_flat_b,
    partial_sharp_b,
)
from .profiles import (
    AdmissibilityReport,
    BasisFamily,
    Profile1D,
    admissibility,
    gaussian_derivative_profile,
    gram_schmidt_l2m,
    hermite_basis,
    make_rho_family,
    relu_profile,
    rho0_profile,
    tanh_profile,
)
from .transforms import (
    NetworkOperator,
    adjoint,
    forward_s,
    forward_s_fourier,
    forward_s_via_fourier,
    make_operator,
    ridgelet,
    ridgelet_fourier,
)
from .nullspace import (
    ExpansionCoefficients,
    StructureDecomposition,
    density_expand,
    density_synthesize,
    lazy_solution,
    make_nonadmissible,
    project,
    ridgelet_atom,
    structure_decompose,
)
from .encoding import (
    GhostCodebook,
    encode_series,
    make_ghost_codebook,
    modulate,
    readout_mutate,
)
from .finite_models import (
    FiniteModel,
    LayerSpec,
    NascentDelta,
    edge_points,
    finite_ridgelet_coeffs,
    generalization_bound,
    layer_norms,
    mollify,
    point_mass_network,
    sample_parameters,
    smooth_convolve,
)
