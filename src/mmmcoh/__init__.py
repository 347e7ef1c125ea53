"""Exact degree-by-degree verification of stable mapping class group cohomology.

The package builds the stable cohomology rings and modules degree by degree
in exact rational arithmetic and mechanically certifies their structure:
free generation by the twisted classes, the contraction pairing, the two
degree-shifting maps and their kernel/cokernel descriptions, Tor
dimensions by dimension shifting, exactness of the associated forms
complex, and the vanishing of H^1 for the bordered-torus mapping class
group.  See the README for the mathematical statements and the `mmmcoh`
command for the runnable suite.
"""

__version__ = "0.1.0"

from .algebra import (
    DegreeBoundError,
    PolynomialAlgebra,
    exterior_basis,
    exterior_dim,
)
from .forms import DifferentialForms, ExactnessReport
from .groupcoh import (
    GroupPresentation,
    H1Certificate,
    MatrixRep,
    cocycle_space,
    coboundary_space,
    evaluate_word,
    h1_certificate,
    h1_dimension,
    load_group_data,
    load_group_file,
)
from .linalg import (
    SparseMatrix,
    column_space_basis,
    kernel_basis,
    rank,
)
from .modules import (
    FreeGradedModule,
    GradedModuleMap,
    TorResult,
    free_module,
)
from .stable import (
    FalsificationError,
    GeneratorsReport,
    StableCohomology,
    StableCohomologyTable,
    TorReport,
)
from .verify import CheckResult, VerificationReport, run_verification

__all__ = [
    "CheckResult",
    "DegreeBoundError",
    "DifferentialForms",
    "ExactnessReport",
    "FalsificationError",
    "FreeGradedModule",
    "GeneratorsReport",
    "GradedModuleMap",
    "GroupPresentation",
    "H1Certificate",
    "MatrixRep",
    "PolynomialAlgebra",
    "SparseMatrix",
    "StableCohomology",
    "StableCohomologyTable",
    "TorReport",
    "TorResult",
    "VerificationReport",
    "cocycle_space",
    "coboundary_space",
    "column_space_basis",
    "evaluate_word",
    "exterior_basis",
    "exterior_dim",
    "free_module",
    "h1_certificate",
    "h1_dimension",
    "kernel_basis",
    "load_group_data",
    "load_group_file",
    "rank",
    "run_verification",
    "__version__",
]
