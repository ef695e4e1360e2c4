"""The magic function behind the E8 sphere packing bound.

Exact q-expansions of the modular-form catalog, interval-certified sign
inequalities for the Laplace densities A and B, numerical evaluation of the
radial eigenfunctions a, b and the magic function g, and the E8 lattice
arithmetic closing the Cohn-Elkies bound at pi^4/384.
"""

from .certify import (
    Certificate,
    ExpPolyModel,
    ModelTerm,
    build_model,
    certify_sign,
    numeric_value,
)
from .e8 import (
    DensityBoundReport,
    LatticePoint,
    PoissonReport,
    ShellTable,
    density_bound,
    enumerate_shells,
    magic_poisson_check,
    poisson_check,
    shell_vectors,
)
from .modforms import FormId, build_form, eval_form, rademacher_coefficient, verify_transform
from .qseries import EvalResult, QSeries, TruncationError
from .radial import (
    RadialValue,
    contour_eval,
    eval_a,
    eval_b,
    eval_g,
    eval_g_deriv,
    hankel_fourier_oracle,
)
from .rigor import Interval, enclose_fraction, ia_exp_poly

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "DensityBoundReport",
    "EvalResult",
    "ExpPolyModel",
    "FormId",
    "Interval",
    "LatticePoint",
    "ModelTerm",
    "PoissonReport",
    "QSeries",
    "RadialValue",
    "ShellTable",
    "TruncationError",
    "build_form",
    "build_model",
    "certify_sign",
    "contour_eval",
    "density_bound",
    "enclose_fraction",
    "enumerate_shells",
    "eval_a",
    "eval_b",
    "eval_form",
    "eval_g",
    "eval_g_deriv",
    "hankel_fourier_oracle",
    "ia_exp_poly",
    "magic_poisson_check",
    "numeric_value",
    "poisson_check",
    "rademacher_coefficient",
    "shell_vectors",
    "verify_transform",
]
