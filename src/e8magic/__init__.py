"""The magic function behind the E8 sphere packing bound.

Exact q-expansions of the modular-form catalog, interval-certified sign
inequalities for the Laplace densities A and B, numerical evaluation of the
radial eigenfunctions a, b and the magic function g, and the E8 lattice
arithmetic closing the Cohn-Elkies bound at pi^4/384.

``import e8magic`` loads the exact layers (``rigor``, ``qseries``,
``modforms``, ``certify``) and not numpy.  The names of ``radial`` and ``e8``
are resolved on first use (PEP 562), so a process that only certifies or
prints series never pays for numpy; numpy itself is imported by the first
numeric evaluation.
"""

from importlib import import_module

from .certify import (
    Certificate,
    ExpPolyModel,
    ModelTerm,
    build_model,
    certify_sign,
    numeric_value,
)
from .modforms import FormId, build_form, eval_form, rademacher_coefficient, verify_transform
from .qseries import EvalResult, QSeries, TruncationError
from .rigor import Interval, enclose_fraction, ia_exp_poly

# public names of the numeric layers, by module, imported on first access
_LAZY = {
    **dict.fromkeys(
        ("RadialValue", "contour_eval", "eval_a", "eval_b", "eval_g", "eval_g_deriv",
         "hankel_fourier_oracle"),
        "radial",
    ),
    **dict.fromkeys(
        ("DensityBoundReport", "LatticePoint", "PoissonReport", "ShellTable", "density_bound",
         "enumerate_shells", "magic_poisson_check", "poisson_check", "shell_vectors"),
        "e8",
    ),
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))


__version__ = "0.1.0"

# the public names: the classes and functions imported above from the exact
# layers, and the lazy names of the numeric layers
__all__ = sorted(
    [name for name, value in globals().items() if getattr(value, "__module__", "").startswith(f"{__name__}.")]
    + list(_LAZY)
)
