"""The magic function behind the E8 sphere packing bound.

Exact q-expansions of the modular-form catalog, interval-certified sign
inequalities for the Laplace densities A and B, numerical evaluation of the
radial eigenfunctions a, b and the magic function g, and the E8 lattice
arithmetic closing the Cohn-Elkies bound at pi^4/384.

``import e8magic`` loads no submodule.  Each public name is resolved on first
use (PEP 562) from its module in ``_LAZY``, which loads that module and the
layers it imports, and nothing else: a process that only prints series never
compiles the certifier, and one that only certifies never pays for numpy,
which is imported by the first numeric evaluation.
"""

from importlib import import_module

# every public name, by the module that defines it, imported on first access
_LAZY = {
    name: module
    for module, names in {
        "certify": "Certificate ExpPolyModel ModelTerm build_model certify_sign numeric_value",
        "modforms": "FormId build_form eval_form verify_transform",
        "growth": "rademacher_coefficient",
        "qseries": "QSeries TruncationError",
        "qfloat": "EvalResult",
        "rigor": "Interval enclose_fraction ia_exp_poly",
        "radial": "RadialValue contour_eval eval_a eval_b eval_g eval_g_deriv hankel_fourier_oracle",
        "e8": "DensityBoundReport LatticePoint PoissonReport ShellTable density_bound enumerate_shells "
              "magic_poisson_check poisson_check shell_vectors",
    }.items()
    for name in names.split()
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

__all__ = sorted(_LAZY)
