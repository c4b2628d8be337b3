"""mahlerzeta: exact Mahler measures for three families of lattice polynomials.

The package computes the (logarithmic) Mahler measure of three families of
polynomials in arbitrarily many variables as exact symbolic combinations of
odd zeta values, Dirichlet L-values of the nonprincipal character mod 4,
log 2, and a small set of length-two polylogarithm constants, and
cross-checks every closed form against independent numerical oracles.

Importing the package runs only the production layer: ``combinations``,
``exact``, ``formulas``, ``store`` and ``values``, all that ``eval`` and
``constants`` use.  The check layer is the subpackage ``check`` (the
``verify`` registry, ``identities``, ``reduce`` and ``tables``), which
``verify`` alone imports, and ``oracle``, bound in ``sys.modules`` and on
the package as a lazy module: its code runs on its first attribute access,
in ``verify`` or on first use of a name such as ``mahlerzeta.torus_qmc``.
"""

from .combinations import ConstantBasisElement, ZetaCombination
from .exact import bernoulli, euler_number
from .formulas import (
    Family,
    FamilySpec,
    MahlerResult,
    family_one,
    family_three,
    family_two,
    mahler_measure,
)
from .store import ConstantStore
from .values import combination_value, multiple_polylog


def _lazy_submodule(name: str):
    """Register submodule ``name`` in ``sys.modules``; its code runs on first use.

    Being in ``sys.modules`` from the start, the module is found there by
    code that looks it up by path after ``import mahlerzeta``, as tracers do.
    The import machinery is imported here, so the package does not bind it.
    """
    import sys
    from importlib.util import LazyLoader, find_spec, module_from_spec

    spec = find_spec("%s.%s" % (__name__, name))
    spec.loader = LazyLoader(spec.loader)
    module = module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


oracle = _lazy_submodule("oracle")

# The oracle's public names, served by the package.
_CHECK_LAYER = (
    "CheckResult",
    "IntegralEstimate",
    "base_measure_one",
    "base_measure_three_imaginary",
    "base_measure_three_real",
    "base_measure_two",
    "closed_form_measure",
    "imaginary_measure_qmc",
    "kernel_integral_check",
    "reduced_integral",
    "torus_qmc",
)


def __getattr__(name: str):
    # read from the module on every access, so a patch on the module shows here
    if name not in _CHECK_LAYER:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(oracle, name)


def __dir__():
    return sorted(set(globals()) | set(_CHECK_LAYER))


__version__ = "0.1.0"

__all__ = [
    "ConstantBasisElement",
    "ConstantStore",
    "Family",
    "FamilySpec",
    "MahlerResult",
    "ZetaCombination",
    "__version__",
    "bernoulli",
    "combination_value",
    "euler_number",
    "family_one",
    "family_three",
    "family_two",
    "mahler_measure",
    "multiple_polylog",
    *_CHECK_LAYER,
]
