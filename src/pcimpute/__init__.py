"""Multiple imputation by chained equations with principal-component regression models.

The public names below load with their submodule on first use (PEP 562),
so ``import pcimpute`` loads neither numpy nor scipy.  A process can then
set its BLAS environment, as ``pcimpute.cli`` does, before either loads.
"""

import sys as _sys
from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

__version__ = "0.1.0"

_EXPORTS = {
    "data": (
        "IncompleteData",
        "ROLE_ANALYSIS",
        "ROLE_AUXILIARY",
        "ROLE_MAR",
        "complete_case_rows",
        "load_csv",
        "write_csv",
    ),
    "engine": (
        "ImputationSpec",
        "MultiplyImputedSet",
        "STRATEGIES",
        "initialize_fill",
        "quickpred_select",
        "run_impute",
    ),
    "imputers": (
        "LinearModelDraw",
        "draw_linear_params",
        "draw_predictive",
        "pmm_impute",
    ),
    "pca": (
        "EnumerationRule",
        "PcaResult",
        "enumerate_components",
        "max_components",
        "pca",
        "standardize",
    ),
    "pooling": (
        "ParameterId",
        "PooledEstimate",
        "analyze_set",
        "estimate_parameter",
        "moment_parameter_ids",
        "rubin_pool",
    ),
    "simulation": (
        "MethodSetting",
        "SimulationCondition",
        "StudySettings",
        "ampute",
        "calibrate_intercept",
        "coarsen",
        "compute_cic",
        "compute_ciw",
        "compute_prb",
        "generate_complete",
        "mar_diagnostics",
        "run_study",
    ),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted([*_SUBMODULE, "__version__"])


def __getattr__(name: str):
    # Not cached here: a name patched on its submodule shows through.
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_SUBMODULE})


class _Package(_ModuleType):
    """Keeps ``pcimpute.pca`` the function: the first import of the ``pca``
    submodule would otherwise bind the module over that public name."""

    def __setattr__(self, name: str, value) -> None:
        if name != "pca" or not isinstance(value, _ModuleType):
            super().__setattr__(name, value)


_sys.modules[__name__].__class__ = _Package
