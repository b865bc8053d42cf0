"""dnadecide: compile decision problems into DNA protocols and simulate them.

The public names below load their module on first access (PEP 562), so
`import dnadecide` alone loads nothing else and each command loads only
the modules it uses.
"""

import importlib

_SOURCES = {
    "compiler": ("EncodingPlan", "ProtocolPlan", "compile_problem"),
    "decision": (
        "DecisionMatrix",
        "Option",
        "Outcome",
        "Payoff",
        "best_options",
        "build_matrix",
        "expected_utility",
        "validate_matrix",
    ),
    "formats": ("dump_problem", "load_problem", "parse_problem"),
    "gel": ("DecisionReport", "band_table", "readout", "render", "run_gel"),
    "soundness": ("run_end_to_end", "verify_soundness"),
    "wetlab": ("run_protocol",),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    # not cached in the package namespace: each access asks the module
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
