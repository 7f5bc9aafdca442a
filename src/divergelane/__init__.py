"""Equilibrium lane-choice model, calibration, and data generation for a
two-exit traffic diverge with a bifurcating center lane.

Each layer is imported the first time one of its names, or the layer module
itself, is read from the package, so a caller loads only the layers it uses.
"""

import importlib

__version__ = "0.1.0"

#: Each public name and the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "calibration": (
            "CalibrationOptions",
            "CalibrationResult",
            "ConfigurationError",
            "ViolationCount",
            "calibrate_exact",
            "calibrate_search",
            "count_violations",
        ),
        "datagen": ("SimulationConfig", "generate_dataset", "simulate_steady_state"),
        "equilibrium": (
            "AuxiliaryAction",
            "BoundaryBranchError",
            "EquilibriumReport",
            "SolverOptions",
            "best_response",
            "best_response_slope",
            "nash_player_cost",
            "solve_equilibria",
            "solve_fixed_point",
            "solve_grid_oracle",
        ),
        "fileio": (
            "ParseError",
            "format_coefficients",
            "format_dataset",
            "load_coefficients",
            "load_dataset",
            "parse_coefficients",
            "parse_dataset",
            "write_coefficients",
            "write_dataset",
        ),
        "model": (
            "CostCoefficients",
            "DataPoint",
            "DemandConfig",
            "DivergeInstance",
            "FeasibilityError",
            "FlowDistribution",
            "WardropResiduals",
            "bifurcating_cost",
            "check_uniqueness_condition",
            "feed_through_cost",
            "is_wardrop_equilibrium",
            "lane_costs",
            "uniqueness_margins",
            "wardrop_residuals",
        ),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS.values():
        # Importing a submodule binds it in the package's globals.
        return importlib.import_module(f".{name}", __name__)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_EXPORTS.values()})
