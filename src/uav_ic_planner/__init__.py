"""Offline planner for a cellular-connected UAV sharing uplink spectrum with
ground users, with adaptive per-base-station interference cancellation."""

from .scenario import (ChannelParams, FeasibilityReport, GbsSite,
                       InfeasibleSite, Scenario, ScenarioError, UavParams,
                       check_feasibility, default_scenario, parse_scenario)
from .channel import a2g_gain, gu_rate_ic, gu_rate_tin, uav_rate
from .ra_solver import (Allocation, slot_rates_on_points, solve_mode,
                        solve_resource_allocation, solve_slot)
from .sca_trajectory import (ScaResult, Trajectory, optimize_trajectory,
                             straight_line_trajectory)
from .planner import (ConvergenceTrace, InfeasibleScenario, Plan,
                      evaluate_plan, solve)
from .benchmarks import (InsufficientDuration, UpperBoundResult, run_scheme,
                         straight_fly, successive_hover_fly, upper_bound)

__all__ = [
    "ChannelParams", "FeasibilityReport", "GbsSite", "InfeasibleSite",
    "Scenario", "ScenarioError", "UavParams", "check_feasibility",
    "default_scenario", "parse_scenario",
    "a2g_gain", "gu_rate_ic", "gu_rate_tin", "uav_rate",
    "Allocation", "slot_rates_on_points", "solve_mode",
    "solve_resource_allocation", "solve_slot",
    "ScaResult", "Trajectory", "optimize_trajectory",
    "straight_line_trajectory",
    "ConvergenceTrace", "InfeasibleScenario", "Plan", "evaluate_plan",
    "solve",
    "InsufficientDuration", "UpperBoundResult", "run_scheme", "straight_fly",
    "successive_hover_fly", "upper_bound",
]
