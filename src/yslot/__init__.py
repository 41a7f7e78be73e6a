"""Optimal TDMA slot allocation for Y-shaped 3-gateway sensor backbones."""

from .allocate import (PatternSolution, SlotAllocation, optimize, relaxed_table,
                       solution_timeline, solve_pattern)
from .pathmodel import (PathModel, PatternSpec, enumerate_path_models,
                        find_model, patterns_for)
from .relax import ConvergenceError, DomainError
from .simulate import NodeSetMismatch, SimReport, compare, simulate
from .timeline import (CausalityViolation, ConflictViolation, DoesNotFit,
                       GroupPlan, Timeline, build_timeline, verify_timeline)
from .topology import (ConflictSet, GatewayCountNot3, LinkNotInProximity,
                       LossOutOfRange, NoDegree3Node, NotATree, Topology,
                       TopologyError, derive_conflicts, load_config,
                       validate_topology)

__version__ = "0.1.0"
