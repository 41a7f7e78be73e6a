"""Optimal TDMA slot allocation for Y-shaped 3-gateway sensor backbones."""

from .allocate import (PatternSolution, SlotAllocation, assign_early_slots,
                       build_group_chain, candidate_structures, com_probability,
                       early_window, optimize, round_allocation,
                       solution_timeline, solve_pattern)
from .pathmodel import (PathModel, PatternSpec, enumerate_path_models,
                        find_model, patterns_for)
from .relax import (ConvergenceError, DomainError, GroupChain, Origin,
                    budget_terms, ffun, gfun)
from .simulate import (InvalidTimeline, NodeSetMismatch, SimReport, compare,
                       simulate)
from .timeline import (CausalityViolation, ConflictViolation, DoesNotFit,
                       GroupPlan, Timeline, build_timeline, verify_timeline)
from .topology import (ConflictSet, GatewayCountNot3, LinkNotInProximity,
                       LossOutOfRange, NoDegree3Node, NotATree, Topology,
                       TopologyError, derive_conflicts, load_config,
                       validate_topology)

__version__ = "0.1.0"
