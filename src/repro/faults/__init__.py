"""Deterministic fault injection and chaos sweeps.

:mod:`repro.faults.plan` defines the declarative :class:`FaultPlan` /
:class:`FaultSpec` vocabulary and the :class:`FaultInjector` runtime that
backends, the WAL, and the label service consult at named hook points;
:mod:`repro.faults.chaos` drives seeded crash-recovery sweeps — backend
and writer crashes, follower kills, primary restarts, one row of
:func:`standard_plans` each — that check every recovered label against a
twin oracle (the ``repro chaos`` CLI).
"""

from .chaos import (
    SCHEME_NAMES,
    ChaosReport,
    ChaosTrial,
    run_chaos_sweep,
    run_chaos_trial,
    standard_plan_names,
    standard_plans,
)
from .plan import (
    FSYNC_FAIL,
    HOOKS,
    IO_ERROR,
    KINDS,
    LATENCY,
    SHORT_WRITE,
    TORN_WRITE,
    WRITER_CRASH,
    FaultAction,
    FaultInjector,
    FaultPlan,
    FaultPlanError,
    FaultSpec,
    FiredFault,
    ScopedFaultInjector,
    split_hook,
)

__all__ = [
    "ChaosReport",
    "ChaosTrial",
    "FaultAction",
    "FaultInjector",
    "FaultPlan",
    "FaultPlanError",
    "FaultSpec",
    "FiredFault",
    "FSYNC_FAIL",
    "HOOKS",
    "IO_ERROR",
    "KINDS",
    "LATENCY",
    "SHORT_WRITE",
    "TORN_WRITE",
    "WRITER_CRASH",
    "SCHEME_NAMES",
    "ScopedFaultInjector",
    "run_chaos_sweep",
    "run_chaos_trial",
    "split_hook",
    "standard_plan_names",
    "standard_plans",
]
