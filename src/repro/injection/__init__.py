"""Programmable software fault injection for Python (ProFIPy-style substrate).

Public surface:

* :mod:`repro.injection.operators` — the fault operator library and registry;
* :class:`InjectionPointLocator` — scans code for applicable fault sites;
* :class:`FaultLoad` / :class:`FaultLoadEntry` — the programmable fault-load DSL;
* :class:`ProgrammableInjector` — plans and applies fault loads.
"""

from .faultload import FaultLoad, FaultLoadEntry
from .injector import InjectionPlan, ProgrammableInjector
from .locator import InjectionPointLocator, ScanReport
from .operators import (
    AppliedFault,
    FaultOperator,
    InjectionPoint,
    OPERATOR_REGISTRY,
    all_operators,
    fault_type_coverage,
    get_operator,
    operator_names,
    operators_for_fault_type,
)

__all__ = [
    "AppliedFault",
    "FaultLoad",
    "FaultLoadEntry",
    "FaultOperator",
    "InjectionPlan",
    "InjectionPoint",
    "InjectionPointLocator",
    "OPERATOR_REGISTRY",
    "ProgrammableInjector",
    "ScanReport",
    "all_operators",
    "fault_type_coverage",
    "get_operator",
    "operator_names",
    "operators_for_fault_type",
]
