"""The RFC 9615 parental agent: the actuator that closes the loop.

Lazy re-exports, matching the other planes —
:mod:`repro.monitor.plane` reads this package's ledger helpers while
:mod:`repro.agent.plane` replays worlds through
:mod:`repro.monitor.timeline`; keeping the ``__init__`` lazy breaks
the cycle.
"""

from typing import TYPE_CHECKING

__all__ = [
    "Agent",
    "AgentAction",
    "AgentError",
    "AgentRun",
    "ConvergenceReport",
    "compute_convergence",
    "ledger_path",
    "read_ledger",
    "render_convergence",
]

_API = {
    "AgentAction": ("repro.agent.actions", "AgentAction"),
    "AgentRun": ("repro.agent.actions", "AgentRun"),
    "ledger_path": ("repro.agent.actions", "ledger_path"),
    "read_ledger": ("repro.agent.actions", "read_ledger"),
    "Agent": ("repro.agent.plane", "Agent"),
    "AgentError": ("repro.agent.plane", "AgentError"),
    "ConvergenceReport": ("repro.agent.report", "ConvergenceReport"),
    "compute_convergence": ("repro.agent.report", "compute_convergence"),
    "render_convergence": ("repro.agent.report", "render_convergence"),
}

if TYPE_CHECKING:  # pragma: no cover
    from repro.agent.actions import AgentAction, AgentRun, ledger_path, read_ledger
    from repro.agent.plane import Agent, AgentError
    from repro.agent.report import (
        ConvergenceReport,
        compute_convergence,
        render_convergence,
    )


def __getattr__(name: str):
    try:
        module_name, attr = _API[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)


def __dir__():
    return sorted(__all__)
