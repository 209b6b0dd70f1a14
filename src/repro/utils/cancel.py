"""Cooperative cancellation: one stop token per portfolio race.

The portfolio scheduler gives every race one :class:`threading.Event`
and installs it in each member thread with :func:`cancel_on`, the way
:func:`~repro.baselines.anytime.observe_improvements` installs
improvement observers.  The long-running stages of the annealing
pipeline call :func:`check_cancelled` — once per annealing sweep, once
per variable the greedy embedder places, and between the stages of
:class:`~repro.core.pipeline.QuantumMQO` — so setting the token cuts a
straggling member short.  Threads without a token (every solo solve)
are unaffected.

The module sits below every other layer because the annealer and the
embedders, which the solver packages build on, check the token.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.exceptions import SolverCancelledError

__all__ = ["cancel_on", "check_cancelled"]


class _ThreadStop(threading.local):
    """The current thread's stop token (``None``: not cancellable)."""

    token: Optional[threading.Event] = None


_STOP = _ThreadStop()


@contextmanager
def cancel_on(token: Optional[threading.Event]) -> Iterator[None]:
    """Install ``token`` as the current thread's stop token for the block.

    ``None`` shields the block from an outer token.  The previous token
    is restored on exit.
    """
    previous = _STOP.token
    _STOP.token = token
    try:
        yield
    finally:
        _STOP.token = previous


def check_cancelled() -> None:
    """Raise :class:`SolverCancelledError` if this thread's stop token is set."""
    token = _STOP.token
    if token is not None and token.is_set():
        raise SolverCancelledError("cancelled by the race's stop token")
