"""Search budget accounting and cooperative deadlines.

The paper gives every search a fixed wall-clock budget (200 s in §5.1).
Tests and CI-sized benchmarks need determinism, so the budget also
supports iteration and estimate limits; whichever trips first ends the
search.

:class:`Deadline` is the service-facing cousin of the budget: an
absolute wall-clock cutoff shared by a whole request (possibly spanning
several per-stage-count searches), checked cooperatively and
cancellable from another thread.  A budget says "how much work may this
search do"; a deadline says "by when must an answer exist" — the search
that hits one returns its best-so-far plan flagged partial instead of
raising.
"""

from __future__ import annotations

import inspect
import time
from typing import Callable, Optional

from ..lint.diagnostics import Diagnostic


class Deadline:
    """Cooperative wall-clock cutoff, optionally cancellable.

    ``seconds=None`` never expires on its own but can still be
    :meth:`cancel`-ed (the planner daemon's drain and watchdog use this
    to stop in-flight searches at the next iteration boundary).  The
    ``clock`` is injectable so tests can trip a deadline at an exact,
    deterministic point in the search.
    """

    __slots__ = ("seconds", "_clock", "_expires_at", "_cancelled")

    def __init__(
        self,
        seconds: Optional[float] = None,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if seconds is not None and seconds < 0:
            raise ValueError("deadline seconds must be non-negative")
        self.seconds = seconds
        self._clock = clock
        self._expires_at = None if seconds is None else clock() + seconds
        self._cancelled = False

    def cancel(self) -> None:
        """Expire the deadline immediately (thread-safe: one bool write)."""
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def expired(self) -> bool:
        if self._cancelled:
            return True
        return (
            self._expires_at is not None
            and self._clock() >= self._expires_at
        )

    def remaining(self) -> Optional[float]:
        """Seconds left, ``None`` if unbounded, ``0.0`` once expired."""
        if self._cancelled:
            return 0.0
        if self._expires_at is None:
            return None
        return max(0.0, self._expires_at - self._clock())


class BudgetKwargsError(ValueError):
    """Unknown :class:`SearchBudget` keyword argument(s).

    Still a ``ValueError`` for programmatic callers, but carries one
    typed ``ACE213`` :class:`~repro.lint.diagnostics.Diagnostic` per
    offending key so the planner daemon's admission path can hand the
    finding back as HTTP 400 diagnostics instead of a bare string.
    """

    def __init__(self, message: str, diagnostics=None) -> None:
        super().__init__(message)
        self.diagnostics = list(diagnostics or [])


class SearchBudget:
    """Tracks elapsed wall-clock, iterations, and model estimates."""

    @classmethod
    def validate_kwargs(cls, kwargs: dict) -> dict:
        """Fail fast on budget keyword typos (e.g. ``max_iteration``).

        The stage-count driver forwards ``budget_per_count`` into every
        worker process; validating here surfaces a bad key once, in the
        parent, instead of N times inside forked subprocesses.  Unknown
        keys raise :class:`BudgetKwargsError` with typed ``ACE213``
        diagnostics — never silently dropped.  Returns ``kwargs``
        unchanged on success.
        """
        allowed = {
            name
            for name in inspect.signature(cls.__init__).parameters
            if name != "self"
        }
        unknown = sorted(set(kwargs) - allowed)
        if unknown:
            valid = ", ".join(sorted(allowed))
            raise BudgetKwargsError(
                f"unknown SearchBudget argument(s): {', '.join(unknown)}; "
                f"valid keys: {valid}",
                diagnostics=[
                    Diagnostic(
                        code="ACE213",
                        message=(
                            f"unknown SearchBudget argument {key!r}"
                        ),
                        hint=f"valid keys: {valid}",
                        attrs={"argument": key},
                    )
                    for key in unknown
                ],
            )
        cls(**kwargs)  # also applies the value checks up front
        return kwargs

    def __init__(
        self,
        *,
        max_seconds: Optional[float] = None,
        max_iterations: Optional[int] = None,
        max_estimates: Optional[int] = None,
    ) -> None:
        if max_seconds is None and max_iterations is None and max_estimates is None:
            raise ValueError("at least one budget limit is required")
        for name, value in (
            ("max_seconds", max_seconds),
            ("max_iterations", max_iterations),
            ("max_estimates", max_estimates),
        ):
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive")
        self.max_seconds = max_seconds
        self.max_iterations = max_iterations
        self.max_estimates = max_estimates
        self._start: Optional[float] = None
        self._estimates_start = 0

    def start(self, current_estimates: int = 0) -> None:
        """Begin (or restart) the budget clock."""
        self._start = time.monotonic()
        self._estimates_start = current_estimates

    def elapsed(self) -> float:
        """Seconds since :meth:`start`."""
        if self._start is None:
            raise RuntimeError("budget not started")
        return time.monotonic() - self._start

    def exhausted(
        self, *, iterations: int = 0, estimates: int = 0
    ) -> bool:
        """Whether any configured limit has been reached."""
        if self.max_seconds is not None and self.elapsed() >= self.max_seconds:
            return True
        if self.max_iterations is not None and iterations >= self.max_iterations:
            return True
        if self.max_estimates is not None:
            used = estimates - self._estimates_start
            if used >= self.max_estimates:
                return True
        return False
