"""Retry, timeout, and error-classification guard around one grid cell.

The grid executor behind :class:`~repro.pipeline.GridRunner` and
:func:`~repro.pipeline.run_grid_parallel` runs every cell — inline or in
a pool worker — through this guard. One call, :func:`execute_cell`,
wraps a cell body with:

* **fault injection** (the deterministic test seam of
  :mod:`repro.ft.faults`),
* a **per-cell timeout** (:func:`call_with_timeout`),
* **retry with exponential backoff** for *transient* failures
  (:func:`classify_error`), and
* one of three uniform outcomes (result, retry-exhausted failure, fatal
  skip), which the executor's one absorb step journals, counts and
  audits the same way however the grid was scheduled.

Classification is deliberately conservative: only errors that plausibly
succeed on retry — :class:`~repro.exceptions.TransientError` (which
includes injected faults and cell timeouts) and :class:`OSError` (flaky
filesystems, worker churn) — are retried. Everything else (validation
errors, algorithm bugs) fails fast exactly as before.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable
from dataclasses import dataclass, replace
from typing import Any, TypeVar

from repro.exceptions import (
    CellTimeoutError,
    RetryExhaustedError,
    TransientError,
    ValidationError,
)
from repro.ft.faults import FaultInjector
from repro.obs import metrics as obs_metrics

__all__ = [
    "FTConfig",
    "call_with_timeout",
    "classify_error",
    "execute_cell",
    "resolve_ft",
]

R = TypeVar("R")

#: Environment variable: default checkpoint journal path.
CHECKPOINT_ENV = "REPRO_CHECKPOINT"
#: Environment variable: resume from an existing journal (default on).
RESUME_ENV = "REPRO_RESUME"
#: Environment variable: retry budget per cell (default 0).
MAX_RETRIES_ENV = "REPRO_MAX_RETRIES"
#: Environment variable: per-cell timeout in seconds (default off).
CELL_TIMEOUT_ENV = "REPRO_CELL_TIMEOUT"
#: Environment variable: first backoff delay in seconds (default 0.05).
BACKOFF_ENV = "REPRO_BACKOFF"

_RETRIES = obs_metrics.counter(
    "repro_ft_retries_total",
    "Transient cell failures that were retried, by error type",
)
_TIMEOUTS = obs_metrics.counter(
    "repro_ft_cell_timeouts_total",
    "Grid cells that exceeded their per-cell deadline",
)
_FAILED = obs_metrics.counter(
    "repro_ft_failed_cells_total",
    "Grid cells that exhausted their retry budget",
)
_FAULTS = obs_metrics.counter(
    "repro_ft_faults_injected_total",
    "Deliberate failures raised by the fault-injection seam",
)


@dataclass(frozen=True)
class FTConfig:
    """Fault-tolerance knobs of one grid run.

    Attributes
    ----------
    checkpoint:
        JSONL journal path (``None`` disables checkpointing).
    resume:
        Load an existing journal and skip its completed cells. When
        ``False``, a pre-existing journal file is an error — refusing to
        silently mix runs.
    max_retries:
        Extra attempts granted to a transiently failing cell (0 = fail on
        first transient error).
    backoff_base:
        Delay before the first retry, in seconds; each further retry
        doubles it (``backoff_base * backoff_factor**attempt``).
    backoff_factor:
        Exponential growth factor of the backoff delay.
    cell_timeout:
        Per-cell deadline in seconds (``None`` disables). A cell past its
        deadline raises :class:`~repro.exceptions.CellTimeoutError`
        (transient, hence retryable).
    injector:
        Deterministic fault-injection seam (``None`` = off). The
        environment resolution consults ``REPRO_FAULT_RATE``.

    Examples
    --------
    >>> FTConfig(max_retries=2).max_retries
    2
    >>> FTConfig().with_overrides(checkpoint="grid.journal").checkpoint
    'grid.journal'
    """

    checkpoint: "str | None" = None
    resume: bool = True
    max_retries: int = 0
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    cell_timeout: "float | None" = None
    injector: "FaultInjector | None" = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValidationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_base < 0:
            raise ValidationError(
                f"backoff_base must be >= 0, got {self.backoff_base}"
            )
        if self.cell_timeout is not None and self.cell_timeout <= 0:
            raise ValidationError(
                f"cell_timeout must be > 0, got {self.cell_timeout}"
            )

    @classmethod
    def from_env(cls) -> "FTConfig":
        """Resolve every knob from ``REPRO_*`` environment variables.

        This is how the CLI flags reach the experiment entry points (the
        same pattern ``--backend`` uses): unset variables fall back to the
        dataclass defaults, so a clean environment means fault tolerance
        is entirely inert.
        """
        import os

        timeout_raw = os.environ.get(CELL_TIMEOUT_ENV, "").strip()
        return cls(
            checkpoint=os.environ.get(CHECKPOINT_ENV) or None,
            resume=os.environ.get(RESUME_ENV, "1").strip().lower()
            not in ("0", "false", "no"),
            max_retries=int(os.environ.get(MAX_RETRIES_ENV, "0")),
            backoff_base=float(os.environ.get(BACKOFF_ENV, "0.05")),
            cell_timeout=float(timeout_raw) if timeout_raw else None,
            injector=FaultInjector.from_env(),
        )

    def with_overrides(self, **changes: object) -> "FTConfig":
        """A copy with the given fields replaced (``None`` values kept)."""
        return replace(self, **changes)  # type: ignore[arg-type]


def resolve_ft(ft: "FTConfig | None") -> FTConfig:
    """An explicit config wins; otherwise the environment decides."""
    return ft if ft is not None else FTConfig.from_env()


def classify_error(exc: BaseException) -> str:
    """``"transient"`` (worth retrying) or ``"fatal"`` (fail fast).

    The one error-classification rule both grid executors share:
    :class:`~repro.exceptions.TransientError` (injected faults, cell
    timeouts) and :class:`OSError` (I/O hiccups, worker churn) are
    transient; every other exception — validation errors, algorithm bugs,
    ``KeyboardInterrupt`` — is fatal.

    Examples
    --------
    >>> classify_error(TransientError("flaky"))
    'transient'
    >>> classify_error(OSError("disk sneezed"))
    'transient'
    >>> classify_error(ValueError("bad input"))
    'fatal'
    """
    if isinstance(exc, (TransientError, OSError)):
        return "transient"
    return "fatal"


def call_with_timeout(
    fn: Callable[[], R], timeout: "float | None", *, label: str = "cell"
) -> R:
    """Run ``fn`` with a wall-clock deadline.

    With ``timeout=None`` this is a plain call. Otherwise ``fn`` runs in
    a daemon thread joined with the deadline; overrunning raises
    :class:`~repro.exceptions.CellTimeoutError`. Python cannot kill a
    running thread, so an overrunning cell is *abandoned*, not stopped —
    it keeps a CPU busy until it returns, but its result is discarded and
    the grid moves on. That trade-off (bounded grid latency over bounded
    CPU) is the right one for a many-cell sweep where one pathological
    cell must not stall the whole run.

    Examples
    --------
    >>> call_with_timeout(lambda: 21 * 2, None)
    42
    >>> call_with_timeout(lambda: 21 * 2, timeout=5.0)
    42
    """
    if timeout is None:
        return fn()
    outcome: list[Any] = []

    def _target() -> None:
        try:
            outcome.append(("ok", fn()))
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            outcome.append(("err", exc))

    worker = threading.Thread(
        target=_target, name=f"repro-ft-{label}", daemon=True
    )
    worker.start()
    worker.join(timeout)
    if worker.is_alive():
        _TIMEOUTS.inc()
        raise CellTimeoutError(
            f"{label} exceeded its {timeout:g}s deadline (abandoned)"
        )
    status, value = outcome[0]
    if status == "err":
        raise value
    return value


def execute_cell(
    body: Callable[[], R],
    *,
    key: str,
    ft: FTConfig,
    skip_errors: bool,
    sleep: Callable[[float], None] = time.sleep,
) -> "tuple[str, R | str]":
    """Run one grid cell under the full fault-tolerance contract.

    Returns one of three outcomes:

    * ``("result", value)`` — the cell completed (possibly after retries);
    * ``("failed", message)`` — a *transient* failure exhausted the retry
      budget; the caller records it in its ``failed_cells`` audit and the
      grid continues (graceful degradation — this never raises);
    * ``("error", message)`` — a *fatal* error with ``skip_errors=True``;
      the caller records it in its ``skipped`` audit.

    A fatal error with ``skip_errors=False`` propagates, preserving the
    pre-``repro.ft`` contract for deterministic bugs.
    """
    attempt = 0
    while True:
        try:
            if ft.injector is not None:
                try:
                    ft.injector.check(key)
                except Exception:
                    _FAULTS.inc()
                    raise
            result = call_with_timeout(body, ft.cell_timeout, label=key)
            return ("result", result)
        except Exception as exc:  # noqa: BLE001 - classified below
            message = f"{type(exc).__name__}: {exc}"
            if classify_error(exc) == "fatal":
                if not skip_errors:
                    raise
                return ("error", message)
            if attempt < ft.max_retries:
                _RETRIES.inc(error=type(exc).__name__)
                delay = ft.backoff_base * (ft.backoff_factor**attempt)
                if delay > 0:
                    sleep(delay)
                attempt += 1
                continue
            _FAILED.inc()
            exhausted = RetryExhaustedError(
                f"{message} (after {attempt + 1} attempt(s))"
            )
            exhausted.__cause__ = exc
            return ("failed", str(exhausted))
