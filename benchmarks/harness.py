"""Step recorder for one benchmark pass.

Every call the benchmark makes into a ``qrfkit`` layer goes through
``PassRecorder.call``, which counts the step, times it and, when asked,
records a span and the ``tracemalloc`` peak of the call.  Output checks run
between calls, so they fall outside every layer span and show up as glue
time of the enclosing case.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
import traceback
from contextlib import contextmanager

LAYERS = ("models", "kinspace", "relobs", "reduction_gauge", "ncalg",
          "algstates")

# Every step name the workloads use, as "<layer>.<function>[.<variant>]".
FUNCTIONS = (
    "models.build_model",
    "models.state",
    "kinspace.group_average",
    "kinspace.project_physical",
    "kinspace.physical_inner_product",
    "relobs.relational_observable.kinematical",
    "relobs.relational_observable.closed",
    "relobs.relational_observable.physical",
    "relobs.wraparound_weight",
    "reduction_gauge.reduce_state",
    "reduction_gauge.embed_state",
    "reduction_gauge.qrf_transform",
    "reduction_gauge.conjugate_observable",
    "reduction_gauge.theta_gauge",
    "reduction_gauge.verify_gauge",
    "reduction_gauge.gauge_transform_state",
    "reduction_gauge.system_projector",
    "reduction_gauge.gauge_flow",
    "ncalg.multiply",
    "ncalg.adjoint",
    "ncalg.commutator",
    "ncalg.to_weyl_basis",
    "ncalg.from_weyl_basis",
    "algstates.frame_state",
    "algstates.value_table",
    "algstates.check_constraint_surface",
    "algstates.check_frame_gauge",
    "algstates.check_almost_positive",
    "algstates.verify_reference_frame",
    "algstates.transform_frame",
)


def layer_of(step: str) -> str:
    return step.split(".", 1)[0]


class CaseAborted(Exception):
    """A step raised; the rest of its case depends on it and is skipped."""


class PassRecorder:
    """Counts, times and optionally traces the steps of one pass.

    ``spans`` keeps one ``(step, start, end, case, pass)`` tuple per call;
    ``memory`` records the allocation peak of each call, relative to what
    was allocated when the call started (``tracemalloc`` must be running).
    """

    def __init__(self, pass_id: int, spans: bool = False,
                 memory: bool = False):
        self.pass_id = pass_id
        self.trace = spans
        self.memory = memory
        self.attempted = 0
        self.failed = {}          # step -> failed calls
        self.messages = []        # "[case] what failed", in order
        self.spans = []           # (step, start, end, case, pass)
        self.cases = []           # (case, start, end, pass)
        self.peaks = {}           # step -> largest call peak in bytes
        self.counters = {}        # name -> count
        self._case = None
        self._last = None
        self._last_failed = False

    def call(self, step: str, fn, *args, **kwargs):
        """Run one step; a raise counts as a failure and aborts the case."""
        self.attempted += 1
        self._last = step
        self._last_failed = False
        if self.memory:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:
            self._fail(f"{step} raised {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            raise CaseAborted(step) from None
        t1 = time.perf_counter()
        if self.trace:
            self.spans.append((step, t0, t1, self._case, self.pass_id))
        if self.memory:
            peak = tracemalloc.get_traced_memory()[1] - base
            self.peaks[step] = max(self.peaks.get(step, 0), peak)
        return out

    def check(self, ok, what: str) -> None:
        """Mark the most recent step failed unless ``ok``."""
        if not ok:
            self._fail(f"check after {self._last}: {what}")

    def count(self, name: str, n: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def _fail(self, message: str) -> None:
        self.messages.append(f"[{self._case}] {message}")
        print(f"FAILED {self.messages[-1]}", file=sys.stderr)
        if not self._last_failed:
            self._last_failed = True
            self.failed[self._last] = self.failed.get(self._last, 0) + 1

    @contextmanager
    def case(self, name: str):
        self._case = name
        t0 = time.perf_counter()
        try:
            yield
        except CaseAborted:
            pass
        finally:
            self.cases.append((name, t0, time.perf_counter(), self.pass_id))
            self._case = None

    @property
    def n_failed(self) -> int:
        return sum(self.failed.values())
