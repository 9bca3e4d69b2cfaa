"""Execute modes and the one check of how they compose.

:data:`EXECUTE_MODES` is the single definition the drivers
(:mod:`repro.ops`), the planner, the serve wire format and the
simulator validate against, each raising its own layer's error type
through :func:`check_execute`.  :func:`check_modes` is the single
exclusivity check between the execute mode and the opt-in execution
features -- strict memory checking (``sanitize``) and fault injection
(``injection``/``faults``/``retry``) -- shared by
:meth:`repro.sim.AICore.run` and the :class:`repro.sim.Chip`
dispatchers.
"""

from __future__ import annotations

from ..errors import PlanError, SimulationError
from .faults import BitFlip, FaultInjector

#: Execution modes: interpreted data execution, the analytic
#: cycles-only fast path, and compiled NumPy batch kernels.
EXECUTE_MODES: tuple[str, ...] = ("numeric", "cycles", "jit")


def check_execute(
    execute: str, error: type[Exception] = SimulationError
) -> None:
    """Raise ``error`` unless ``execute`` is one of :data:`EXECUTE_MODES`."""
    if execute not in EXECUTE_MODES:
        *head, last = (repr(m) for m in EXECUTE_MODES)
        raise error(
            f"unknown execution mode {execute!r}; expected "
            f"{', '.join(head)} or {last}"
        )


def check_modes(
    execute: str,
    sanitize=None,
    injection=None,
    faults=None,
    retry=None,
) -> None:
    """Reject execute-mode / feature combinations no run can honour.

    * ``execute="jit"`` composes with *silent-only* fault plans (every
      fault an undetected :class:`BitFlip`, applied to the kernel's
      written global-memory tensors post-execute); detected faults,
      crashes, stalls, deadlines and ``retry=`` operate at
      per-instruction boundaries the fused kernels do not have
      (:class:`~repro.errors.PlanError`, naming the conflicting
      fields).
    * ``sanitize`` runs numerically and without fault injection: the
      cycles-only path never touches buffer data, the JIT bypasses the
      per-instruction loop strict mode instruments, and injected
      faults corrupt scratch-pad state on purpose.

    Per-instruction ``injection=`` needs no rule of its own here: it
    reaches only :meth:`~repro.sim.AICore.run`, which refuses
    ``execute="jit"`` outright.  A compiled kernel travels on its
    :class:`~repro.sim.chip.WorkItem`, and the chip refuses one outside
    ``execute="jit"``.  Every other conflict raises
    :class:`~repro.errors.SimulationError`.
    """
    check_execute(execute)
    if execute == "jit":
        _check_jit_faults(faults, retry)
    if sanitize:
        if faults is not None or retry is not None or injection is not None:
            raise SimulationError(
                "sanitize= and fault injection (faults=/retry=/"
                "injection=) are mutually exclusive: injected faults "
                "corrupt scratch-pad state on purpose, which strict mode "
                "would (correctly) reject"
            )
        if execute != "numeric":
            raise SimulationError(
                "sanitized dispatch must execute numerically "
                "(execute='numeric'): cycles-only runs never touch "
                "buffer data, and JIT runs bypass the per-instruction "
                "loop strict mode instruments"
            )


def _check_jit_faults(faults, retry) -> None:
    plan = faults.plan if isinstance(faults, FaultInjector) else faults
    conflicts = []
    if plan is not None and not plan.silent_only:
        kinds = sorted(
            {
                "BitFlip(detected=True)"
                if isinstance(f, BitFlip)
                else type(f).__name__
                for f in plan.faults
                if not (isinstance(f, BitFlip) and not f.detected)
            }
        )
        conflicts.append(f"faults= (fault kinds: {', '.join(kinds)})")
    if retry is not None:
        conflicts.append("retry= (resilient retry)")
    if conflicts:
        raise PlanError(
            f"execute='jit' conflicts with {' and '.join(conflicts)}: "
            "fused batch kernels have no per-instruction boundaries "
            "for fault injection or retry accounting.  Only *silent* "
            "BitFlip plans (detected=False) compose with the JIT -- "
            "their flips land on the kernel's written global-memory "
            "tensors post-execute.  Run the interpreter "
            "(execute='numeric') for resilient dispatch"
        )
