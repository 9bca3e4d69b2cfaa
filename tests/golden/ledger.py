"""The behaviour ledger: simulated cycles and output fingerprints.

One integer-only entry per :data:`repro.validate.DEFAULT_GRID` workload
x registered forward/backward variant x timing model (serial,
pipelined) x execute mode (numeric, jit): the chip makespan and the
:func:`repro.sim.fingerprint.fingerprint_result` CRC-32 of output, mask
and cycles.  ``tests/golden/behaviour.json`` is the checked-in copy;
``tests/golden/test_behaviour.py`` regenerates the ledger and diffs it
against that file, so any refactor that moves a cycle or a single
output bit fails tier-1.

An *intentional* behaviour change regenerates the file with::

    PYTHONPATH=src python -m tests.golden.ledger --update

and must say so (and why) in ``CHANGES.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.ops import (
    backward_impl,
    backward_variants,
    forward_impl,
    forward_variants,
    run_backward,
    run_forward,
)
from repro.ops.reference import maxpool_argmax_ref
from repro.sim import ProgramCache
from repro.sim.fingerprint import fingerprint_result
from repro.validate import DEFAULT_GRID, FUZZ_CHIP
from repro.workloads import make_gradient, make_input

LEDGER_PATH = Path(__file__).with_name("behaviour.json")

MODELS = ("serial", "pipelined")
EXECUTE_MODES = ("numeric", "jit")


def _label(h, w, c, n, spec) -> str:
    return (
        f"{n}x{h}x{w}x{c}/k{spec.kh}{spec.kw}s{spec.sh}{spec.sw}"
        f"p{spec.pt}{spec.pb}{spec.pl}{spec.pr}"
    )


def build_ledger() -> dict[str, dict[str, int]]:
    """Run every (workload, variant, model, execute) combination on
    :data:`~repro.validate.FUZZ_CHIP` and record its cycles and
    fingerprint, keyed ``op/variant/workload/model/execute``."""
    ledger: dict[str, dict[str, int]] = {}

    def record(key, res):
        ledger[key] = {
            "cycles": int(res.cycles),
            "fingerprint": fingerprint_result(res),
        }

    for h, w, c, n, spec in DEFAULT_GRID:
        label = _label(h, w, c, n, spec)
        x = make_input(h, w, c, n=n, seed=0)
        oh, ow = spec.out_hw(h, w)
        grad = make_gradient(x.shape[1], oh, ow, n=n, seed=1)
        mask = maxpool_argmax_ref(x, spec)
        for model in MODELS:
            for execute in EXECUTE_MODES:
                run = dict(
                    config=FUZZ_CHIP, collect_trace=False, model=model,
                    execute=execute, cache=ProgramCache(),
                )
                suffix = f"{label}/{model}/{execute}"
                for name, op, with_mask in forward_variants():
                    impl = forward_impl(name, op, with_mask)
                    tag = "+mask" if with_mask else ""
                    record(
                        f"{op}pool/{name}{tag}/{suffix}",
                        run_forward(x, spec, impl, **run),
                    )
                for name, op in backward_variants():
                    impl = backward_impl(name, op)
                    record(
                        f"{op}pool-bwd/{name}/{suffix}",
                        run_backward(
                            grad, spec, impl, h, w,
                            mask=mask if op == "max" else None, **run,
                        ),
                    )
    return ledger


def render(ledger: dict[str, dict[str, int]]) -> str:
    """Canonical text of the ledger file (sorted keys, one entry per
    line, trailing newline)."""
    lines = [
        f"  {json.dumps(key)}: {json.dumps(ledger[key], sort_keys=True)}"
        for key in sorted(ledger)
    ]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def main(argv: list[str] | None = None) -> int:
    """Diff the regenerated ledger against the checked-in file, or
    rewrite the file with ``--update``."""
    parser = argparse.ArgumentParser(
        prog="python -m tests.golden.ledger",
        description="Regenerate the cycles + fingerprint behaviour "
        "ledger and compare it with tests/golden/behaviour.json.",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="rewrite behaviour.json (an intentional behaviour change; "
        "record it in CHANGES.md)",
    )
    args = parser.parse_args(argv)
    text = render(build_ledger())
    if args.update:
        LEDGER_PATH.write_text(text)
        print(f"wrote {LEDGER_PATH}")
        return 0
    if LEDGER_PATH.read_text() == text:
        print(f"{LEDGER_PATH.name} matches")
        return 0
    print(f"{LEDGER_PATH.name} differs from the regenerated ledger")
    return 1


if __name__ == "__main__":
    sys.exit(main())
