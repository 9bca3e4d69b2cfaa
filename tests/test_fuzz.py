"""Differential fuzzing subsystem: generator, harness, shrinker, CLI.

The fixed-seed property test here is the CI anchor: every PR re-runs a
bounded differential fuzz (all registered implementations, four
execution routes) on the same deterministic geometry set.
"""

import json
import random

import numpy as np
import pytest

import repro.validate as V
from repro.ops import PoolSpec
from repro.validate import (
    FUZZ_CHIP,
    FuzzCase,
    check_case,
    fuzz,
    generate_cases,
    main,
    shrink_case,
)
from repro.workloads import sample_pool_geometry


class TestGenerator:
    def test_deterministic_per_seed(self):
        assert generate_cases(3, 20) == generate_cases(3, 20)
        assert generate_cases(3, 20) != generate_cases(4, 20)

    def test_all_geometries_legal(self):
        for case in generate_cases(0, 300):
            oh, ow = case.spec.out_hw(case.ih, case.iw)
            assert oh >= 1 and ow >= 1
            assert case.c >= 1 and case.n >= 1

    def test_edge_regimes_sampled(self):
        cases = generate_cases(0, 300)
        specs = [c.spec for c in cases]
        # max overlap, all-four-sides padding, asymmetric padding,
        # single-output-row, multi-C1 and batch>1 all appear
        assert any(s.sh == 1 and s.sw == 1 and s.overlapping for s in specs)
        assert any(min(s.pt, s.pb, s.pl, s.pr) > 0 for s in specs)
        assert any(
            len({s.pt, s.pb, s.pl, s.pr}) > 1 for s in specs
        )
        assert any(
            c.spec.out_hw(c.ih, c.iw)[0] == 1 for c in cases
        )
        assert any(c.c > 16 for c in cases)
        assert any(c.n > 1 for c in cases)

    def test_sampler_respects_pool_spec_invariants(self):
        rng = random.Random(1)
        for _ in range(500):
            ih, iw, c, n, spec = sample_pool_geometry(rng)
            # PoolSpec construction itself validates kernel/stride/pad;
            # the image must fit at least one window.
            assert ih + spec.pt + spec.pb >= spec.kh
            assert iw + spec.pl + spec.pr >= spec.kw


class TestFuzzCase:
    def test_reproducer_round_trips(self):
        case = generate_cases(5, 1)[0]
        clone = eval(case.reproducer(), {
            "FuzzCase": FuzzCase, "PoolSpec": PoolSpec
        })
        assert clone == case

    def test_label_mentions_geometry(self):
        case = FuzzCase(ih=7, iw=9, c=32, n=2,
                        spec=PoolSpec.square(3, 2, pad=1), seed=11)
        assert "2x7x9x32" in case.label
        assert "k33s22" in case.label and "@11" in case.label

    def test_to_dict_json_serializable(self):
        case = generate_cases(2, 1)[0]
        payload = json.dumps(case.to_dict())
        assert f'"ih": {case.ih}' in payload


class TestDifferentialHarness:
    """The fixed-seed property test: every registered implementation
    agrees across fresh / relocated / cached / cycles routes."""

    def test_fixed_seed_property(self):
        report = fuzz(seed=0, cases=4)
        assert report.all_passed, report.render()
        assert report.cases == 4
        # all variants x all route checks actually ran
        assert report.checks >= 4 * 15 * 5

    def test_single_case_check_names(self):
        case = FuzzCase(ih=5, iw=5, c=16, n=1,
                        spec=PoolSpec.square(2, 2), seed=0)
        report = check_case(case)
        assert report.all_passed, report.render()
        names = [c.name for c in report.checks]
        for route in ("fresh-vs-golden", "relocated-vs-fresh",
                      "cached-vs-fresh", "cycles-no-data",
                      "cycles-vs-fresh", "trace-vs-fresh"):
            assert any(route in n for n in names)
        assert any("maxpool/im2col+mask" in n for n in names)
        assert any("avgpool-bwd/col2im" in n for n in names)

    def test_autotune_route_checks(self):
        # The ninth route: per (op, direction) the coarse cost-model
        # search runs once, and the winning plan re-executed
        # numerically must be bit-identical to the default plan at
        # exactly the predicted cycle count.
        case = FuzzCase(ih=6, iw=6, c=16, n=1,
                        spec=PoolSpec.square(2, 2), seed=0)
        report = check_case(case, routes=("autotune",))
        assert report.all_passed, report.render()
        names = [c.name for c in report.checks]
        for check in ("output-vs-default", "cycles-as-predicted",
                      "no-regression"):
            assert any(check in n for n in names), check
        assert any("/autotune/" in n and "-bwd" in n for n in names)

    def test_autotune_off_by_default(self):
        case = FuzzCase(ih=5, iw=5, c=16, n=1,
                        spec=PoolSpec.square(2, 2), seed=0)
        report = check_case(case)
        assert not any(
            "/autotune/" in c.name for c in report.checks
        )

    def test_impl_filter(self):
        case = FuzzCase(ih=5, iw=5, c=16, n=1,
                        spec=PoolSpec.square(2, 2), seed=0)
        report = check_case(case, impls=("im2col",))
        assert report.all_passed, report.render()
        assert all("im2col" in c.name for c in report.checks)

    def test_injected_forward_bug_is_caught_and_shrunk(self, monkeypatch):
        """End-to-end failure path: corrupt the golden model and the
        harness must flag it, shrink it, and report a reproducer."""
        real = V.maxpool_forward_ref

        def corrupt(x, spec):
            out = real(x, spec)
            flat = out.reshape(-1)
            flat[0] += np.float16(1.0)
            return out

        monkeypatch.setattr(V, "maxpool_forward_ref", corrupt)
        report = fuzz(seed=0, cases=1, impls=("standard",))
        assert not report.all_passed
        failure = report.failures[0]
        assert any(
            "fresh-vs-golden" in c.name for c in failure.checks
        )
        # shrinking kept the failure and never grew the case
        assert failure.shrunk.ih <= failure.case.ih
        assert failure.shrunk.iw <= failure.case.iw
        assert failure.shrunk.n == 1
        text = failure.render()
        assert "FuzzCase(" in text and "PoolSpec(" in text

    def test_injected_cycle_bug_is_caught(self, monkeypatch):
        """The cycles route must report the exact numeric cycle count;
        perturb the summary path and the trace/cycle checks fire."""
        from repro.sim.aicore import RunResult
        import repro.sim.progcache as pc

        real = pc._summarize

        def skewed(program, config, collect_trace):
            res = real(program, config, collect_trace)
            return RunResult(
                cycles=res.cycles + 1,
                instructions=res.instructions,
                trace=res.trace,
            )

        monkeypatch.setattr(pc, "_summarize", skewed)
        case = FuzzCase(ih=5, iw=5, c=16, n=1,
                        spec=PoolSpec.square(2, 2), seed=0)
        report = check_case(case, impls=("im2col",))
        assert not report.all_passed
        assert any("cycles" in c.name for c in report.failures)


class TestShrinker:
    def test_reduces_to_minimum_under_predicate(self):
        case = FuzzCase(ih=24, iw=20, c=48, n=3,
                        spec=PoolSpec.square(2, 2), seed=0)
        # "fails whenever ih >= 7": the shrinker must find exactly 7
        shrunk = shrink_case(case, lambda c: c.ih >= 7)
        assert shrunk.ih == 7
        assert shrunk.n == 1 and shrunk.c == 16

    def test_never_below_geometry_floor(self):
        spec = PoolSpec(kh=3, kw=3, sh=1, sw=1, pt=1, pb=0, pl=0, pr=0)
        case = FuzzCase(ih=10, iw=10, c=16, n=1, spec=spec, seed=0)
        shrunk = shrink_case(case, lambda c: True)
        # kh - pt - pb = 2 rows minimum, kw = 3 cols minimum
        assert shrunk.ih == 2 and shrunk.iw == 3
        oh, ow = spec.out_hw(shrunk.ih, shrunk.iw)
        assert oh >= 1 and ow >= 1

    def test_unshrinkable_case_returned_unchanged(self):
        case = FuzzCase(ih=2, iw=2, c=16, n=1,
                        spec=PoolSpec.square(2, 2), seed=0)
        assert shrink_case(case, lambda c: True) == case

    def test_eval_budget_respected(self):
        case = FuzzCase(ih=1000, iw=1000, c=48, n=3,
                        spec=PoolSpec.square(2, 2), seed=0)
        evals = []
        shrink_case(case, lambda c: evals.append(1) or True, max_evals=9)
        assert len(evals) <= 10


class TestChaosRoute:
    """The sixth fuzz route: seeded fault injection with recovery."""

    CASE = FuzzCase(ih=9, iw=9, c=16, n=1,
                    spec=PoolSpec.square(3, 1), seed=0)

    def test_chaos_checks_recorded_and_pass(self):
        report = check_case(self.CASE, impls=("im2col",), routes=("chaos",))
        assert report.all_passed, report.render(only_failures=True)
        names = [c.name for c in report.checks]
        assert any("chaos-serial" in n for n in names)
        assert any("chaos-pipelined" in n for n in names)
        assert any("output-vs-fault-free" in n for n in names)

    def test_chaos_off_by_default(self):
        report = check_case(self.CASE, impls=("im2col",))
        assert not any("chaos" in c.name for c in report.checks)

    @pytest.mark.parametrize("models", [("serial",), ("serial", "pipelined")])
    def test_same_seed_same_plan_report_and_outputs(self, models):
        """Chaos determinism: two runs under one seed build identical
        fault plans, resilience reports, and recovered outputs."""
        from repro.ops import forward_impl, run_forward
        from repro.sim import FaultPlan, ProgramCache, RetryPolicy
        from repro.validate import FUZZ_CHIP, _chaos_seed
        from repro.workloads import make_input

        case = self.CASE
        x = make_input(case.ih, case.iw, case.c, n=case.n, seed=case.seed)
        impl = forward_impl("im2col", "max")

        def once(model):
            base = run_forward(x, case.spec, impl, FUZZ_CHIP, cache=None)
            plan = FaultPlan.generate(
                _chaos_seed("prefix", model),
                num_tiles=len(base.chip.per_tile),
                num_cores=FUZZ_CHIP.num_cores,
            )
            res = run_forward(
                x, case.spec, impl, FUZZ_CHIP, cache=ProgramCache(),
                model=model, faults=plan, retry=RetryPolicy(),
            )
            return plan, res.resilience, res.output, base.output

        for model in models:
            plan_a, rep_a, out_a, base_a = once(model)
            plan_b, rep_b, out_b, base_b = once(model)
            assert plan_a == plan_b
            assert rep_a == rep_b
            assert np.array_equal(out_a, out_b)
            # and recovery really did reproduce the fault-free result
            assert np.array_equal(out_a, base_a)

    def test_fuzz_chaos_fixed_seed(self):
        report = fuzz(seed=0, cases=2, impls=("im2col", "col2im"),
                      routes=("chaos",))
        assert report.all_passed, report.render()
        # two identical invocations agree check-for-check
        again = fuzz(seed=0, cases=2, impls=("im2col", "col2im"),
                     routes=("chaos",))
        assert report.checks == again.checks
        assert report.cases == again.cases

    def test_unrecoverable_plan_fails_loudly(self, monkeypatch):
        """A plan the retry budget cannot absorb is reported as a
        failing chaos check (and therefore shrunk), not swallowed."""
        from repro.sim import Crash, FaultPlan

        def hostile(cls_seed, num_tiles, num_cores=None, rate=0.35):
            # crash every attempt of tile 0: no clean attempt exists
            return FaultPlan((Crash(0, attempts=None),))

        monkeypatch.setattr(
            V.FaultPlan, "generate", staticmethod(hostile)
        )
        report = check_case(self.CASE, impls=("im2col",), routes=("chaos",),
                            models=("serial",))
        assert not report.all_passed
        assert any(
            "chaos-serial/recovered" in c.name and "unrecoverable" in c.detail
            for c in report.failures
        )


class TestCli:
    def test_pass_run_exit_zero(self, capsys):
        assert main(["--seed", "0", "--cases", "2", "--skip-grid"]) == 0
        out = capsys.readouterr().out
        assert "2 cases" in out and "0 failing" in out

    def test_grid_only(self, capsys):
        assert main(["--cases", "0"]) == 0
        out = capsys.readouterr().out
        assert "grid:" in out and "fuzz(" not in out

    def test_json_export(self, tmp_path, capsys):
        path = tmp_path / "sub" / "report.json"
        assert main(["--cases", "1", "--skip-grid",
                     "--json", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["fuzz"]["passed"] is True
        assert payload["fuzz"]["cases"] == 1

    def test_impl_filter_flag(self, capsys):
        assert main(["--cases", "1", "--skip-grid",
                     "--impl", "im2col", "col2im"]) == 0

    def test_chaos_flag(self, tmp_path, capsys):
        path = tmp_path / "chaos.json"
        assert main(["--cases", "1", "--skip-grid", "--chaos",
                     "--impl", "im2col", "--json", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["chaos"] is True
        assert payload["fuzz"]["passed"] is True

    def test_unknown_impl_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["--impl", "nope"])
        assert exc.value.code == 2

    def test_negative_cases_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["--cases", "-3"])
        assert exc.value.code == 2

    def test_failure_exits_nonzero_with_reproducer(
        self, monkeypatch, capsys
    ):
        real = V.maxpool_forward_ref

        def corrupt(x, spec):
            out = real(x, spec)
            out.reshape(-1)[0] += np.float16(1.0)
            return out

        monkeypatch.setattr(V, "maxpool_forward_ref", corrupt)
        code = main(["--seed", "0", "--cases", "1", "--skip-grid",
                     "--impl", "standard"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out
        assert "shrunk reproducer: FuzzCase(" in out


class TestFuzzChip:
    def test_fuzz_chip_row_chunks(self):
        """The fuzz chip must actually exercise multi-tile slices."""
        assert FUZZ_CHIP.num_cores > 1
        case = FuzzCase(ih=9, iw=9, c=16, n=1,
                        spec=PoolSpec.square(3, 1), seed=0)
        from repro.ops import forward_impl, run_forward
        from repro.workloads import make_input

        x = make_input(case.ih, case.iw, case.c, seed=0)
        res = run_forward(x, case.spec, forward_impl("im2col", "max"),
                          FUZZ_CHIP, collect_trace=False, cache=None)
        assert len(res.tiles) > 1


class TestRouteRegistry:
    """Adding a route is one ``ROUTES`` entry: the CLI flags, the JSON
    payload keys and the per-operator checks all derive from it."""

    CASE = FuzzCase(ih=5, iw=5, c=16, n=1,
                    spec=PoolSpec.square(2, 2), seed=0)

    def test_no_per_route_parameters(self):
        import inspect

        for fn in (check_case, fuzz, V._case_fails):
            params = set(inspect.signature(fn).parameters)
            assert "routes" in params
            assert not params & {"chaos", "sanitize", "jit", "autotune"}

    def test_cli_flags_and_payload_keys_follow_routes(
        self, monkeypatch, tmp_path, capsys
    ):
        calls = []

        def storm(seed, cases, models, progress):
            calls.append((seed, cases, tuple(models)))
            report = V.ValidationReport()
            report.add("probe/ok", True)
            return report

        monkeypatch.setitem(
            V.ROUTES, "probe-storm", V.Route(storm, "test", standalone=True)
        )
        path = tmp_path / "probe.json"
        assert main(["--probe-storm", "--cases", "3", "--model", "serial",
                     "--json", str(path)]) == 0
        assert calls == [(0, 3, ("serial",))]
        payload = json.loads(path.read_text())
        route_keys = [V.route_key(name) for name in V.ROUTES]
        assert list(payload)[1:len(route_keys) + 1] == route_keys
        assert payload["probe_storm"] is True
        assert not any(payload[k] for k in route_keys if k != "probe_storm")
        assert payload["probe_storm_report"]["passed"] is True
        assert "fuzz" not in payload and "grid" not in payload

    def test_operator_route_runs_per_operator(self, monkeypatch):
        seen = []

        def check(report, prefix, op, runs, models, config):
            seen.append(prefix)
            report.add(f"{prefix}/probe", "fresh" in runs)

        monkeypatch.setitem(V.ROUTES, "probe", V.Route(check, "test"))
        report = check_case(self.CASE, impls=("im2col",),
                            routes=("probe",))
        assert report.all_passed, report.render(only_failures=True)
        assert seen and all("im2col" in p or "col2im" in p for p in seen)
        assert len(seen) == len([c for c in report.checks
                                 if c.name.endswith("/probe")])

    @pytest.mark.parametrize("route", ["nope", "serve-chaos"])
    def test_unknown_or_standalone_route_rejected(self, route):
        with pytest.raises(ValueError, match="per-operator route"):
            check_case(self.CASE, routes=(route,))


class TestCaseFails:
    CASE = FuzzCase(ih=5, iw=5, c=16, n=1,
                    spec=PoolSpec.square(2, 2), seed=0)

    def test_genuine_bug_propagates(self, monkeypatch):
        """A shrink candidate that crashes with a real bug is not
        silently scored "not failing"."""
        def boom(*args, **kwargs):
            raise RuntimeError("genuine bug")

        monkeypatch.setattr(V, "check_case", boom)
        with pytest.raises(RuntimeError, match="genuine bug"):
            V._case_fails(self.CASE, FUZZ_CHIP, None)

    @pytest.mark.parametrize("exc", ["LayoutError", "TilingError",
                                     "PlanError"])
    def test_geometry_errors_count_as_not_failing(self, monkeypatch, exc):
        import repro.errors as E

        def unbuildable(*args, **kwargs):
            raise getattr(E, exc)("candidate cannot be built")

        monkeypatch.setattr(V, "check_case", unbuildable)
        assert V._case_fails(self.CASE, FUZZ_CHIP, None) is False


class TestSameResult:
    @staticmethod
    def result(output, mask=None):
        from types import SimpleNamespace

        return SimpleNamespace(output=output, mask=mask)

    def test_signed_zero_differs(self):
        pos = np.zeros(4, dtype=np.float16)
        neg = pos.copy()
        neg[2] = -0.0
        assert np.array_equal(pos, neg)
        assert not V._same_result(self.result(pos), self.result(neg))

    def test_identical_results_equal(self):
        out = np.arange(6, dtype=np.float16).reshape(2, 3)
        mask = np.ones((2, 3), dtype=np.uint16)
        assert V._same_result(self.result(out, mask),
                              self.result(out.copy(), mask.copy()))

    def test_presence_shape_and_dtype_count(self):
        out = np.zeros(4, dtype=np.float16)
        assert not V._same_result(self.result(out),
                                  self.result(out, np.zeros(4)))
        assert not V._same_result(self.result(out),
                                  self.result(out.reshape(2, 2)))
        assert not V._same_result(self.result(out),
                                  self.result(out.view(np.uint16)))
