"""Request validation, geometry keys, and the coalescer's affinity map."""

import numpy as np
import pytest

from repro.errors import LayoutError, ServeError
from repro.ops import PoolSpec
from repro.serve import Coalescer, PoolRequest, geometry_key

SPEC = PoolSpec.square(3, 2)


def _x(shape=(1, 2, 16, 16, 16), dtype=np.float16, seed=0):
    return np.random.default_rng(seed).random(shape).astype(dtype)


class TestRequestValidation:
    def test_valid_forward(self):
        r = PoolRequest(kind="maxpool", x=_x(), spec=SPEC)
        assert r.tenant == "default" and r.execute == "numeric"

    def test_unknown_kind(self):
        with pytest.raises(ServeError):
            PoolRequest(kind="medianpool", x=_x(), spec=SPEC)

    def test_unknown_execute(self):
        with pytest.raises(ServeError):
            PoolRequest(kind="maxpool", x=_x(), spec=SPEC, execute="fused")

    def test_unknown_model(self):
        with pytest.raises(ServeError, match="unknown timing model"):
            PoolRequest(kind="maxpool", x=_x(), spec=SPEC, model="eager")

    def test_unknown_plan_policy(self):
        with pytest.raises(ServeError, match="unknown plan policy"):
            PoolRequest(kind="maxpool", x=_x(), spec=SPEC, plan="greedy")

    def test_autotuned_plan_accepted(self):
        r = PoolRequest(
            kind="maxpool", x=_x(), spec=SPEC, plan="autotuned"
        )
        assert r.plan == "autotuned"

    def test_rank5_required(self):
        with pytest.raises(LayoutError):
            PoolRequest(kind="maxpool", x=np.zeros((4, 4)), spec=SPEC)

    def test_forward_rejects_backward_fields(self):
        with pytest.raises(ServeError):
            PoolRequest(kind="maxpool", x=_x(), spec=SPEC, ih=16, iw=16)
        with pytest.raises(ServeError):
            PoolRequest(kind="avgpool", x=_x(), spec=SPEC, mask=_x())
        with pytest.raises(ServeError):
            PoolRequest(kind="avgpool", x=_x(), spec=SPEC, with_mask=True)

    def test_backward_requires_extents(self):
        with pytest.raises(ServeError):
            PoolRequest(kind="avgpool_backward", x=_x(), spec=SPEC)

    def test_maxpool_backward_requires_mask(self):
        with pytest.raises(ServeError):
            PoolRequest(
                kind="maxpool_backward", x=_x(), spec=SPEC, ih=16, iw=16
            )

    def test_avgpool_backward_rejects_mask(self):
        with pytest.raises(ServeError):
            PoolRequest(
                kind="avgpool_backward", x=_x(), spec=SPEC, ih=16, iw=16,
                mask=_x(),
            )

    def test_chaos_attempts_validated(self):
        with pytest.raises(ServeError):
            PoolRequest(
                kind="maxpool", x=_x(), spec=SPEC, chaos_crash_attempts=(-1,)
            )


class TestGeometryKey:
    def test_same_geometry_same_key_despite_values(self):
        a = PoolRequest(kind="maxpool", x=_x(seed=0), spec=SPEC)
        b = PoolRequest(kind="maxpool", x=_x(seed=99), spec=SPEC)
        assert geometry_key(a) == geometry_key(b)

    def test_key_distinguishes_every_axis(self):
        base = PoolRequest(kind="maxpool", x=_x(), spec=SPEC)
        variants = [
            PoolRequest(kind="avgpool", x=_x(), spec=SPEC),
            PoolRequest(kind="maxpool", x=_x(), spec=PoolSpec.square(2, 2)),
            PoolRequest(kind="maxpool", x=_x(), spec=SPEC, impl="standard"),
            PoolRequest(kind="maxpool", x=_x(), spec=SPEC, with_mask=True),
            PoolRequest(
                kind="maxpool", x=_x(shape=(1, 1, 16, 16, 16)), spec=SPEC
            ),
            PoolRequest(
                kind="maxpool", x=_x(dtype=np.float32), spec=SPEC
            ),
            PoolRequest(kind="maxpool", x=_x(), spec=SPEC, execute="cycles"),
            PoolRequest(kind="maxpool", x=_x(), spec=SPEC,
                        plan="autotuned"),
        ]
        keys = {geometry_key(v) for v in variants}
        assert geometry_key(base) not in keys
        assert len(keys) == len(variants)

    def test_model_does_not_affect_key(self):
        # One cached program and kernel serve every timing model, so
        # the key, like plan_key, carries no model.
        keys = {
            geometry_key(PoolRequest(kind="maxpool", x=_x(), spec=SPEC,
                                     model=model))
            for model in (None, "serial", "pipelined")
        }
        assert len(keys) == 1

    def test_tenant_does_not_affect_key(self):
        a = PoolRequest(kind="maxpool", x=_x(), spec=SPEC, tenant="a")
        b = PoolRequest(kind="maxpool", x=_x(), spec=SPEC, tenant="b")
        assert geometry_key(a) == geometry_key(b)

    def test_key_is_hashable(self):
        {geometry_key(PoolRequest(kind="maxpool", x=_x(), spec=SPEC)): 1}


class TestCoalescer:
    def test_route_unknown_is_none(self):
        assert Coalescer().route("k") is None

    def test_bind_then_route(self):
        c = Coalescer()
        c.bind("k", 3, hit=False)
        assert c.route("k") == 3
        c.bind("k", 3, hit=True)
        assert c.hits == 1 and c.misses == 1
        assert c.hit_rate == 0.5

    def test_forget_worker_drops_only_its_keys(self):
        c = Coalescer()
        c.bind("a", 0, hit=False)
        c.bind("b", 1, hit=False)
        c.bind("c", 0, hit=False)
        assert c.forget_worker(0) == 2
        assert c.route("a") is None and c.route("c") is None
        assert c.route("b") == 1
        assert len(c) == 1

    def test_hit_rate_empty(self):
        assert Coalescer().hit_rate == 0.0
