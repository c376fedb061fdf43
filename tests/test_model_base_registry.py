"""Coverage for the model base class, registry, and API surface aliases."""

import inspect

import numpy as np
import pytest

from repro.config import preset
from repro.errors import ModelError
from repro.models import MODEL_REGISTRY, load_model
from repro.models.base import ProgrammingModel
from tests.conftest import spmd


class TestRegistry:
    def test_nine_table2_models(self):
        assert len(MODEL_REGISTRY) == 9

    def test_load_model_returns_classes(self):
        for name in MODEL_REGISTRY:
            cls = load_model(name)
            assert issubclass(cls, ProgrammingModel)
            assert cls.MODEL_NAME == name

    def test_every_model_declares_consistency(self):
        from repro.consistency import MODELS

        for name in MODEL_REGISTRY:
            assert load_model(name).CONSISTENCY in MODELS


class TestBaseClass:
    def test_check_manifest_catches_missing_method(self):
        class Broken(ProgrammingModel):
            MODEL_NAME = "broken"
            API_CALLS = ("exists", "missing")

            def exists(self):
                return None

        with pytest.raises(ModelError, match="missing"):
            Broken.check_manifest()

    def test_model_instantiation_selects_consistency(self, swdsm4):
        model = load_model("TreadMarks API")(swdsm4.hamster)
        # TreadMarks promises release consistency; the model owns the
        # optimized implementation, which the scope substrate needs.
        assert model.consistency_model.name == "release"
        assert not model.consistency_model.free_ride

    def test_run_passes_args(self, smp2):
        model = load_model("SPMD model")(smp2.hamster)

        def main(m, a, b):
            return (a, b, (yield from m.spmd_proc_id()))

        results = model.run(main, args=(1, "x"))
        assert results == [(1, "x", 0), (1, "x", 1)]

    def test_api_call_count(self):
        assert load_model("JiaJia API (subset)").api_call_count() == 8


class TestSharedArrayAliases:
    def test_read_write_aliases(self, smp2):
        def main(env):
            A = env.hamster.memory.alloc_array_collective((4, 4), name="A")
            env.barrier()
            if env.rank == 0:
                A.write((slice(0, 2), slice(None)), 3.0)
            env.barrier()
            whole = A.read()
            part = A.read((0, slice(None)))
            return float(whole.sum()), float(part.sum())

        whole, part = spmd(smp2, main)[1]
        assert whole == 3.0 * 8
        assert part == 3.0 * 4

    def test_repr_is_informative(self, smp2):
        def main(env):
            A = env.hamster.memory.alloc_array_collective((4, 4), name="grid")
            return repr(A)

        text = spmd(smp2, main)[0]
        assert "grid" in text and "(4, 4)" in text


class TestNativeBindingSurface:
    def test_native_api_is_call_compatible(self):
        """Every jia_* method of the HAMSTER binding exists on the native
        binding with the same name (the 'identical binaries' precondition),
        and in both it is a generator function (``yield from`` it)."""
        from repro.models.jiajia_api import JiaJiaApi
        from repro.models.native_jiajia import NativeJiaJiaApi

        JiaJiaApi.check_manifest()
        for name in JiaJiaApi.API_CALLS:
            assert callable(getattr(NativeJiaJiaApi, name, None)), name
            for binding in (JiaJiaApi, NativeJiaJiaApi):
                assert inspect.isgeneratorfunction(getattr(binding, name)), (
                    binding.__name__, name)

    def test_native_wtime_and_alloc(self):
        from repro.models.native_jiajia import NativeJiaJiaApi

        plat = preset("native-jiajia-2").build()
        api = NativeJiaJiaApi(plat.hamster)

        def main(a):
            pid, hosts = yield from a.jia_init()
            region = yield from a.jia_alloc(100)
            t = yield from a.jia_wtime()
            yield from a.jia_exit()
            return region.size, hosts, t >= 0

        results = api.run(main)
        assert results[0] == (4096, 2, True)
