"""The per-layer tracer in perfbench/tracing.py wraps psl2q names it lists by
string, and it silently drops a cache ratio whose attribute is gone; these
tests fail instead when a rename leaves one of those names behind."""

import importlib
import types
from pathlib import Path

import pytest

from psl2q.charsums import CharacterSums
from psl2q.fields import field_ctx_for_q
from psl2q.groups import PGL2

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    # executed from source, so no bytecode is written next to it
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_traced_function_and_method_exists(tracing):
    for module_name, attr, name in tracing.FUNCTIONS:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), name
    for module_name, class_name, method, name in tracing.METHODS:
        cls = getattr(importlib.import_module(module_name), class_name)
        assert method in cls.__dict__, name


def test_every_traced_cache_exists(tracing):
    ctx = field_ctx_for_q(5)
    fresh = {"PGL2": lambda: PGL2(ctx), "CharacterSums": lambda: CharacterSums(ctx)}
    functions = {name: module_name for module_name, _, name in tracing.FUNCTIONS}
    methods = {name: class_name for _, class_name, _, name in tracing.METHODS}
    for name, attr in tracing.CACHES.items():
        if name in functions:
            holder = importlib.import_module(functions[name])
        else:
            holder = fresh[methods[name]]()
        assert isinstance(getattr(holder, attr, None), dict), (name, attr)
