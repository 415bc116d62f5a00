"""bench/layers.py patches package functions by name and binds their
parameters by name, and only a traced benchmark run exercises that code:
check, without running the benchmark, that every target still resolves
and that the built-in families and both passage engines still draw in the
replayed patterns."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from rarepath import (RngStream, clamped_drift_family, diagnostics,
                      inverse_bessel_family, passage)
from rarepath.paths import HORIZON_CAP
from rarepath.rng import map_lanes

LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"
TREE = ast.parse(LAYERS.read_text(), filename=str(LAYERS))


def _imported():
    """Names layers.py imports from rarepath, resolved to objects."""
    names = {}
    for node in ast.walk(TREE):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "rarepath":
            module = importlib.import_module(node.module)
            for alias in node.names:
                # "from rarepath import cli" names a submodule
                names[alias.asname or alias.name] = getattr(module, alias.name, None) \
                    or importlib.import_module(f"{node.module}.{alias.name}")
    return names


IMPORTED = _imported()
FUNCS = {n.name: n for n in ast.walk(TREE) if isinstance(n, ast.FunctionDef)}
WRAPS = [n for n in ast.walk(TREE) if isinstance(n, ast.Call)
         and isinstance(n.func, ast.Attribute) and n.func.attr == "_wrap"]


def _argument_keys(hook):
    """Keys a before/after hook reads from the wrapped call's bound
    arguments: ``a["key"]`` or ``bound.arguments["key"]``, where ``a`` or
    ``bound`` is the hook's second parameter."""
    param = hook.args.args[1].arg
    keys = set()
    for node in ast.walk(hook):
        if not (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant)):
            continue
        base = node.value
        if isinstance(base, ast.Attribute) and base.attr == "arguments":
            base = base.value
        if isinstance(base, ast.Name) and base.id == param:
            keys.add(node.slice.value)
    return keys


def test_hooks_found():
    assert {"cli", "diagnostics", "passage", "RngStream"} <= set(IMPORTED)
    assert len(WRAPS) >= 8


@pytest.mark.parametrize("call", WRAPS, ids=lambda c: f"{c.args[0].id}.{c.args[1].value}")
def test_wrapped_function_and_bound_arguments_resolve(call):
    module, attr = IMPORTED[call.args[0].id], call.args[1].value
    assert hasattr(module, attr), f"{call.args[0].id}.{attr}"
    params = inspect.signature(getattr(module, attr)).parameters
    # hooks are passed by position or by keyword: bind them as _wrap does
    names = [a.arg for a in FUNCS["_wrap"].args.args[1:]]
    bound = {**dict(zip(names, call.args)), **{kw.arg: kw.value for kw in call.keywords}}
    for role in ("before", "after"):
        if role in bound:
            keys = _argument_keys(FUNCS[bound[role].id])
            assert keys, f"hook {bound[role].id} reads no argument"
            assert keys <= set(params), f"{attr} lacks {keys - set(params)}"


def test_patched_attributes_resolve():
    targets = [t for n in ast.walk(TREE) if isinstance(n, ast.Assign) for t in n.targets
               if isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name)
               and t.value.id in IMPORTED]
    assert targets
    for t in targets:
        assert hasattr(IMPORTED[t.value.id], t.attr), f"{t.value.id}.{t.attr}"


def test_replaced_family_fields_resolve():
    # the only dataclass layers.py replaces fields of is the family handed
    # to q_tail_profile
    fields = {f.name for f in dataclasses.fields(diagnostics.MartingaleFamily)}
    replaced = [kw.arg for n in ast.walk(TREE) if isinstance(n, ast.Call)
                and ast.unparse(n.func) == "dataclasses.replace" for kw in n.keywords]
    assert replaced
    assert set(replaced) <= fields


def _load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


@pytest.mark.parametrize("kind,family", [
    ("inverse-bessel", lambda: inverse_bessel_family(step=1.0 / 16, n_grid=(2, 4))),
    ("bounded-drift", lambda: clamped_drift_family(
        lambda t, w, ws: w[:, :1], step=1.0 / 16, dim=1, n_grid=(1, 2))),
])
def test_family_draws_follow_replayed_pattern(kind, family):
    # the tracer files a generator under the simulate_multi call it is
    # opened in: at any worker count a chunk's lanes must open one, inside
    # a lane range's run, and draw whole at the chunk's lane count
    layers = _load_layers()
    fam = family()
    running = []

    def run(s, m):
        running.append(m)
        try:
            return fam.simulate_multi(s, 0.5, m)
        finally:
            running.remove(m)

    for workers in (1, 2):
        calls, opened = [], []

        def generator(self, *sub):
            opened.append(bool(running))
            return layers.RecordingGenerator(RngStream(3, 0).generator(*sub), calls)

        map_lanes(run, type("Stream", (), {"generator": generator})(), 40, workers)
        assert opened == [True]
        assert layers.lane_profile(calls, layers.PATTERNS[kind]) == [40] * 8


@pytest.mark.parametrize("kind,batch", [("is", passage._is_batch),
                                        ("rej", passage._rej_batch)])
def test_engine_draws_follow_replayed_pattern(kind, batch):
    # the replay derives the rng.* metrics from these draw shapes; a
    # mismatch nulls the metrics instead of failing the benchmark
    layers = _load_layers()
    calls = []
    gen = layers.RecordingGenerator(RngStream(3, 0).generator(), calls)
    h = 4e-3
    *_, lane_steps = batch(gen, 256, 2, h, 1.5, "bridge", int(HORIZON_CAP / h))
    profile = layers.lane_profile(calls, layers.PATTERNS[kind])
    assert profile is not None
    assert sum(profile) == lane_steps
