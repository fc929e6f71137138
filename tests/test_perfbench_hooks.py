"""The benchmark's tracer (perfbench/spans.py) finds the callables it times by
name, and calls its hooks with their arguments.  A rename or a changed
parameter list in srlgan would silently drop a span or a counter from the
benchmark's output, so these tests tie the names and the hooks' arity to
the package."""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # its dataclass looks its module up
    spec.loader.exec_module(module)
    return module


spans = _load_spans()
_tracer = spans.Tracer()
PRE, POST = _tracer._pre, _tracer._post
HOOKED = sorted(spans.PROBE | spans.PRIVATE | set(PRE) | set(POST))

# The targets of the hooks that take a fixed argument list.
FIXED_PARAMETERS = {
    "nn.Linear.forward": ["self", "x"],
    "nn.Linear.backward": ["self", "grad_out"],
    "data.save_cache": ["cache", "path"],
    "data.load_cache": ["path"],
    "nn.Adam.step": ["self"],
}


class _Recorder(spans.Tracer):
    """A Tracer that records the names it wraps."""

    def __init__(self, targets=None):
        super().__init__(targets)
        self.wrapped = set()

    def _wrap(self, name, fn):
        self.wrapped.add(name)
        return super()._wrap(name, fn)


def _target(name):
    layer, *path = name.split(".")
    obj = importlib.import_module(f"srlgan.{layer}")
    for attr in path:
        obj = getattr(obj, attr)
    return obj


@pytest.mark.parametrize("targets", [None, spans.PROBE], ids=["traced", "probe"])
def test_every_hooked_name_is_wrapped(targets):
    tracer = _Recorder(targets)
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    want = HOOKED if targets is None else sorted(targets)
    assert [name for name in want if name not in tracer.wrapped] == []


@pytest.mark.parametrize("name", sorted(set(PRE) | set(POST)))
def test_hooks_take_their_targets_arguments(name):
    """Each hook binds the arguments of a call of its target: the required
    ones by position, the ones with a default by keyword (a post hook gets
    the result first)."""
    target = inspect.signature(_target(name))
    args, kwargs = [], {}
    for p in target.parameters.values():
        if p.kind in (p.VAR_POSITIONAL, p.VAR_KEYWORD):
            continue
        if p.default is p.empty and p.kind != p.KEYWORD_ONLY:
            args.append(p.name)
        else:
            kwargs[p.name] = p.name
    for table, leading in ((PRE, []), (POST, ["result"])):
        if name in table:
            inspect.signature(table[name]).bind(*leading, *args, **kwargs)


@pytest.mark.parametrize("name", sorted(FIXED_PARAMETERS))
def test_fixed_arity_hook_targets_keep_their_parameters(name):
    assert list(inspect.signature(_target(name)).parameters) == FIXED_PARAMETERS[name]
