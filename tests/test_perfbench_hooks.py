"""The benchmark's tracer (perfbench/spans.py) finds the callables it times by
name, and calls its hooks with their arguments.  A rename or a changed
parameter list in srlgan would silently drop a span or a counter from the
benchmark's output, so these tests tie the names and the hooks' arity to
the package.  The names that `perfbench/metrics.py`'s per-layer groups sum
are tied too."""

import importlib.util
import inspect
import sys
from pathlib import Path
from unittest import mock

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    """perfbench's module `name`, as perfbench_<name>."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # a dataclass looks its module up
    spec.loader.exec_module(module)
    return module


spans = _load("spans")
with mock.patch.dict(sys.modules, {"spans": spans}):    # metrics imports it by that name
    metrics = _load("metrics")
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


# The names in metrics.GROUPS that resolve to nothing in srlgan, so their
# spans read 0 (ROADMAP item 1a, which fixes them in the benchmark).
STALE_GROUP_NAMES = [
    "evaluate.evaluate_itempop", "evaluate.item_pop_ranking", "evaluate.mrr_at",
    "evaluate.ndcg_at", "evaluate.precision_at", "evaluate.relevant_items",
    "features.term_frequency", "model.loss_bce_gan", "model.loss_lsgan",
    "model.total_generator_objective", "train._BatchSampler.next"]


def _resolves(name) -> bool:
    try:
        return callable(_target(name))
    except AttributeError:
        return False


def test_every_metric_group_name_resolves_but_the_known_stale():
    """A rename in srlgan that empties another group's span fails here; so
    does a stale name that resolves again, until it leaves the list."""
    names = set().union(*metrics.GROUPS.values())
    assert sorted(name for name in names if not _resolves(name)) == STALE_GROUP_NAMES
