"""Span recording around srlgan's layers, from outside the package.

`Tracer.install()` replaces the public functions and methods of each
layer module (and a few private ones on the training hot path) with
wrappers that record a span: name, start, end, parent span, and the
CLI command and training round it belongs to.  Spans stay in memory
until `write()`.  Hooks at the same boundaries count work: Linear
flops from shapes, Adam bytes from parameter counts, rows parsed, bytes
of cache and checkpoint files, and weight-gradient flops that reach an
`Adam.step` versus those a `zero_grad` throws away.

`Tracer(targets=PROBE)` wraps only the step boundaries the end-to-end
metrics need (a few spans per training round), which is how the
untraced run measures rounds, pretraining steps and the phases of
`train`.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import importlib
import inspect
import json
import os
import sys
from collections import defaultdict
from time import perf_counter_ns

LAYERS = ("data", "features", "pipeline", "nn", "model", "train", "evaluate", "cli")
ROOT = "cli.main"
# Private methods that carry hot-path work worth their own span.
PRIVATE = {"train.Trainer._batch", "train.Trainer._evaluate_checkpoint"}
# Step boundaries used by the untraced run.
PROBE = {ROOT, "train.Trainer.pretrain_generator",
         "train.Trainer.discriminator_phase_step",
         "train.Trainer.generator_phase_step", "nn.Adam.step",
         "train.Trainer._evaluate_checkpoint", "nn.save_checkpoint"}

# Adam reads param, grad, m, v and writes param, m, v: 7 float64 per weight.
ADAM_BYTES_PER_PARAM = 7 * 8


def linear_flops(batch: int, fan_in: int, fan_out: int) -> dict:
    """Flops of one Linear forward and backward (a multiply-add is 2)."""
    gemm = 2 * batch * fan_in * fan_out
    return {"forward": gemm + batch * fan_out,        # x @ W, + b
            "weight_grad": gemm,                       # x.T @ g
            "backward": 2 * gemm + batch * fan_out}   # x.T @ g, g @ W.T, sum(g)


def mlp_param_count(sizes) -> int:
    return sum(a * b + b for a, b in zip(sizes[:-1], sizes[1:]))


@dataclasses.dataclass
class Span:
    name: str
    start: int          # perf_counter_ns
    end: int
    parent: int         # index into Tracer.spans, -1 for a root
    command: int        # 1-based CLI command number
    round: int | None   # training round within the command
    tag: str | None = None


def span_cost_ns(calls: int = 20000) -> float:
    """Wall time one recorded span adds to a call, measured on a no-op."""
    def noop():
        return None

    def loop(fn):
        start = perf_counter_ns()
        for _ in range(calls):
            fn()
        return perf_counter_ns() - start

    probe = Tracer()
    traced = probe._wrap("noop", noop)
    elapsed = []
    probe._wrap(ROOT, lambda: elapsed.append(loop(traced)))()
    return (elapsed[0] - loop(noop)) / calls


def self_times(spans) -> list[int]:
    """Duration of each span minus the time its direct children cover.

    Children of one span never overlap (one thread), and grandchildren lie
    inside children, so subtracting direct children is exact.
    """
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


class WeightGradLedger:
    """Weight-gradient flops per network: useful once an `Adam.step` reads
    them, wasted when a `zero_grad` (or the end of the run) drops them."""

    def __init__(self):
        self.pending = defaultdict(int)   # id(net) -> flops since last reset
        self.useful = 0
        self.wasted = 0

    def accumulate(self, net_id: int, flops: int):
        self.pending[net_id] += flops

    def zero_grad(self, net_id: int):
        self.wasted += self.pending.pop(net_id, 0)

    def step(self, net_id: int):
        self.useful += self.pending.pop(net_id, 0)

    def close(self):
        self.wasted += sum(self.pending.values())
        self.pending.clear()

    @property
    def total(self) -> int:
        return self.useful + self.wasted + sum(self.pending.values())


class Tracer:
    """Spans and counters of the CLI commands run while installed."""

    def __init__(self, targets=None):
        self.targets = targets        # None: every layer's public surface
        self.spans: list[Span] = []
        self.counts = defaultdict(int)
        self.grads = WeightGradLedger()
        self.command = 0
        self.round = None
        self._stack = []
        self._patched = []            # (owner, attribute, original)
        self._role = {}               # id(MLP) -> "generator"/"discriminator"
        self._owner = {}              # id(Linear) -> id(MLP)
        self._pre = {
            ROOT: self._new_command,
            "nn.Linear.forward": self._linear_forward,
            "nn.Linear.backward": self._linear_backward,
            "nn.MLP.backward": self._map_layers,
            "nn.MLP.zero_grad": lambda net, *a, **k: self.grads.zero_grad(id(net)),
            "nn.Adam.step": self._adam_step,
            "train.Trainer.discriminator_phase_step": self._enter_round,
            "train.Trainer.generator_phase_step": self._enter_round,
        }
        self._post = {
            "train.Trainer.__init__": self._trainer_roles,
            "train.Trainer.discriminator_phase_step": self._leave_round,
            "train.Trainer.generator_phase_step": self._leave_round,
            "nn.load_checkpoint": self._checkpoint_roles,
            "nn.save_checkpoint": lambda r, path, *a, **k: self._file_bytes(
                "nn.save_checkpoint.bytes", path),
            "data.save_cache": lambda r, cache, path: self._file_bytes("data.cache.bytes", path),
            "data.load_cache": lambda r, path: self._file_bytes("data.cache.bytes", path),
            "data.parse_ratings": lambda r, *a, **k: self._add("data.parse.rows", len(r)),
        }

    # -- installing wrappers -------------------------------------------------

    def _wrap(self, name, fn):
        pre, post, spans, stack = self._pre.get(name), self._post.get(name), self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack and name != ROOT:    # outside any CLI command
                return fn(*args, **kwargs)
            if pre is not None:
                pre(*args, **kwargs)
            span = Span(name, 0, 0, stack[-1] if stack else -1, self.command,
                        self.round, self.tag_of(name, args))
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter_ns()
                stack.pop()
            if post is not None:
                post(result, *args, **kwargs)
            return result
        return traced

    def _selected(self, name: str) -> bool:
        return name in self.targets if self.targets is not None else True

    def install(self):
        """Wrap every selected callable; all srlgan modules see the wrappers."""
        replaced = {}                          # id(original) -> wrapper
        for layer in LAYERS:
            mod = importlib.import_module(f"srlgan.{layer}")
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    name = f"{layer}.{attr}"
                    if not attr.startswith("_") and self._selected(name):
                        replaced[id(obj)] = self._wrap(name, obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._install_class(layer, obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "srlgan" or mod_name.startswith("srlgan."):
                for attr, obj in list(vars(mod).items()):
                    if id(obj) in replaced:
                        self._patch(mod, attr, obj, replaced[id(obj)])
        return self

    def _install_class(self, layer, cls):
        for attr, member in list(vars(cls).items()):
            name = f"{layer}.{cls.__name__}.{attr}"
            fn = member.__func__ if isinstance(member, (staticmethod, classmethod)) else member
            if not inspect.isfunction(fn) or not self._selected(name):
                continue
            # Dataclass __init__ runs once per record (a million RatingTriples).
            public = not attr.startswith("_") or name in PRIVATE or (
                attr == "__init__" and not dataclasses.is_dataclass(cls))
            if public:
                wrapper = self._wrap(name, fn)
                if fn is not member:
                    wrapper = type(member)(wrapper)
                self._patch(cls, attr, member, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- hooks ---------------------------------------------------------------

    def _add(self, key, value):
        self.counts[key] += value

    def _file_bytes(self, key, path):
        self._add(key, os.path.getsize(path))

    def _new_command(self, *args, **kwargs):
        self.command += 1

    def _enter_round(self, trainer, *args, **kwargs):
        self.round = trainer.rounds_done + 1

    def _leave_round(self, result, *args, **kwargs):
        self.round = None

    def _linear_forward(self, layer, x, *args, **kwargs):
        fan_in, fan_out = layer.weight.shape
        self._add("nn.linear_fwd.flop", linear_flops(len(x), fan_in, fan_out)["forward"])

    def _linear_backward(self, layer, grad_out):
        flops = linear_flops(len(grad_out), *layer.weight.shape)
        self._add("nn.linear_bwd.flop", flops["backward"])
        self.grads.accumulate(self._owner.get(id(layer), id(layer)), flops["weight_grad"])

    def _map_layers(self, net, *args, **kwargs):
        for layer in net.layers:
            self._owner[id(layer)] = id(net)

    def _adam_step(self, opt):
        self.grads.step(id(opt.net))
        self._add("nn.adam_step.bytes", ADAM_BYTES_PER_PARAM * mlp_param_count(opt.net.sizes))

    def _trainer_roles(self, result, trainer, *args, **kwargs):
        self._role[id(trainer.generator)] = "generator"
        self._role[id(trainer.discriminator)] = "discriminator"

    def _checkpoint_roles(self, result, *args, **kwargs):
        for role, net in result[0].items():
            self._role[id(net)] = role

    def tag_of(self, name, args):
        if name == "nn.Adam.step":
            return self._role.get(id(args[0].net), "other")
        return None

    # -- output --------------------------------------------------------------

    def write(self, path):
        """Spans as gzipped json: one [name, start, end, parent, command,
        round, tag] list per span, plus the counters."""
        rows = [dataclasses.astuple(s) for s in self.spans]
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": [f.name for f in dataclasses.fields(Span)],
                       "spans": rows, "counts": dict(self.counts)}, fh)
