"""Span tracing of the program's layers from outside the program.

A :class:`Tracer` replaces module attributes and class methods of ``smle``
with wrappers that record one span per call (name, start, end, parent span,
phase).  Spans stay in memory; :meth:`Tracer.write` dumps them when the run
ends.  Nothing under ``src/`` is edited: a function is wrapped where its
callers look it up, so a name imported into another module is wrapped there
too (``pipeline`` imports ``sample_batch`` and ``denoise`` by name).

:func:`layer_metrics` turns the spans of the measured phase into per-layer
numbers: calls per operation, median self time per call, and self time as a
share of the traced wall time.
"""

import functools
import json
import os
import statistics
import time
from dataclasses import dataclass


def _lstm_forward_flops(args, kwargs):
    layer, x = args[0], args[1]
    b, t, d = x.shape
    return 2.0 * b * t * 4 * layer.hidden_dim * (d + layer.hidden_dim)


def _lstm_backward_flops(args, kwargs):
    # dx, dWx, dWh and the recurrent dh: twice the forward matmul work
    layer, dh = args[0], args[1]
    b, t, h = dh.shape
    return 4.0 * b * t * 4 * h * (layer.input_dim + h)


def _file_mb(args, kwargs):
    return os.path.getsize(args[0]) / 1e6


@dataclass(frozen=True)
class Target:
    """One traced function: its report name, where callers find it, and
    optionally the work of a call (``work``) reported as a rate
    ``<name>.<suffix>`` in ``unit``, scaled by ``scale`` per second."""

    name: str
    sites: tuple  # ("module", "attr") or ("module", "Class", "attr")
    phase: str = "measure"
    work: object = None
    rate: tuple = ()  # (suffix, unit, scale)


TARGETS = (
    Target("data.sample_batch", (("data", "sample_batch"), ("pipeline", "sample_batch"))),
    Target("dsp.stft_batch", (("dsp", "stft_batch"),)),
    Target("dsp.istft_batch", (("dsp", "istft_batch"),)),
    Target("dsp.istft_adjoint_batch", (("dsp", "istft_adjoint_batch"),)),
    Target("dsp.stft", (("dsp", "stft"),)),
    Target("dsp.istft", (("dsp", "istft"),)),
    Target("pipeline.neg_sisdr_and_grad_batch", (("pipeline", "neg_sisdr_and_grad_batch"),)),
    Target("pipeline.specialist_loss_and_grads", (("pipeline", "specialist_loss_and_grads"),)),
    Target("pipeline.gating_loss_and_grads", (("pipeline", "gating_loss_and_grads"),)),
    Target("pipeline.ensemble_loss_and_grads", (("pipeline", "ensemble_loss_and_grads"),)),
    Target("pipeline.mask_net_sisdri", (("pipeline", "mask_net_sisdri"),)),
    Target("pipeline.gate_accuracy", (("pipeline", "gate_accuracy"),)),
    Target("pipeline.ensemble_hard_sisdri", (("pipeline", "ensemble_hard_sisdri"),)),
    Target("pipeline.train_specialist", (("pipeline", "train_specialist"),)),
    Target("pipeline.train_gating", (("pipeline", "train_gating"),)),
    Target("pipeline.finetune_ensemble", (("pipeline", "finetune_ensemble"),)),
    Target("pipeline.evaluate", (("pipeline", "evaluate"),)),
    Target("neural.LstmLayer.forward", (("neural", "LstmLayer", "forward"),),
           work=_lstm_forward_flops, rate=("gflops", "GFLOP/s", 1e-9)),
    Target("neural.LstmLayer.backward", (("neural", "LstmLayer", "backward"),),
           work=_lstm_backward_flops, rate=("gflops", "GFLOP/s", 1e-9)),
    Target("neural.DenseLayer.forward", (("neural", "DenseLayer", "forward"),)),
    Target("neural.DenseLayer.backward", (("neural", "DenseLayer", "backward"),)),
    Target("neural.Adam.step", (("neural", "Adam", "step"),)),
    Target("models.denoise", (("models", "denoise"), ("pipeline", "denoise"))),
    Target("models.GatingModel.gate", (("models", "GatingModel", "gate"),)),
    Target("models.SpecialistModel.mask", (("models", "SpecialistModel", "mask"),)),
    Target("metrics.si_sdr_improvement", (("metrics", "si_sdr_improvement"),)),
    Target("checkpoint.load_model", (("checkpoint", "load_model"),), phase="setup",
           work=_file_mb, rate=("mb_per_s", "MB/s", 1.0)),
)

# Corpus.load hits are its calls minus the calls that reach load_wav.
_COUNTERS = (
    ("data.Corpus.load", ("data", "Corpus", "load")),
    ("data.load_wav", ("data", "load_wav")),
)


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for target in TARGETS:
        units[f"{target.name}.calls"] = "calls/op"
        units[f"{target.name}.ms"] = "ms"
        units[f"{target.name}.share"] = "fraction"
        if target.rate:
            units[f"{target.name}.{target.rate[0]}"] = target.rate[1]
    units["data.load_hit_ratio"] = "fraction"
    units["trace.self_time_share"] = "fraction"
    units["trace.overhead_share"] = "fraction"
    return units


class Tracer:
    """Records spans for the wrapped functions while installed."""

    def __init__(self, smle_modules):
        self._modules = smle_modules
        self._patches = []
        self._stack = []
        self.spans = []  # [name, start, end, parent index, phase, work]
        self.counts = {}
        self.phase = "setup"

    def _site(self, site):
        owner = self._modules[site[0]]
        for part in site[1:-1]:
            owner = getattr(owner, part)
        return owner, site[-1]

    def _patch(self, site, wrapper_factory):
        owner, attr = self._site(site)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, wrapper_factory(original))
        self._patches.append((owner, attr, original))

    def _span_wrapper(self, target):
        def factory(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                work = target.work(args, kwargs) if target.work else 0.0
                idx = len(self.spans)
                parent = self._stack[-1] if self._stack else -1
                span = [target.name, time.perf_counter(), None, parent, self.phase, work]
                self.spans.append(span)
                self._stack.append(idx)
                try:
                    return fn(*args, **kwargs)
                finally:
                    span[2] = time.perf_counter()
                    self._stack.pop()
            return traced
        return factory

    def _count_wrapper(self, name):
        def factory(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                key = (name, self.phase)
                self.counts[key] = self.counts.get(key, 0) + 1
                return fn(*args, **kwargs)
            return counted
        return factory

    def install(self):
        for target in TARGETS:
            for site in target.sites:
                self._patch(site, self._span_wrapper(target))
        for name, site in _COUNTERS:
            self._patch(site, self._count_wrapper(name))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path):
        """Dump every span as JSON lines: name, start, end, parent, phase."""
        with open(path, "w") as fh:
            for name, start, end, parent, phase, _ in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "phase": phase}) + "\n")


def _self_times(spans):
    """Span duration minus the part its direct children cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent, phase, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(s[2] - s[1]) - child[i] for i, s in enumerate(spans)]


def layer_metrics(tracer, ops, wall_s, setup_ops, setup_wall_s):
    """Per-layer metrics from the spans of the measured phase.

    ``ops`` is the number of operations the measured phase attempted and
    ``wall_s`` its wall time; setup-phase targets are normalised by
    ``setup_ops`` set-ups and their wall time instead.
    """
    self_s = _self_times(tracer.spans)
    by_name = {}
    for span, own in zip(tracer.spans, self_s):
        by_name.setdefault((span[0], span[4]), []).append((own, span[5]))
    out = {}
    total_self = 0.0
    for target in TARGETS:
        per_op, wall = (setup_ops, setup_wall_s) if target.phase == "setup" else (ops, wall_s)
        calls = by_name.get((target.name, target.phase), [])
        own = [c[0] for c in calls]
        if target.phase == "measure":
            total_self += sum(own)
        out[f"{target.name}.calls"] = len(calls) / per_op
        out[f"{target.name}.ms"] = 1e3 * statistics.median(own) if own else 0.0
        out[f"{target.name}.share"] = sum(own) / wall
        if target.rate:
            suffix, _, scale = target.rate
            work = sum(c[1] for c in calls)
            out[f"{target.name}.{suffix}"] = scale * work / sum(own) if own else 0.0
    loads = tracer.counts.get(("data.Corpus.load", "measure"), 0)
    misses = tracer.counts.get(("data.load_wav", "measure"), 0)
    out["data.load_hit_ratio"] = (loads - misses) / loads if loads else 0.0
    out["trace.self_time_share"] = total_self / wall_s
    return out
