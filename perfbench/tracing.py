"""In-memory span tracer that wraps npcl's public functions from outside.

``Tracer.install`` replaces each name in ``LAYERS`` with a wrapper in every
loaded ``npcl`` module that binds it (re-exports included), so a call is
traced whichever namespace it goes through.  ``uninstall`` puts the
originals back.  Nothing under ``src/`` is modified, and untraced runs never
call ``install``.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (-1 at top level).  Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (layer, module, attribute).  A dotted attribute names a method of a class
# defined in that module.
LAYERS = (
    ("net.forward", "npcl.net", "forward"),
    ("net.backward", "npcl.net", "backward"),
    ("net.adam_step", "npcl.net", "adam_step"),
    ("losses.values", "npcl.losses", "BaseLoss.values"),
    ("losses.margin", "npcl.losses", "multiclass_margin"),
    ("selection.partial_optimize", "npcl.selection", "partial_optimize"),
    ("selection.compute_threshold", "npcl.selection", "compute_threshold"),
    ("objectives.from_logits", "npcl.objectives", "MarginBatch.from_logits"),
    ("objectives.curriculum_objective", "npcl.objectives", "curriculum_objective"),
    ("objectives.batched_objective", "npcl.objectives", "batched_objective"),
    ("training.train", "npcl.training", "train"),
    ("training.evaluate", "npcl.training", "evaluate"),
    ("adversarial.project", "npcl.adversarial", "project_chi_square_ball"),
    ("adversarial.numeric", "npcl.adversarial", "adversarial_risk_numeric"),
    ("adversarial.closed_form", "npcl.adversarial", "empirical_adversarial_risk"),
    ("adversarial.monotonicity", "npcl.adversarial", "check_monotonicity"),
    ("data.synth_blobs", "npcl.data", "synth_blobs"),
    ("corruption.corrupt_dataset", "npcl.corruption", "corrupt_dataset"),
    ("cli.run", "npcl.cli", "run"),
)

# Every per-layer metric a traced run reports, with unit and direction.
# Counts and times are per traced pass.
PER_LAYER = (
    ("net.forward.calls", "count", "lower"),
    ("net.forward.self_s", "s", "lower"),
    ("net.backward.calls", "count", "lower"),
    ("net.backward.self_s", "s", "lower"),
    ("net.adam_step.calls", "count", "lower"),
    ("net.adam_step.self_s", "s", "lower"),
    ("losses.values.self_s", "s", "lower"),
    ("losses.margin.self_s", "s", "lower"),
    ("losses.margin.rows", "count", "lower"),
    ("selection.partial_optimize.calls", "count", "lower"),
    ("selection.partial_optimize.self_s", "s", "lower"),
    ("selection.partial_optimize.samples", "count", "lower"),
    ("selection.partial_optimize.us_at_128", "us", "lower"),
    ("selection.partial_optimize.us_at_1e4", "us", "lower"),
    ("selection.partial_optimize.us_at_1e6", "us", "lower"),
    ("selection.compute_threshold.self_s", "s", "lower"),
    ("selection.selected_frac", "frac", "higher"),
    ("selection.count_binds", "count", "lower"),
    ("objectives.from_logits.self_s", "s", "lower"),
    ("objectives.curriculum_objective.self_s", "s", "lower"),
    ("objectives.batched_objective.self_s", "s", "lower"),
    ("objectives.groups", "count", "lower"),
    ("training.step_p50_ms", "ms", "lower"),
    ("training.step_p99_ms", "ms", "lower"),
    ("training.epoch_p50_s", "s", "lower"),
    ("training.evaluate.self_s", "s", "lower"),
    ("training.empty_batches", "count", "lower"),
    ("training.loop_self_s", "s", "lower"),
    ("adversarial.project.calls", "count", "lower"),
    ("adversarial.project.self_s", "s", "lower"),
    ("adversarial.numeric.self_s", "s", "lower"),
    ("adversarial.closed_form.self_s", "s", "lower"),
    ("adversarial.monotonicity.self_s", "s", "lower"),
    ("adversarial.max_gap", "abs", "lower"),
    ("data.synth_blobs.calls", "count", "lower"),
    ("data.synth_blobs.self_s", "s", "lower"),
    ("corruption.corrupt_dataset.calls", "count", "lower"),
    ("cli.cells", "count", "higher"),
    ("trace.overhead_frac", "frac", "lower"),
)


def _npcl_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "npcl" or name.startswith("npcl."))]


class Tracer:
    """Collects spans and per-layer counters while installed.

    A method ``_before_<layer>`` may rewrite a wrapped call's arguments and
    ``_after_<layer>`` sees its arguments and result (dots in the layer name
    become underscores).
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self.counts = Counter()
        self.step_intervals = []
        self.absent = []
        self._undo = []

    # -- installation ---------------------------------------------------

    def install(self):
        for layer, module_name, attr in LAYERS:
            try:
                module = importlib.import_module(module_name)
                owner_name, _, method = attr.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name)
                    raw = owner.__dict__[method]
                else:
                    raw = getattr(module, attr)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(layer)
                continue
            if owner_name:
                self._patch_method(layer, owner, method, raw)
            else:
                self._patch_function(layer, raw)

    def uninstall(self):
        for target, name, original in reversed(self._undo):
            setattr(target, name, original)
        self._undo.clear()

    def _patch_function(self, layer, original):
        wrapper = self._wrap(layer, original)
        for module in _npcl_modules():
            for name, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, name, original))
                    setattr(module, name, wrapper)

    def _patch_method(self, layer, owner, method, raw):
        if isinstance(raw, classmethod):
            wrapper = classmethod(self._wrap(layer, raw.__func__))
        else:
            wrapper = self._wrap(layer, raw)
        self._undo.append((owner, method, raw))
        setattr(owner, method, wrapper)

    def _wrap(self, layer, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        before = getattr(self, "_before_" + layer.replace(".", "_"), None)
        after = getattr(self, "_after_" + layer.replace(".", "_"), None)

        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            record = [layer, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- per-layer counters, derived from arguments and results ------------

    def _after_losses_margin(self, args, result):
        self.counts["losses.margin.rows"] += int(np.size(result))

    def _after_selection_partial_optimize(self, args, result):
        n = int(result.mask.size)
        t = int(result.selected_count)
        self.counts["selection.partial_optimize.samples"] += n
        self.counts["selection.selected"] += t
        # the count term binds: objective == C - T > L_T
        slack = result.threshold - t
        if result.objective == slack and slack > result.selected_loss_sum:
            self.counts["selection.count_binds"] += 1

    def _after_objectives_batched_objective(self, args, result):
        self.counts["objectives.groups"] += len(result[1])

    def _after_training_train(self, args, result):
        self.counts["training.empty_batches"] += sum(m.empty_batches for m in result[0])

    def _before_training_train(self, args, kwargs):
        """Chain a batch callback that records the step intervals."""
        if len(args) > 3:
            args, kwargs = args[:3], {**kwargs, "on_batch": args[3]}
        user = kwargs.get("on_batch")
        last = {}
        clock, intervals = time.perf_counter, self.step_intervals

        def on_batch(epoch, batch_index, *rest):
            now = clock()
            if last.get("epoch") == epoch:
                intervals.append(now - last["time"])
            last["epoch"], last["time"] = epoch, now
            if user is not None:
                user(epoch, batch_index, *rest)

        return args, {**kwargs, "on_batch": on_batch}

    # -- reduction -------------------------------------------------------

    def layer_totals(self):
        """Per layer: (calls, total self seconds)."""
        child = np.zeros(len(self.spans))
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s = Counter(), defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
        return calls, self_s

    def epoch_durations(self):
        """Wall time of each epoch: train start or previous evaluate end to evaluate end."""
        last_end = {}
        durations = []
        for i, (name, start, end, parent) in enumerate(self.spans):
            if name == "training.train":
                last_end[i] = start
            elif name == "training.evaluate" and parent in last_end:
                durations.append(end - last_end[parent])
                last_end[parent] = end
        return durations

    def cli_cells(self):
        """Training runs made under a CLI invocation."""
        under_cli = set()
        cells = 0
        for i, (name, _, _, parent) in enumerate(self.spans):
            if name == "cli.run" or parent in under_cli:
                under_cli.add(i)
            if name == "training.train" and parent in under_cli:
                cells += 1
        return cells

    def per_layer(self, passes, extra):
        """Per-layer metric values, per traced pass; ``extra`` fills the rest."""
        calls, self_s = self.layer_totals()
        values = {}
        for name, _, _ in PER_LAYER:
            layer, _, kind = name.rpartition(".")
            if kind == "calls":
                values[name] = calls[layer] / passes
            elif kind == "self_s":
                values[name] = self_s[layer] / passes
        samples = self.counts["selection.partial_optimize.samples"]
        steps = np.asarray(self.step_intervals) * 1e3
        epochs = self.epoch_durations()
        values.update({
            "losses.margin.rows": self.counts["losses.margin.rows"] / passes,
            "selection.partial_optimize.samples": samples / passes,
            "selection.selected_frac": self.counts["selection.selected"] / samples if samples else 0.0,
            "selection.count_binds": self.counts["selection.count_binds"] / passes,
            "objectives.groups": self.counts["objectives.groups"] / passes,
            "training.step_p50_ms": float(np.percentile(steps, 50)) if steps.size else 0.0,
            "training.step_p99_ms": float(np.percentile(steps, 99)) if steps.size else 0.0,
            "training.epoch_p50_s": float(np.median(epochs)) if epochs else 0.0,
            "training.empty_batches": self.counts["training.empty_batches"] / passes,
            "training.loop_self_s": self_s["training.train"] / passes,
            "cli.cells": self.cli_cells() / passes,
        })
        values.update(extra)
        return values
