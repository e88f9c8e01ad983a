"""Spans around the program's public functions, recorded from outside.

``install`` replaces each traced function in the module that calls it,
because ``from x import f`` copies the binding: wrapping
``fairexperts.losses.sample_pairs`` would intercept nothing, while
``fairexperts.training.sample_pairs`` is the name the training loop
calls. Spans stay in memory until ``write_spans`` at the end of a run.

A span is ``[name, start, end, parent index, G or None]``; a layer's
self time is its spans' durations minus their direct children's.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import Counter, defaultdict

# (span name, module, attribute); the module is the caller's namespace.
TARGETS = (
    ("data.generate", "fairexperts.experiment", "generate_synthetic"),
    ("training.train_erm", "fairexperts.experiment", "train_erm"),
    ("training.train_decoupled", "fairexperts.experiment", "train_decoupled"),
    ("training.train_experts", "fairexperts.experiment", "train_experts"),
    ("training.probe", "fairexperts.experiment", "probe_group_accuracy"),
    ("losses.sample_pairs", "fairexperts.training", "sample_pairs"),
    ("losses.diversity", "fairexperts.training", "diversity_loss"),
    ("losses.center_alignment", "fairexperts.training", "center_alignment_loss"),
    ("losses.discriminator", "fairexperts.training", "discriminator_loss"),
    ("net.sgd_step", "fairexperts.training", "sgd_step"),
    ("net.forward", "fairexperts.net", "Mlp.forward"),
    ("net.backward", "fairexperts.net", "Mlp.backward"),
    ("metrics.build_report", "fairexperts.experiment", "build_report"),
    ("metrics.group_eval", "fairexperts.experiment", "group_eval"),
    ("metrics.group_eval", "fairexperts.metrics", "group_eval"),
    ("selection.select_ip", "fairexperts.experiment", "select_ip"),
    ("selection.select_ip", "fairexperts.selection", "select_ip"),
    ("selection.select_greedy", "fairexperts.experiment", "select_greedy"),
    ("selection.select_greedy", "fairexperts.selection", "select_greedy"),
    ("experiment.write_representations", "fairexperts.experiment", "write_representations_csv"),
    ("experiment.write_reports", "fairexperts.experiment", "write_json"),
    ("experiment.write_reports", "fairexperts.experiment", "write_training_log"),
    ("training.steps", "fairexperts.training", "_batches"),
)
# Targets that are generator functions: counted per yielded item, not timed.
COUNTED = ("training.steps",)

# Traced layers whose self time is reported, in report order.
SELF_TIMES = (
    "losses.sample_pairs",
    "losses.diversity",
    "losses.center_alignment",
    "losses.discriminator",
    "net.forward",
    "net.backward",
    "net.sgd_step",
    "training.train_experts",
    "training.train_erm",
    "training.train_decoupled",
    "training.probe",
    "data.generate",
    "metrics.build_report",
    "metrics.group_eval",
    "experiment.write_representations",
    "experiment.write_reports",
)

# Layers a workload's traced run must record a span or a count for. One
# that records nothing (say, because it now runs in a child process,
# whose spans never reach this one) fails the traced run instead of
# reading 0, which would look like a layer that got much faster.
_EXPERIMENT_LAYERS = SELF_TIMES + ("training.steps", "metrics.predict.calls")
EXPECTED = {
    "reference": _EXPERIMENT_LAYERS,
    "heldout_heavy": _EXPERIMENT_LAYERS,
    "selection_sweep": ("selection.select_ip", "selection.select_greedy"),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self._before = {
            "metrics.build_report": self._count_predictor,
            "metrics.group_eval": self._count_predictor,
        }
        self._after = {
            "net.forward": self._count_rows,
            "losses.diversity": self._count_skipped,
            "data.generate": self._count_generated,
            "selection.select_ip": self._record_groups,
        }

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        before = self._before.get(name)
        after = self._after.get(name)

        def traced(*args, **kwargs):
            if before is not None:
                args = before(args)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                after(record, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count_items(self, name: str, fn):
        """Wrap a generator function to count the items it yields."""
        counts = self.counts

        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[name] += 1
                yield item

        counted.__wrapped__ = fn
        return counted

    def install(self) -> None:
        """Patch every target that exists; ``missing`` lists the others."""
        for name, module_name, attr in TARGETS:
            owner = sys.modules.get(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self.count_items if name in COUNTED else self.wrap
            setattr(owner, leaf, wrapper(name, original))
            self._undo.append((owner, leaf, original))

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._undo):
            setattr(owner, leaf, original)
        self._undo.clear()

    # Counters read from arguments and return values.

    def _count_rows(self, record, args, result):
        x = args[1]
        self.counts["net.forward.rows"] += x.shape[0] if getattr(x, "ndim", 1) > 1 else 1

    def _count_skipped(self, record, args, result):
        self.counts["losses.diversity.samples"] += len(args[1])
        self.counts["losses.diversity.skipped"] += int(result[3])

    def _count_generated(self, record, args, result):
        self.counts["data.rows"] += result.n

    def _record_groups(self, record, args, result):
        record[4] = len(result.choices)

    def _count_predictor(self, args):
        """Swap the predictor argument for one that counts calls and rows."""
        predict = args[0]
        if getattr(predict, "_counted", False):
            return args
        counts = self.counts

        def counted(features, groups):
            counts["metrics.predict.calls"] += 1
            counts["metrics.predict.rows"] += len(features)
            return predict(features, groups)

        counted._counted = True
        return (counted,) + tuple(args[1:])

    def untraced(self, workload: str) -> list[str]:
        """Targets not found, and layers of ``EXPECTED[workload]`` that recorded nothing."""
        recorded = {span[0] for span in self.spans} | {k for k, v in self.counts.items() if v}
        return [f"{target} (not found)" for target in self.missing] + [
            f"{name} (nothing recorded)" for name in EXPECTED[workload] if name not in recorded
        ]

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded so far."""
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        ip_ms: dict[int, list[float]] = defaultdict(list)
        greedy_ms: list[float] = []
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, start, end, _, g), children in zip(self.spans, child_time):
            self_s[name] += end - start - children
            calls[name] += 1
            if name == "selection.select_ip":
                ip_ms[g].append(1e3 * (end - start))
            elif name == "selection.select_greedy":
                greedy_ms.append(1e3 * (end - start))
        counts = self.counts
        out = {f"{name}.self_s": self_s[name] for name in SELF_TIMES}
        out.update(
            {
                "losses.sample_pairs.calls": calls["losses.sample_pairs"],
                "losses.diversity.skipped_ratio": counts["losses.diversity.skipped"]
                / max(counts["losses.diversity.samples"], 1),
                "net.forward.calls": calls["net.forward"],
                "net.forward.rows_per_call": counts["net.forward.rows"]
                / max(calls["net.forward"], 1),
                "net.sgd_step.calls": calls["net.sgd_step"],
                "training.steps": counts["training.steps"],
                "data.rows": counts["data.rows"],
                "metrics.predict.calls": counts["metrics.predict.calls"],
                "metrics.predict.rows": counts["metrics.predict.rows"],
                "selection.select_greedy_ms": statistics.fmean(greedy_ms) if greedy_ms else 0.0,
            }
        )
        for g, times in ip_ms.items():
            out[f"selection.select_ip_ms.g{g}"] = statistics.fmean(times)
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, g) in enumerate(self.spans):
                span = {"id": i, "name": name, "start": start, "end": end, "parent": parent}
                if g is not None:
                    span["groups"] = g
                fh.write(json.dumps(span) + "\n")
