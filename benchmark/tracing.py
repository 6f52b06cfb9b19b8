"""Layer spans for a traced run, and the per-layer metrics derived from them.

``Tracer.install`` wraps each function in ``TARGETS`` from outside: the
function is replaced, as a module attribute, in every ``sentigraph``
module that holds it, so calls through ``taggers.tag`` from ``cli`` and
calls through a name imported into ``metrics`` are both seen.
``Tracer.restore`` puts the originals back. Spans (name, start, end,
parent, failed) stay in memory and are written out once, at exit.

A span is named after the module that defines the function. Its self time
is its duration minus the durations of its direct children; the program is
single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = ("corpus", "span_codec", "taggers", "relation", "aggregator", "metrics", "cli")
ROOT = "cli.main"


def _arg(args, kwargs, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


def _tokens(ds) -> int:
    return sum(len(s.tokens) for s in ds.sentences)


def _perceptron_work(args, kwargs, model):
    steps = _tokens(_arg(args, kwargs, 0, "train")) * _arg(args, kwargs, 1, "epochs")
    return {"token_steps": steps, "weight_rows": len(model.weights or ())}


def _logistic_work(args, kwargs, model):
    n = len(_arg(args, kwargs, 0, "instances"))
    return {"instances": n, "updates": n * _arg(args, kwargs, 2, "epochs")}


def _report_work(args, kwargs, report):
    work = {"sentences": len(_arg(args, kwargs, 0, "gold_ds").sentences)}
    if report.stratum.value == "ALL":
        work["evaluated"] = report.sentence_count
    return work


# (defining module, function, work counted per call from (args, kwargs, result))
TARGETS: List[Tuple[str, str, Optional[Callable]]] = [
    ("corpus", "load_dataset", lambda a, k, ds: {"sentences": len(ds.sentences)}),
    ("corpus", "save_dataset",
     lambda a, k, _: {"bytes": os.path.getsize(_arg(a, k, 1, "path"))}),
    ("corpus", "filter_overlapping", None),
    ("corpus", "upsample",
     lambda a, k, ds: {"added": len(ds.sentences) - len(_arg(a, k, 0, "ds").sentences)}),
    ("span_codec", "encode", None),
    ("span_codec", "decode", None),
    ("taggers", "train_perceptron", _perceptron_work),
    ("taggers", "tag", lambda a, k, labels: {"tokens": len(labels)}),
    ("taggers", "save_predictions_conll", None),
    ("taggers", "load_external_predictions", None),
    ("relation", "train_logistic", _logistic_work),
    ("relation", "featurize", None),
    ("relation", "generate_instances", lambda a, k, insts: {"instances": len(insts)}),
    ("relation", "classify", lambda a, k, res: {"positive": int(res[0])}),
    ("relation", "dump_instances", None),
    ("aggregator", "aggregate", lambda a, k, graph: {"tuples": len(graph.tuples)}),
    ("aggregator", "gold_graph", None),
    ("aggregator", "write_triples", None),
    ("metrics", "stratified_report", _report_work),
    ("metrics", "token_f1", None),
    ("metrics", "graph_f1", None),
]


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.names: List[str] = []
        self.spans: List[list] = []  # [name index, start ns, end ns, parent index, failed]
        self.counts: Dict[str, Dict[str, int]] = {}
        self._stack: List[int] = []
        self._saved: List[tuple] = []

    def wrap(self, fn: Callable, name: str, work: Optional[Callable] = None) -> Callable:
        if name not in self.names:
            self.names.append(name)
        name_idx = self.names.index(name)
        counts = self.counts.setdefault(name, {})
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name_idx, clock(), 0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[4] = 1
                raise
            finally:
                record[2] = clock()
                stack.pop()
            if work is not None:
                for key, value in work(args, kwargs, result).items():
                    counts[key] = counts.get(key, 0) + value
            return result

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(f"sentigraph.{m}") for m in LAYERS]
        for module_name, func, work in TARGETS:
            original = getattr(sys.modules[f"sentigraph.{module_name}"], func)
            for module in modules:
                if getattr(module, func, None) is original:
                    self._saved.append((module, func, original))
                    setattr(module, func, self.wrap(original, f"{module_name}.{func}", work))

    def restore(self) -> None:
        for module, func, original in reversed(self._saved):
            setattr(module, func, original)
        self._saved.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans, "counts": self.counts}, fh)


# ---------------------------------------------------------------------------
# Per-layer metrics (computed in the benchmark process from a spans file)
# ---------------------------------------------------------------------------


def summarize(doc: dict) -> Dict[str, dict]:
    """Per span name: calls, failed, self and total ns, calls by caller, counts."""
    names, spans = doc["names"], doc["spans"]
    out = {
        name: {"calls": 0, "failed": 0, "self_ns": 0, "total_ns": 0, "callers": {},
               "counts": doc["counts"].get(name, {})}
        for name in names
    }
    for name_idx, start, end, parent, failed in spans:
        entry = out[names[name_idx]]
        duration = end - start
        entry["calls"] += 1
        entry["failed"] += failed
        entry["self_ns"] += duration
        entry["total_ns"] += duration
        if parent >= 0:
            caller = names[spans[parent][0]]
            out[caller]["self_ns"] -= duration
            entry["callers"][caller] = entry["callers"].get(caller, 0) + 1
    return out


def layer_metrics(summary: Dict[str, dict]) -> Dict[str, float]:
    """The per-layer metrics of BENCHMARK.json, 0 where a function never ran."""
    empty = {"calls": 0, "failed": 0, "self_ns": 0, "total_ns": 0, "callers": {}, "counts": {}}

    def get(name: str) -> dict:
        return summary.get(name, empty)

    def ms(name: str) -> float:
        return get(name)["self_ns"] / 1e6

    def calls(name: str) -> int:
        return get(name)["calls"]

    def count(name: str, key: str) -> int:
        return get(name)["counts"].get(key, 0)

    def rate(name: str, key: str) -> float:
        total = get(name)["total_ns"]
        return count(name, key) / (total / 1e9) if total else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    gold_graph_from_metrics = get("aggregator.gold_graph")["callers"].get(
        "metrics.stratified_report", 0
    )
    return {
        "taggers.train_perceptron.ms": ms("taggers.train_perceptron"),
        "taggers.train_perceptron.token_steps_per_s": rate("taggers.train_perceptron", "token_steps"),
        "taggers.train_perceptron.weight_rows": count("taggers.train_perceptron", "weight_rows"),
        "taggers.tag.ms": ms("taggers.tag"),
        "taggers.tag.tokens_per_s": rate("taggers.tag", "tokens"),
        "span_codec.decode.ms": ms("span_codec.decode"),
        "relation.train_logistic.ms": ms("relation.train_logistic"),
        "relation.train_logistic.instances": count("relation.train_logistic", "instances"),
        "relation.train_logistic.updates_per_s": rate("relation.train_logistic", "updates"),
        "relation.featurize.calls": calls("relation.featurize"),
        "relation.featurize.ms": ms("relation.featurize"),
        "relation.generate_instances.calls": calls("relation.generate_instances"),
        "relation.generate_instances.instances": count("relation.generate_instances", "instances"),
        "relation.generate_instances.ms": ms("relation.generate_instances"),
        "relation.classify.calls": calls("relation.classify"),
        "relation.classify.ms": ms("relation.classify"),
        "relation.classify.positive_ratio": ratio(
            count("relation.classify", "positive"), calls("relation.classify")
        ),
        "aggregator.aggregate.calls": calls("aggregator.aggregate"),
        "aggregator.aggregate.tuples": count("aggregator.aggregate", "tuples"),
        "aggregator.aggregate.ms": ms("aggregator.aggregate"),
        "corpus.load_dataset.ms": ms("corpus.load_dataset"),
        "corpus.load_dataset.sentences_per_s": rate("corpus.load_dataset", "sentences"),
        "corpus.save_dataset.ms": ms("corpus.save_dataset"),
        "corpus.save_dataset.mb_written": count("corpus.save_dataset", "bytes") / 1e6,
        "taggers.save_predictions_conll.ms": ms("taggers.save_predictions_conll"),
        "taggers.load_external_predictions.ms": ms("taggers.load_external_predictions"),
        "relation.dump_instances.ms": ms("relation.dump_instances"),
        "aggregator.write_triples.ms": ms("aggregator.write_triples"),
        "corpus.filter_overlapping.ms": ms("corpus.filter_overlapping"),
        "corpus.upsample.ms": ms("corpus.upsample"),
        "corpus.upsample.sentences_added": count("corpus.upsample", "added"),
        "metrics.stratified_report.ms": ms("metrics.stratified_report"),
        "metrics.stratified_report.sentences_per_s": rate("metrics.stratified_report", "sentences"),
        "metrics.gold_graph.calls_per_sentence": ratio(
            gold_graph_from_metrics, count("metrics.stratified_report", "evaluated")
        ),
        "metrics.token_f1.ms": ms("metrics.token_f1"),
        "metrics.graph_f1.ms": ms("metrics.graph_f1"),
        "span_codec.encode.calls": calls("span_codec.encode"),
        "cli.self.ms": ms(ROOT),
        "trace.exceptions": sum(entry["failed"] for entry in summary.values()),
    }


def median_metrics(samples: List[Dict[str, float]]) -> Dict[str, float]:
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}
