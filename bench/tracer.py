"""Outside-in tracing of the dialectid modules.

The package's modules call each other through module attributes
(`features.fit_idf`, `classifier.train`, `normalizer.normalize`, ...),
so replacing those attributes from here sees every call without
editing the package.  Each wrapped call records a span (name, start,
end, parent) in memory; the spans are written out once, when the
command ends, and `summarize` turns them into per-layer figures.  A
layer's self time is its span's duration minus the durations of its
child spans.

`hash_index` runs hundreds of thousands of times per command, so it is
counted but gets no span.  A function that a later version of the
package no longer has is skipped and reports zero calls.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable

# (module, attribute) pairs wrapped with a span, named "module.attribute".
SPANNED = (
    ("cli", "main"),
    ("corpus", "load_corpus"),
    ("normalizer", "normalize"),
    ("features", "char_ngrams"),
    ("features", "fit_idf"),
    ("features", "vectorize"),
    ("features", "load_idf"),
    ("features", "save_idf"),
    ("classifier", "train"),
    ("classifier", "predict"),
    ("classifier", "load_model"),
    ("classifier", "save_model"),
    ("evaluation", "report"),
    ("harness", "run_grid"),
    ("harness", "finalize"),
    ("harness", "fit_pipeline"),
)


class Tracer:
    """Spans and counters of one command, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._open: list[int] = []
        self.hash_calls = 0
        self.norm_inputs: set = set()
        self.empty_outputs = 0
        self.grams: set = set()
        self.nnz = 0
        self.example_epochs = 0
        self.final_loss = 0.0

    def wrap(self, module: Any, attr: str, observe: Callable | None = None) -> None:
        """Replace module.attr by a spanned wrapper, if the module has it."""
        fn = getattr(module, attr, None)
        if fn is None:
            return
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        spans, open_spans, clock = self.spans, self._open, time.perf_counter

        def spanned(*args, **kwargs):
            span = [name, clock(), 0.0, open_spans[-1] if open_spans else -1]
            open_spans.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_spans.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        setattr(module, attr, spanned)

    def count_hash_calls(self, features: Any) -> None:
        fn = getattr(features, "hash_index", None)
        if fn is None:
            return

        def counted(*args, **kwargs):
            self.hash_calls += 1
            return fn(*args, **kwargs)

        features.hash_index = counted

    # Observers run after the span closes, so their cost lands in the
    # caller's self time, not in the layer they describe.

    def _on_normalize(self, args, kwargs, result) -> None:
        text = args[0] if args else kwargs.get("text")
        config = args[1] if len(args) > 1 else kwargs.get("config")
        self.norm_inputs.add((text, config))
        if not result.strip():
            self.empty_outputs += 1

    def _on_char_ngrams(self, args, kwargs, result) -> None:
        self.grams.update(result)

    def _on_vectorize(self, args, kwargs, result) -> None:
        self.nnz += getattr(result, "nnz", 0)

    def _on_train(self, args, kwargs, result) -> None:
        examples = args[0] if args else kwargs.get("examples", ())
        hp = args[1] if len(args) > 1 else kwargs.get("hp")
        self.example_epochs += len(examples) * getattr(hp, "epochs", 0)
        losses = getattr(result, "epoch_losses", None)
        if losses:
            self.final_loss = float(losses[-1])

    def install(self, package: dict[str, Any]) -> None:
        """Wrap every traced function of the given {name: module} map."""
        observers = {
            "normalizer.normalize": self._on_normalize,
            "features.char_ngrams": self._on_char_ngrams,
            "features.vectorize": self._on_vectorize,
            "classifier.train": self._on_train,
        }
        for module_name, attr in SPANNED:
            module = package.get(module_name)
            if module is not None:
                self.wrap(module, attr, observers.get(f"{module_name}.{attr}"))
        if "features" in package:
            self.count_hash_calls(package["features"])

    def dump(self, path: str) -> None:
        doc = {
            "spans": self.spans,
            "counters": {
                "features.hash_calls": self.hash_calls,
                "features.distinct_grams": len(self.grams),
                "features.nnz": self.nnz,
                "normalizer.distinct_inputs": len(self.norm_inputs),
                "normalizer.empty_outputs": self.empty_outputs,
                "classifier.example_epochs": self.example_epochs,
                "classifier.final_loss": self.final_loss,
            },
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def self_times(spans: list[list]) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
    """Per span name: summed self time, summed duration, and call count."""
    child_time = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    own: dict[str, float] = {}
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i, (name, start, end, _) in enumerate(spans):
        own[name] = own.get(name, 0.0) + (end - start) - child_time[i]
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
    return own, total, calls


def summarize(doc: dict) -> dict[str, float]:
    """Per-layer metrics of one traced command (all but trace.overhead_s).

    `*_s` figures are self time, except the harness stages run_grid,
    finalize and fit_pipeline, which are inclusive; harness.self_s is
    the self time of all three together.
    """
    own, total, calls = self_times(doc["spans"])
    counters = doc["counters"]

    def s(name: str) -> float:
        return own.get(name, 0.0)

    def n(name: str) -> int:
        return calls.get(name, 0)

    train_s = s("classifier.train")
    vectorize_calls = n("features.vectorize")
    harness_stages = ("harness.run_grid", "harness.finalize", "harness.fit_pipeline")
    return {
        "corpus.load_s": s("corpus.load_corpus"),
        "normalizer.normalize_s": s("normalizer.normalize"),
        "normalizer.calls": n("normalizer.normalize"),
        "normalizer.distinct_inputs": counters["normalizer.distinct_inputs"],
        "normalizer.empty_outputs": counters["normalizer.empty_outputs"],
        "features.char_ngrams_s": s("features.char_ngrams"),
        "features.fit_idf_s": s("features.fit_idf"),
        "features.vectorize_s": s("features.vectorize"),
        "features.vectorize_calls": vectorize_calls,
        "features.hash_calls": counters["features.hash_calls"],
        "features.distinct_grams": counters["features.distinct_grams"],
        "features.nnz_per_doc": counters["features.nnz"] / vectorize_calls if vectorize_calls else 0.0,
        "features.load_idf_s": s("features.load_idf"),
        "features.save_idf_s": s("features.save_idf"),
        "classifier.load_model_s": s("classifier.load_model"),
        "classifier.save_model_s": s("classifier.save_model"),
        "classifier.train_s": train_s,
        "classifier.train_calls": n("classifier.train"),
        "classifier.examples_per_s": counters["classifier.example_epochs"] / train_s if train_s else 0.0,
        "classifier.final_loss": counters["classifier.final_loss"],
        "classifier.predict_s": s("classifier.predict"),
        "classifier.predict_calls": n("classifier.predict"),
        "evaluation.report_s": s("evaluation.report"),
        "harness.run_grid_s": total.get("harness.run_grid", 0.0),
        "harness.finalize_s": total.get("harness.finalize", 0.0),
        "harness.fit_pipeline_s": total.get("harness.fit_pipeline", 0.0),
        "harness.fit_pipeline_calls": n("harness.fit_pipeline"),
        "harness.self_s": sum(s(name) for name in harness_stages),
        "cli.self_s": s("cli.main"),
    }
