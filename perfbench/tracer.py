"""Span tracing around kbqa's public functions and layer methods, from outside src/.

Tracer.install() replaces each traced function or method with a wrapper
that records one span (name, start, end, parent) per call; functions are
replaced in every kbqa module that imported them by name, so calls made
inside the program are seen too.  uninstall() puts the originals back.
Spans stay in memory until write_spans().
"""

import importlib
import json
import sys
import time

_now = time.perf_counter

# (module, function name, span name)
_FUNCTIONS = (
    ("corpus", "load_facts", "corpus.load_facts"),
    ("corpus", "load_questions", "corpus.load_questions"),
    ("textproc", "pos_tag", "textproc.pos_tag"),
    ("textproc", "noun_chunk_filter", "textproc.noun_chunk_filter"),
    ("index", "build_entity_index", "index.build"),
    ("index", "build_reach_index", "index.build"),
    ("index", "save_indexes", "index.save"),
    ("index", "load_indexes", "index.load"),
    ("index", "query_entity_index", "index.query"),
    ("index", "query_reach", "index.reach"),
    ("model_io", "load_model", "model_io.load"),
    ("model_io", "save_model", "model_io.save"),
    ("pipeline", "build_structured_query", "pipeline.query"),
    ("pipeline", "answer", "pipeline.answer"),
    ("evaluation", "evaluate", "evaluation.evaluate"),
)

# (module, class, method, span name); None in the name is filled per instance
_METHODS = (
    ("neural.layers", "EmbeddingLayer", "forward", "layers.embedding.fwd"),
    ("neural.layers", "EmbeddingLayer", "backward", "layers.embedding.bwd"),
    ("neural.layers", "Conv1dLayer", "forward", "layers.conv.fwd"),
    ("neural.layers", "Conv1dLayer", "backward", "layers.conv.bwd"),
    ("neural.layers", "RecurrentDirection", "forward", None),
    ("neural.layers", "RecurrentDirection", "backward", None),
    ("neural.layers", "DenseLayer", "forward", "layers.dense.fwd"),
    ("neural.layers", "DenseLayer", "backward", "layers.dense.bwd"),
    ("neural.layers", "DropoutLayer", "forward", "layers.dropout"),
    ("neural.layers", "DropoutLayer", "backward", "layers.dropout"),
    ("neural.optim", "Adam", "step", "optim.step"),
    ("neural.optim", "SGD", "step", "optim.step"),
    ("models", "NeuralSequenceModel", "loss_and_grads", "models.loss_and_grads"),
    ("models", "NeuralSequenceModel", "predict_probs", "models.predict"),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self.postings_scanned: list[int] = []
        self._stack = [-1]
        self._saved = []  # (owner, attribute, original)

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name, name_of=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _now()
                stack.pop()
                spans[index] = (name or name_of(args), start, end, stack[-1])

        traced.__wrapped__ = fn
        return traced

    def _wrap_query(self, fn):
        from kbqa.textproc import ngrams

        traced = self._wrap(fn, "index.query")
        scanned = self.postings_scanned

        def query(idx, phrase_tokens, k):
            result = traced(idx, phrase_tokens, k)
            tokens = list(phrase_tokens)
            scanned.append(sum(len(idx.postings.get(g, ())) for g in ngrams(tokens, 3)) if tokens else 0)
            return result

        return query

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            return
        for module_name, *_ in _FUNCTIONS + _METHODS:
            importlib.import_module(f"kbqa.{module_name}")
        modules = [m for n, m in sys.modules.items() if n == "kbqa" or n.startswith("kbqa.")]
        for module_name, attr, span_name in _FUNCTIONS:
            original = getattr(importlib.import_module(f"kbqa.{module_name}"), attr)
            wrapper = (self._wrap_query(original) if span_name == "index.query"
                       else self._wrap(original, span_name))
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapper)
        for module_name, cls_name, method, span_name in _METHODS:
            cls = getattr(importlib.import_module(f"kbqa.{module_name}"), cls_name)
            original = cls.__dict__[method]
            name_of = None
            if span_name is None:
                direction = "fwd" if method == "forward" else "bwd"
                name_of = lambda args, d=direction: f"layers.{args[0].kind}.{d}"  # noqa: E731
            self._saved.append((cls, method, original))
            setattr(cls, method, self._wrap(original, span_name, name_of))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
