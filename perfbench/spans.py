"""Span recording around ppunlearn's module functions, from outside.

``Tracer.install`` replaces selected functions with timing wrappers in every
ppunlearn module namespace that holds them (modules import each other's
functions by name, so the defining module alone is not enough).
``uninstall`` puts the originals back, so untraced runs execute the
program's own functions with no wrapper in the call path.

A span is ``(parent_id, name, start, end)``; its id is its index in
``Tracer.spans``.  Spans live in memory until the caller aggregates them.
"""

from __future__ import annotations

import functools
import importlib
import time

# Functions wrapped per module.  Private names are listed where they mark a
# layer boundary the public API hides: the SGD step, the JSON artifact I/O,
# and the selection reference.  A name the module does not define is skipped,
# and the metrics built on it read zero.
TARGETS = {
    "data": ("gen_blobs", "make_forget_split", "save_dataset", "load_dataset"),
    "model": ("init_model", "train_ce", "finetune_kl", "_loss_and_grads",
              "kl_loss", "predict_labels", "forward_probs", "save_model",
              "load_model"),
    "probmatrix": ("pseudo_generate", "replace_rows", "kl_rows",
                   "dump_probmatrix"),
    "refine": ("refine", "problem_from_outputs", "primal_update", "dual_step",
               "objective", "save_refine_result"),
    "pipeline": ("ppu_bias", "ppu_privacy", "adaptive_post",
                 "select_checkpoint", "_forget_class_test_error"),
    "baselines": ("retrain", "run_baseline"),
    "evaluate": ("error_rate", "evaluate_model", "mia_attack"),
    "harness": ("run_experiment", "_write_json", "_read_json"),
}

PACKAGE = "ppunlearn"


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []   # (namespace module, attribute, original)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (parent, name, start, end)
        return wrapper

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(PACKAGE)]
        modules += [importlib.import_module(f"{PACKAGE}.{m}") for m in TARGETS]
        for mod_name, names in TARGETS.items():
            home = importlib.import_module(f"{PACKAGE}.{mod_name}")
            for attr in names:
                fn = getattr(home, attr, None)
                if fn is None:
                    continue
                wrapper = self._wrap(f"{mod_name}.{attr.lstrip('_')}", fn)
                for ns in modules:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._patches.append((ns, key, fn))
                            setattr(ns, key, wrapper)

    def uninstall(self):
        for ns, key, fn in reversed(self._patches):
            setattr(ns, key, fn)
        self._patches = []

    def scope(self, name):
        """Context manager recording a benchmark-level root span."""
        return _Scope(self, name)

    def clear(self):
        if self._stack:
            raise RuntimeError("cannot clear spans while one is open")
        self.spans.clear()


class _Scope:
    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        t = self.tracer
        self.sid = len(t.spans)
        t.spans.append(None)
        self.parent = t._stack[-1] if t._stack else -1
        t._stack.append(self.sid)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        t = self.tracer
        t._stack.pop()
        t.spans[self.sid] = (self.parent, self.name, self.start, end)
        return False


class SpanTable:
    """Derived views of a finished span list: totals, self times, nesting."""

    def __init__(self, spans):
        if any(s is None for s in spans):
            raise RuntimeError("span list holds an unfinished span")
        self.spans = list(spans)
        n = len(spans)
        self.child_time = [0.0] * n
        self.children = [[] for _ in range(n)]
        self.by_name = {}
        for sid, (parent, name, start, end) in enumerate(spans):
            self.by_name.setdefault(name, []).append(sid)
            if parent >= 0:
                self.child_time[parent] += end - start
                self.children[parent].append(sid)

    def duration(self, sid):
        _, _, start, end = self.spans[sid]
        return end - start

    def name(self, sid):
        return self.spans[sid][1]

    def ids(self, *names):
        return sorted(i for n in set(names) for i in self.by_name.get(n, ()))

    def total(self, *names):
        return sum(self.duration(i) for i in self.ids(*names))

    def count(self, *names):
        return len(self.ids(*names))

    def self_time(self, sid):
        return self.duration(sid) - self.child_time[sid]

    def coverage(self, sid):
        """Share of a span's time that its direct children account for."""
        d = self.duration(sid)
        return self.child_time[sid] / d if d > 0 else 0.0

    def nesting_errors(self, slack=1e-6):
        """Spans whose children (run one after another) outlast them."""
        bad = []
        for sid, (parent, name, start, end) in enumerate(self.spans):
            if self.child_time[sid] > end - start + slack:
                bad.append(name)
            if parent >= 0:
                _, _, p_start, p_end = self.spans[parent]
                if start < p_start or end > p_end:
                    bad.append(name)
        return bad

    def outermost(self, names):
        """Ids of spans in ``names`` with no ancestor in ``names``."""
        names = set(names)
        out = []
        for sid, (parent, name, _, _) in enumerate(self.spans):
            if name not in names:
                continue
            p = parent
            while p >= 0 and self.spans[p][1] not in names:
                p = self.spans[p][0]
            if p < 0:
                out.append(sid)
        return out

    def aggregate_tree(self):
        """Call tree collapsed by name path: {path: [calls, total_s, self_s]}."""
        paths = [None] * len(self.spans)
        tree = {}
        for sid, (parent, name, _, _) in enumerate(self.spans):
            path = name if parent < 0 else f"{paths[parent]};{name}"
            paths[sid] = path
            entry = tree.setdefault(path, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += self.duration(sid)
            entry[2] += self.self_time(sid)
        return tree
