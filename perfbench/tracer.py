"""In-memory span tracer over kinverify's module-level functions.

The package is not modified. ``Tracer.install`` replaces, in every loaded
``kinverify`` module, each module attribute that holds one of the traced
functions, so every caller's own name lookup (``kinverify.training.backward``,
``kinverify.cli.load_embeddings``, ...) goes through a wrapper that records a
span; ``uninstall`` puts the originals back.

A span is ``[id, name, start_ns, end_ns, parent_id, run_id, counters]``.
Benchmark-level spans are named ``bench.*``; each one starts a new run id,
which every span beneath it shares. Counters are computed from arguments and
results after the span is closed, so they never count toward its duration.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

from kinverify.comparator import hidden_layer_plan

MODULES = ("synth", "data", "comparator", "training", "evaluation", "model_io", "config", "cli")
# Private helpers that are worth a span of their own: the per-epoch
# validation inside train() and the CLI subcommand bodies.
PRIVATE = {"training._macro_accuracy_curve"}
PRIVATE_PREFIXES = {"cli._cmd_"}

_now = time.perf_counter_ns


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _useful(needed: int, rows: int, n_experts: int) -> dict:
    """Expert evaluations a batch needs (sum of k+1 over its rows) and computes."""
    return {"expert_useful": needed, "expert_total": rows * n_experts}


def _hook_forward(args, kwargs, result):
    params, x = args[0], np.asarray(_arg(args, kwargs, 1, "features"))
    rows = 1 if x.ndim == 1 else x.shape[0]
    cfg = params.config
    flop_per_row = sum(
        2 * params.values[layer.w_key].size + 2 * cfg.hidden for layer in hidden_layer_plan(cfg)
    )
    trace = result[1]
    arrays = [trace.inputs, trace.logits, trace.probs, *trace.pre_acts, *trace.hidden]
    if trace.dropout_scale is not None:
        arrays.append(trace.dropout_scale)
    return {
        "rows": rows,
        "gflop": rows * flop_per_row / 1e9,
        "trace_mb_max": sum(a.nbytes for a in arrays) / 2**20,
    }


def _hook_backward(args, kwargs, result):
    params, rel_idx = args[1], np.asarray(_arg(args, kwargs, 2, "rel_idx"))
    return _useful(int(rel_idx.sum()) + rel_idx.size, rel_idx.size, params.config.n_experts)


def _hook_score_pairs(args, kwargs, result):
    params, scorer = args[0], _arg(args, kwargs, 3, "scorer")
    if params is None or (scorer is not None and scorer.value != "comparator"):
        return None
    cfg = params.config
    pos = [cfg.relation_position(s.pair.relation) for s in result]
    return _useful(sum(pos) + len(pos), len(pos), cfg.n_experts)


def _tri_positions(cfg, child_gender):
    if child_gender.value == "M":
        return cfg.relation_position("FS") + cfg.relation_position("MS") + 2
    return cfg.relation_position("FD") + cfg.relation_position("MD") + 2


def _hook_score_tris(args, kwargs, result):
    cfg = args[0].config
    samples = list(args[2])
    useful = sum(_tri_positions(cfg, t.child_gender) for t in samples)
    return _useful(useful, 2 * len(samples), cfg.n_experts)


def _hook_tri_score(args, kwargs, result):
    cfg = args[0].config
    return _useful(_tri_positions(cfg, args[2].child_gender), 2, cfg.n_experts)


def _hook_verify(args, kwargs, result):
    cfg = args[0].config
    return _useful(cfg.relation_position(_arg(args, kwargs, 3, "relation")) + 1, 1, cfg.n_experts)


def _hook_score_unknown(args, kwargs, result):
    cfg = args[0].config
    rows = int(np.atleast_2d(np.asarray(args[1])).shape[0])
    return _useful(rows * cfg.n_experts, rows, cfg.n_experts)


def _hook_file_read(args, kwargs, result):
    return {"mb": os.path.getsize(args[0]) / 2**20}


HOOKS = {
    "comparator.forward": _hook_forward,
    "comparator.verify": _hook_verify,
    "comparator.score_unknown": _hook_score_unknown,
    "training.backward": _hook_backward,
    "evaluation.score_pairs": _hook_score_pairs,
    "evaluation.score_tris": _hook_score_tris,
    "evaluation.tri_score": _hook_tri_score,
    "data.load_embeddings": _hook_file_read,
    "data.load_pairs": _hook_file_read,
}


def traced_functions() -> dict[str, object]:
    """Span name -> original function, for every function the tracer wraps."""
    out = {}
    for short in MODULES:
        module = sys.modules.get(f"kinverify.{short}")
        if module is None:
            continue
        for name, obj in vars(module).items():
            is_function = callable(obj) and not isinstance(obj, type)
            if not is_function or getattr(obj, "__module__", None) != module.__name__:
                continue
            span = f"{short}.{name}"
            public = not name.startswith("_")
            if public or span in PRIVATE or any(span.startswith(p) for p in PRIVATE_PREFIXES):
                out[span] = obj
    return out


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _open(self, name: str, new_run: bool = False) -> list:
        parent = self._stack[-1] if self._stack else None
        rec = [len(self.spans), name, 0, 0, parent[0] if parent else None, None, None]
        rec[5] = rec[0] if new_run or parent is None else parent[5]
        self.spans.append(rec)
        self._stack.append(rec)
        rec[2] = _now()
        return rec

    def _close(self, rec: list) -> None:
        rec[3] = _now()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A benchmark-level span; it starts a new run id."""
        rec = self._open(f"bench.{name}", new_run=True)
        try:
            yield rec
        finally:
            self._close(rec)

    def _wrap(self, fn, name: str):
        hook = HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if hook is not None:
                rec[6] = hook(args, kwargs, result)
            return result

        return wrapper

    # -- installation --------------------------------------------------

    def install(self) -> None:
        originals = traced_functions()
        wrappers = {id(fn): self._wrap(fn, name) for name, fn in originals.items()}
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "kinverify" or mod_name.startswith("kinverify.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- merging and output --------------------------------------------

    def adopt(self, child_spans: list[list], parent: list, prefix: str) -> None:
        """Attach spans recorded by a child process beneath the closed span ``parent``.

        Both processes read the same monotonic clock, so times need no shift.
        The time before the child's first span (process start, interpreter,
        imports) and after its last (exit) becomes ``<prefix>.startup`` and
        ``<prefix>.exit`` spans, so that self times still add up to the wall.
        """
        roots = [s for s in child_spans if s[4] is None]
        offset = len(self.spans)
        for sid, name, start, end, par, _run, counters in child_spans:
            self.spans.append([
                sid + offset, name, start, end,
                parent[0] if par is None else par + offset, parent[5], counters,
            ])
        if roots:
            for name, start, end in ((f"{prefix}.startup", parent[2], roots[0][2]),
                                     (f"{prefix}.exit", roots[-1][3], parent[3])):
                self.spans.append([len(self.spans), name, start, end, parent[0], parent[5], None])

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, run, counters in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "start_ns": start, "end_ns": end,
                    "parent": parent, "run": run, "counters": counters,
                }) + "\n")

    # -- aggregation ---------------------------------------------------

    def summarize(self, phases: set[str] | None = None, runs: set[str] | None = None) -> dict[str, dict]:
        """Per span name: calls, busy_ns, self_ns and summed counters.

        ``phases`` keeps only spans beneath top-level spans of those names,
        ``runs`` only spans whose run span has one of those names. Counters
        ending in ``_max`` keep their maximum instead of a sum.
        """
        child_ns = defaultdict(int)
        root = {}
        for sid, name, start, end, parent, _run, _c in self.spans:
            root[sid] = sid if parent is None else root[parent]
            if parent is not None:
                child_ns[parent] += end - start
        out: dict[str, dict] = {}
        for sid, name, start, end, parent, run, counters in self.spans:
            if phases is not None and self.spans[root[sid]][1] not in phases:
                continue
            if runs is not None and self.spans[run][1] not in runs:
                continue
            agg = out.setdefault(name, {"calls": 0, "busy_ns": 0, "self_ns": 0, "counters": {}})
            agg["calls"] += 1
            agg["busy_ns"] += end - start
            agg["self_ns"] += end - start - child_ns[sid]
            for key, value in (counters or {}).items():
                prev = agg["counters"].get(key, 0)
                agg["counters"][key] = max(prev, value) if key.endswith("_max") else prev + value
        return out
