"""Per-layer timing of one polarface CLI run, from outside the program.

As a child process:

    python3 perfbench/tracer.py TRACE_JSON -- <polarface cli arguments>

imports `polarface.cli`, replaces every public function of the layer
modules (LAYERS) wherever a polarface module has bound it by name with a
timing wrapper, calls `polarface.cli.main(argv)` in-process and writes
the spans to TRACE_JSON.  A span records its name (`<layer>.<function>`),
start, end, parent span and thread.  A span opened on a thread with no
open span of its own (a worker of the extraction pool) is a child of the
innermost span open on the thread that opened the root span, `cli.main`.

`layer_metrics` turns such a trace into the benchmark's per-layer
metrics.  Self time is a span's duration minus the time its open child
spans cover; where spans on several threads are open at once, each
instant is shared evenly among the spans that have no open child, so
the self times of a run still add up to its traced wall time.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("dataset", "bessel", "polar", "features", "classifier", "evaluate", "config", "cli")


def _fbt_work(grid, config, *_args, **_kwargs):
    # Multiply-adds implied by the operand shapes: two (orders x rays) @
    # (rays x rings) projections, two (orders, roots, rings) contractions
    # and the r-weighting of the radial basis.
    orders, roots = config.max_order + 1, config.max_root
    rays, rings = grid.samples.shape
    flop = 2 * 2 * orders * rays * rings + 2 * 2 * orders * roots * rings + orders * roots * rings
    return {"mflop": flop / 1e6}


def _pairs(n_pairs, dim):
    return {"pairs": int(n_pairs), "mb": n_pairs * dim * 8 / 1e6}


# Work counts computed from the arguments of a call, never from timing,
# so they repeat exactly from run to run.
WORK = {
    "features.fbt": _fbt_work,
    "classifier.dissimilarity_matrix": lambda features, *a, **k: _pairs(
        len(features) ** 2, features[0].values.size
    ),
    "classifier.embed_probe": lambda probe, model, *a, **k: _pairs(*model.gallery.shape),
    "dataset.load_pgm": lambda path, *a, **k: {"mb": os.path.getsize(path) / 1e6},
}


class Tracer:
    """Collects spans from wrapped functions; one instance per traced run."""

    def __init__(self):
        self.spans: list[list] = []  # [id, name, start, end, parent, thread, work]
        self._main_stack: list[int] | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._wrapped: dict[int, object] = {}

    def wrap(self, name: str, fn):
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            sid = next(self._ids)
            if self._main_stack is None:
                self._main_stack = stack
            owner = stack or self._main_stack
            parent = owner[-1] if owner else None
            stack.append(sid)
            span = [sid, name, time.perf_counter(), None, parent, threading.get_ident(), None]
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if work:
                span[6] = work(*args, **kwargs)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public layer function in every polarface namespace."""
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("polarface.")]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                origin = getattr(obj, "__module__", "") or ""
                layer = origin.rpartition(".")[2]
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or not origin.startswith("polarface.") or layer not in LAYERS):
                    continue
                key = id(obj)
                if key not in self._wrapped:
                    self._wrapped[key] = self.wrap(f"{layer}.{obj.__name__}", obj)
                setattr(module, attr, self._wrapped[key])


def self_times(spans) -> dict[int, float]:
    """Self time per span id (see the module docstring)."""
    parent_of = {s[0]: s[4] for s in spans}
    events = sorted(
        [(s[2], 0, s[0]) for s in spans] + [(s[3], 1, s[0]) for s in spans]
    )  # at equal times starts (0) sort first, so a span of zero length opens before it closes
    selfs = dict.fromkeys(parent_of, 0.0)
    open_kids: dict[int, int] = defaultdict(int)
    is_open: set[int] = set()
    leaves: set[int] = set()
    prev = events[0][0] if events else 0.0
    for t, is_end, sid in events:
        if leaves:
            share = (t - prev) / len(leaves)
            for leaf in leaves:
                selfs[leaf] += share
        prev = t
        parent = parent_of[sid]
        if not is_end:
            is_open.add(sid)
            leaves.add(sid)
            if parent in is_open:
                open_kids[parent] += 1
                leaves.discard(parent)
        else:
            is_open.discard(sid)
            leaves.discard(sid)
            if parent in is_open:
                open_kids[parent] -= 1
                if open_kids[parent] == 0:
                    leaves.add(parent)
    return selfs


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run; zero for a layer it never called.

    `trace.overhead_frac` needs untraced runs too; the caller adds it.
    """
    spans = trace["spans"]
    selfs = self_times(spans)
    busy: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    own: dict[str, float] = defaultdict(float)
    work: dict[str, float] = defaultdict(float)
    first: dict[str, tuple[float, float]] = {}
    for sid, name, start, end, _parent, _thread, counts in spans:
        busy[name] += end - start
        calls[name] += 1
        own[name] += selfs[sid]
        if name not in first or start < first[name][0]:
            first[name] = (start, end - start)
        for key, value in (counts or {}).items():
            work[f"{name}.{key}"] += value

    def per_call_ms(name, skip=0.0, skipped=0):
        n = calls[name] - skipped
        return 1000.0 * (busy[name] - skip) / n if n > 0 else 0.0

    fbt_first = first.get("features.fbt", (0.0, 0.0))[1]

    dist = ("classifier.dissimilarity_matrix", "classifier.embed_probe")
    traced_wall = trace["main_s"]
    return {
        "bessel.build_root_table.busy_s": busy["bessel.build_root_table"],
        "bessel.bessel_roots.calls": calls["bessel.bessel_roots"],
        "bessel.bessel_j.calls": calls["bessel.bessel_j"],
        "bessel.bessel_j.busy_s": busy["bessel.bessel_j"],
        "features.fbt.first_call_s": fbt_first,
        "polar.to_polar.busy_s": busy["polar.to_polar"],
        "polar.to_polar.calls": calls["polar.to_polar"],
        "polar.to_polar.per_call_ms": per_call_ms("polar.to_polar"),
        "features.fbt.busy_s": busy["features.fbt"],
        # the first call builds the Bessel tables and is reported on its own
        "features.fbt.per_call_ms": per_call_ms("features.fbt", fbt_first, 1),
        "features.fbt.mflop_computed": work["features.fbt.mflop"],
        "features.extract_dft.busy_s": busy["features.extract_dft"],
        "features.extract_dft.per_call_ms": per_call_ms("features.extract_dft"),
        "classifier.dissimilarity_matrix.busy_s": busy["classifier.dissimilarity_matrix"],
        "classifier.train_pfld.busy_s": busy["classifier.train_pfld"],
        "classifier.classify.busy_s": busy["classifier.classify"],
        "classifier.classify.calls": calls["classifier.classify"],
        "classifier.distance_pairs": sum(work[f"{n}.pairs"] for n in dist),
        "classifier.distance_mb_computed": sum(work[f"{n}.mb"] for n in dist),
        "evaluate.per_feature_error_rates.busy_s": busy["evaluate.per_feature_error_rates"],
        "evaluate.random_split.busy_s": busy["evaluate.random_split"],
        "evaluate.run_error_experiment.self_s": own["evaluate.run_error_experiment"],
        "evaluate.score_matrix.self_s": own["evaluate.score_matrix"],
        "evaluate.roc.busy_s": sum(
            busy[f"evaluate.{n}"]
            for n in ("verification_pairs", "verification_roc", "equal_error_rate")
        ),
        "dataset.load_dataset_dir.busy_s": busy["dataset.load_dataset_dir"],
        "dataset.load_pgm.busy_s": busy["dataset.load_pgm"],
        "dataset.load_pgm.calls": calls["dataset.load_pgm"],
        "dataset.load_pgm.mb_read": work["dataset.load_pgm.mb"],
        "dataset.normalize_face.busy_s": busy["dataset.normalize_face"],
        "config.load_run_config.busy_s": busy["config.load_run_config"],
        "cli.import_s": trace["import_s"],
        "cli.main.self_s": sum(v for k, v in own.items() if k.startswith("cli.")),
        "trace.coverage": sum(selfs.values()) / traced_wall,
    }


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py TRACE_JSON -- <polarface cli arguments>", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    t0 = time.perf_counter()
    import polarface.cli as cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    t1 = time.perf_counter()
    code = cli.main(cli_args)
    main_s = time.perf_counter() - t1
    spans = [[s[0], s[1], s[2] - t1, s[3] - t1, *s[4:]] for s in tracer.spans]
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"code": code, "import_s": import_s, "main_s": main_s, "spans": spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
