"""Per-layer tracing from outside the program.

`Tracer.install` replaces, for the life of the process, each name in
`TARGETS` with a wrapper that records a span: its name, its duration and the
span it ran inside. Spans are aggregated as they close, keyed by (name,
parent name), so memory stays flat on trees with 10^5 nodes. A layer's self
time is its duration minus the time of the spans nested in it. A call into a
layer from inside the same layer (the batch selection fallback calling the
scalar rule, say) runs unwrapped and counts toward the outer span.

A name that no longer exists is reported as missing, and every metric that
depends on it is reported as absent (value None); the run goes on.
"""

from __future__ import annotations

import importlib
import time

# (module, attribute path, span name). Each is the name a caller looks up
# at call time: the engine calls `log_normalize` through its own module
# globals, so `ahtest.engine.log_normalize` is wrapped, not the one in
# `ahtest.belief`.
TARGETS = (
    ("ahtest", "load_model", "model.load"),
    ("ahtest.cli", "load_model", "model.load"),
    ("ahtest", "saddle_points", "divergence.saddle"),
    ("ahtest.cli", "saddle_points", "divergence.saddle"),
    ("ahtest.engine", "_uniform_block", "engine.rng"),
    ("ahtest.engine", "_run_chunk", "engine.chunk"),
    ("ahtest.engine", "sample_categorical", "engine.sample"),
    ("ahtest.engine", "log_normalize", "belief.update"),
    ("ahtest.engine", "bllr_matrix", "belief.confidence"),
    ("ahtest.engine", "walk_paths", "engine.walk"),
    ("ahtest.strategies", "SelectionStrategy.batch_action_distributions", "strategies.select.batch"),
    ("ahtest.strategies", "ChernoffSelection.batch_action_distributions", "strategies.select.batch"),
    ("ahtest.strategies", "ChernoffSelection.action_distribution", "strategies.select.scalar"),
    ("ahtest.strategies", "EJSGreedySelection.action_distribution", "strategies.select.scalar"),
    ("ahtest.strategies", "FBarInference.batch_decide", "strategies.decide.batch"),
    ("ahtest.strategies", "FBarInference.decide", "strategies.decide.scalar"),
    ("ahtest.bounds", "exponent_table", "bounds.report"),
    ("ahtest.bounds", "bound_report", "bounds.report"),
    ("ahtest.cli", "_emit", "cli.emit"),
)


def _layer(span: str) -> str:
    """strategies.select.batch and strategies.select.scalar share a layer."""
    parts = span.split(".")
    return ".".join(parts[:2])


# Work counted at a span: (work, steps) from the wrapped call's arguments
# and result.

def _chunk_units(args, result):
    """_run_chunk(model, selection, inference, horizon, true_h, uniforms, ...):
    (episodes, episode steps)."""
    episodes = len(args[4])
    return episodes, episodes * int(args[3])


def _walk_units(args, result):
    """walk_paths returns the number of leaves visited."""
    return int(result), 0


UNITS = {"engine.chunk": _chunk_units, "engine.walk": _walk_units}


class Tracer:
    def __init__(self):
        self._stack: list = []          # open spans: [name, layer, child seconds]
        self.stats: dict = {}           # (name, parent) -> [calls, total s, self s, work, steps]
        self.missing: list[str] = []
        self.unit_errors: dict[str, str] = {}   # span -> first error

    def _wrap(self, fn, span: str):
        layer = _layer(span)
        units = UNITS.get(span)
        stack = self._stack
        stats = self.stats
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            frame = [span, layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                parent = stack[-1][0] if stack else None
                if stack:
                    stack[-1][2] += dur
                rec = stats.get((span, parent))
                if rec is None:
                    rec = stats[(span, parent)] = [0, 0.0, 0.0, 0, 0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[2]
            if units is not None:
                try:
                    a, b = units(args, result)
                    rec[3] += a
                    rec[4] += b
                except (TypeError, IndexError, ValueError, AttributeError) as exc:
                    self.unit_errors.setdefault(span, repr(exc))
            return result

        wrapper.__wrapped__ = fn
        wrapper.__bench_span__ = span
        return wrapper

    def install(self) -> None:
        for module_name, attr_path, span in TARGETS:
            target = f"{module_name}.{attr_path}"
            try:
                owner = importlib.import_module(module_name)
                *owners, attr = attr_path.split(".")
                for name in owners:
                    owner = getattr(owner, name)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(target)
                continue
            if getattr(fn, "__bench_span__", None) == span:
                continue    # inherited from a class already wrapped
            setattr(owner, attr, self._wrap(fn, span))

    def records(self) -> list[dict]:
        return [
            {"span": span, "parent": parent, "calls": c, "total_s": t, "self_s": s,
             "work": w, "steps": n}
            for (span, parent), (c, t, s, w, n) in sorted(
                self.stats.items(), key=lambda kv: (kv[0][0], str(kv[0][1])))
        ]

    def gone_spans(self) -> list[str]:
        """Spans whose wrapped name is missing or whose work count failed."""
        by_target = {f"{m}.{a}": span for m, a, span in TARGETS}
        return sorted({by_target[t] for t in self.missing} | set(self.unit_errors))


def layer_metrics(records: list[dict], rounds: int, gone: list[str]) -> dict:
    """Per-layer metrics per round, from aggregated span records.

    Times per unit of work are self time over the work count the same run
    recorded; a workload that never enters a layer reads 0 there. A metric
    whose span or work count lost its wrapped name reads None.
    """
    gone = set(gone)

    def pick(span, parent=None):
        return [r for r in records
                if r["span"] == span and (parent is None or r["parent"] == parent)]

    def self_s(span, parent=None):
        return sum(r["self_s"] for r in pick(span, parent))

    def calls(span, parent=None):
        return sum(r["calls"] for r in pick(span, parent))

    def ratio(num, den, scale):
        return num / den * scale if den else 0.0

    episodes = sum(r["work"] for r in pick("engine.chunk"))
    steps = sum(r["steps"] for r in pick("engine.chunk"))
    walk_calls = calls("engine.walk")
    nodes = calls("belief.update", "engine.walk") + walk_calls
    leaves = sum(r["work"] for r in pick("engine.walk"))

    table = {
        "model.load_ms": (("model.load",),
                          ratio(self_s("model.load"), calls("model.load"), 1e3)),
        "divergence.saddle_ms": (("divergence.saddle",),
                                 ratio(self_s("divergence.saddle"), calls("divergence.saddle"), 1e3)),
        "engine.rng_us_per_episode": (("engine.rng", "engine.chunk"),
                                      ratio(self_s("engine.rng"), episodes, 1e6)),
        "engine.sample_us_per_step": (("engine.sample", "engine.chunk"),
                                      ratio(self_s("engine.sample", "engine.chunk"), steps, 1e6)),
        "belief.update_us_per_step": (("belief.update", "engine.chunk"),
                                      ratio(self_s("belief.update", "engine.chunk"), steps, 1e6)),
        "engine.chunk_self_us_per_episode": (("engine.chunk",),
                                             ratio(self_s("engine.chunk"), episodes, 1e6)),
        "strategies.select_us_per_step": (("strategies.select.batch", "engine.chunk"),
                                          ratio(self_s("strategies.select.batch"), steps, 1e6)),
        "strategies.decide_us_per_episode": (("strategies.decide.batch", "engine.chunk"),
                                             ratio(self_s("strategies.decide.batch"), episodes, 1e6)),
        "strategies.decide_us_per_leaf": (
            ("strategies.decide.scalar", "engine.walk"),
            ratio(self_s("strategies.decide.scalar", "engine.walk"),
                  calls("strategies.decide.scalar", "engine.walk"), 1e6)),
        "strategies.select_us_per_node": (
            ("strategies.select.scalar", "engine.walk"),
            ratio(self_s("strategies.select.scalar", "engine.walk"),
                  calls("strategies.select.scalar", "engine.walk"), 1e6)),
        "belief.update_us_per_node": (
            ("belief.update", "engine.walk"),
            ratio(self_s("belief.update", "engine.walk"), calls("belief.update", "engine.walk"), 1e6)),
        "belief.confidence_us_per_leaf": (
            ("belief.confidence", "engine.walk"),
            ratio(self_s("belief.confidence", "engine.walk"),
                  calls("belief.confidence", "engine.walk"), 1e6)),
        "engine.walk_self_us_per_node": (("engine.walk", "belief.update"),
                                         ratio(self_s("engine.walk"), nodes, 1e6)),
        "bounds.report_ms": (("bounds.report",), ratio(self_s("bounds.report"), rounds, 1e3)),
        "cli.emit_ms": (("cli.emit",), ratio(self_s("cli.emit"), rounds, 1e3)),
        "engine.episodes": (("engine.chunk",), episodes / rounds),
        "engine.episode_steps": (("engine.chunk",), steps / rounds),
        "engine.enum_leaves": (("engine.walk",), leaves / rounds),
        "engine.enum_nodes": (("engine.walk", "belief.update"), nodes / rounds),
        "strategies.select_calls": (
            ("strategies.select.batch", "strategies.select.scalar"),
            (calls("strategies.select.batch") + calls("strategies.select.scalar")) / rounds),
        "strategies.decide_calls": (
            ("strategies.decide.batch", "strategies.decide.scalar"),
            (calls("strategies.decide.batch") + calls("strategies.decide.scalar")) / rounds),
        "belief.update_calls": (("belief.update",), calls("belief.update") / rounds),
    }
    return {name: (None if gone.intersection(spans) else value)
            for name, (spans, value) in table.items()}
