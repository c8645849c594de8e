"""Outside-in spans around seqrl's public functions.

The benchmark does not change seqrl. To see inside a training or decoding
call it swaps each traced function, in every seqrl module that holds a
reference to it, for a wrapper that records a span (name, start, end,
parent) and restores the originals afterwards. Spans stay in memory until
the run writes them out.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, function) pairs that get a span named "<module>.<function>"
TRACED = (
    ("autodiff", "backward"),
    ("model", "encode"),
    ("model", "decode_step"),
    ("model", "attend"),
    ("model", "sequence_log_prob"),
    ("decoding", "sample_sequences"),
    ("decoding", "greedy_decode"),
    ("decoding", "beam_search"),
    ("objectives", "rl_surrogate"),
    ("rewards", "step_rewards"),
    ("rewards", "normalize_timewise"),
    ("training", "adam_update"),
    ("training", "evaluate"),
    ("training", "train_mle"),
    ("training", "train_rl"),
    ("data", "generate_splits"),
    ("data", "save_corpus"),
    ("data", "load_corpus"),
    ("checkpoint", "save_checkpoint"),
    ("checkpoint", "load_checkpoint"),
)

# spans the benchmark itself adds: one per timed pass and one per set-up,
# plus the graph walk that counts tape nodes (kept out of every layer's time)
PASS_PREFIX = "pass."
SETUP = "bench.setup"
TAPE_WALK = "bench.tape_walk"


class Tracer:
    """Span store. Span i is [name, start, end, parent index or -1, attrs]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str, **attrs) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, attrs])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed out of order (innermost is {popped})")

    def write(self, path: str) -> None:
        rows = [{"name": n, "start": s, "end": e, "parent": p, **a}
                for n, s, e, p, a in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows}, fh)


def tape_nodes(loss) -> int:
    """Nodes reachable from the loss: the graph ``backward`` will replay."""
    seen = set()
    stack = [loss.node] if loss.node is not None else []
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(t.node for t in node.inputs
                     if t.node is not None and id(t.node) not in seen)
    return len(seen)


def _sample_counts(batch) -> dict:
    distinct = {(h.graphemes, h.truncated) for h in batch.samples}
    return {"samples": len(batch.samples), "distinct": len(distinct),
            "symbols": sum(len(h.step_log_probs) for h in batch.samples)}


def _wrap(tracer: Tracer, name: str, fn):
    if name == "autodiff.backward":
        @functools.wraps(fn)
        def traced(loss, *args, **kwargs):
            walk = tracer.open(TAPE_WALK)
            nodes = tape_nodes(loss)
            tracer.close(walk)
            index = tracer.open(name, nodes=nodes)
            try:
                return fn(loss, *args, **kwargs)
            finally:
                tracer.close(index)
        return traced

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if name == "decoding.sample_sequences":
            tracer.spans[index][4].update(_sample_counts(out))
        return out
    return traced


class Patch:
    """Install wrappers for every TRACED function; ``remove`` restores them."""

    def __init__(self, tracer: Tracer):
        self._saved: list[tuple[object, str, object]] = []
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "seqrl" or n.startswith("seqrl."))]
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[f"seqrl.{mod_name}"], fn_name)
            wrapper = _wrap(tracer, f"{mod_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def remove(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


def _children(spans: list[list]) -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        kids.setdefault(span[3], []).append(i)
    return kids


def _covered(spans: list[list], indices: list[int]) -> float:
    """Length of the union of the given spans' intervals."""
    total = 0.0
    end_so_far = float("-inf")
    for start, end in sorted((spans[i][1], spans[i][2]) for i in indices):
        if end <= end_so_far:
            continue
        total += end - max(start, end_so_far)
        end_so_far = end
    return total


def _self_time(spans, kids, index) -> float:
    return (spans[index][2] - spans[index][1]) - _covered(spans, kids.get(index, []))


def _descendants(kids, root) -> list[int]:
    out, stack = [], list(kids.get(root, []))
    while stack:
        i = stack.pop()
        out.append(i)
        stack.extend(kids.get(i, []))
    return out


# per-utterance metrics: (metric name, span names, what is summed)
PER_UTT = (
    ("autodiff.backward_ms_per_utt", "autodiff.backward", "ms"),
    ("autodiff.tape_nodes_per_utt", "autodiff.backward", "nodes"),
    ("model.encode_ms_per_utt", "model.encode", "ms"),
    ("model.encode_calls_per_utt", "model.encode", "calls"),
    ("model.decode_step_ms_per_utt", "model.decode_step", "ms"),
    ("model.decode_step_calls_per_utt", "model.decode_step", "calls"),
    ("model.attend_ms_per_utt", "model.attend", "ms"),
    ("model.sequence_log_prob_ms_per_utt", "model.sequence_log_prob", "ms"),
    ("decoding.sample_sequences_ms_per_utt", "decoding.sample_sequences", "ms"),
    ("decoding.sampled_symbols_per_utt", "decoding.sample_sequences", "symbols"),
    ("decoding.greedy_decode_ms_per_utt", "decoding.greedy_decode", "ms"),
    ("decoding.beam_search_ms_per_utt", "decoding.beam_search", "ms"),
    ("decoding.beam_search_self_ms_per_utt", "decoding.beam_search", "self_ms"),
    ("objectives.rl_surrogate_ms_per_utt", "objectives.rl_surrogate", "ms"),
    ("rewards.step_rewards_ms_per_utt", "rewards.step_rewards", "ms"),
    ("rewards.normalize_timewise_ms_per_utt", "rewards.normalize_timewise", "ms"),
    ("training.evaluate_ms_per_utt", "training.evaluate", "ms"),
    ("training.loop_self_ms_per_utt", ("training.train_rl", "training.train_mle"), "self_ms"),
)

UNITS = {"ms": "ms/utt", "self_ms": "ms/utt", "calls": "calls/utt",
         "nodes": "nodes/utt", "symbols": "symbols/utt"}

# per-call metrics in ms, taken over every traced span of that name
PER_CALL = (
    ("training.adam_update_ms_per_step", "training.adam_update"),
    ("data.load_corpus_ms", "data.load_corpus"),
    ("checkpoint.load_checkpoint_ms", "checkpoint.load_checkpoint"),
    ("data.generate_splits_ms", "data.generate_splits"),
    ("data.save_corpus_ms", "data.save_corpus"),
    ("checkpoint.save_checkpoint_ms", "checkpoint.save_checkpoint"),
)


def per_layer_metrics(tracer: Tracer, focus: str) -> dict[str, dict]:
    """Per-layer figures from the traced passes, keyed by metric name.

    Per-utterance figures come from the traced passes of the workload's own
    path (``focus``). A layer that path never calls is read from the passes
    of the path that does (beam search: decode; the rest: rl), so every
    figure is measured on real calls.
    """
    spans = tracer.spans
    kids = _children(spans)
    views: dict[str, tuple[dict[str, list[int]], int]] = {}
    for root, span in enumerate(spans):
        if not (span[0].startswith(PASS_PREFIX) and span[4].get("traced")):
            continue
        by_name, utts = views.get(span[0][len(PASS_PREFIX):], ({}, 0))
        for i in _descendants(kids, root):
            by_name.setdefault(spans[i][0], []).append(i)
        views[span[0][len(PASS_PREFIX):]] = (by_name, utts + span[4]["utts"])

    def layer(names: tuple[str, ...]) -> tuple[list[int], int]:
        by_name, utts = views.get(focus, ({}, 0))
        if not any(n in by_name for n in names):
            home = "decode" if names[0] == "decoding.beam_search" else "rl"
            by_name, utts = views.get(home, ({}, 0))
        return [i for n in names for i in by_name.get(n, [])], utts

    out: dict[str, dict] = {}
    for metric, names, what in PER_UTT:
        indices, utts = layer((names,) if isinstance(names, str) else names)
        if what == "ms":
            total = 1e3 * sum(spans[i][2] - spans[i][1] for i in indices)
        elif what == "self_ms":
            total = 1e3 * sum(_self_time(spans, kids, i) for i in indices)
        elif what == "calls":
            total = len(indices)
        else:
            total = sum(spans[i][4][what] for i in indices)
        out[metric] = {"value": total / utts if utts else 0.0, "unit": UNITS[what]}

    batches = [spans[i][4] for i in layer(("decoding.sample_sequences",))[0]]
    drawn = sum(b["samples"] for b in batches)
    out["decoding.distinct_sample_ratio"] = {
        "value": sum(b["distinct"] for b in batches) / drawn if drawn else 0.0,
        "unit": "ratio"}

    for metric, name in PER_CALL:
        durations = [s[2] - s[1] for s in spans if s[0] == name]
        out[metric] = {"value": 1e3 * sum(durations) / len(durations) if durations else 0.0,
                       "unit": "ms"}

    roots = [i for i, s in enumerate(spans)
             if s[0] == PASS_PREFIX + focus and s[4].get("traced")]
    wall = sum(spans[r][2] - spans[r][1] for r in roots)
    uncovered = sum(_self_time(spans, kids, r) for r in roots)
    out["trace.uncovered_pct"] = {"value": 100.0 * uncovered / wall if wall else 0.0,
                                  "unit": "%"}
    return out
