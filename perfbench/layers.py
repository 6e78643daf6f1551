"""Per-layer metrics from the span files that ``traced_cli.py`` writes.

A span's layer is the part of its name before the first dot. Its self
time is its duration minus the durations of its direct children; summed
over all spans of an invocation, self times equal the root ``cli.verb``
span, which ``check_spans`` verifies together with the nesting. A
``<name>_s`` metric is the time of the outermost spans called ``<name>``
(inclusive of their children), and ``<name>_calls`` counts every span of
that name.
"""

from __future__ import annotations

from collections import Counter, defaultdict

from traced_cli import SPANS

SPAN_NAMES = sorted({name for _, _, name, _ in SPANS} | {"cli.verb", "actions.verify"})
LAYERS = sorted({name.split(".", 1)[0] for name in SPAN_NAMES} | {"trace"})

# counts summed over invocations, reported as they are
SUMMED_COUNTS = (
    "serialize.report_bytes",
    "deformations.law_evals",
    "actions.apply_calls",
    "vectorfields.rk4_steps",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def check_spans(doc: dict) -> str | None:
    """None when every span lies inside its parent, else the first breach."""
    by_id = {s[0]: s for s in doc["spans"]}
    for sid, parent, name, start, end, _ in doc["spans"]:
        if end < start:
            return f"span {name} ends before it starts"
        if parent >= 0:
            p = by_id.get(parent)
            if p is None:
                return f"span {name} has no recorded parent"
            if start < p[3] or end > p[4]:
                return f"span {name} is not inside its parent {p[2]}"
    return None


def aggregate(docs: list[dict]) -> dict[str, float]:
    """Per-layer metrics summed over the invocations of one traced pass.
    Each doc's ``scale`` converts its span seconds to reference seconds."""
    outer = Counter()
    calls = Counter()
    self_time = Counter()
    counts = Counter()
    max_bits = 0
    root_time = 0.0
    for doc in docs:
        scale = doc["scale"]
        child_time = defaultdict(float)
        for _, parent, _, start, end, _ in doc["spans"]:
            if parent >= 0:
                child_time[parent] += (end - start) * scale
        for sid, parent, name, start, end, outermost in doc["spans"]:
            duration = (end - start) * scale
            calls[name] += 1
            if outermost:
                outer[name] += duration
            self_time[name.split(".", 1)[0]] += duration - child_time[sid]
            if parent < 0:
                root_time += duration
        for key, value in doc["counts"].items():
            if key == "linalg.max_coeff_bits":
                max_bits = max(max_bits, value)
            else:
                counts[key] += value

    m: dict[str, float] = {}
    for name in SPAN_NAMES:
        m[f"{name}_s"] = outer[name]
        m[f"{name}_calls"] = calls[name]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_time[layer]
    for key in SUMMED_COUNTS:
        m[key] = counts[key]
    invariant_calls = sum(calls[f"algebra.{k}"] for k in ("derived_series", "lower_central_series", "center"))
    m["algebra.invariant_useful_ratio"] = _ratio(counts["algebra.invariant.distinct"], invariant_calls)
    m["derivations.useful_ratio"] = _ratio(
        counts["derivations.derivation_algebra.distinct"], calls["derivations.derivation_algebra"]
    )
    m["linalg.nullspace_density"] = _ratio(counts["linalg.nullspace_nonzeros"], counts["linalg.nullspace_entries"])
    m["linalg.max_coeff_bits"] = max_bits
    m["deformations.us_per_law_eval"] = 1e6 * _ratio(outer["deformations.verify"], counts["deformations.law_evals"])
    m["actions.us_per_apply"] = 1e6 * _ratio(outer["actions.verify"], counts["actions.apply_calls"])
    m["vectorfields.us_per_rk4_step"] = 1e6 * _ratio(outer["vectorfields.flow"], counts["vectorfields.rk4_steps"])
    m["trace.spans"] = sum(calls.values())
    m["trace.accounted_ratio"] = _ratio(sum(self_time.values()), root_time)
    return m
