"""Turn recorded spans into the benchmark's metrics (see spec.py for meanings)."""

from __future__ import annotations

import statistics
from collections import defaultdict

TENSOR_OPS = ("conv2d", "matmul", "relu", "softmax", "add_channelvec",
              "add_rowvec", "reshape", "cross_entropy")
# the ops of the quotient k and its hinge, reported together as "quotient"
QUOTIENT_OPS = ("sub", "l2_norm_rows", "mul_elementwise", "reduce_sum",
                "scale", "add")


def children_of(spans) -> dict:
    kids = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            kids[id(s.parent)].append(s)
    for v in kids.values():
        v.sort(key=lambda s: s.start)
    return kids


def preferred(spans, name) -> list:
    """Spans of one function from the measured phase, else from set-up.

    A workload that trains only in set-up (eval_audit) still reports its
    training steps, without mixing warm-up calls into measured ones.
    """
    for phase in ("task", "setup"):
        found = [s for s in spans if s.name == name and s.phase == phase]
        if found:
            return found
    return []


def step_records(train_spans, kids) -> list[dict]:
    """One dict per training step inside the given train() spans: total
    (aggregated_loss start to SGD.step end), forward, backward, optimizer
    and the wait since the previous step ended."""
    out = []
    for tr in train_spans:
        cur, prev_end = None, None
        for ch in kids.get(id(tr), ()):
            if ch.name == "regularizer.aggregated_loss":
                cur = {"start": ch.start,
                       "wait": 0.0 if prev_end is None else ch.start - prev_end}
            elif cur is None:
                continue
            elif ch.name == "tensor.backward":
                cur["forward"] = ch.start - cur["start"]
                cur["backward"] = ch.dur
            elif ch.name == "training.SGD.step":
                cur["optimizer"] = ch.dur
                cur["total"] = ch.end - cur["start"]
                out.append(cur)
                prev_end, cur = ch.end, None
    return out


def rate(spans) -> list[float]:
    return [s.info["n"] / s.dur for s in spans]


def p90(values) -> float:
    return statistics.quantiles(values, n=10)[-1]


def end_to_end(spans, setup_s, task_walls, quality, peak_rss_mb) -> tuple[dict, dict]:
    """End-to-end metrics from step-clock spans. Returns (metrics, notes)."""
    kids = children_of(spans)
    trains = preferred(spans, "training.train")
    steps = [r["total"] * 1e3 for r in step_records(trains, kids)]
    if len(steps) < 100:
        raise RuntimeError(f"only {len(steps)} training steps timed, need >= 100")
    metrics = {
        "setup_s": statistics.median(setup_s),
        "step_ms_p50": statistics.median(steps),
        "step_ms_p90": p90(steps),
        "train_samples_per_s": statistics.median(rate(trains)),
        "final_train_acc": quality["final_train_acc"],
        "eval_images_per_s": statistics.median(rate(preferred(spans, "training.sweep"))),
        "audit_samples_per_s": statistics.median(
            rate(preferred(spans, "regularizer.audit_empirical_k"))),
        "noisy_acc": quality["noisy_acc"],
        "task_wall_s": statistics.median(task_walls),
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {"steps_timed": len(steps), "train_calls": len(trains), "setup_s": setup_s,
             "samples_per_train_call": trains[0].info["n"],
             "tasks": len(task_walls), "setups": len(setup_s)}
    return metrics, notes


def _ancestor_named(span, name) -> bool:
    p = span.parent
    while p is not None:
        if p.name == name:
            return True
        p = p.parent
    return False


def _per_1k(seconds, count) -> float:
    return seconds * 1e3 / (count / 1e3) if count else 0.0


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def deterministic_counts(spans) -> dict:
    """Counts that depend only on shapes and data, never on timing."""
    by = defaultdict(list)
    for s in spans:
        by[s.name].append(s)
    passes = [s for s in by["regularizer.perturb"]
              if _ancestor_named(s, "regularizer.aggregated_loss")]
    hinge = [s.info for s in by["regularizer.lipschitz_loss"]]
    return {
        "conv2d_flops": sum(s.info["flops"] for s in by["tensor.conv2d"] + by["bwd.conv2d"]),
        "matmul_flops": sum(s.info["flops"] for s in by["tensor.matmul"] + by["bwd.matmul"]),
        "im2col_bytes": sum(s.info["im2col_bytes"] for s in by["tensor.conv2d"]),
        "tape_nodes": sum(s.info["nodes"] for s in by["tensor.backward"]),
        "steps": len(by["training.SGD.step"]),
        "perturbed_passes": len(passes),
        "hinge_active": sum(h["active"] for h in hinge),
        "hinge_total": sum(h["total"] for h in hinge),
    }


def per_layer(spans, n_tasks, overhead_pct, pass_count_mismatch) -> dict:
    """Per-layer metrics from fully traced spans; see spec.PER_LAYER.

    Measured-phase spans only, except that data generation counts set-up."""
    kids = children_of(spans)
    by = defaultdict(list)
    for s in spans:
        if s.phase == "task":
            by[s.name].append(s)

    def total(name):
        return sum(s.dur for s in by[name])

    fwd = by["layers.forward"]
    rows = sum(s.info["rows"] for s in fwd)
    tape_rows = sum(s.info["rows"] for s in fwd if s.info["graph"])
    eval_fwd = [s for s in fwd if not s.info["graph"]]
    counts = deterministic_counts([s for v in by.values() for s in v])
    n_steps = counts["steps"]

    def per_step_ms(seconds):
        return seconds * 1e3 / n_steps if n_steps else 0.0

    m = {}
    for op in TENSOR_OPS + ("quotient",):
        ops = QUOTIENT_OPS if op == "quotient" else (op,)
        m[f"tensor.fwd_ms.{op}"] = _per_1k(sum(total(f"tensor.{o}") for o in ops), rows)
        m[f"tensor.bwd_ms.{op}"] = _per_1k(sum(total(f"bwd.{o}") for o in ops), tape_rows)
    backward = by["tensor.backward"]
    m["tensor.backward_ms"] = _mean([s.dur * 1e3 for s in backward])
    m["tensor.nodes_per_step"] = counts["tape_nodes"] / len(backward) if backward else 0.0
    for op in ("conv2d", "matmul"):
        t = total(f"tensor.{op}") + total(f"bwd.{op}")
        m[f"tensor.{op}.gflops"] = counts[f"{op}_flops"] / t / 1e9 if t else 0.0
    m["tensor.conv2d.im2col_mb"] = max(
        (s.info["im2col_bytes"] for s in by["tensor.conv2d"]), default=0) / 1e6

    m["layers.forward_ms.train"] = per_step_ms(sum(s.dur for s in fwd if s.info["graph"]))
    eval_time = sum(s.dur for s in eval_fwd)
    m["layers.forward_rows_per_s.eval"] = (
        sum(s.info["rows"] for s in eval_fwd) / eval_time if eval_time else 0.0)
    m["layers.checkpoint_ms"] = _mean([s.dur * 1e3 for s in by["layers.checkpoint_bytes"]])

    beyond_clean = 0.0
    for agg in by["regularizer.aggregated_loss"]:
        ch = kids.get(id(agg), [])
        clean = next((c.dur for c in ch if c.name == "layers.forward"), 0.0)
        ce = sum(c.dur for c in ch if c.name == "tensor.cross_entropy")
        beyond_clean += agg.dur - clean - ce
    m["regularizer.aggregated_loss_ms"] = per_step_ms(beyond_clean)
    m["regularizer.estimate_k_ms"] = per_step_ms(total("regularizer.estimate_k"))
    m["regularizer.perturb_ms"] = per_step_ms(sum(
        s.dur for s in by["regularizer.perturb"]
        if _ancestor_named(s, "regularizer.aggregated_loss")))
    m["regularizer.perturbed_passes_per_step"] = (
        counts["perturbed_passes"] / n_steps if n_steps else 0.0)
    m["regularizer.hinge_active_frac"] = (
        counts["hinge_active"] / counts["hinge_total"] if counts["hinge_total"] else 0.0)
    audits = by["regularizer.audit_empirical_k"]
    m["regularizer.audit_ms_per_1k"] = _per_1k(total("regularizer.audit_empirical_k"),
                                               sum(s.info["n"] for s in audits))

    steps = step_records(by["training.train"], kids)
    for part in ("forward", "backward", "optimizer"):
        m[f"training.step.{part}_ms"] = per_step_ms(sum(r.get(part, 0.0) for r in steps))
    m["training.step.data_wait_ms"] = per_step_ms(sum(r["wait"] for r in steps))
    probes = [c for tr in by["training.train"] for c in kids.get(id(tr), ())
              if c.name == "training.evaluate"]
    m["training.probe_eval_s"] = (sum(c.dur for c in probes) / len(by["training.train"])
                                  if by["training.train"] else 0.0)
    sweeps = by["training.sweep"]
    for part, name in (("corrupt", "data.corrupt"), ("forward", "layers.forward")):
        m[f"training.sweep.{part}_ms"] = _mean(
            [sum(c.dur for c in kids.get(id(s), ()) if c.name == name) * 1e3 for s in sweeps])
    m["training.sweep.quotient_ms"] = _mean(
        [(s.dur - sum(c.dur for c in kids.get(id(s), ()))) * 1e3 for s in sweeps])

    m["data.corrupt_ms_per_1k"] = _per_1k(total("data.corrupt"),
                                          sum(s.info["n"] for s in by["data.corrupt"]))
    digits = [s for s in spans if s.name == "data.synthetic_digits"]
    m["data.synthetic_digits_ms_per_1k"] = _per_1k(sum(s.dur for s in digits),
                                                   sum(s.info["n"] for s in digits))

    cells = by["cli._run_cell"]
    grids = by["cli.cmd_grid"]
    m["cli.grid.cell_s"] = _mean([s.dur for s in cells])
    m["cli.grid.parallelism"] = total("cli._run_cell") / total("cli.cmd_grid") if grids else 0.0
    m["cli.grid.load_datasets_s"] = (
        sum(c.dur for g in grids for c in kids.get(id(g), ()) if c.name == "cli.load_datasets")
        / len(grids) if grids else 0.0)
    m["cli.grid.pass_count_mismatch"] = pass_count_mismatch

    writes = [s for name, v in by.items() if name.startswith("reports.write_") for s in v
              if s.parent is None or not s.parent.name.startswith("reports.")]
    m["reports.write_ms"] = sum(s.dur for s in writes) * 1e3 / n_tasks
    m["ioutil.bytes_written"] = sum(
        s.info["n"] for s in by["ioutil.atomic_write_bytes"]) / n_tasks
    m["trace.overhead_pct"] = overhead_pct
    return m
