"""What the lipnet benchmark measures, and which layer should move which result.

This module is the single source for BENCHMARK.json at the repository root;
regenerate it with ``python3 benchmarks/spec.py`` after editing the tables.

Normalisations used by the per-layer metrics:
- "per step" divides by the number of training steps (SGD.step calls) in the
  measured phase; workloads that train only in set-up (eval_audit) report 0.
- "per 1k rows" divides by the rows that entered ``layers.forward``, clean
  and perturbed, with or without a tape.
- "per task" divides by the number of measured tasks (see workloads.py):
  a train() call with its artifacts, sweep and audit; a sweep with its
  reports and an audit; or a ``lipnet grid`` command with an audit per cell.
A layer that a workload never calls reports 0 there.
"""

from __future__ import annotations

import json
from pathlib import Path

COMMAND = ["python3", "benchmarks/run.py"]
PATHS = ["benchmarks"]
RUN_SECONDS = 20

WORKLOADS = [
    ("train_standard",
     "beta=0 train(), batch 100: tape, layers, SGD, never the regularizer. "
     "tensor.*, layers.forward_ms.train, training.step.* move step_ms_*; "
     "regularizer.* must not"),
    ("train_regularized",
     "README regularizer (sigma 0.75, beta 10, l_n 0.005): two forward passes, "
     "k and hinge on the tape. tensor.*, regularizer.*, training.step.* "
     "move step_ms_*"),
    ("eval_audit",
     "sweep over 5 sigmas + audit on 2000 held-out rows; no tape in the "
     "measured phase. fwd_ms, im2col, gflops, training.sweep.*, data.corrupt "
     "move eval/audit rates; bwd_ms must not"),
    ("grid_parallel",
     "lipnet grid in-process, 5 cells, workers=2: thread pool, data generation, "
     "checkpoints, reports. cli.grid.*, reports.write_ms, ioutil, "
     "synthetic_digits move task_wall_s"),
]

# name, unit, better, bound, what it is. On a shared 2-core host the
# ten-seed spread (IQR / median) of the timings was 0.05-0.27. It came from
# host speed drifting by up to 40 % over a few minutes, which longer runs do
# not average out, hence the 0.25 bounds on timings. Accuracies spread at
# most 0.06 and peak RSS 0.04.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25,
     "median of 5 set-ups: data generation, model build, warm-up; eval_audit "
     "includes its set-up training, grid_parallel a tiny warm-up grid"),
    ("step_ms_p50", "ms", "lower", 0.25,
     "median training step (aggregated_loss + backward + SGD.step), over all "
     "steps of the run (>= 100; count printed)"),
    ("step_ms_p90", "ms", "lower", 0.25, "90th percentile of the same steps"),
    ("train_samples_per_s", "samples/s", "higher", 0.25,
     "median over train() calls of samples / wall time of the whole call, "
     "per-epoch probe evaluation included"),
    ("final_train_acc", "frac", "higher", 0.1,
     "train accuracy after the last epoch (mean over cells on grid_parallel)"),
    ("eval_images_per_s", "images/s", "higher", 0.25,
     "median over sweep() calls of images (rows x sigmas) / wall time"),
    ("audit_samples_per_s", "samples/s", "higher", 0.25,
     "median over audit_empirical_k() calls of samples / wall time"),
    ("noisy_acc", "frac", "higher", 0.2,
     "accuracy at the highest sigma_test of the sweep (mean over cells on "
     "grid_parallel)"),
    ("task_wall_s", "s", "lower", 0.25,
     "median wall time of one measured task; on grid_parallel the grid "
     "command plus a 500-sample audit of each cell (about 4 %)"),
    ("peak_rss_mb", "MB", "lower", 0.15, "peak resident set of the run's process"),
]

_TENSOR_OPS = ("conv2d", "matmul", "relu", "softmax", "add_channelvec",
               "add_rowvec", "reshape", "cross_entropy", "quotient")
_STEP = "step_ms_* on train_standard, train_regularized"
_EVAL = "eval_images_per_s, audit_samples_per_s on eval_audit"

# name, unit, better, what it is, which end-to-end metric it should move
PER_LAYER = (
    [(f"tensor.fwd_ms.{op}", "ms", "lower",
      f"forward time of {op} per 1k rows"
      + (" (sub, l2_norm_rows, mul_elementwise, reduce_sum, scale, add)"
         if op == "quotient" else ""),
      f"{_STEP}; {_EVAL}") for op in _TENSOR_OPS]
    + [(f"tensor.bwd_ms.{op}", "ms", "lower",
        f"backward-rule time of {op} per 1k rows forwarded on a tape",
        f"{_STEP}; eval_audit unchanged") for op in _TENSOR_OPS]
    + [
        ("tensor.backward_ms", "ms", "lower", "mean backward() call", _STEP),
        ("tensor.nodes_per_step", "count", "lower", "tape nodes per backward()", _STEP),
        ("tensor.conv2d.gflops", "GFLOP/s", "higher",
         "conv2d forward+backward FLOPs from shapes / time", f"{_STEP}; {_EVAL}"),
        ("tensor.matmul.gflops", "GFLOP/s", "higher",
         "matmul forward+backward FLOPs from shapes / time", f"{_STEP}; {_EVAL}"),
        ("tensor.conv2d.im2col_mb", "MB", "lower",
         "largest im2col matrix of one conv2d call, from shapes",
         f"{_STEP}; {_EVAL}; peak_rss_mb"),
        ("layers.forward_ms.train", "ms", "lower",
         "layers.forward time on a tape per step", _STEP),
        ("layers.forward_rows_per_s.eval", "rows/s", "higher",
         "rows through layers.forward without a tape / time", "eval_images_per_s"),
        ("layers.checkpoint_ms", "ms", "lower", "mean checkpoint_bytes() call",
         "task_wall_s on grid_parallel"),
        ("regularizer.aggregated_loss_ms", "ms", "lower",
         "aggregated_loss time per step beyond the clean forward and its "
         "cross-entropy", "step_ms_* on train_regularized only"),
        ("regularizer.estimate_k_ms", "ms", "lower", "estimate_k time per step",
         "step_ms_* on train_regularized only"),
        ("regularizer.perturb_ms", "ms", "lower",
         "perturb time per step, inside aggregated_loss",
         "step_ms_* on train_regularized only"),
        ("regularizer.perturbed_passes_per_step", "count", "lower",
         "perturb calls inside aggregated_loss per step: 1 regularized, 0 standard",
         "step_ms_* on train_regularized"),
        ("regularizer.hinge_active_frac", "frac", "higher",
         "share of perturbed samples with k > l_n, whose hinge has gradient",
         "useful work / attempted work on train_regularized"),
        ("regularizer.audit_ms_per_1k", "ms", "lower",
         "audit_empirical_k time per 1k audited samples", "audit_samples_per_s"),
        ("training.step.forward_ms", "ms", "lower",
         "step start to backward() start, per step", _STEP),
        ("training.step.backward_ms", "ms", "lower", "backward() per step", _STEP),
        ("training.step.optimizer_ms", "ms", "lower", "SGD.step per step", _STEP),
        ("training.step.data_wait_ms", "ms", "lower",
         "gap between one step's end and the next step's start", _STEP),
        ("training.probe_eval_s", "s", "lower",
         "per-epoch probe evaluate() time per train() call",
         "train_samples_per_s, not step_ms_*"),
        ("training.sweep.corrupt_ms", "ms", "lower", "data.corrupt time per sweep",
         "eval_images_per_s"),
        ("training.sweep.forward_ms", "ms", "lower", "layers.forward time per sweep",
         "eval_images_per_s"),
        ("training.sweep.quotient_ms", "ms", "lower",
         "sweep self time (inline quotient and accuracy) per sweep",
         "eval_images_per_s"),
        ("data.corrupt_ms_per_1k", "ms", "lower", "corrupt time per 1k images",
         "eval_images_per_s"),
        ("data.synthetic_digits_ms_per_1k", "ms", "lower",
         "synthetic_digits time per 1k images, set-up included",
         "setup_s on every workload; task_wall_s on grid_parallel"),
        ("cli.grid.cell_s", "s", "lower", "mean grid cell (_run_cell) time",
         "task_wall_s on grid_parallel"),
        ("cli.grid.parallelism", "ratio", "higher",
         "summed cell busy time / grid wall time", "task_wall_s on grid_parallel"),
        ("cli.grid.load_datasets_s", "s", "lower", "load_datasets time per grid",
         "task_wall_s on grid_parallel"),
        ("cli.grid.pass_count_mismatch", "count", "lower",
         "cells per grid whose timings.json perturbed_passes differs from n_steps "
         "(0 for standard); a known defect, counted and not gated",
         "none; correctness of grid timings"),
        ("reports.write_ms", "ms", "lower", "report-writing time per task",
         "task_wall_s on grid_parallel"),
        ("ioutil.bytes_written", "bytes", "lower",
         "bytes through atomic_write_bytes per task", "task_wall_s on grid_parallel"),
        ("trace.overhead_pct", "%", "lower",
         "traced task wall time minus untraced, as a share of untraced", "none"),
    ]
)


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound, _ in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b, _, _ in PER_LAYER],
    }


if __name__ == "__main__":
    root = Path(__file__).resolve().parent.parent
    (root / "BENCHMARK.json").write_text(
        json.dumps(benchmark_json(), indent=2) + "\n", encoding="utf-8")
