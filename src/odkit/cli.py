"""Command-line entry point.

Subcommands: gen-data, match, bench, hyperopt, plan-transfer. Exit codes:
0 success, 1 usage error, 2 data/format error. All outputs are
deterministic given seeds and inputs, except wall-clock fields in bench
reports.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from contextlib import nullcontext
from dataclasses import dataclass

from . import hyperopt as hp
from . import matching, pipeline, sparse_labels
from ._checks import is_integer
from .geometry import GridSpec, InvalidSpecError, build_anchor_grid

USAGE_ERROR = 1
DATA_ERROR = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors by default; this tool reserves
    # 2 for data errors and uses 1 for usage
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


class _UsageError(Exception):
    """Flag combination problems detected after argparse."""


@dataclass(frozen=True)
class TransferPlanEntry:
    """One row of a layer-transfer schedule.

    ``label`` follows the AnB/BnB naming: source network, number of copied
    layers, target B, and a trailing "+" when the copied layers are
    fine-tuned rather than frozen.
    """

    source: str
    n_layers: int
    fine_tune: bool

    def __post_init__(self):
        if self.source not in ("A", "B"):
            raise ValueError(f"source must be 'A' or 'B', got {self.source!r}")
        if not (is_integer(self.n_layers) and self.n_layers >= 1):
            raise ValueError(f"n_layers must be >= 1 and an integer, got {self.n_layers!r}")

    @property
    def label(self) -> str:
        return f"{self.source}{self.n_layers}B{'+' if self.fine_tune else ''}"


def plan_transfer(layers: int) -> list[TransferPlanEntry]:
    """All 2 sources x layer depths x 2 tune modes entries, in label order."""
    if not (is_integer(layers) and layers >= 1):
        raise ValueError(f"layers must be >= 1 and an integer, got {layers!r}")
    return [TransferPlanEntry(src, n, ft)
            for src in ("A", "B")
            for n in range(1, layers + 1)
            for ft in (False, True)]


# ------------------------------------------------------------ flag parsing

def _dims_parser(metavar: str):
    """An argparse type for ``metavar``-shaped text: as many integers as
    ``metavar`` names, joined by ``x``."""
    def parse(text: str) -> tuple[int, ...]:
        parts = text.lower().split("x")
        if len(parts) == metavar.count("x") + 1:
            try:
                return tuple(int(p) for p in parts)
            except ValueError:
                pass
        raise argparse.ArgumentTypeError(f"expected {metavar}, got {text!r}")
    return parse


def _parse_templates(text: str) -> tuple[tuple[float, float], ...]:
    out = []
    for part in text.split(","):
        try:
            w, h = (float(p) for p in part.lower().split("x"))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated WxH pairs, got {text!r}") from None
        out.append((w, h))
    return tuple(out)


def _finite_or_null(obj):
    """``obj`` with each non-finite float as None, which JSON writes as
    null, in its dicts and lists."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_finite_or_null(v) for v in obj]
    return obj


def _jsonl_line(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(", ", ": ")) + "\n"


# -------------------------------------------------------------- subcommands

def _cmd_gen_data(args) -> int:
    records = sparse_labels.gen_synthetic(
        seed=args.seed, n_images=args.images, max_boxes=args.max_boxes,
        image_w=args.width, image_h=args.height)
    n = sparse_labels.write_records(args.out, records)
    print(f"wrote {n} records to {args.out}")
    return 0


def _assignment_for(algo: str, dedup: str, anchors, records, costs):
    if algo == "serial":
        return matching.match_serial(anchors, [r.boxes for r in records])
    if algo == "parallel":
        rois = sparse_labels.encode_batch(list(records))
        ranking = matching.build_rankings(anchors, rois)
        cfg = matching.MatchConfig(dedup_mode=dedup.replace("-", "_"))
        return matching.match_parallel(ranking, rois, cfg)
    if algo == "greedy":
        return matching.match_greedy_bipartite(costs)
    return matching.match_exact(costs)


def _cmd_match(args) -> int:
    gw, gh, k = args.grid
    if k != len(args.templates):
        raise _UsageError(
            f"grid names {k} templates per cell but --templates lists {len(args.templates)}")
    image_w, image_h = args.image
    spec = GridSpec(image_w=image_w, image_h=image_h, grid_w=gw, grid_h=gh,
                    templates=args.templates)
    anchors = build_anchor_grid(spec)
    records = list(sparse_labels.read_records(args.records))
    batch = [r.boxes for r in records]

    costs = matching.cost_matrices(anchors, batch)
    a = _assignment_for(args.algo, args.dedup, anchors, records, costs)
    deltas = matching.compute_deltas(a, anchors, batch)
    # weights[i] is total_weight of image i alone, 0.0 + weights[i]: a sum
    # of 1 - IOU costs is never -0.0
    weights = matching._image_weights(a, costs)

    with open(args.out, "w", encoding="utf-8") as f:
        for i, rec in enumerate(records):
            f.write(_jsonl_line({
                "image_id": rec.image_id,
                "assignment": a.anchor_ids[i].tolist(),
                "total_weight": weights[i],
                "deltas": deltas[i].tolist(),
            }))
    print(f"matched {len(records)} images ({args.algo}) -> {args.out}")
    return 0


def _records_or_synthetic(path, cfgs) -> list:
    needed = max(c.n_batches * c.batch_size for c in cfgs)
    if path is not None:
        return list(sparse_labels.read_records(path))
    # no record file given: make a deterministic stand-in stream
    return sparse_labels.gen_synthetic(seed=0, n_images=needed, max_boxes=8,
                                       image_w=640, image_h=480)


def _cmd_bench(args) -> int:
    if args.compare:
        cfg_a = pipeline.load_config(args.compare[0])
        cfg_b = pipeline.load_config(args.compare[1])
        records = _records_or_synthetic(args.records, [cfg_a, cfg_b])
        cmp = pipeline.compare_pipelines(cfg_a, cfg_b, records)
        obj = {"a": pipeline.report_to_obj(cmp.report_a),
               "b": pipeline.report_to_obj(cmp.report_b),
               "speedup": cmp.speedup,
               "predicted_speedup": cmp.predicted_speedup}
        print(f"speedup (b over a): {cmp.speedup:.3f} "
              f"(predicted {cmp.predicted_speedup:.3f})")
    else:
        cfg = pipeline.load_config(args.pipeline)
        records = _records_or_synthetic(args.records, [cfg])
        report = pipeline.run_pipeline(cfg, records)
        obj = pipeline.report_to_obj(report)
        print(pipeline.format_report(report, [s.name for s in cfg.stages]))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(_finite_or_null(obj), f, indent=2, sort_keys=True, allow_nan=False)
            f.write("\n")
    return 0


def _resolve_space(text: str) -> hp.SearchSpace:
    if os.path.exists(text):
        return hp.load_space(text)
    name = text[:-5] if text.endswith(".json") else text
    return hp.load_bundled_space(name)


class _ReplyError(Exception):
    """An ``--ask-tell`` reply that is missing or not ``tell VALUE``."""


def _stdio_objective(x) -> float:
    """Print ``x`` as a JSON list; read its value from a ``tell VALUE`` line."""
    print(json.dumps([float(v) for v in x]), flush=True)
    line = sys.stdin.readline()
    if not line:
        raise _ReplyError("input ended before all asks were answered")
    parts = line.split()
    if len(parts) != 2 or parts[0] != "tell":
        raise _ReplyError(f"expected 'tell VALUE', got {line.rstrip()!r}")
    return float(parts[1])


def _cmd_hyperopt(args) -> int:
    space = _resolve_space(args.space)
    objective = _stdio_objective
    if args.objective:
        name = args.objective.removeprefix("builtin:")
        try:
            objective = hp.get_objective(name)
        except ValueError as e:
            raise _UsageError(str(e)) from None
        need = hp._BUILTIN_MIN_DIMS.get(name, 1)
        if len(space.dims) < need:
            raise _UsageError(f"builtin:{name} needs a space of at least {need} dimensions, "
                              f"got {len(space.dims)}")
    if args.budget < 1:
        raise _UsageError(f"--budget must be >= 1, got {args.budget}")

    state = hp.new_optimizer(space, noise_eps=args.noise_eps, seed=args.seed)
    # without --out the log goes to stdout, or to stderr when stdout carries asks
    default_log = sys.stderr if args.ask_tell else sys.stdout
    with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(default_log) as log:
        def on_trial(trial, best):
            log.write(_jsonl_line({
                "seq": trial.seq, "point": [float(v) for v in trial.point],
                "value": trial.value, "best_so_far": best.value,
                "phase": state.phase, "lipschitz_k": state.lipschitz_k,
                "tr_radius": state.tr_radius, "tr_fallbacks": state.tr_fallbacks}))
        try:
            hp.run_optimization(state, objective, args.budget, on_trial)
        except _ReplyError as e:
            print(e, file=sys.stderr)
            return DATA_ERROR
    b = hp.best(state)
    print(f"best: value {b.value:.6g} at "
          f"{json.dumps(dict(zip((d.name for d in space.dims), map(float, b.point))))}",
          file=sys.stderr)
    return 0


def _cmd_plan_transfer(args) -> int:
    if args.layers < 1:
        raise _UsageError(f"--layers must be >= 1, got {args.layers}")
    entries = plan_transfer(args.layers)
    obj = [{"source": e.source, "n_layers": e.n_layers,
            "fine_tune": e.fine_tune, "label": e.label} for e in entries]
    text = json.dumps(obj, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text + "\n")
    else:
        print(text)
    return 0


def build_parser() -> _Parser:
    p = _Parser(prog="odkit", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True, parser_class=_Parser)

    g = sub.add_parser("gen-data", help="write a synthetic label record file")
    g.add_argument("--images", type=int, required=True)
    g.add_argument("--max-boxes", type=int, default=8)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--width", type=int, default=640)
    g.add_argument("--height", type=int, default=480)
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_gen_data)

    m = sub.add_parser("match", help="assign anchors to the boxes of each image")
    m.add_argument("--algo", choices=("serial", "parallel", "greedy", "exact"),
                   required=True)
    m.add_argument("--dedup", choices=("strict", "paper-literal"), default="strict")
    m.add_argument("--records", required=True)
    m.add_argument("--grid", type=_dims_parser("GWxGHxK"), required=True, metavar="GWxGHxK")
    m.add_argument("--image", type=_dims_parser("WxH"), required=True, metavar="WxH")
    m.add_argument("--templates", type=_parse_templates, required=True,
                   metavar="W1xH1,W2xH2,...")
    m.add_argument("--out", required=True)
    m.set_defaults(func=_cmd_match)

    b = sub.add_parser("bench", help="run a pipeline layout and report throughput")
    layout = b.add_mutually_exclusive_group(required=True)
    layout.add_argument("--pipeline", metavar="CONFIG.json")
    layout.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    b.add_argument("--records")
    b.add_argument("--out")
    b.set_defaults(func=_cmd_bench)

    h = sub.add_parser("hyperopt", help="maximize an objective over a search space")
    h.add_argument("--space", required=True)
    h.add_argument("--budget", type=int, required=True)
    mode = h.add_mutually_exclusive_group(required=True)
    mode.add_argument("--objective", metavar="builtin:NAME")
    mode.add_argument("--ask-tell", action="store_true",
                      help="print each candidate to stdout; read 'tell VALUE' lines from stdin")
    h.add_argument("--seed", type=int, default=0)
    h.add_argument("--noise-eps", type=float, default=0.0)
    h.add_argument("--out", metavar="TRIALS.jsonl",
                   help="trial log file (default: stdout, or stderr with --ask-tell)")
    h.set_defaults(func=_cmd_hyperopt)

    t = sub.add_parser("plan-transfer", help="enumerate layer-transfer schedules")
    t.add_argument("--layers", type=int, default=10)
    t.add_argument("--out")
    t.set_defaults(func=_cmd_plan_transfer)
    return p


# parsing leaves a parser as it was, so one serves every call in a process
_shared_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        return args.func(args)
    except (_UsageError, InvalidSpecError) as e:
        # bad geometry/grid flags are usage problems, not data problems;
        # InvalidSpecError is a ValueError, so this clause comes first
        print(f"odkit: error: {e}", file=sys.stderr)
        return USAGE_ERROR
    except (OSError, ValueError, pipeline.DataUnderrunError) as e:
        print(f"odkit: error: {e}", file=sys.stderr)
        return DATA_ERROR

if __name__ == "__main__":
    sys.exit(main())
