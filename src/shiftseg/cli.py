"""Command-line entry point: dataset generation, training, evaluation,
ablation sweeps, and verification.

`eval` builds or loads only the validation clouds, the ones it scores. Its
level sweep is a training's final one (`evalsuite.ssr_curve`): each draw is
keyed on `evalsuite.EVAL_DRAW_SEED`, whatever the config's seed, and gives
both the level's mIoU and its SSR ratio, and the clean high-distortion
metrics come with every level. At its default levels (every preset) and
trials, `eval` of a run's ckpt/final reproduces its final report's values.

`ablate` trains one run per value of a `SWEEPS` entry (the studied k, D, t
and lambda of the full mode's prior), the config otherwise unchanged, and
copies each run's clean and per-level mIoU from its final report.

Every setting of a run comes from its config file, read through
`trainer.TrainConfig`, the one check of those settings; `gen` reads one too,
and writes the synthetic clouds `train` builds from that config without
`--data`, with the config as the dataset's config.json. Refused: an unknown
config key or a value that could not run; a `--data` dataset that differs
from the config in scenes, points_per_scene or val_fraction, or that
`_load_data` cannot use; an `eval` level unknown or listed twice, and
`--trials` below 1; an `eval` or `--resume` checkpoint written under another
config (`trainer.load_state`); an unknown `ablate` sweep, or any sweep on a
mode without a prior; an `--out` directory that cannot be made; an input
path missing or of the wrong kind (say a file as `--data`). Arguments are
checked before the output directory is made.

Exit codes: 0 success, 1 a failed `verify` suite, 2 usage error (a malformed
config, dataset or checkpoint included).
Output directory layout: OUT/{manifest.json, config.json, steplog.ndjson,
ckpt/, reports/, csv/}; a dataset's: DIR/{manifest.json, config.json,
split.json, <cloud id>.a3pc}. Each checkpoint directory
ckpt/<epoch_NNNN|final>/ holds weights.a3wt (`trainer.state_arrays`: the
networks, codebook, optimizer moments and step counts, step and epoch) and
state.json (the config hash a resume and `eval` check).
"""
from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import sys
import time

from . import __version__, evalsuite, oracle, trainer, verify
from .augment import PRESETS
from .dataset import CloudFormatError, DatasetSplit, load_cloud, save_cloud
from .pointcloud import voxel_keys
from .tensor import CheckpointError
from .trainer import ConfigError, TrainConfig


class UsageError(Exception):
    pass


def _write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1, sort_keys=False)
        f.write("\n")


def _manifest(out_dir: str, cfg_hash: str, seed: int, layout: list[str]) -> None:
    _write_json(os.path.join(out_dir, "manifest.json"), {
        "command": sys.argv,
        "config_hash": cfg_hash,
        "code_version": __version__,
        "seed": seed,
        "layout": layout,
        "created_unix": time.time(),
    })


# the entries `gen`, `train`, `eval` and `ablate` write, a directory with a
# trailing "/" (`gen`'s clouds and `ablate`'s cells by a glob pattern)
GEN_LAYOUT = ["manifest.json", "config.json", "split.json", "*.a3pc"]
TRAIN_LAYOUT = ["manifest.json", "config.json", "steplog.ndjson", "ckpt/", "reports/"]
EVAL_LAYOUT = ["manifest.json", "reports/", "csv/"]


def _prepare_out(out_dir: str, force: bool, layout: list[str]) -> None:
    """Refuse an `out_dir` that is nonempty without `force`, or that cannot
    be made; with `force`, first remove what the glob patterns of the
    command's `layout` match, so no earlier output stays beside the new one,
    and nothing else."""
    if os.path.isdir(out_dir) and os.listdir(out_dir) and not force:
        raise UsageError(f"output directory {out_dir!r} is not empty (use --force)")
    for entry in layout:
        for path in glob.glob(os.path.join(glob.escape(out_dir), entry)):
            (shutil.rmtree if entry.endswith("/") else os.remove)(path)
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:  # a file at the path or above it, or no permission
        raise UsageError(f"cannot make output directory {out_dir!r}: {exc.strerror}") from None


def _load_config(path: str) -> TrainConfig:
    return TrainConfig.from_json(trainer.read_json(path, "config"))


# what a dataset's `gen` config fixes that a run reading it must match;
# seed is not compared, since it also seeds training
DATA_KEYS = ("scenes", "points_per_scene", "val_fraction")


def _load_data(data_dir: str | None, cfg: TrainConfig, val_only: bool = False):
    """The split and clouds of a `gen` dataset directory, or the config's
    synthetic data without one; only the validation clouds with val_only.
    Refuses a dataset whose config.json (`gen` writes one) differs from `cfg`
    in a DATA_KEYS value; a split.json that is not JSON, not a split of
    disjoint lists of distinct cloud ids, or without a training cloud
    (unless val_only); a split without a validation cloud, a cloud of fewer
    than 2 points (it has no neighbourhood to featurize) or with a cell key
    beyond int64 at the config's voxel_size, clouds that declare different
    class counts, or more classes than the config's class_count. A dataset
    without config.json is read as it stands."""
    if data_dir:
        path = os.path.join(data_dir, "config.json")
        if os.path.exists(path):
            made = _load_config(path)
            for key in DATA_KEYS:
                if getattr(made, key) != getattr(cfg, key):
                    raise UsageError(f"the config's {key} is {getattr(cfg, key)!r}, but the "
                                     f"dataset was generated with {getattr(made, key)!r} "
                                     f"({path!r})")
        path = os.path.join(data_dir, "split.json")
        with open(path, "r", encoding="utf-8") as f:
            try:
                split = DatasetSplit.from_json(json.load(f))
            except ValueError as exc:  # not JSON, not UTF-8, or not a split
                raise UsageError(f"split {path!r} is malformed: {exc}") from None
        if not (val_only or split.train):
            raise UsageError(f"split {path!r} has no training cloud")
        clouds, counts = {}, set()
        for cid in split.val if val_only else split.train + split.val:
            clouds[cid], c = load_cloud(os.path.join(data_dir, f"{cid}.a3pc"), cloud_id=cid)
            if len(clouds[cid]) < 2:
                raise UsageError(f"cloud {cid!r} in {data_dir!r} has {len(clouds[cid])} "
                                 "point(s); training and evaluation need at least 2")
            try:
                voxel_keys(clouds[cid], cfg.voxel_size)
            except ValueError as exc:
                raise UsageError(f"{exc} (dataset {data_dir!r})") from None
            counts.add(c)
        if len(counts) > 1:
            raise UsageError(f"dataset {data_dir!r} mixes clouds that declare "
                             f"{sorted(counts)} classes")
        if counts and max(counts) > cfg.class_count:
            raise UsageError(f"dataset {data_dir!r} declares {max(counts)} classes, more "
                             f"than the config's class_count of {cfg.class_count}")
    else:
        split, clouds = trainer.default_data(cfg, val_only)
    if not split.val:
        raise UsageError("the split has no validation cloud to evaluate")
    return split, clouds


# ---------------------------------------------------------------------------
# Subcommands


def cmd_gen(args) -> int:
    cfg = _load_config(args.config)
    _prepare_out(args.out, args.force, GEN_LAYOUT)
    split, clouds = trainer.default_data(cfg)
    for cid, cloud in clouds.items():
        save_cloud(cloud, os.path.join(args.out, f"{cid}.a3pc"), cfg.class_count)
    _write_json(os.path.join(args.out, "split.json"), split.to_json())
    _write_json(os.path.join(args.out, "config.json"), cfg.to_json())
    _manifest(args.out, cfg.config_hash(), cfg.seed,
              ["split.json", "config.json", "manifest.json"]
              + [f"{cid}.a3pc" for cid in clouds])
    print(f"wrote {len(clouds)} clouds to {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = _load_config(args.config)
    split, clouds = _load_data(args.data, cfg)
    if args.resume:
        if not os.path.isdir(args.out):
            raise UsageError("--resume needs an existing output directory")
    else:
        _prepare_out(args.out, args.force, TRAIN_LAYOUT)
    resume_from = None
    if args.resume:
        ckpt_root = os.path.join(args.out, "ckpt")
        epochs = sorted(d for d in os.listdir(ckpt_root) if d.startswith("epoch_"))
        if not epochs:
            raise UsageError("no epoch checkpoint to resume from")
        resume_from = os.path.join(ckpt_root, epochs[-1])
    else:
        # a resume refuses any config but the checkpoint's, so config.json stands
        _write_json(os.path.join(args.out, "config.json"), cfg.to_json())
    state, reports = trainer.run(cfg, split, clouds, out_dir=args.out,
                                 resume_from=resume_from)
    _manifest(args.out, cfg.config_hash(), cfg.seed, TRAIN_LAYOUT)
    if reports:
        print(f"final val mIoU {reports[-1]['miou']:.4f}")
    return 0


def cmd_eval(args) -> int:
    """Score a checkpoint on the validation clouds, generated or loaded
    without the training clouds, by `evalsuite.ssr_curve`: `--trials` draws
    per cloud and level, each prepared and predicted once, and one clean
    pass per cloud for its high-distortion metrics and the `none` level."""
    levels = args.levels.split(",")
    for i, level in enumerate(levels):
        if level not in PRESETS:
            raise UsageError(f"unknown level {level!r}")
        if level in levels[:i]:
            raise UsageError(f"level {level!r} is listed twice in --levels")
    if args.trials < 1:
        raise UsageError("--trials must be at least 1")
    if not os.path.isdir(args.ckpt):
        raise UsageError(f"checkpoint directory {args.ckpt!r} not found")
    cfg = _load_config(args.config)
    split, clouds = _load_data(args.data, cfg, val_only=True)
    state = trainer.load_state(cfg, args.ckpt)
    _prepare_out(args.out, args.force, EVAL_LAYOUT)
    os.makedirs(os.path.join(args.out, "reports"), exist_ok=True)
    os.makedirs(os.path.join(args.out, "csv"), exist_ok=True)
    val_clouds = [clouds[c] for c in split.val]

    sweep, _ = evalsuite.ssr_curve(state.model, trainer.prior_snapshot(state), val_clouds,
                                   levels, args.trials, cfg)
    for level, rep in sweep.items():
        rep.update(config_hash=cfg.config_hash(), seed=cfg.seed)
        _write_json(os.path.join(args.out, "reports", f"level_{level}.json"), rep)
        print(f"level {level}: mIoU {rep['miou']:.4f} ssr_ratio {rep['ssr_ratio']}")
    with open(os.path.join(args.out, "csv", "level_sweep.csv"), "w", encoding="utf-8") as f:
        f.write("level,seed,ssr_ratio,miou\n")
        for level, rep in sweep.items():
            ratio = "" if rep["ssr_ratio"] is None else repr(float(rep["ssr_ratio"]))
            f.write(f"{level},{cfg.seed},{ratio},{repr(float(rep['miou']))}\n")
    _manifest(args.out, cfg.config_hash(), cfg.seed, EVAL_LAYOUT)
    return 0


# sweep name -> (config.json key, values); each key sets the full mode's prior
SWEEPS = {
    "k": ("k", [16, 32, 64]),
    "D": ("D", [32, 64, 128]),
    "t": ("t", [2.0, 3.0, 4.0]),
    "lambda": ("lambda", [0.02, 0.1, 0.5]),
}
ABLATE_LAYOUT = ["manifest.json", "csv/", *(f"{name}_*/" for name in SWEEPS)]


def cmd_ablate(args) -> int:
    if args.sweep not in SWEEPS:
        raise UsageError(f"unknown sweep {args.sweep!r} (choose from {sorted(SWEEPS)})")
    base = _load_config(args.config)
    if not trainer.needs_prior(base.mode):
        raise UsageError(f"sweep {args.sweep!r} varies the prior, which mode "
                         f"{base.mode!r} does not learn")
    split, clouds = _load_data(args.data, base)
    _prepare_out(args.out, args.force, ABLATE_LAYOUT)
    os.makedirs(os.path.join(args.out, "csv"), exist_ok=True)
    key, values = SWEEPS[args.sweep]

    lines = [",".join(["sweep,value,miou_clean", *(f"miou_{level}" for level in PRESETS)])]
    for value in values:
        cfg = TrainConfig.from_json({**base.to_json(), key: value})
        cell_dir = os.path.join(args.out, f"{args.sweep}_{value}")
        os.makedirs(cell_dir, exist_ok=True)
        _write_json(os.path.join(cell_dir, "config.json"), cfg.to_json())
        final = trainer.run(cfg, split, clouds, out_dir=cell_dir)[1][-1]
        mious = [final["miou"], *(final["miou_by_level"][level] for level in PRESETS)]
        lines.append(",".join([args.sweep, str(value), *(repr(float(m)) for m in mious)]))
        print(f"{args.sweep}={value}: clean mIoU {final['miou']:.4f} "
              f"heavy mIoU {final['miou_by_level']['heavy']:.4f}")
    with open(os.path.join(args.out, "csv", f"sweep_{args.sweep}.csv"), "w",
              encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
    _manifest(args.out, base.config_hash(), base.seed, ABLATE_LAYOUT)
    return 0


def cmd_verify(args) -> int:
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    out = args.out or "verify_out"
    _prepare_out(out, True, ["oracle_report.json"])  # a rerun replaces its report
    reports: list[oracle.OracleReport] = verify.run_suites(names)
    _write_json(os.path.join(out, "oracle_report.json"), [r.to_json() for r in reports])
    failed = [r for r in reports if not r.passed]
    for r in reports:
        extra = "".join(f", {k} {v}" for k, v in r.detail.items())
        print(f"{'PASS' if r.passed else 'FAIL'} {r.check} "
              f"(abs {r.max_abs_err:.3g}, rel {r.max_rel_err:.3g}, tol {r.tolerance:.3g}{extra})")
    return 1 if failed else 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="shiftseg",
                                description="robust point-cloud segmentation training")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="write a config's synthetic dataset and the config")
    g.add_argument("--config", required=True)
    g.add_argument("--out", required=True)
    g.add_argument("--force", action="store_true")
    g.set_defaults(func=cmd_gen)

    t = sub.add_parser("train", help="train a model")
    t.add_argument("--config", required=True)
    t.add_argument("--data", default=None, help="dataset directory from `gen`")
    t.add_argument("--out", required=True)
    t.add_argument("--resume", action="store_true")
    t.add_argument("--force", action="store_true")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint across augmentation levels")
    e.add_argument("--ckpt", required=True, help="checkpoint directory")
    e.add_argument("--config", required=True)
    e.add_argument("--data", default=None)
    e.add_argument("--levels", default=",".join(PRESETS))
    e.add_argument("--trials", type=int, default=trainer.CURVE_TRIALS)
    e.add_argument("--out", required=True)
    e.add_argument("--force", action="store_true")
    e.set_defaults(func=cmd_eval)

    a = sub.add_parser("ablate", help="one-factor sweep")
    a.add_argument("--config", required=True)
    a.add_argument("--sweep", required=True)
    a.add_argument("--data", default=None)
    a.add_argument("--out", required=True)
    a.add_argument("--force", action="store_true")
    a.set_defaults(func=cmd_ablate)

    v = sub.add_parser("verify", help="run oracle verification suites")
    v.add_argument("--suite", choices=list(verify.SUITES) + ["all"], default="all")
    v.add_argument("--out", default=None)
    v.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, ConfigError, FileNotFoundError, IsADirectoryError, NotADirectoryError,
            CloudFormatError, CheckpointError) as exc:  # the path errors name their path
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
