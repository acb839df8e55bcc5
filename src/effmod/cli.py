"""Command-line surface.

Exit codes: 0 success, 2 usage error (argparse), 3 config/precondition error,
4 numerical failure (NaN loss, failed gradient check, nondeterministic bench).
Errors print one parsable line to stderr: "error: <category>: <message>".
Every command prints its effective seed in the output header, since all
randomness is seeded with fixed defaults.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import analyzer, bench, trainer
from . import model as M
from .blocks import BLOCK_KINDS, GC_CASES, block_grad_check
from .ctxmap import check_block, check_image_size, context_map
from .errors import ConfigError, NumericalError, PreconditionError
from .pnm import read_pnm, write_pgm


def _load_spec(target: str) -> M.ModelSpec:
    if target in M.PRESETS:
        return M.build_preset(target)
    if target.endswith(".json"):
        try:
            with open(target) as f:
                text = f.read()
        except (OSError, UnicodeDecodeError) as e:
            raise ConfigError(f"cannot read spec file {target}: {e}")
        return M.spec_from_json(text)
    raise ConfigError(
        f"unknown model {target!r}: expected a preset ({', '.join(sorted(M.PRESETS))}) "
        f"or a .json spec file"
    )


def _write(path: str | None, text: str, what: str):
    if path:
        with open(path, "w") as f:
            f.write(text)
        print(f"{what} written to {path}")


# ---------------------------------------------------------------- commands


def cmd_presets(args) -> int:
    print("preset    dims                 blocks(mod/attn)   params       gmacs@224  notes")
    for name, spec in M.PRESETS.items():
        model = M.build_model(spec, seed=0)
        rep = analyzer.complexity_report(model, input_res=(224, 224))
        dims = "/".join(str(st.dim) for st in spec.stages)
        blocks = " ".join(f"{st.mod_blocks}/{st.attn_blocks}" for st in spec.stages)
        notes = []
        if any(st.attn_blocks for st in spec.stages):
            notes.append(f"attn_mlp_ratio={spec.attn_mlp_ratio}")
        if spec.head != 1000:
            notes.append(f"classes={spec.head}")
        print(
            f"{name:<9} {dims:<20} {blocks:<18} {rep.total_params_with_bias:>10,}  "
            f"{rep.total_macs / 1e9:>8.4f}  {' '.join(notes)}"
        )
    print("isotropic pairs:")
    for pair, (a, b) in sorted(M.ISO_PAIRS.items()):
        sa, sb = M.ISO_SPECS[a], M.ISO_SPECS[b]
        print(
            f"{pair:<13} {a} (dim {sa.dim}, depth {sa.depth}, r {sa.expansion}) vs "
            f"{b} (r {sb.expansion})"
        )
    return 0


def cmd_analyze(args) -> int:
    spec = _load_spec(args.model)
    model = M.build_model(spec, seed=args.seed)
    rep = analyzer.complexity_report(model, input_res=(args.res, args.res))
    print(f"# analyze {args.model} at {args.res}x{args.res}, seed {args.seed}")
    print(rep.to_text())
    _write(args.csv, rep.to_csv(), "per-layer csv")
    return 0


def cmd_gradcheck(args) -> int:
    if not 1 <= args.cases <= GC_CASES:
        raise ConfigError(f"--cases must be in 1..{GC_CASES}, got {args.cases}")
    kinds = BLOCK_KINDS if args.block == "all" else (args.block,)
    print(f"# gradcheck tol {args.tol:g}, seed {args.seed}, cases per kind {args.cases}")
    ok = True
    for kind in kinds:
        for case in range(args.cases):
            rep = block_grad_check(kind, case=case, tol=args.tol, seed=args.seed)
            status = "PASS" if rep.passed else "FAIL"
            print(f"{status} {kind} case {case}: max rel err {rep.max_rel_err:.3e}")
            if not rep.passed:
                ok = False
                print(rep.to_text())
    if not ok:
        raise NumericalError("gradient check failed (see report above)")
    return 0


def cmd_bench(args) -> int:
    print(f"# bench {args.experiment}, seed {args.seed}")
    budget = dict(warmup=args.warmup, iters=args.iters, threads=args.threads, seed=args.seed)
    if args.experiment == "fusion":
        res = bench.bench_fusion_modes(args.channels, args.expansion, args.res, **budget)
    else:
        res = bench.bench_pair_mbconv(args.experiment.removeprefix("pair-"), args.res, **budget)
    print(res.summary())
    _write(args.csv, bench.bench_csv(res.results.values()), "bench csv")
    return 0


def cmd_train(args) -> int:
    print(
        f"# train micro: seed {args.seed}, epochs {args.epochs}, lr {args.lr}, "
        f"wd {args.wd}, n {args.n}, noise {args.noise}"
    )
    _, hist = trainer.train_micro(
        seed=args.seed, epochs=args.epochs, lr=args.lr, weight_decay=args.wd,
        n=args.n, noise=args.noise, log=print,
    )
    print(f"final eval acc {hist.final_eval_acc:.3f} (best {hist.best_eval_acc:.3f})")
    _write(args.csv, hist.to_csv(), "history csv")
    return 0


def cmd_ablate_fusion(args) -> int:
    print(f"# ablate-fusion: seed {args.seed}, epochs {args.epochs}")
    hists = trainer.ablate_fusion(seed=args.seed, epochs=args.epochs, log=print)
    print(
        f"final eval acc: mul {hists['mul'].final_eval_acc:.3f}, "
        f"sum {hists['sum'].final_eval_acc:.3f}"
    )
    _write(args.csv, trainer.paired_csv(hists), "paired csv")
    return 0


def cmd_ctxmap(args) -> int:
    spec = _load_spec(args.model)
    kinds = [[kind for kind, _ in blocks] for _, blocks in M.stage_plan(spec)]
    check_block(kinds, args.stage, args.block)
    raw = read_pnm(args.image)
    check_image_size(*raw.shape[:2])
    model = M.build_model(spec, seed=args.seed)
    if raw.ndim == 2:
        raw = np.stack([raw] * 3, axis=-1)
    img = (raw.astype(np.float32) / 255.0).transpose(2, 0, 1)
    cm = context_map(model, img, args.stage, args.block)
    out = args.out or f"ctxmap_stage{args.stage}_block{args.block}.pgm"
    write_pgm(out, cm.grid)
    print(
        f"# ctxmap {args.model} stage {args.stage} block {args.block}, seed {args.seed}\n"
        f"context {cm.grid.shape[0]}x{cm.grid.shape[1]}, raw range "
        f"[{cm.raw_min:.4f}, {cm.raw_max:.4f}] -> {out}"
    )
    return 0


def cmd_degree(args) -> int:
    print(f"# degree-probe: layers {args.layers}, seed {args.seed}")
    traj = analyzer.degree_trajectory(args.layers, seed=args.seed)
    ok = True
    for l, deg in enumerate(traj):
        match = deg == 2**l
        ok = ok and match
        print(f"layer {l:2d}: degree {deg:>6}  expected {2**l:>6}  {'ok' if match else 'MISMATCH'}")
    if not ok:
        raise NumericalError("measured polynomial degree diverged from 2^l")
    return 0


# ------------------------------------------------------------------ main


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:  # numpy's generators take only non-negative seeds
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {seed}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="effmod",
        description="workbench for efficient modulation blocks: analyze, certify, bench, train",
    )
    sub = p.add_subparsers(dest="command", required=True)
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=_seed, default=0, help="non-negative (default 0)")

    sp = sub.add_parser("presets", help="list shipped model configurations")
    sp.set_defaults(fn=cmd_presets)

    sp = sub.add_parser("analyze", help="per-layer parameter/MAC report", parents=[seeded])
    sp.add_argument("model", help="preset name or .json model spec")
    sp.add_argument("--res", type=int, default=224, help="input resolution (default 224)")
    sp.add_argument("--csv", help="write per-layer rows to this path")
    sp.set_defaults(fn=cmd_analyze)

    sp = sub.add_parser(
        "gradcheck", help="finite-difference certification of block gradients", parents=[seeded]
    )
    sp.add_argument("block", choices=BLOCK_KINDS + ("all",))
    sp.add_argument("--tol", type=float, default=1e-5)
    sp.add_argument("--cases", type=int, default=GC_CASES, help="shape cases per kind")
    sp.set_defaults(fn=cmd_gradcheck)

    sp = sub.add_parser("bench", help="latency experiments")
    experiments = sp.add_subparsers(dest="experiment", required=True)
    fusion = ("fusion", 14, bench.DEFAULT_WARMUP, bench.DEFAULT_ITERS)
    pairs = [(f"pair-{pair}", 224, bench.PAIR_WARMUP, bench.PAIR_ITERS) for pair in M.ISO_PAIRS]
    for name, res, warmup, iters in [fusion, *pairs]:
        ep = experiments.add_parser(name, parents=[seeded])
        ep.add_argument("--threads", type=int, default=None, help="default: usable CPUs")
        ep.add_argument("--iters", type=int, default=iters)
        ep.add_argument("--warmup", type=int, default=warmup)
        if name == "fusion":
            ep.add_argument("--channels", type=int, default=144, help="block width")
            ep.add_argument("--expansion", type=int, default=6, help="value expansion")
        what = "feature size" if name == "fusion" else "input size"
        ep.add_argument("--res", type=int, default=res, help=f"{what} (default {res})")
        ep.add_argument("--csv", help="write results to this path")
        ep.set_defaults(fn=cmd_bench)

    sp = sub.add_parser("train", help="train the micro preset on synthetic bars", parents=[seeded])
    sp.add_argument("--epochs", type=int, default=30)
    sp.add_argument("--lr", type=float, default=3e-3)
    sp.add_argument("--wd", type=float, default=0.05)
    sp.add_argument("--n", type=int, default=512, help="dataset size")
    sp.add_argument("--noise", type=float, default=0.05)
    sp.add_argument("--csv", help="write history to this path")
    sp.set_defaults(fn=cmd_train)

    sp = sub.add_parser(
        "ablate-fusion", help="paired mul-vs-sum fusion training runs", parents=[seeded]
    )
    sp.add_argument("--epochs", type=int, default=30)
    sp.add_argument("--csv", help="write paired history to this path")
    sp.set_defaults(fn=cmd_ablate_fusion)

    sp = sub.add_parser("ctxmap", help="context-branch map of one block as PGM", parents=[seeded])
    sp.add_argument("model", help="preset name or .json model spec")
    sp.add_argument(
        "image", help="P5/P6 image, spatial dims divisible by the model's total stride"
    )
    sp.add_argument("--stage", type=int, default=2)
    sp.add_argument("--block", type=int, default=0)
    sp.add_argument("--out", help="output PGM path")
    sp.set_defaults(fn=cmd_ctxmap)

    sp = sub.add_parser("degree-probe", help="polynomial-degree doubling check", parents=[seeded])
    sp.add_argument("--layers", type=int, default=10)
    sp.set_defaults(fn=cmd_degree)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.fn(args)
    except (ConfigError, PreconditionError) as e:
        print(f"error: config: {e}", file=sys.stderr)
        return 3
    except NumericalError as e:
        print(f"error: numerical: {e}", file=sys.stderr)
        return 4
    except OSError as e:
        print(f"error: io: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
