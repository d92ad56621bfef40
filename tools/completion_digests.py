"""Print one sha256 per seeded imputation case, to show a change is bit-identical.

Run it under the ``src`` of each of two checkouts and compare the output:

    PYTHONPATH=src python tools/completion_digests.py > after.txt
    PYTHONPATH=../parent/src python tools/completion_digests.py > before.txt
    diff before.txt after.txt

Cases: every strategy with both imputers on seeded study data at p = 56
(q = 7 and q = "max") and p = 242 (q = 7); pcr-vbv at p = 56 with q = 5,
whose small eigenvalue gap sends every visit to the exact leading-pair
solve (LAPACK dsyevr, 6 pairs of the 55-column block); the fixed-score strategies
on p = 56 data with auxiliary columns missing too (so the pre-pass has
work in both blocks), on a two-column dataset (a one-column pre-pass
block) and, with pcr-vbv, on p = 56 data with a constant column;
quickpred and pcr-all on p = 56 data with every column shifted by 1e6
(the quickpred screen must centre each correlation in two passes); every
strategy on p = 56 data shifted by 3e7, which runs because the draw
centres its predictors and leaves the intercept unridged (a tree whose
draw ridges the uncentred Gram fails there on a Gram that is not
positive definite, and the case prints that labelled failure message),
and on p = 56 data scaled by 1e-4, where the ridge outweighs the data's
own spread; quickpred (threshold 0) and oracle on p = 56 data whose
complete column x5 is constant on every row, and on p = 56 data whose x5
is constant on x1's observed rows only (it sits out of x1's draw, which
reads those rows; this case differs by design from a tree that decides
a predictor's liveness on all rows, where x5's slope in x1's draw comes
from the ridge alone: there x1's bayesian-normal imputations have an
SD near 300 against an observed SD of 2.5); pmm
where donor ties are heavy (intercept-only quickpred models, so every
prediction ties, and every strategy on columns coded 1..3);
the pre-pass alone (``engine._prepass_complete``, under the label of the
removed ``prepass_single_impute``) with both imputers; two small ``run_study``
grids with the runtime column pinned to zero (the bytes of their
metrics.csv and estimates.csv, and their failure lists), one of them
with method entries that fail in some replications; the output files of
``pcimpute impute`` for every strategy; the bytes of
``pcimpute pool`` output over all four parameter kinds and a repeated
entry, on seeded completions and on identical copies of one completion;
``pcimpute impute`` with pmm and then ``pcimpute pool`` on an input whose
missing cells are the quoted token ``"n,a"`` (every file of the run);
and ``mar_diagnostics`` on seeded conditions (``float.hex`` of each
target's ``auc`` and ``pseudo_r2``).  Apart from the pre-pass, which
has no public entry, only the public API is used, so any checkout that
has ``engine._prepass_complete(spec, data, rng)`` can run it.  Takes
about 4 seconds on 2 vCPUs.

Two more modes measure a numerical change that is not bit-identical.
``--save DIR`` writes each case's arrays (a run's completions, trace
means and component counts; a study's or the CLI's output files only as
their digest) to ``DIR``; ``--gaps DIR`` reruns every case and prints,
per case, the largest absolute gap to the saved arrays and the count of
cells that differ by more than 1e-9 (a digest case prints whether its
digest matches), and exits 1 if any array case has such a cell:

    PYTHONPATH=../parent/src python tools/completion_digests.py --save saved
    PYTHONPATH=src python tools/completion_digests.py --gaps saved

The digests are committed in ``tests/data/completion_digests.txt``,
which ``tests/test_completion_digests.py`` compares with a fresh run.
The first line printed is a stamp of the builds the bits depend on
(Python, numpy, scipy, and the BLAS each links, with the CPU kernels it
chose at load); the test skips where the stamp differs.  Every
``run_impute`` holds one OpenBLAS thread, so the digests do not depend
on the process's thread count: the test runs the script at the
machine's default count.  A change that moves bits on purpose
regenerates the file and names in CHANGES.md the digests that moved:

    PYTHONPATH=src python tools/completion_digests.py > tests/data/completion_digests.txt
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

import pcimpute
from pcimpute import cli, engine
from pcimpute.simulation import write_estimates_csv, write_metrics_csv

IMPUTERS = ("bayesian-normal", "pmm")
TOLERANCE = 1e-9


def study_data(n_rows: int, items_per_factor: int, seed: int) -> pcimpute.IncompleteData:
    cond = pcimpute.SimulationCondition(n_rows=n_rows, items_per_factor=items_per_factor)
    rng = np.random.default_rng(seed)
    values, roles = pcimpute.generate_complete(cond, rng)
    return pcimpute.ampute(values, roles, cond, rng)


def with_auxiliary_gaps(data: pcimpute.IncompleteData, seed: int) -> pcimpute.IncompleteData:
    """``data`` with 10 % of the cells of columns 9-24 deleted at random as well."""
    values = data.values.copy()
    gaps = np.zeros_like(data.mask)
    gaps[:, 8:24] = np.random.default_rng(seed).random((data.n_rows, 16)) < 0.1
    values[gaps] = np.nan
    return pcimpute.IncompleteData(values, data.mask & ~gaps, data.names, data.roles)


def two_columns(seed: int) -> pcimpute.IncompleteData:
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((40, 2))
    values[:, 1] += values[:, 0]
    values[rng.random(40) < 0.3, 0] = np.nan
    values[rng.random(40) < 0.2, 1] = np.nan
    return pcimpute.IncompleteData.from_matrix(values).with_roles(analysis=["x1"])


def integer_codes(seed: int) -> pcimpute.IncompleteData:
    """60 rows of five columns coded 1..3, so many rows share a predicted mean."""
    rng = np.random.default_rng(seed)
    values = rng.integers(1, 4, size=(60, 5)).astype(float)
    values[:, 1] = np.minimum(values[:, 0] + rng.integers(0, 2, 60), 3.0)
    values[rng.random((60, 5)) < 0.2] = np.nan
    values[:, 4] = rng.integers(1, 4, 60)
    return pcimpute.IncompleteData.from_matrix(values).with_roles(analysis=["x1"], mar=["x5"])


def digest(*arrays) -> str:
    sha = hashlib.sha256()
    for array in arrays:
        sha.update(np.ascontiguousarray(array, dtype=float).tobytes())
    return sha.hexdigest()


def file_digest(paths) -> str:
    sha = hashlib.sha256()
    for path in sorted(paths):
        sha.update(path.name.encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()


def run_cases():
    wide = {56: study_data(500, 8, 1), 242: study_data(500, 39, 2)}
    wide["56-aux-gaps"] = with_auxiliary_gaps(wide[56], 4)
    wide["2"] = two_columns(6)
    constant = wide[56].values.copy()
    constant[:, 12] = 3.0
    wide["56-constant"] = pcimpute.IncompleteData(
        constant, wide[56].mask, wide[56].names, wide[56].roles
    )
    # Every column shifted by 1e6: the screen's correlations must centre in two passes.
    wide["56-shifted"] = pcimpute.IncompleteData(
        wide[56].values + 1e6, wide[56].mask, wide[56].names, wide[56].roles
    )
    # Location and scale cases: the centred draw is shift-equivariant; an
    # absolute ridge is not scale-equivariant.
    wide["56-shifted-3e7"] = pcimpute.IncompleteData(
        wide[56].values + 3e7, wide[56].mask, wide[56].names, wide[56].roles
    )
    wide["56-scaled-1e-4"] = pcimpute.IncompleteData(
        wide[56].values * 1e-4, wide[56].mask, wide[56].names, wide[56].roles
    )
    fixed = ("pcr-all", "pcr-aux")
    cases = [(56, 7, pcimpute.STRATEGIES), (56, "max", pcimpute.STRATEGIES)]
    cases += [(242, 7, pcimpute.STRATEGIES), (56, 5, ("pcr-vbv",))]
    cases += [("56-aux-gaps", 7, fixed), ("2", 1, fixed)]
    cases += [("56-constant", 7, ("pcr-vbv", *fixed))]
    cases += [("56-shifted", 7, ("quickpred", "pcr-all"))]
    cases += [(key, 7, pcimpute.STRATEGIES) for key in ("56-shifted-3e7", "56-scaled-1e-4")]
    for p, q, strategies in cases:
        for strategy in strategies:
            for imputer in IMPUTERS:
                spec = pcimpute.ImputationSpec(
                    strategy=strategy,
                    n_components=q,
                    imputer=imputer,
                    chains=3,
                    iterations=5,
                    prepass_iterations=5,
                    seed=11,
                )
                name = f"run_impute p={p} q={q} {strategy} {imputer}"
                try:
                    result = pcimpute.run_impute(spec, wide[p])
                except ValueError as err:
                    # Only a tree with an uncentred draw fails here.
                    if p != "56-shifted-3e7":
                        raise
                    yield name, f"raises {err}"
                    continue
                means = [record.imputed_mean for record in result.trace]
                info = [result.resolved_components or 0, result.pca_count]
                yield name, [
                    *result.completions,
                    np.asarray(means),
                    np.asarray(info),
                ]

    # x5, a complete missingness predictor, constant on every row: it sits
    # out under any liveness rule.  Then x5 at 1.0 on x1's observed rows and
    # N(0, 1) on its missing rows: it sits out of x1's draw only where the
    # rule reads the target's observed rows.  A tree whose rule reads all
    # rows keeps it there and draws its slope from the ridge alone, so that
    # case differs from such a tree by design.
    base = wide[56]
    everywhere = base.values.copy()
    everywhere[:, 4] = 0.1
    on_observed = base.values.copy()
    x1_gap = ~base.mask[:, 0]
    noise = np.random.default_rng(8).standard_normal(x1_gap.size)
    on_observed[:, 4] = np.where(x1_gap, noise, 1.0)
    flat = (("56-x5-constant", everywhere), ("56-x5-flat-on-x1-observed", on_observed))
    for label, values in flat:
        data = pcimpute.IncompleteData(values, base.mask, base.names, base.roles)
        for strategy, options in (("quickpred", {"corr_threshold": 0.0}), ("oracle", {})):
            for imputer in IMPUTERS:
                spec = pcimpute.ImputationSpec(
                    strategy=strategy, imputer=imputer, chains=3, iterations=5, seed=11, **options
                )
                result = pcimpute.run_impute(spec, data)
                means = [record.imputed_mean for record in result.trace]
                name = f"run_impute p={label} {strategy} {imputer}"
                yield name, [*result.completions, np.asarray(means)]

    # pmm under heavy ties: intercept-only quickpred models give every row the same
    # predicted mean, and integer-coded columns give few distinct ones.
    tied = [("p=56 corr_threshold=1.0", wide[56], ("quickpred",), {"corr_threshold": 1.0})]
    tied.append(("codes 1..3", integer_codes(7), pcimpute.STRATEGIES, {"n_components": 1}))
    for label, data, strategies, options in tied:
        for strategy in strategies:
            spec = pcimpute.ImputationSpec(
                strategy=strategy,
                imputer="pmm",
                chains=3,
                iterations=5,
                prepass_iterations=5,
                seed=11,
                **options,
            )
            result = pcimpute.run_impute(spec, data)
            yield f"run_impute {label} {strategy} pmm", result.completions

    # The pre-pass alone: its single quickpred chain at threshold 0.3, 5 sweeps.
    for imputer in IMPUTERS:
        spec = pcimpute.ImputationSpec(strategy="quickpred", imputer=imputer, prepass_iterations=5)
        completed = engine._prepass_complete(spec, wide[56], np.random.default_rng(3))
        yield f"prepass_single_impute {imputer}", [completed]

    conditions = [
        pcimpute.SimulationCondition(n_rows=120),
        pcimpute.SimulationCondition(n_rows=120, noise_fraction=1.0, categories=2),
    ]
    methods = [
        pcimpute.MethodSetting("pcr-vbv", 3),
        pcimpute.MethodSetting("pcr-all", "max"),
        pcimpute.MethodSetting("pcr-aux", 3),
        pcimpute.MethodSetting("quickpred"),
        pcimpute.MethodSetting("oracle"),
    ]
    settings = pcimpute.StudySettings(chains=2, iterations=3, prepass_iterations=3)
    study = pcimpute.run_study(
        conditions, methods, reps=2, seed=5, settings=settings, deterministic_timer=True
    )
    # Both pcr-aux entries fail in 1 of 6 reps of the first cell and 2 of 6
    # of the second, so the metrics come from uneven per-entry rep counts.
    tiny = pcimpute.SimulationCondition(n_rows=16, factors=3, items_per_factor=2)
    partial = pcimpute.run_study(
        [tiny, dataclasses.replace(tiny, categories=2)],
        [pcimpute.MethodSetting("oracle"), *[pcimpute.MethodSetting("pcr-aux", 5)] * 2],
        reps=6,
        seed=19,
        settings=pcimpute.StudySettings(chains=2, iterations=2, prepass_iterations=2),
        deterministic_timer=True,
    )
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for label, result in (("run_study", study), ("run_study partial failures", partial)):
            write_metrics_csv(out / "metrics.csv", result.metrics)
            write_estimates_csv(out / "estimates.csv", result.estimates)
            yield f"{label} metrics.csv", file_digest([out / "metrics.csv"])
            yield f"{label} estimates.csv", file_digest([out / "estimates.csv"])
            failures = "\n".join(result.failures).encode()
            yield f"{label} failures", hashlib.sha256(failures).hexdigest()

        source = out / "input.csv"
        data = wide[56]
        pcimpute.write_csv(source, data.values, data.names)
        for strategy in pcimpute.STRATEGIES:
            run_dir = out / strategy
            argv = ["impute", "--input", str(source), "--method", strategy, "--npc", "7"]
            argv += ["--m", "2", "--maxit", "3", "--seed", "9", "--out-dir", str(run_dir)]
            argv += ["--out-prefix", "run", "--targets", "x1,x2,x3,x4"]
            argv += ["--mar-cols", "x5,x6,x7,x8"]
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            yield f"pcimpute impute {strategy}", f"exit {code} " + file_digest(run_dir.iterdir())

        completed = pcimpute.run_impute(
            pcimpute.ImputationSpec(strategy="quickpred", chains=3, iterations=3, seed=13),
            wide[56],
        ).completions
        params = "mean:x1,var:x2,cov:x1:x3,corr:x2:x4,corr:x2:x4,mean:x1"
        for label, matrices in (("completions", completed), ("copies", [completed[0]] * 3)):
            inputs = []
            for index, matrix in enumerate(matrices):
                inputs.append(str(out / f"{label}_{index}.csv"))
                pcimpute.write_csv(inputs[-1], matrix, data.names)
            argv = ["pool", "--inputs", *inputs, "--params", params]
            argv += ["--out-dir", str(out / label), "--out", "pooled.csv"]
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            yield f"pcimpute pool {label}", f"exit {code} " + file_digest(
                [out / label / "pooled.csv"]
            )

        # A missing-cell token that csv quotes: the input's gaps are written as
        # "n,a", each completion fills them, and pool reads the completions back.
        quoted = out / "quoted"
        quoted.mkdir()
        pcimpute.write_csv(quoted / "input.csv", data.values, data.names, na_token="n,a")
        argv = ["impute", "--input", str(quoted / "input.csv"), "--method", "pcr-all"]
        argv += ["--npc", "7", "--imputer", "pmm", "--na-token", "n,a", "--m", "3"]
        argv += ["--maxit", "3", "--seed", "9", "--out-dir", str(quoted), "--out-prefix", "run"]
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(argv)]
            argv = ["pool", "--inputs", *(str(quoted / f"run_{k}.csv") for k in (1, 2, 3))]
            argv += ["--params", params, "--na-token", "n,a", "--out-dir", str(quoted)]
            codes.append(cli.main(argv))
        yield "pcimpute impute and pool --na-token 'n,a'", "exit {} {} ".format(
            *codes
        ) + file_digest(quoted.iterdir())

    for seed, categories in enumerate((None, None, 2, 2, 5, 5)):
        cond = pcimpute.SimulationCondition(n_rows=300, categories=categories)
        rng = np.random.default_rng(20 + seed)
        values, roles = pcimpute.generate_complete(cond, rng)
        coarse = pcimpute.coarsen(values, roles, categories)
        mar_ids = [j for j, role in enumerate(roles) if role == pcimpute.ROLE_MAR]
        amputed = pcimpute.ampute(coarse, roles, cond, rng, values[:, mar_ids])
        reports = pcimpute.mar_diagnostics(amputed, coarse[:, mar_ids])
        yield f"mar_diagnostics seed={20 + seed} categories={categories}", " ".join(
            f"{report['auc'].hex()}/{report['pseudo_r2'].hex()}" for report in reports
        )


def environment_stamp() -> str:
    """One comment line naming the builds and BLAS kernels the digests depend on."""
    blas = []
    for module in (np, scipy):
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas.append(f"{info['name']} {info['version']}")
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = sorted({line.split()[-1] for line in handle if "openblas" in line.lower()})
    except OSError:
        paths = []
    cores = []
    for library in map(ctypes.CDLL, paths):
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename"):
            corename = getattr(library, name, None)
            if corename is not None:
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                cores.append(corename().decode())
                break
    return (
        f"# python {platform.python_version()}, numpy {np.__version__}, "
        f"scipy {scipy.__version__}, blas {' + '.join(blas)}, "
        f"kernels {' + '.join(cores) or 'unknown'} ({platform.machine()})"
    )


def gap_report(name: str, saved, value) -> tuple[str, bool]:
    """One case's line of the gap mode, and whether the case is beyond tolerance."""
    if isinstance(saved, str) or isinstance(value, str):
        same = saved == (value if isinstance(value, str) else digest(*value))
        return f"{name}: digest {'identical' if same else 'differs'}", False
    shapes = [array.shape for array in saved]
    if shapes != [np.shape(array) for array in value]:
        return f"{name}: shapes differ, saved {shapes}", True
    gaps = np.concatenate(
        [np.abs(np.asarray(new, dtype=float) - old).ravel() for old, new in zip(saved, value)]
    )
    largest = float(gaps.max(initial=0.0))
    beyond = int((gaps > TOLERANCE).sum())
    line = f"{name}: largest gap {largest:.3g}, {beyond} of {gaps.size} cells > {TOLERANCE:g}"
    return line, beyond > 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--save", metavar="DIR", type=Path, help="save each case's arrays to DIR")
    mode.add_argument("--gaps", metavar="DIR", type=Path, help="report gaps to the arrays in DIR")
    args = parser.parse_args()
    if args.save is not None:
        args.save.mkdir(parents=True, exist_ok=True)
        index = {}
        for number, (name, value) in enumerate(run_cases()):
            if isinstance(value, str):
                index[name] = {"digest": value}
            else:
                index[name] = {"arrays": f"{number:03d}.npz"}
                arrays = [np.asarray(array, dtype=float) for array in value]
                np.savez(args.save / index[name]["arrays"], *arrays)
        (args.save / "index.json").write_text(json.dumps(index, indent=1) + "\n")
        return 0
    if args.gaps is not None:
        index = json.loads((args.gaps / "index.json").read_text())
        failed = 0
        for name, value in run_cases():
            if name not in index:
                print(f"{name}: not in the saved set", flush=True)
                continue
            saved = index[name].get("digest")
            if saved is None:
                with np.load(args.gaps / index[name]["arrays"]) as arrays:
                    saved = [arrays[key] for key in arrays.files]
            line, beyond = gap_report(name, saved, value)
            failed += beyond
            print(line, flush=True)
        print(f"{failed} case(s) with a cell beyond {TOLERANCE:g}", flush=True)
        return 1 if failed else 0
    print(environment_stamp(), flush=True)
    for name, value in run_cases():
        print(f"{name}: {value if isinstance(value, str) else digest(*value)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
