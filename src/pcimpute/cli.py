"""Command-line interface: simulate, impute, pool, enumerate.

Exit codes: 0 on success (including simulations with recorded
per-replication failures), 1 on usage or configuration errors, 2 on
runtime failures such as unreadable inputs or a failed imputation.
"""

from __future__ import annotations

import os

# ``run_impute`` holds OpenBLAS at one thread, but a worker that OpenBLAS
# started at load still spins.  OpenBLAS reads this variable once, as numpy or
# scipy loads it, so it is set before any import below; a count the caller
# exported stands.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse  # noqa: E402
import csv  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import sys  # noqa: E402
from dataclasses import fields  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import TYPE_CHECKING  # noqa: E402

import numpy as np  # noqa: E402

from .data import (  # noqa: E402
    DEFAULT_NA_TOKEN,
    _csv_template,
    complete_case_rows,
    load_csv,
    write_csv,
)
from .engine import (  # noqa: E402
    MAX_COMPONENTS,
    PCR_STRATEGIES,
    STRATEGIES,
    STRATEGY_AUX,
    STRATEGY_ORACLE,
    ImputationSpec,
    run_impute,
)
from .imputers import DEFAULT_DONORS, IMPUTER_BAYES, IMPUTER_KINDS, IMPUTER_PMM  # noqa: E402
from .pca import (  # noqa: E402
    ENUMERATION_METHODS,
    EnumerationRule,
    correlation_eigenvalues,
    count_components,
)

# ``pcimpute.simulation`` (its process pool) and ``pcimpute.pooling`` load only
# in the functions of the ``simulate`` and ``pool`` commands, which alone use
# them; these names annotate them.
if TYPE_CHECKING:
    from .pooling import ParameterId
    from .simulation import MethodSetting, SimulationCondition

logger = logging.getLogger(__name__)


class UsageError(Exception):
    """Bad flags or configuration; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise UsageError(f"{self.prog}: {message}")


def _flag(*names, **options) -> argparse.ArgumentParser:
    """A parent parser holding one flag, attached to the commands that read it."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*names, **options)
    return parent


def _seed(raw: str) -> int:
    """``--seed``: numpy seeds its generators from non-negative integers only."""
    if not raw.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {raw!r}")
    return int(raw)


def _positive(raw: str) -> int:
    """A count flag (``--m``, ``--maxit``, ``--donors``, ``--workers``, ``--replicates``)."""
    if not raw.isdecimal() or int(raw) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {raw!r}")
    return int(raw)


def _components(raw: str) -> int | str:
    """``--npc``: a positive component count or ``max``."""
    if raw == MAX_COMPONENTS:
        return raw
    if not raw.isdecimal() or int(raw) < 1:
        message = f"must be a positive integer or {MAX_COMPONENTS!r}, got {raw!r}"
        raise argparse.ArgumentTypeError(message)
    return int(raw)


def _build_parser() -> _Parser:
    seed = _flag("--seed", type=_seed, default=None, help="root random seed")
    na_token = _flag(
        "--na-token", default=DEFAULT_NA_TOKEN, help="missing-value token in CSV files"
    )
    workers = _flag("--workers", type=_positive, default=None, help="parallel worker count")
    out_dir = _flag("--out-dir", default=None, help="directory for output files")

    parser = _Parser(prog="pcimpute", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser(
        "simulate",
        parents=[seed, workers, out_dir],
        help="run a Monte Carlo study from a config file",
    )
    sim.add_argument("--config", required=True, help="JSON study configuration")
    sim.set_defaults(func=cmd_simulate)

    imp = sub.add_parser(
        "impute", parents=[seed, na_token, out_dir], help="multiply impute an incomplete CSV"
    )
    imp.add_argument("--input", required=True, help="incomplete CSV file")
    imp.add_argument("--method", required=True, choices=STRATEGIES)
    imp.add_argument(
        "--npc",
        type=_components,
        default=MAX_COMPONENTS,
        help="retained component count for pcr methods (integer or 'max')",
    )
    imp.add_argument(
        "--m", type=_positive, default=ImputationSpec.chains, help="number of completed datasets"
    )
    imp.add_argument(
        "--maxit", type=_positive, default=ImputationSpec.iterations, help="sweeps per chain"
    )
    imp.add_argument(
        "--targets",
        "--analysis-cols",
        dest="analysis_cols",
        default=None,
        help="comma-separated analysis-model columns (required by pcr-aux)",
    )
    imp.add_argument(
        "--mar-cols",
        default=None,
        help="comma-separated missingness-predictor columns (required by oracle)",
    )
    imp.add_argument(
        "--imputer",
        choices=IMPUTER_KINDS,
        default=IMPUTER_PMM,
        help="univariate draw (default pmm for file workflows)",
    )
    imp.add_argument(
        "--donors", type=_positive, default=DEFAULT_DONORS, help="pmm donor-pool size"
    )
    imp.add_argument("--out-prefix", required=True, help="prefix for output CSV files")
    imp.set_defaults(func=cmd_impute)

    pool = sub.add_parser(
        "pool", parents=[na_token, out_dir], help="pool moments across completed CSV files"
    )
    pool.add_argument("--inputs", nargs="+", required=True, help="completed CSV files")
    pool.add_argument(
        "--params",
        required=True,
        help="comma-separated parameters, e.g. 'mean:x1,var:x2,corr:x1:x2'",
    )
    pool.add_argument("--out", default="pooled.csv", help="output CSV path")
    pool.set_defaults(func=cmd_pool)

    enum = sub.add_parser(
        "enumerate", parents=[seed, na_token], help="apply a component-count rule to a CSV"
    )
    enum.add_argument("--input", required=True, help="CSV file")
    enum.add_argument("--rule", required=True, choices=sorted(ENUMERATION_METHODS.values()))
    enum.add_argument(
        "--replicates",
        type=_positive,
        default=EnumerationRule.replicates,
        help="parallel-analysis draws",
    )
    enum.add_argument(
        "--quantile",
        type=float,
        default=EnumerationRule.quantile,
        help="parallel-analysis threshold quantile",
    )
    enum.add_argument(
        "--complete-cases",
        action="store_true",
        help="drop rows with missing values instead of refusing them",
    )
    enum.set_defaults(func=cmd_enumerate)
    return parser


def _split_names(raw: str | None) -> list[str]:
    if raw is None:
        return []
    names = [part.strip() for part in raw.split(",") if part.strip()]
    if not names:
        raise UsageError("empty column list")
    return names


def _check_keys(section: dict, allowed, where: str) -> None:
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise UsageError(f"unknown key(s) in {where}: {', '.join(unknown)}")


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            config = json.load(handle)
    except FileNotFoundError:
        raise UsageError(f"config file not found: {path}") from None
    except json.JSONDecodeError as err:
        raise UsageError(f"config file {path} is not valid JSON: {err}") from None
    if not isinstance(config, dict):
        raise UsageError("config must be a JSON object")
    _check_keys(config, ("grid", "methods", "run", "settings"), "config")
    for key in ("grid", "methods", "run"):
        if key not in config:
            raise UsageError(f"config is missing the {key!r} section")
    for key in ("grid", "run", "settings"):
        if not isinstance(config.get(key, {}), dict):
            raise UsageError(f"config section {key!r} must be an object")
    return config


def _conditions_from_grid(grid: dict) -> list[SimulationCondition]:
    from .simulation import SimulationCondition

    allowed = [f.name for f in fields(SimulationCondition)]
    _check_keys(grid, allowed, "grid")
    axes = []
    scalars = {}
    for key, value in grid.items():
        if isinstance(value, list):
            axes.append((key, value))
        else:
            scalars[key] = value
    cells = []
    for combo in itertools.product(*(values for _, values in axes)):
        overrides = dict(scalars)
        overrides.update({key: value for (key, _), value in zip(axes, combo)})
        try:
            cells.append(SimulationCondition(**overrides))
        except (TypeError, ValueError) as err:
            raise UsageError(f"bad grid cell {overrides}: {err}") from None
    return cells


def _methods_from_config(raw) -> list[MethodSetting]:
    from .simulation import MethodSetting

    if not isinstance(raw, list) or not raw:
        raise UsageError("config section 'methods' must be a non-empty list")
    methods = []
    for entry in raw:
        if not isinstance(entry, dict):
            raise UsageError("each method must be an object")
        _check_keys(entry, ("strategy", "n_components"), "methods entry")
        if "strategy" not in entry:
            raise UsageError("each method needs a 'strategy'")
        try:
            methods.append(
                MethodSetting(
                    strategy=entry["strategy"],
                    n_components=entry.get("n_components"),
                )
            )
        except ValueError as err:
            raise UsageError(f"bad methods entry {entry}: {err}") from None
    return methods


def cmd_simulate(args) -> int:
    from .simulation import (
        StudySettings,
        check_run,
        run_study,
        write_estimates_csv,
        write_metrics_csv,
    )

    config = _load_config(args.config)
    conditions = _conditions_from_grid(config["grid"])
    if not conditions:
        raise UsageError("the grid defines no cells")
    methods = _methods_from_config(config["methods"])
    run_section = config["run"]
    _check_keys(run_section, ("reps", "seed", "workers", "out_dir"), "run")
    if "reps" not in run_section:
        raise UsageError("config run section needs 'reps'")
    seed = args.seed if args.seed is not None else run_section.get("seed", 0)
    workers = args.workers if args.workers is not None else run_section.get("workers", 1)
    reps = run_section["reps"]
    try:
        check_run(reps, workers, seed)
    except ValueError as err:
        raise UsageError(f"bad run section: {err}") from None
    settings_section = config.get("settings", {})
    allowed = [f.name for f in fields(StudySettings)]
    _check_keys(settings_section, allowed, "settings")
    try:
        settings = StudySettings(**settings_section)
    except (TypeError, ValueError) as err:
        raise UsageError(f"bad settings: {err}") from None
    out_dir = Path(args.out_dir if args.out_dir is not None else run_section.get("out_dir", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    result = run_study(
        conditions, methods, reps=reps, seed=seed, workers=workers, settings=settings
    )
    write_metrics_csv(out_dir / "metrics.csv", result.metrics)
    write_estimates_csv(out_dir / "estimates.csv", result.estimates)
    for failure in result.failures:
        print(f"failure: {failure}", file=sys.stderr)
    print(
        f"wrote {out_dir / 'metrics.csv'} and {out_dir / 'estimates.csv'} "
        f"({len(result.failures)} failed replication-method pairs)"
    )
    return 0


def _output_path(out_dir: str | None, name: str, flag: str) -> Path:
    """``name`` under ``--out-dir``, its parent directory made before any work is done."""
    path = Path(out_dir or ".") / name
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise ValueError(f"{flag} {name}: its directory {path.parent} is not a directory") from None
    return path


def cmd_impute(args) -> int:
    analysis = _split_names(args.analysis_cols)
    mar = _split_names(args.mar_cols)
    if args.method == STRATEGY_AUX and not analysis:
        raise UsageError("pcr-aux requires --analysis-cols (or --targets)")
    if args.method == STRATEGY_ORACLE and not mar:
        raise UsageError("oracle requires --mar-cols")
    spec = ImputationSpec(
        strategy=args.method,
        n_components=args.npc,
        imputer=args.imputer,
        chains=args.m,
        iterations=args.maxit,
        donors=args.donors,
        seed=args.seed if args.seed is not None else 0,
    )
    prefix = _output_path(args.out_dir, args.out_prefix, "--out-prefix")
    data = load_csv(args.input, na_token=args.na_token)
    try:
        data = data.with_roles(analysis=analysis, mar=mar)
    except ValueError as err:
        raise UsageError(str(err)) from None
    result = run_impute(spec, data)
    # The completions share every observed cell: format those once.
    template = _csv_template(data.values)
    for index, completion in enumerate(result.completions, start=1):
        write_csv(
            f"{prefix}_{index}.csv", completion, data.names, args.na_token, template=template
        )
    trace_path = f"{prefix}_trace.csv"
    with open(trace_path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["chain", "iteration", "column", "mean", "sd"])
        for record in result.trace:
            sd = repr(record.imputed_sd) if np.isfinite(record.imputed_sd) else args.na_token
            writer.writerow(
                [record.chain, record.iteration, record.column_name, repr(record.imputed_mean), sd]
            )
    if spec.strategy in PCR_STRATEGIES:
        print(f"resolved n_components = {result.resolved_components}")
    print(f"wrote {len(result.completions)} completions and {trace_path}")
    return 0


def _parse_params(raw: str, names: list[str]) -> list[tuple[str, ParameterId]]:
    from .pooling import PARAMETER_KINDS, ParameterId

    index = {name: j for j, name in enumerate(names)}
    kinds = {short: kind for kind, (short, _) in PARAMETER_KINDS.items()}
    out = []
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        parts = item.split(":")
        kind = kinds.get(parts[0])
        if kind is None:
            raise UsageError(f"unknown parameter kind {parts[0]!r} in {item!r}")
        columns = []
        for name in parts[1:]:
            if name not in index:
                raise UsageError(f"{item!r}: no column named {name!r}")
            columns.append(index[name])
        try:
            out.append((item, ParameterId(kind, tuple(columns))))
        except ValueError as err:
            raise UsageError(f"{item!r}: {err}") from None
    if not out:
        raise UsageError("--params lists no parameters")
    return out


def cmd_pool(args) -> int:
    from .pooling import analyze_set

    if len(args.inputs) < 2:
        raise UsageError("pooling needs at least two completed files")
    out_path = _output_path(args.out_dir, args.out, "--out")
    datasets = [load_csv(path, na_token=args.na_token) for path in args.inputs]
    names = datasets[0].names
    shape = datasets[0].values.shape
    for path, dataset in zip(args.inputs, datasets):
        if dataset.names != names:
            raise ValueError(f"{path}: header differs from {args.inputs[0]}")
        if dataset.values.shape != shape:
            raise ValueError(f"{path}: shape differs from {args.inputs[0]}")
        if not dataset.mask.all():
            raise ValueError(f"{path}: completed files may not contain missing cells")
    params = _parse_params(args.params, names)
    pooled = analyze_set([dataset.values for dataset in datasets], [pid for _, pid in params])
    with open(out_path, "w", encoding="utf-8", newline="") as handle:
        handle.write(
            "parameter,estimate,within_var,between_var,total_var,df,ci_lower,ci_upper\n"
        )
        for label, pid in params:
            row = pooled[pid]
            handle.write(
                f"{label},{row.estimate!r},{row.within_var!r},"
                f"{row.between_var!r},{row.total_var!r},{row.df!r},"
                f"{row.ci_lower!r},{row.ci_upper!r}\n"
            )
    print(f"wrote {out_path}")
    return 0


def cmd_enumerate(args) -> int:
    methods = {tag: method for method, tag in ENUMERATION_METHODS.items()}
    try:
        rule = EnumerationRule(
            method=methods[args.rule],
            replicates=args.replicates,
            quantile=args.quantile,
        )
    except ValueError as err:
        raise UsageError(str(err)) from None
    data = load_csv(args.input, na_token=args.na_token)
    values = data.values
    if not data.mask.all():
        if not args.complete_cases:
            raise ValueError(
                f"{args.input} has missing values; rerun with --complete-cases "
                "to enumerate on the fully observed rows"
            )
        rows = complete_case_rows(data)
        if rows.size < 3:
            raise ValueError(f"{args.input}: fewer than three complete cases")
        values = values[rows]
    rng = np.random.default_rng(args.seed if args.seed is not None else 0)
    try:
        spectrum = correlation_eigenvalues(values)
        retained = count_components(spectrum, values.shape[0], rule, rng)
    except ValueError as err:
        raise ValueError(f"{args.input}: rule {args.rule}: {err}") from None
    print(f"rule: {rule.method}")
    print(f"rows used: {values.shape[0]}")
    print(f"retained components: {retained}")
    print("component,eigenvalue")
    for position, value in enumerate(spectrum, start=1):
        print(f"{position},{float(value)!r}")
    return 0


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except Exception as err:  # noqa: BLE001 - boundary: map failures to exit 2
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
