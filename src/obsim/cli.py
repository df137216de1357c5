"""Command-line front end: run named scenarios, emit CSV or JSON reports.

Exit codes: 0 success, 1 stdout closed early by its reader, 2 configuration
error or a failed write, 3 statistical acceptance failure under --check.
Flags override values from an optional flat key = value config file. All
angles are radians.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence, TextIO

from . import __version__, checks
from .exemplars import break_trajectory
from .machines import machine_sweep
from .product import wood_product_sweep
from .taxonomy import default_suite, taxonomy_table

SCENARIOS = ("quantum-machine", "epsilon-sweep", "wood-product", "elastic", "classify", "all")

QM_HEADER = ("gamma_rad", "epsilon", "analytic_p", "empirical_p", "yes", "trials",
             "wilson_lo", "wilson_hi", "seed")
TAXONOMY_HEADER = ("property", "effect", "predictability", "persistence", "witness_state")
WOOD_HEADER = ("product", "trials", "yes", "empirical_p", "analytic_p",
               "wilson_lo", "wilson_hi", "meet_actual", "seed")
ELASTIC_HEADER = ("step", "n_fragments", "total_length", "max_fragment",
                  "subhalf_fragments", "fragmentation_p", "seed")

_DEFAULT_TRIALS = {
    "quantum-machine": 100_000,
    "epsilon-sweep": 10_000,
    "wood-product": 10_000,
    "elastic": 10_000,
    "classify": 1,
    "all": 10_000,
}
_DEFAULT_GRID = {"quantum-machine": 13, "epsilon-sweep": 25}
# upper bounds, checked before any trial runs: a trial count bounds run time,
# except for elastic, whose walk keeps a heap entry and split log per break
_MAX_TRIALS = {**dict.fromkeys(SCENARIOS, 10_000_000), "elastic": 200_000}
_MAX_GAMMA_GRID = 10_000
_MAX_EPSILONS = 16
_DEFAULT_EPSILONS = (0.25, 0.5, 0.75, 1.0)
_CONFIG_KEYS = ("trials", "seed", "gamma_grid", "epsilon", "out", "format", "workers")

_CHECKS_BY_SCENARIO = {
    "quantum-machine": (checks.check_uniform_curve,),
    "epsilon-sweep": (checks.check_segment_regime_map,),
    "wood-product": (checks.check_product_choice_theorem, checks.check_compaction_creation),
    "elastic": (checks.check_elastic_suite,),
    "classify": (checks.check_taxonomy_fixture,),
    "all": checks.ALL_CHECKS,
}


class ConfigError(Exception):
    pass


def _fmt_cell(value):
    # csv.writer prints None as an empty cell and str() of anything else
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".9g")
    return value


def emit_csv(out: Optional[Path], header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Fixed-schema CSV: header then rows, 9 significant digits, UTF-8, LF."""
    def write(fh: TextIO) -> None:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt_cell(v) for v in row] for row in rows)

    _write_to(out, write)


# one row object per call, through json's C encoder (``indent`` would force the
# pure-Python one); the item separator writes the newline and indent of ``indent=2``
_ROW_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",\n      ", ": ")).encode


def emit_json(out: Optional[Path], meta: dict, header: Sequence[str],
              rows: Iterable[Sequence]) -> None:
    """JSON mirror of the CSV schema: row objects under "rows" plus "meta".
    Values keep their JSON types; floats are rounded like the CSV. Written a
    row at a time, as the bytes of ``json.dumps(report, indent=2, sort_keys=True)``."""
    def write(fh: TextIO) -> None:
        meta_text = json.dumps(meta, indent=2, sort_keys=True).replace("\n", "\n  ")
        fh.write(f'{{\n  "meta": {meta_text},\n  "rows": [')
        sep = ""
        for row in rows:
            text = _ROW_ENCODE({key: float(format(value, ".9g")) if isinstance(value, float)
                                else value for key, value in zip(header, row)})
            fh.write(f"{sep}\n    {{\n      {text[1:-1]}\n    }}")
            sep = ","
        fh.write("\n  ]\n}\n" if sep else "]\n}\n")

    _write_to(out, write)


def _write_to(out: Optional[Path], write: Callable[[TextIO], None]) -> None:
    """Run ``write`` on stdout, or on ``out`` such that a failed write leaves
    no half-written file: a new or regular file is written to a temp file
    and renamed into place; a device, FIFO or symlink is written through."""
    if out is None:
        try:
            write(sys.stdout)
            sys.stdout.flush()
        except OSError as err:
            # point stdout at devnull, so the interpreter's last flush of what
            # is still buffered cannot fail again (the Python docs' SIGPIPE note)
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            if isinstance(err, BrokenPipeError):
                sys.exit(1)
            raise ConfigError(f"cannot write stdout: {err}") from err
        return
    atomic = not out.is_symlink() and (out.is_file() or not out.exists())
    tmp = out.with_name(f".{out.name}.{os.getpid()}.tmp") if atomic else out
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            write(fh)
        if atomic:
            os.replace(tmp, out)
    except BaseException as err:  # a KeyboardInterrupt mid-write leaves no temp file either
        if atomic:  # never unlink the target itself
            tmp.unlink(missing_ok=True)
        if isinstance(err, OSError):
            raise ConfigError(f"cannot write --out {out}: {err}") from err
        raise


def parse_config_file(path: Path) -> dict:
    """Flat ``key = value`` lines; # starts a comment; keys match long flags."""
    values: dict = {}
    try:
        text = path.read_text(encoding="utf-8-sig")  # a leading byte-order mark is dropped
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read --config {path}: {err}") from err
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            if not value.replace(",", " ").split():
                raise ValueError("empty value")  # not a silent default or an empty grid
            if key in ("trials", "seed", "gamma_grid", "workers"):
                values[key] = int(value)
            elif key == "epsilon":
                values[key] = [float(tok) for tok in value.replace(",", " ").split()]
            else:
                values[key] = value
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r}") from None
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="obsim",
        description="simulate observation scenarios and verify their statistics",
    )
    parser.add_argument("--version", action="version", version=f"obsim {__version__}")
    sub = parser.add_subparsers(dest="scenario", required=True, metavar="|".join(SCENARIOS))
    for name in SCENARIOS:
        sp = sub.add_parser(name)
        trials_help = (
            f"breaks of the band, at most {_MAX_TRIALS[name]}; rows are written as the "
            "walk goes, but its heap and split log grow with every break (peak RSS at "
            "the bound, x86-64 Python 3.11: 79 MB as CSV or JSON)"
            if name == "elastic" else f"trials per grid point, at most {_MAX_TRIALS[name]}")
        sp.add_argument("--trials", type=int, default=None, help=trials_help)
        sp.add_argument("--seed", type=int, default=None, help="64-bit unsigned master seed")
        sp.add_argument("--gamma-grid", type=int, default=None,
                        help="count of equispaced angles on [0, pi] inclusive, "
                        f"at most {_MAX_GAMMA_GRID}")
        sp.add_argument("--epsilon", type=float, action="append", default=None,
                        help=f"segment width in [0, 1]; repeatable, at most {_MAX_EPSILONS} "
                        "times, as the sweep keeps a report per (width, angle) pair in memory")
        sp.add_argument("--out", type=str, default=None, help="output path (stdout if omitted)")
        sp.add_argument("--format", choices=("csv", "json"), default=None)
        sp.add_argument("--check", action="store_true",
                        help="assert the acceptance criteria for this scenario (exit 3 on failure)")
        sp.add_argument("--workers", type=int, default=None,
                        help="accepted for compatibility; trials always run in one thread")
        sp.add_argument("--config", type=str, default=None, help="flat key = value config file")
    return parser


def _merge_config(args: argparse.Namespace) -> dict:
    scenario = args.scenario
    cfg = {
        "trials": _DEFAULT_TRIALS[scenario],
        "seed": 0,
        "gamma_grid": _DEFAULT_GRID.get(scenario, 13),
        "epsilon": None,
        "out": None,
        "format": None,
        "workers": 1,
    }
    if args.config is not None:
        cfg.update(parse_config_file(Path(args.config)))
    for key in _CONFIG_KEYS:
        flag_value = getattr(args, key)
        if flag_value is not None:
            cfg[key] = flag_value

    if not 1 <= cfg["trials"] <= _MAX_TRIALS[scenario]:
        raise ConfigError(f"--trials must be in [1, {_MAX_TRIALS[scenario]}] for {scenario}, "
                          f"got {cfg['trials']}")
    if not 0 <= cfg["seed"] < 2**64:
        raise ConfigError(f"--seed must be a 64-bit unsigned integer, got {cfg['seed']}")
    if not 2 <= cfg["gamma_grid"] <= _MAX_GAMMA_GRID:
        raise ConfigError(f"--gamma-grid must be in [2, {_MAX_GAMMA_GRID}], "
                          f"got {cfg['gamma_grid']}")
    if cfg["epsilon"] is not None:
        if len(cfg["epsilon"]) > _MAX_EPSILONS:
            raise ConfigError(f"--epsilon takes at most {_MAX_EPSILONS} widths, "
                              f"got {len(cfg['epsilon'])}")
        for eps in cfg["epsilon"]:
            if not 0.0 <= eps <= 1.0:
                raise ConfigError(f"--epsilon must be in [0, 1], got {eps}")
        cfg["epsilon"] = [eps + 0.0 for eps in cfg["epsilon"]]  # -0.0 becomes 0.0
        if len(cfg["epsilon"]) > 1 and scenario in ("quantum-machine", "all"):
            raise ConfigError(f"{scenario} takes at most one --epsilon; "
                              "use epsilon-sweep for several")
    if cfg["workers"] < 1:
        raise ConfigError(f"--workers must be >= 1, got {cfg['workers']}")
    out = cfg["out"]
    if cfg["format"] is None:
        cfg["format"] = "json" if out and str(out).endswith(".json") else "csv"
    elif cfg["format"] not in ("csv", "json"):
        raise ConfigError(f"--format must be csv or json, got {cfg['format']}")
    # --out is checked before any trial runs: 'all' writes one file per scenario
    # into a directory, created here, and every other scenario writes one file
    if out == "":  # Path("") would be the working directory
        raise ConfigError("--out must not be empty")
    if out is not None:
        cfg["out"] = out = Path(out)
    if scenario == "all":
        if out is None:
            raise ConfigError("scenario 'all' needs --out pointing at a directory")
        for name in _SCENARIO_RUNNERS:
            if _bundle_file(cfg, name).is_dir():
                raise ConfigError(f"--out {out}: {_bundle_file(cfg, name)} is a directory")
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as err:
            raise ConfigError(f"cannot create --out directory {out}: {err}") from err
    elif out is not None and (out.is_dir() or not out.parent.is_dir()):
        raise ConfigError(f"--out {out} must name a file in an existing directory")
    cfg["scenario"] = scenario
    cfg["check"] = args.check
    return cfg


def _bundle_file(cfg: dict, name: str) -> Path:
    """Where scenario ``name`` writes inside the 'all' directory."""
    return cfg["out"] / f"{name.replace('-', '_')}.{cfg['format']}"


def _machine_rows(cfg: dict, widths: Optional[Sequence[float]]) -> Iterator[tuple]:
    """Shared by the quantum-machine and epsilon-sweep scenarios; a width of
    None means the uniform band (reported as epsilon 1, its exact equivalent).
    The sweep runs here; its rows are made as the emitter reads them."""
    n = cfg["gamma_grid"]
    step = math.pi / (n - 1)
    gammas = [k * step for k in range(n - 1)] + [math.pi]
    grid = machine_sweep(widths if widths is not None else [None], gammas,
                         cfg["trials"], cfg["seed"])
    return (
        (gamma, 1.0 if width is None else width, report.analytic, report.p_hat, report.yes,
         report.trials, report.wilson_low, report.wilson_high, report.seed)
        for width, gamma, report in grid
    )


def _scenario_quantum_machine(cfg: dict) -> tuple[tuple, Iterable[tuple]]:
    return QM_HEADER, _machine_rows(cfg, cfg["epsilon"])


def _scenario_epsilon_sweep(cfg: dict) -> tuple[tuple, Iterable[tuple]]:
    eps = cfg["epsilon"] if cfg["epsilon"] is not None else list(_DEFAULT_EPSILONS)
    return QM_HEADER, _machine_rows(cfg, eps)


def _scenario_wood_product(cfg: dict) -> tuple[tuple, Iterable[tuple]]:
    return WOOD_HEADER, (
        (process.id, report.trials, report.yes, report.p_hat, report.analytic,
         report.wilson_low, report.wilson_high, meet, report.seed)
        for process, report, meet in wood_product_sweep(cfg["trials"], cfg["seed"])
    )


def _scenario_elastic(cfg: dict) -> tuple[tuple, Iterable[tuple]]:
    """The walk runs as the emitter reads its rows."""
    seed = cfg["seed"]
    return ELASTIC_HEADER, (
        (k, step.n_fragments, step.total_length, step.max_fragment,
         step.subhalf, step.subhalf / step.n_fragments, seed)
        for k, step in enumerate(break_trajectory(seed, cfg["trials"]))
    )


def _scenario_classify(cfg: dict) -> tuple[tuple, Iterable[tuple]]:
    return TAXONOMY_HEADER, (
        (row.property_name,
         *(axis.value if axis else "not-decidable"
           for axis in (row.effect, row.predictability, row.persistence)),
         None if row.witness is None else str(row.witness))
        for row in taxonomy_table(default_suite())
    )


_SCENARIO_RUNNERS = {
    "quantum-machine": _scenario_quantum_machine,
    "epsilon-sweep": _scenario_epsilon_sweep,
    "wood-product": _scenario_wood_product,
    "elastic": _scenario_elastic,
    "classify": _scenario_classify,
}


def _emit(cfg: dict, scenario: str, header: tuple, rows: Iterable, out: Optional[Path]) -> None:
    if cfg["format"] == "json":
        meta = {
            "scenario": scenario,
            "seed": cfg["seed"],
            "trials": cfg["trials"],
            "version": __version__,
        }
        emit_json(out, meta, header, rows)
    else:
        emit_csv(out, header, rows)


def _run(argv: Optional[Sequence[str]]) -> int:
    args = _build_parser().parse_args(argv)
    cfg = _merge_config(args)
    scenario = cfg["scenario"]

    if scenario == "all":
        for name, runner in _SCENARIO_RUNNERS.items():
            sub_cfg = dict(cfg)
            sub_cfg["trials"] = min(cfg["trials"], _DEFAULT_TRIALS[name])
            header, rows = runner(sub_cfg)
            _emit(sub_cfg, name, header, rows, _bundle_file(cfg, name))
    else:
        header, rows = _SCENARIO_RUNNERS[scenario](cfg)
        _emit(cfg, scenario, header, rows, cfg["out"])

    if cfg["check"]:
        failures = []
        for check in _CHECKS_BY_SCENARIO[scenario]:
            result = check()
            if not result.passed:
                failures.append(result)
                print(f"check failed: {result.name}: {result.detail}", file=sys.stderr)
        if failures:
            return 3
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        return _run(argv)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # argparse --help (0) and usage errors (2)
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2


if __name__ == "__main__":
    raise SystemExit(main())
