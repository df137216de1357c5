"""Command-line front end: run named scenarios, emit CSV or JSON reports.

Exit codes: 0 success, 1 stdout closed early by its reader, 2 configuration
error or a failed write, 3 statistical acceptance failure under --check.
Flags override values from an optional flat key = value config file. All
angles are radians.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, TextIO

from . import __version__

QM_HEADER = ("gamma_rad", "epsilon", "analytic_p", "empirical_p", "yes", "trials",
             "wilson_lo", "wilson_hi", "seed")
TAXONOMY_HEADER = ("property", "effect", "predictability", "persistence", "witness_state")
WOOD_HEADER = ("product", "trials", "yes", "empirical_p", "analytic_p",
               "wilson_lo", "wilson_hi", "meet_actual", "seed")
ELASTIC_HEADER = ("step", "n_fragments", "total_length", "max_fragment",
                  "subhalf_fragments", "fragmentation_p", "seed")


class _Scenario(NamedTuple):
    trials: int  # the default --trials, and the scenario's cap inside 'all'
    # names in obsim.checks, looked up only under --check. Each scenario runner
    # likewise imports its own module when it runs.
    checks: tuple[str, ...]
    # the --trials bound, checked before any trial runs: a trial count bounds run
    # time, except for elastic, whose walk keeps a heap entry per fragment
    max_trials: int = 10_000_000
    gamma_grid: int = 13  # the default --gamma-grid


_SCENARIOS = {
    "quantum-machine": _Scenario(100_000, ("check_uniform_curve",)),
    "epsilon-sweep": _Scenario(10_000, ("check_segment_regime_map",), gamma_grid=25),
    "wood-product": _Scenario(10_000, ("check_product_choice_theorem",
                                       "check_compaction_creation")),
    "elastic": _Scenario(10_000, ("check_elastic_suite",), max_trials=200_000),
    "classify": _Scenario(1, ("check_taxonomy_fixture",)),
}
_SCENARIOS["all"] = _Scenario(10_000, (*(check for row in _SCENARIOS.values()
                                         for check in row.checks), "check_csv_determinism"))
SCENARIOS = tuple(_SCENARIOS)

_MAX_GAMMA_GRID = 10_000
_MAX_EPSILONS = 16
_DEFAULT_EPSILONS = (0.25, 0.5, 0.75, 1.0)

# each config key, spelled as its long flag with "_" for "-", and the parser of its value
_CONFIG_KEYS = {"trials": int, "seed": int, "gamma_grid": int,
                "epsilon": lambda text: [float(tok) for tok in text.replace(",", " ").split()],
                "out": str, "format": str, "workers": int}


class ConfigError(Exception):
    pass


def emit_csv(out: Optional[Path], header: Sequence[str], rows: Iterable[Sequence],
             staged: Optional[list] = None) -> None:
    """Fixed-schema CSV: header then rows, 9 significant digits, UTF-8, LF;
    ``staged`` as for :func:`_write_to`."""
    import csv  # each writer loads its own format's module, so a run loads only one

    def write(fh: TextIO) -> None:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        # csv.writer prints None as an empty cell and str() of anything else
        writer.writerows([format(v, ".9g") if isinstance(v, float)
                          else ("true" if v else "false") if isinstance(v, bool)
                          else v for v in row] for row in rows)

    _write_to(out, write, staged)


def emit_json(out: Optional[Path], meta: dict, header: Sequence[str],
              rows: Iterable[Sequence], staged: Optional[list] = None) -> None:
    """JSON mirror of the CSV schema: row objects under "rows" plus "meta".
    Values keep their JSON types; floats are rounded like the CSV. Written a
    row at a time, as the bytes of ``json.dumps(report, indent=2, sort_keys=True)``;
    ``staged`` as for :func:`_write_to`."""
    import json

    # one row object per call, through json's C encoder (``indent`` would force the
    # pure-Python one); the item separator writes the newline and indent of ``indent=2``
    encode_row = json.JSONEncoder(sort_keys=True, separators=(",\n      ", ": ")).encode

    def write(fh: TextIO) -> None:
        meta_text = json.dumps(meta, indent=2, sort_keys=True).replace("\n", "\n  ")
        fh.write(f'{{\n  "meta": {meta_text},\n  "rows": [')
        sep = ""
        for row in rows:
            text = encode_row({key: float(format(value, ".9g")) if isinstance(value, float)
                               else value for key, value in zip(header, row)})
            fh.write(f"{sep}\n    {{\n      {text[1:-1]}\n    }}")
            sep = ","
        fh.write("\n  ]\n}\n" if sep else "]\n}\n")

    _write_to(out, write, staged)


def _write_to(out: Optional[Path], write: Callable[[TextIO], None],
              staged: Optional[list] = None) -> None:
    """Run ``write`` on stdout, or on ``out`` such that a failed write leaves
    no half-written file: a new or regular file is written to a temp file
    and renamed into place; a device, FIFO or symlink is written through.
    Given a ``staged`` list, the written temp file is not renamed but
    appended to it as ``(temp, out)``, for :func:`_commit`."""
    if out is None:
        try:
            write(sys.stdout)
            sys.stdout.flush()
        except OSError as err:
            # point stdout at devnull, so the interpreter's last flush of what
            # is still buffered cannot fail again (the Python docs' SIGPIPE note)
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            if isinstance(err, BrokenPipeError):
                sys.exit(1)
            raise ConfigError(f"cannot write stdout: {err}") from err
        return
    atomic = not out.is_symlink() and (out.is_file() or not out.exists())
    tmp = out.with_name(f".{out.name}.{os.getpid()}.tmp") if atomic else out
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            write(fh)
        if atomic and staged is not None:
            staged.append((tmp, out))
        elif atomic:
            os.replace(tmp, out)
    except BaseException as err:  # a KeyboardInterrupt mid-write leaves no temp file either
        if atomic:  # never unlink the target itself
            tmp.unlink(missing_ok=True)
        if isinstance(err, OSError):
            raise ConfigError(f"cannot write --out {out}: {err}") from err
        raise


def _commit(staged: list) -> None:
    """Rename every staged ``(temp, target)`` pair into place, in order. The
    renames are not one step: if one is refused, the targets renamed before it
    hold their new bytes, and it and the ones after it keep their old bytes."""
    for tmp, out in staged:
        try:
            os.replace(tmp, out)
        except OSError as err:
            raise ConfigError(f"cannot write --out {out}: {err}") from err


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
            values[key] = _CONFIG_KEYS[key](value)
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r}") from None
    return values


def _build_parser() -> argparse.ArgumentParser:
    """One flat parser: every scenario takes every flag, before or after its name."""
    parser = argparse.ArgumentParser(
        prog="obsim",
        description="simulate observation scenarios and verify their statistics",
    )
    parser.add_argument("scenario", choices=SCENARIOS, metavar="|".join(SCENARIOS))
    parser.add_argument("--version", action="version", version=f"obsim {__version__}")
    parser.add_argument("--trials", type=int, default=None, help=(
        f"trials per grid point, at most {_SCENARIOS['all'].max_trials}; for elastic, "
        f"breaks of the band, at most {_SCENARIOS['elastic'].max_trials}: rows are written "
        "as the walk goes, but its heap grows with every break (peak RSS at the bound, "
        "x86-64 Python 3.11: 50 MB as CSV or JSON)"))
    parser.add_argument("--seed", type=int, default=None, help="64-bit unsigned master seed")
    parser.add_argument("--gamma-grid", type=int, default=None,
                        help="count of equispaced angles on [0, pi] inclusive, "
                        f"at most {_MAX_GAMMA_GRID}")
    parser.add_argument("--epsilon", type=float, action="append", default=None,
                        help=f"segment width in [0, 1]; repeatable, at most {_MAX_EPSILONS} "
                        "times, as the sweep keeps a report per (width, angle) pair in memory")
    parser.add_argument("--out", type=str, default=None, help="output path (stdout if omitted)")
    parser.add_argument("--format", choices=("csv", "json"), default=None)
    parser.add_argument("--check", action="store_true",
                        help="assert the acceptance criteria for this scenario (exit 3 on failure)")
    parser.add_argument("--workers", type=int, default=None,
                        help="accepted for compatibility; trials always run in one thread")
    parser.add_argument("--config", type=str, default=None, help="flat key = value config file")
    return parser


def _merge_config(args: argparse.Namespace) -> dict:
    scenario = args.scenario
    row = _SCENARIOS[scenario]
    cfg = {**dict.fromkeys(_CONFIG_KEYS), "trials": row.trials, "seed": 0,
           "gamma_grid": row.gamma_grid, "workers": 1}
    if args.config is not None:
        cfg.update(parse_config_file(Path(args.config)))
    for key in _CONFIG_KEYS:
        flag_value = getattr(args, key)
        if flag_value is not None:
            cfg[key] = flag_value

    if not 1 <= cfg["trials"] <= row.max_trials:
        raise ConfigError(f"--trials must be in [1, {row.max_trials}] for {scenario}, "
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
    from .machines import machine_sweep

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
    from .product import wood_product_sweep

    return WOOD_HEADER, (
        (process.id, report.trials, report.yes, report.p_hat, report.analytic,
         report.wilson_low, report.wilson_high, meet, report.seed)
        for process, report, meet in wood_product_sweep(cfg["trials"], cfg["seed"])
    )


def _scenario_elastic(cfg: dict) -> tuple[tuple, Iterable[tuple]]:
    """The walk runs as the emitter reads its rows."""
    from .exemplars import break_trajectory

    seed = cfg["seed"]
    return ELASTIC_HEADER, (
        (k, step.n_fragments, step.total_length, step.max_fragment,
         step.subhalf, step.subhalf / step.n_fragments, seed)
        for k, step in enumerate(break_trajectory(seed, cfg["trials"]))
    )


def _scenario_classify(cfg: dict) -> tuple[tuple, Iterable[tuple]]:
    from .taxonomy import default_suite, taxonomy_table

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


def _emit(cfg: dict, scenario: str, header: tuple, rows: Iterable, out: Optional[Path],
          staged: Optional[list] = None) -> None:
    if cfg["format"] == "json":
        meta = {
            "scenario": scenario,
            "seed": cfg["seed"],
            "trials": cfg["trials"],
            "version": __version__,
        }
        emit_json(out, meta, header, rows, staged)
    else:
        emit_csv(out, header, rows, staged)


def _run(argv: Optional[Sequence[str]]) -> int:
    args = _build_parser().parse_args(argv)
    cfg = _merge_config(args)
    scenario = cfg["scenario"]

    if scenario == "all":
        # one run's bundle: no file is renamed into place before all are written
        staged: list = []
        try:
            for name, runner in _SCENARIO_RUNNERS.items():
                sub_cfg = dict(cfg)
                sub_cfg["trials"] = min(cfg["trials"], _SCENARIOS[name].trials)
                header, rows = runner(sub_cfg)
                _emit(sub_cfg, name, header, rows, _bundle_file(cfg, name), staged)
            _commit(staged)
        finally:
            for tmp, _ in staged:  # left only by a failed write or rename
                tmp.unlink(missing_ok=True)
    else:
        header, rows = _SCENARIO_RUNNERS[scenario](cfg)
        _emit(cfg, scenario, header, rows, cfg["out"])

    if cfg["check"]:
        from . import checks

        failures = []
        for check in _SCENARIOS[scenario].checks:
            result = getattr(checks, check)()
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
