"""Print the lines of src/obsim that a Python run never reached.

A stdlib line tracer (``sys.settrace``, no ``coverage`` needed): it runs a
script, a module or a code string in this process, records every line of
``src/obsim`` that executes, and then prints each executable line that did
not, grouped by module and function. Lines run only in child processes are
not seen.

    python tools/reach.py script.py [args...]
    python tools/reach.py -m pytest -q --hypothesis-profile=explicit [args...]
    python tools/reach.py -c "from obsim import cli; cli.main(['classify'])"

It exits with the run's own status when that is not 0. Otherwise it exits 1
when an unreached line is not on ``ALLOWED`` below, or when an ``ALLOWED``
line was reached after all, and 0 when neither holds.
"""

from __future__ import annotations

import os
import runpy
import sys
import threading
import time
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "obsim")

# Unreached lines that do not gate: (module, function, the line's text), and why.
ALLOWED = {
    ("cli.py", "_write_to", text): "only a child process whose stdout refuses a write "
                                   "runs the devnull redirect, and the tracer sees no child"
    for text in (
        "except OSError as err:",
        "devnull = os.open(os.devnull, os.O_WRONLY)",
        "os.dup2(devnull, sys.stdout.fileno())",
        "os.close(devnull)",
        "if isinstance(err, BrokenPipeError):",
        "sys.exit(1)",
        'raise ConfigError(f"cannot write stdout: {err}") from err',
    )
} | {
    ("cli.py", "<module>", "raise SystemExit(main())"): "runs only as `python -m obsim.cli`",
}


def executable_lines(path: str) -> dict[int, str]:
    """Each line that the module's compiled line tables name, with the
    qualified name of the function (or ``<module>``) it belongs to."""
    with open(path, encoding="utf-8") as fh:
        code = compile(fh.read(), path, "exec")
    owner: dict[int, str] = {}
    todo = [code]
    while todo:
        co = todo.pop()
        name = getattr(co, "co_qualname", co.co_name)
        for _, _, line in co.co_lines():
            if line is not None and line > 0:
                owner.setdefault(line, name)
        todo.extend(c for c in co.co_consts if hasattr(c, "co_lines"))
    return owner


def run_traced(argv: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run ``argv`` (``-m module ...``, ``-c code ...`` or ``script ...``) under
    the tracer; return its exit status and the lines reached, by file."""
    reached: dict[str, set[int]] = defaultdict(set)
    ours: dict[str, object] = {}  # co_filename -> its reached set, or None

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        lines = ours.get(filename, False)
        if lines is False:
            real = os.path.realpath(filename)
            lines = reached[real] if os.path.dirname(real) == PACKAGE else None
            ours[filename] = lines
        if lines is None:
            return None
        lines.add(frame.f_lineno)

        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line

        return on_line

    mode, target, rest = (argv[0], argv[1], argv[2:]) if argv[0] in ("-m", "-c") else (
        None, argv[0], argv[1:])
    sys.argv = [target if mode != "-c" else "-c", *rest]
    if mode is None:
        sys.path.insert(0, os.path.dirname(os.path.abspath(target)))
    status = 0
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        if mode == "-m":
            runpy.run_module(target, run_name="__main__", alter_sys=True)
        elif mode == "-c":
            exec(compile(target, "<string>", "exec"), {"__name__": "__main__"})
        else:
            runpy.run_path(target, run_name="__main__")
    except SystemExit as stop:
        status = stop.code if isinstance(stop.code, int) else (stop.code is not None)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return status, reached


def report(reached: dict[str, set[int]]) -> tuple[int, int, list[str], list[str]]:
    """Print the unreached lines; return the executable and reached counts,
    the gating lines and the allowed lines that were reached after all."""
    total = hit = 0
    gating, allowed_seen = [], set()
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        owner = executable_lines(path)
        with open(path, encoding="utf-8") as fh:
            text = fh.read().splitlines()
        missed = sorted(set(owner) - reached.get(path, set()))
        total += len(owner)
        hit += len(owner) - len(missed)
        by_function = defaultdict(list)
        for line in missed:
            by_function[owner[line]].append(line)
        if by_function:
            print(f"src/obsim/{name}: {len(missed)} of {len(owner)} lines unreached")
        for function, lines in by_function.items():
            print(f"  {function}:")
            for line in lines:
                source = text[line - 1].strip()
                key = (name, function, source)
                if key in ALLOWED:
                    allowed_seen.add(key)
                    note = "allowed: " + ALLOWED[key]
                else:
                    note = "GATES"
                    gating.append(f"src/obsim/{name}:{line}")
                print(f"    {line:4d}  {source}  [{note}]")
    stale = [f"{module} {function}: {source}"
             for module, function, source in sorted(set(ALLOWED) - allowed_seen)]
    return total, hit, gating, stale


def main(args: list[str]) -> int:
    if not args:
        print(__doc__, file=sys.stderr)
        return 2
    started = time.perf_counter()
    status, reached = run_traced(args)
    elapsed = time.perf_counter() - started
    sys.stdout.flush()
    print(f"\n== reach: the traced run exited {status} after {elapsed:.1f} s")
    total, hit, gating, stale = report(reached)
    print(f"== reach: {hit} of {total} executable src/obsim lines reached")
    for entry in stale:
        print(f"== reach: allowed but reached or gone: {entry}")
    if gating:
        print(f"== reach: {len(gating)} unreached lines gate: {', '.join(gating)}")
    return status or int(bool(gating or stale))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
