#!/usr/bin/env python3
"""Which code in ``src/repro`` does a product path run?

Traces the product's own entry points in this one process with the
stdlib's ``sys.settrace`` (threads included) and reports:

* per package of ``repro``, how many executable lines ran;
* every function or method of ``src/repro`` that no traced path
  entered.

The traced paths are what a user of the product runs:

* ``python -m repro list`` and ``repro plan``, and the refusals of bad
  input that CI's CLI smoke job checks;
* ``repro run all --smoke`` (with ``--paper`` also the paper-default
  ``repro run all``), a ``--cache-dir`` run and its warm rerun, and a
  2-process pool run;
* ``repro scan`` on both probe engines;
* a 2-worker authenticated loopback fleet of ``repro worker`` threads,
  running cells and scan passes;
* a ``repro serve`` daemon taking a job through ``repro submit`` /
  ``watch`` / ``status`` / ``fetch`` / ``cancel``, and a scan job and a
  health check through ``ServiceClient``;
* the four ``examples/``.

A forked pool worker's lines are not collected; the in-process runs
execute the same cell code.

    python scripts/reach.py                 # smoke paths, ~20 s
    python scripts/reach.py --paper         # adds the paper-default run
    python scripts/reach.py --check scripts/reach_allowed.txt

With ``--check FILE`` the exit status is 1 when a function that no
path entered is not listed in FILE, when a listed function was entered
after all, or when a listed name no longer exists. Each FILE entry is
one line, ``NAME | REASON | TEST`` where NAME is ``module:qualname``
and TEST is the test or drill that enters it (a path under the repo
root, optionally with ``::name``); ``#`` starts a comment.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import re
import runpy
import signal
import socket
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: ``module:qualname`` of a function or method.
FunctionKey = str


def _code_objects(code) -> Iterator:
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            yield const
            yield from _code_objects(const)


def _lines(code) -> Set[int]:
    return {line for _, _, line in code.co_lines() if line is not None}


def _stub_lines(tree: ast.AST) -> Set[int]:
    """First lines of the functions that declare an interface and do
    nothing: a body of ``pass``, ``...`` or ``raise NotImplementedError``
    (after an optional docstring). Nothing of theirs can run, so they
    are not reported as unreached."""
    found: Set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = node.body
        if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
            body = body[1:] or body
        if len(body) != 1:
            continue
        stmt = body[0]
        inert = isinstance(stmt, ast.Pass) or (
            isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
        )
        raises = isinstance(stmt, ast.Raise) and "NotImplementedError" in ast.unparse(stmt)
        if inert or raises:
            found.update({node.lineno, *(d.lineno for d in node.decorator_list)})
    return found


@dataclass
class Inventory:
    """Every function and executable line of one package tree, read
    from its source (nothing is imported)."""

    # realpath of a file -> its dotted module name
    modules: Dict[str, str] = field(default_factory=dict)
    # realpath -> every line any code object of the file executes
    lines: Dict[str, Set[int]] = field(default_factory=dict)
    # (realpath, firstlineno, qualname) -> function key
    functions: Dict[Tuple[str, int, str], FunctionKey] = field(default_factory=dict)
    # function key -> its executable lines, nested code included
    spans: Dict[FunctionKey, int] = field(default_factory=dict)
    # interface declarations with nothing to run (see _stub_lines)
    stubs: Set[FunctionKey] = field(default_factory=set)

    @classmethod
    def scan(cls, src: Path, package: str) -> "Inventory":
        inventory = cls()
        for path in sorted((src / package).rglob("*.py")):
            real = os.path.realpath(path)
            parts = path.relative_to(src).with_suffix("").parts
            if parts[-1] == "__init__":
                parts = parts[:-1]
            module = ".".join(parts)
            inventory.modules[real] = module
            source = path.read_text()
            top = compile(source, real, "exec")
            stub_lines = _stub_lines(ast.parse(source))
            lines = set(_lines(top))
            for code in _code_objects(top):
                lines |= _lines(code)
                if code.co_name.startswith("<"):
                    continue  # comprehensions and lambdas belong to their function
                key = f"{module}:{code.co_qualname}"
                inventory.functions[(real, code.co_firstlineno, code.co_qualname)] = key
                if code.co_firstlineno in stub_lines:
                    inventory.stubs.add(key)
                span = _lines(code).union(*(_lines(inner) for inner in _code_objects(code)))
                inventory.spans[key] = inventory.spans.get(key, 0) + len(span)
            inventory.lines[real] = lines
        return inventory

    def group(self, real: str) -> str:
        """``repro.quic.frames`` -> ``quic``; a top-level module is
        reported under its own name (``cli``, ``schema``, ...)."""
        parts = self.modules[real].split(".")
        return parts[1] if len(parts) > 1 else parts[0]


class Tracer:
    """Records, for files under one directory, which code objects were
    entered and which lines ran. A code object whose every line has run
    is no longer line-traced.

    Code objects are tracked by identity: two functions with the same
    name, body and first line in different modules compare equal."""

    def __init__(self, inventory: Inventory):
        self.inventory = inventory
        self._files: Dict[str, Optional[str]] = {}
        self.entered: Set[Tuple[str, int, str]] = set()
        self.hits: Dict[str, Set[int]] = {}
        # id(code) -> ..., with ``_code`` holding each code object so
        # its id cannot be reused while traced.
        self._code: Dict[int, object] = {}
        self._done: Set[int] = set()
        self._need: Dict[int, int] = {}
        self._seen: Dict[int, Set[int]] = {}
        self._site: Dict[int, str] = {}

    def _real(self, filename: str) -> Optional[str]:
        try:
            return self._files[filename]
        except KeyError:
            real = os.path.realpath(filename)
            found = real if real in self.inventory.modules else None
            self._files[filename] = found
            return found

    def _call(self, frame, event, arg):
        code = frame.f_code
        key = id(code)
        if key in self._done:
            return None
        if key not in self._need:
            self._code[key] = code
            real = self._real(code.co_filename)
            if real is None:
                self._done.add(key)
                return None
            self.entered.add((real, code.co_firstlineno, code.co_qualname))
            self._need[key] = len(_lines(code) - {code.co_firstlineno})
            self._seen[key] = set()
            self._site[key] = real
        return self._line

    def _line(self, frame, event, arg):
        if event == "line":
            self._seen[id(frame.f_code)].add(frame.f_lineno)
        elif event == "return":
            key = id(frame.f_code)
            if len(self._seen[key]) >= self._need[key]:
                self._done.add(key)
        return self._line

    @contextlib.contextmanager
    def active(self):
        """Trace this thread and every thread started meanwhile; the
        trace functions set before are put back afterwards."""
        previous = sys.gettrace(), threading.gettrace()
        threading.settrace(self._call)
        sys.settrace(self._call)
        try:
            yield self
        finally:
            sys.settrace(previous[0])
            threading.settrace(previous[1])  # type: ignore[arg-type]
            for code, seen in self._seen.items():
                self.hits.setdefault(self._site[code], set()).update(seen)

    def unreached(self) -> List[Tuple[FunctionKey, int]]:
        """``(key, line count)`` of every function no path entered."""
        functions = self.inventory.functions
        entered = {functions[site] for site in self.entered if site in functions}
        return sorted(
            (key, self.inventory.spans[key])
            for key in set(functions.values()) - entered - self.inventory.stubs
        )

    def reach(self) -> Dict[str, Tuple[int, int]]:
        """``group -> (lines run, executable lines)``."""
        table: Dict[str, List[int]] = {}
        for real, lines in self.inventory.lines.items():
            row = table.setdefault(self.inventory.group(real), [0, 0])
            row[0] += len(lines & self.hits.get(real, set()))
            row[1] += len(lines)
        return {group: (run, total) for group, (run, total) in sorted(table.items())}


# -- the allow-list ----------------------------------------------------


@dataclass(frozen=True)
class Allowed:
    name: str
    reason: str
    entered_by: str
    line: int


def read_allowed(path: Path) -> Tuple[Dict[str, Allowed], List[str]]:
    """Parse an allow-list; returns the entries and the format errors."""
    entries: Dict[str, Allowed] = {}
    errors: List[str] = []
    for number, raw in enumerate(path.read_text().splitlines(), 1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        fields = [part.strip() for part in text.split("|")]
        if len(fields) != 3 or not all(fields):
            errors.append(f"{path}:{number}: expected 'NAME | REASON | TEST', got {raw!r}")
            continue
        name, reason, entered_by = fields
        if name in entries:
            errors.append(f"{path}:{number}: {name} is listed twice")
            continue
        entries[name] = Allowed(name, reason, entered_by, number)
    return entries, errors


def check(
    unreached: List[Tuple[FunctionKey, int]],
    defined: Set[FunctionKey],
    allowed: Dict[str, Allowed],
    root: Path,
) -> List[str]:
    """Every way the traced reach disagrees with the allow-list."""
    problems: List[str] = []
    missed = {key for key, _ in unreached}
    for key in sorted(missed - set(allowed)):
        problems.append(
            f"{key}: no product path enters it; delete it, move it to tests/, "
            "or allow-list it with a reason"
        )
    for name, entry in sorted(allowed.items()):
        if name not in defined:
            problems.append(f"{name}: listed on line {entry.line} but no longer exists")
        elif name not in missed:
            problems.append(
                f"{name}: listed on line {entry.line} but a product path now enters it"
            )
        target = entry.entered_by.split("::", 1)[0].split()[0]
        if not (root / target).exists():
            problems.append(
                f"{name}: line {entry.line} names {entry.entered_by!r}, "
                f"but {target} does not exist"
            )
    return problems


# -- the product paths --------------------------------------------------

SCAN_SOURCE = {"kind": "synthetic", "count": 2000, "seed": 3}

#: ``(exit status, argv)`` of the refusals CI's CLI smoke job checks.
REFUSALS = [
    (3, ["run", "fig99", "--smoke"]),
    (4, ["run", "fig6", "--smoke", "--param", "fig6.nope=1"]),
    (4, ["run", "fig6", "--smoke", "--param", "fig6.repetitions=0"]),
    (4, ["run", "fig12", "--smoke", "--param", "fig12.rtts_ms=nan"]),
    (4, ["run", "table1", "--smoke", "--param", "table1.vantage_names=Atlantis"]),
    (4, ["run", "table1", "fig6", "--smoke", "--param", "table1.engine=bogus"]),
    (2, ["run", "fig16", "--smoke", "--spill", "always"]),
    (2, ["run", "fig6", "--smoke", "--backend", "distributed", "--workers", "2"]),
    (2, ["scan", "--resume", "ckpt"]),
]


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _cli(*argv: str) -> None:
    from repro.cli import main

    code = main(list(argv))
    if code != 0:
        raise RuntimeError(f"repro {' '.join(argv)} exited {code}")


def _refused(code: int, *argv: str) -> None:
    """``repro *argv`` must fail with exit status ``code`` (a usage
    error is argparse's ``SystemExit(2)``)."""
    from repro.cli import main

    try:
        got = main(list(argv))
    except SystemExit as exc:
        got = exc.code
    if got != code:
        raise RuntimeError(f"repro {' '.join(argv)} exited {got}, expected {code}")


def _module(*argv: str) -> None:
    """``python -m repro *argv``."""
    saved = sys.argv
    sys.argv = ["repro", *argv]
    try:
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        if exc.code:
            raise RuntimeError(f"python -m repro {' '.join(argv)} exited {exc.code}")
    finally:
        sys.argv = saved


def _example(name: str, *argv: str) -> None:
    saved = sys.argv
    sys.argv = [name, *argv]
    try:
        runpy.run_path(str(ROOT / "examples" / name), run_name="__main__")
    finally:
        sys.argv = saved


def _fleet(work: Path, run_argv: List[str]) -> None:
    """``run_argv`` on a coordinator with two ``repro worker`` threads."""
    port = _free_port()
    key = work / "auth.key"
    key.write_text("00" * 32)
    auth = ["--auth-key-file", str(key)]
    workers = [
        threading.Thread(
            target=_cli,
            args=("worker", "--connect", f"127.0.0.1:{port}", "--retry", "60", *auth),
            daemon=True,
        )
        for _ in range(2)
    ]
    for thread in workers:
        thread.start()
    try:
        _cli(
            *run_argv,
            "--backend", "distributed", "--listen", str(port),
            "--min-workers", "2", *auth,
        )
    finally:
        for thread in workers:
            thread.join(60)


def _service(work: Path) -> None:
    """A ``repro serve`` daemon in this thread; a client thread submits,
    follows, fetches and cancels a job with the CLI, checks health and
    runs a scan job through ``ServiceClient``, then stops the daemon
    with SIGTERM."""
    path = str(work / "repro.sock")
    service = ["--service", f"unix:{path}"]
    failure: List[BaseException] = []

    def client() -> None:
        try:
            deadline = time.monotonic() + 60
            while not os.path.exists(path) and time.monotonic() < deadline:
                time.sleep(0.05)
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                _cli("submit", "fig6", "fig16", "--smoke", *service)
            job_id = re.search(r'"job_id": "([^"]+)"', buffer.getvalue()).group(1)
            _cli("watch", job_id, *service)
            _cli("status", *service)
            _cli("fetch", job_id, "--out", str(work / "served"), *service)
            _cli("cancel", job_id, *service)
            _cli("status", job_id, *service)
            from repro.api import ServiceClient

            client = ServiceClient(f"unix:{path}")
            client.health()
            client.submit({"scan": {"source": SCAN_SOURCE, "shard_size": 1000}}).result(timeout=60)
        except BaseException as exc:  # reported in the serving thread
            failure.append(exc)
        finally:
            os.kill(os.getpid(), signal.SIGTERM)

    previous = signal.getsignal(signal.SIGTERM)
    thread = threading.Thread(target=client)
    thread.start()
    try:
        _cli("serve", "--socket", path, "--workers", "0", "--cache-dir", str(work / "served-cache"))
    finally:
        signal.signal(signal.SIGTERM, previous)
        thread.join(60)
    if failure:
        raise failure[0]


def product_paths(work: Path, paper: bool) -> List[Tuple[str, Callable[[], None]]]:
    cache = str(work / "cache")
    scan = ["scan", "--source", "synthetic", "--targets", "3000", "--shard-size", "1000"]
    paths: List[Tuple[str, Callable[[], None]]] = [
        ("repro list / plan", lambda: (
            _module("list"), _cli("list", "--markdown"), _cli("list", "--json"),
            _cli("plan", "all", "--smoke"), _cli("plan", "fig6", "fig12", "--json"),
        )),
        ("CLI refusals", lambda: [_refused(code, *argv) for code, argv in REFUSALS]),
        ("repro run all --smoke", lambda: _cli("run", "all", "--smoke", "--out", str(work / "smoke"))),
        ("repro run --cache-dir, cold then warm", lambda: [
            _cli("run", "fig6", "fig16", "table1", "--smoke", "--events", "--cache-dir", cache)
            for _ in range(2)
        ]),
        ("repro run --workers 2", lambda: _cli("run", "fig6", "fig16", "--smoke", "--workers", "2")),
        ("repro scan", lambda: (
            _cli(*scan, "--out", str(work / "scan.json"), "--cache-dir", cache),
            _cli(*scan, "--probe-engine", "batch", "--days", "2", "--vantage", "Hamburg"),
            _cli("scan", "--targets", "2000", "--shard-size", "1000"),
        )),
        ("2-worker fleet", lambda: (
            _fleet(work, ["run", "fig6", "fig16", "table4", "fig8", "--smoke"]),
            _fleet(work, scan),
        )),
        ("repro serve + client", lambda: _service(work)),
        ("examples/", lambda: (
            _example("quickstart.py", "--trace"),
            _example("loss_recovery.py", "--reps", "5"),
            _example("cdn_tuning.py"),
            _example("wild_scan.py", "--domains", "5000", "--events", "--out", str(work / "wild")),
        )),
    ]
    if paper:
        paths.insert(2, ("repro run all (paper defaults)", lambda: _cli("run", "all")))
    return paths


def trace_product(paper: bool, log: Callable[[str], None]) -> Tracer:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    tracer = Tracer(Inventory.scan(src, "repro"))
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp, tracer.active():
        for label, run in product_paths(Path(tmp), paper):
            started = time.monotonic()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                run()
            log(f"traced {label} ({time.monotonic() - started:.1f} s)")
    return tracer


def report(tracer: Tracer, out=sys.stdout) -> None:
    rows = tracer.reach()
    run = sum(r for r, _ in rows.values())
    total = sum(t for _, t in rows.values())
    print(f"{'package':14s} {'lines run':>18s}", file=out)
    for group, (hit, lines) in rows.items():
        print(f"{group:14s} {hit:6d} / {lines:6d} {100 * hit / lines:5.1f} %", file=out)
    print(f"{'all':14s} {run:6d} / {total:6d} {100 * run / total:5.1f} %", file=out)
    unreached = tracer.unreached()
    print(
        f"\n{len(unreached)} function(s) no product path enters "
        f"({sum(n for _, n in unreached)} lines; {len(tracer.inventory.stubs)} "
        "interface stubs not counted):",
        file=out,
    )
    for key, lines in unreached:
        print(f"  {key}  ({lines} lines)", file=out)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--paper", action="store_true", help="also trace the paper-default run")
    parser.add_argument("--check", metavar="FILE", help="fail unless FILE lists exactly the unreached functions")
    args = parser.parse_args(argv)

    def log(message: str) -> None:
        print(message, file=sys.stderr, flush=True)

    tracer = trace_product(args.paper, log)
    report(tracer)
    if args.check is None:
        return 0
    allowed, errors = read_allowed(Path(args.check))
    problems = errors + check(
        tracer.unreached(), set(tracer.inventory.functions.values()), allowed, ROOT
    )
    for problem in problems:
        print(f"reach: {problem}", file=sys.stderr)
    if problems:
        return 1
    print(f"\nreach: all {len(allowed)} allow-listed function(s) checked")
    return 0


if __name__ == "__main__":
    sys.exit(main())
