"""DetLint: AST rules that enforce the repro's determinism contract.

Every headline number this repository reproduces (the Fig 7/8 curves,
the pinned 439-event fig7a baseline, same-seed fault replay) depends on
an unwritten contract: simulation code reads *simulated* time only,
draws randomness only from named seeded streams, never lets hash-order
leak into event scheduling, and keeps its hot-path classes allocation
lean. DetLint makes the contract machine-checked.

Rule catalog (see DESIGN.md §8 for the full semantics):

==========  ==============================================================
DET001      wall-clock read (``time.time``/``datetime.now``/...) in sim code
DET002      unseeded / module-level RNG (stdlib ``random``, ``np.random.*``)
DET003      exact float equality on simulated timestamps
DET004      iteration over an unordered ``set`` (hash-order nondeterminism)
DET005      sim coroutine / timeout created but never registered or yielded
DET006      hot-module class without ``__slots__``
DET007      bare ``except:`` (swallows Interrupt / SimulationError)
DET008      process-identity read (``os.getpid``/``uuid.uuid4``/...) in sim code
==========  ==============================================================

Suppression: append ``# detlint: ignore[DET001]`` (comma-separate for
several codes) to the offending line, or put
``# detlint: ignore-file[DET00x]`` in the first ten lines of the file.

The defaults below are tuned to this codebase; a ``[tool.detlint]``
table in ``pyproject.toml`` can override ``hot_modules`` and the
per-rule path allowlists when the tree moves.
"""

from __future__ import annotations

import ast
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

__all__ = [
    "Finding",
    "LintConfig",
    "RULES",
    "WALL_CLOCK_ORIGINS",
    "PROCESS_IDENTITY_ORIGINS",
    "SEEDED_NP_FACTORIES",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "load_config",
    "parse_suppressions",
    "main",
]


@dataclass(frozen=True)
class Rule:
    """One DetLint rule: a stable code, a summary, and a fix-hint."""

    code: str
    name: str
    summary: str
    hint: str


RULES: Dict[str, Rule] = {
    rule.code: rule
    for rule in (
        Rule(
            "DET001",
            "wall-clock",
            "wall-clock read in simulation code",
            "read env.now (simulated seconds); wall time belongs only in "
            "the host sampler and CLI reporting",
        ),
        Rule(
            "DET002",
            "unseeded-rng",
            "module-level / unseeded RNG",
            "draw from a named stream: RngHub.stream(...) in repro.sim.rng "
            "(or np.random.default_rng(seed) at a seeded boundary)",
        ),
        Rule(
            "DET003",
            "float-time-eq",
            "exact float equality on a simulated timestamp",
            "compare with a tolerance (math.isclose / abs(a-b) < eps) or "
            "restructure around event ordering",
        ),
        Rule(
            "DET004",
            "unordered-iter",
            "iteration over an unordered set",
            "wrap in sorted(...) or keep a list/dict — set order follows "
            "the hash seed, not insertion",
        ),
        Rule(
            "DET005",
            "unregistered-coroutine",
            "sim coroutine or timeout created but never driven",
            "register with env.process(...), drive with `yield from`, or "
            "yield the returned event",
        ),
        Rule(
            "DET006",
            "missing-slots",
            "hot-module class without __slots__",
            "declare __slots__ — classes on the event hot path must not "
            "carry per-instance dicts",
        ),
        Rule(
            "DET007",
            "bare-except",
            "bare `except:` around simulation code",
            "name the exception; a bare except swallows Interrupt and "
            "SimulationError and corrupts recovery paths",
        ),
        Rule(
            "DET008",
            "process-identity",
            "process-identity read in simulation code",
            "pids/uuids/urandom differ per process and per run; key state "
            "by unit index or a seeded stream — process identity belongs "
            "only in the worker-process entry points (repro.exec)",
        ),
    )
}

#: Wall-clock callables by dotted origin (module, attribute).
_WALL_CLOCK_ORIGINS: Set[Tuple[str, str]] = {
    ("time", "time"),
    ("time", "time_ns"),
    ("time", "monotonic"),
    ("time", "monotonic_ns"),
    ("time", "perf_counter"),
    ("time", "perf_counter_ns"),
    ("time", "process_time"),
    ("datetime.datetime", "now"),
    ("datetime.datetime", "utcnow"),
    ("datetime.datetime", "today"),
    ("datetime.date", "today"),
}

#: Process-identity callables by dotted origin (module, attribute): values
#: that differ per process / per run and must never reach sim state.
_PROCESS_IDENTITY_ORIGINS: Set[Tuple[str, str]] = {
    ("os", "getpid"),
    ("os", "getppid"),
    ("os", "urandom"),
    ("uuid", "uuid1"),
    ("uuid", "uuid4"),
    ("secrets", "token_bytes"),
    ("secrets", "token_hex"),
    ("secrets", "token_urlsafe"),
    ("secrets", "randbelow"),
    ("secrets", "choice"),
}

#: np.random attributes that are *seeded constructions*, not draws.
_SEEDED_NP_FACTORIES: Set[str] = {"default_rng", "Generator", "SeedSequence", "PCG64",
                                  "Philox", "BitGenerator"}

#: Names that read as simulated timestamps for DET003.
_TIME_NAME_RE = re.compile(
    r"(?:^|_)(now|deadline|timestamp|expiry|makespan|mtbf)(?:_s)?$|(?:^|_)time(?:_s)?$"
)

_SUPPRESS_RE = re.compile(r"#\s*detlint:\s*ignore\[([A-Z0-9,\s]+)\]")
_SUPPRESS_FILE_RE = re.compile(r"#\s*detlint:\s*ignore-file\[([A-Z0-9,\s]+)\]")

#: Public aliases of the sink tables so the whole-program flow analyzer
#: (:mod:`repro.analysis.flow`) shares one source of truth with DetLint.
WALL_CLOCK_ORIGINS = _WALL_CLOCK_ORIGINS
PROCESS_IDENTITY_ORIGINS = _PROCESS_IDENTITY_ORIGINS
SEEDED_NP_FACTORIES = _SEEDED_NP_FACTORIES


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    code: str
    message: str

    @property
    def hint(self) -> str:
        return RULES[self.code].hint

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"
            f"\n    hint: {self.hint}"
        )


@dataclass
class LintConfig:
    """Codebase-tuned knobs (overridable via ``[tool.detlint]``)."""

    #: Module paths (suffix match) whose classes must declare __slots__.
    hot_modules: Tuple[str, ...] = (
        "repro/sim/engine.py",
        "repro/nvme/queues.py",
        "repro/io/envelope.py",
        "repro/tiers/base.py",
        "repro/tiers/nvm.py",
        "repro/tiers/cxl.py",
        "repro/tiers/client.py",
    )
    #: Per-rule path allowlists (suffix match): rule does not fire there.
    allow: Dict[str, Tuple[str, ...]] = field(
        default_factory=lambda: {
            # The capture session's wall-time report and the sampling
            # profiler measure the *simulator's* host cost and never feed
            # simulated time; the RNG hub is the one place seeded generators are minted; the
            # plan executors are the one sanctioned worker-process
            # boundary — their wall clocks and pids are shard
            # diagnostics that never reach any fingerprinted field (see
            # repro/exec/executors.py).
            "DET001": ("repro/obs/context.py", "repro/obs/sampling.py",
                       "repro/exec/executors.py"),
            "DET002": ("repro/sim/rng.py",),
            "DET008": ("repro/exec/executors.py",),
        }
    )

    def allows(self, code: str, path: str) -> bool:
        norm = path.replace("\\", "/")
        return any(norm.endswith(suffix) for suffix in self.allow.get(code, ()))

    def is_hot_module(self, path: str) -> bool:
        norm = path.replace("\\", "/")
        return any(norm.endswith(suffix) for suffix in self.hot_modules)


def load_config(root: Optional[Path] = None) -> LintConfig:
    """Built-in defaults, overlaid with ``[tool.detlint]`` if readable."""
    config = LintConfig()
    root = root or Path.cwd()
    pyproject = root / "pyproject.toml"
    if not pyproject.is_file():
        return config
    try:
        import tomllib  # py3.11+; older interpreters keep the defaults
    except ImportError:  # pragma: no cover - version dependent
        return config
    try:
        table = tomllib.loads(pyproject.read_text()).get("tool", {}).get("detlint", {})
    except (OSError, ValueError):  # pragma: no cover - malformed pyproject
        return config
    if "hot_modules" in table:
        config.hot_modules = tuple(table["hot_modules"])
    for code, paths in table.get("allow", {}).items():
        config.allow[code] = tuple(paths)
    return config


# ---------------------------------------------------------------------------
# suppression comments


def parse_suppressions(
    source: str, tool: str = "detlint"
) -> Tuple[Dict[int, Set[str]], Set[str]]:
    """Per-line and file-level suppressed rule codes for ``tool``.

    The grammar is shared between DetLint (``# detlint: ignore[DET001]``)
    and the flow analyzer (``# reproflow: ignore[FLOW101]``): a line-exact
    ``ignore[...]`` comment, or ``ignore-file[...]`` in the first ten
    lines.  Codes are comma-separated.
    """
    line_re = re.compile(rf"#\s*{tool}:\s*ignore\[([A-Z0-9,\s]+)\]")
    file_re = re.compile(rf"#\s*{tool}:\s*ignore-file\[([A-Z0-9,\s]+)\]")
    by_line: Dict[int, Set[str]] = {}
    whole_file: Set[str] = set()
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = file_re.search(text)
        if match and lineno <= 10:
            whole_file.update(c.strip() for c in match.group(1).split(","))
            continue
        match = line_re.search(text)
        if match:
            by_line.setdefault(lineno, set()).update(
                c.strip() for c in match.group(1).split(",")
            )
    return by_line, whole_file


def _suppressions(source: str) -> Tuple[Dict[int, Set[str]], Set[str]]:
    """Per-line and file-level suppressed DetLint rule codes."""
    return parse_suppressions(source, tool="detlint")


# ---------------------------------------------------------------------------
# the visitor


class _Visitor(ast.NodeVisitor):
    def __init__(self, path: str, config: LintConfig) -> None:
        self.path = path
        self.config = config
        self.findings: List[Finding] = []
        #: local alias -> real module ("import numpy as np" -> np: numpy)
        self.module_aliases: Dict[str, str] = {}
        #: local name -> (module, attr) for "from time import perf_counter"
        self.from_imports: Dict[str, Tuple[str, str]] = {}
        #: bare names of generator functions defined anywhere in the module
        self.generator_names: Set[str] = set()
        #: variable names bound to set expressions, per function scope
        self._set_vars: List[Set[str]] = [set()]

    # -- plumbing -----------------------------------------------------------

    def report(self, node: ast.AST, code: str, message: str) -> None:
        if self.config.allows(code, self.path):
            return
        self.findings.append(
            Finding(
                path=self.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                code=code,
                message=message,
            )
        )

    # -- imports ------------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.module_aliases[alias.asname or alias.name.split(".")[0]] = alias.name
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module:
            for alias in node.names:
                self.from_imports[alias.asname or alias.name] = (
                    node.module,
                    alias.name,
                )
        self.generic_visit(node)

    # -- name resolution ----------------------------------------------------

    def _dotted_origin(self, node: ast.expr) -> Optional[Tuple[str, str]]:
        """Resolve a call target to its (module-ish, attr) origin."""
        if isinstance(node, ast.Attribute):
            base = node.value
            if isinstance(base, ast.Name):
                module = self.module_aliases.get(base.id)
                if module is not None:
                    return module, node.attr
                origin = self.from_imports.get(base.id)
                if origin is not None:  # from datetime import datetime
                    return f"{origin[0]}.{origin[1]}", node.attr
            elif isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name):
                module = self.module_aliases.get(base.value.id)
                if module is not None:  # datetime.datetime.now
                    return f"{module}.{base.attr}", node.attr
        elif isinstance(node, ast.Name):
            origin = self.from_imports.get(node.id)
            if origin is not None:
                return origin
        return None

    # -- DET001 / DET002 ----------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        origin = self._dotted_origin(node.func)
        if origin is not None:
            module, attr = origin
            if (module, attr) in _WALL_CLOCK_ORIGINS or (
                module == "datetime" and attr in ("now", "utcnow")
            ):
                self.report(
                    node, "DET001",
                    f"wall-clock read `{module}.{attr}()` in simulation code",
                )
            elif module == "random":
                self.report(
                    node, "DET002",
                    f"stdlib global RNG `random.{attr}()` (hash-seeded, "
                    "shared across components)",
                )
            elif module == "numpy.random" and attr not in _SEEDED_NP_FACTORIES:
                self.report(
                    node, "DET002",
                    f"module-level numpy RNG `np.random.{attr}()` draws from "
                    "the shared global state",
                )
            elif (module, attr) in _PROCESS_IDENTITY_ORIGINS:
                self.report(
                    node, "DET008",
                    f"process-identity read `{module}.{attr}()` varies per "
                    "process and per run",
                )
        if isinstance(node.func, ast.Name) and node.func.id == "list":
            if len(node.args) == 1 and self._is_set_expr(node.args[0]):
                self.report(
                    node, "DET004",
                    "materialising a set into a list keeps hash order",
                )
        self.generic_visit(node)

    # -- DET003 -------------------------------------------------------------

    def _is_timelike(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Attribute):
            return node.attr == "now" or bool(_TIME_NAME_RE.search(node.attr))
        if isinstance(node, ast.Name):
            return bool(_TIME_NAME_RE.search(node.id))
        return False

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            for a, b in ((left, right), (right, left)):
                if not self._is_timelike(a):
                    continue
                if isinstance(b, ast.Constant) and isinstance(b.value, float):
                    self.report(
                        node, "DET003",
                        "exact float comparison of a sim timestamp against "
                        f"literal {b.value!r}",
                    )
                    break
                if self._is_timelike(b):
                    self.report(
                        node, "DET003",
                        "exact float comparison between two sim timestamps",
                    )
                    break
        self.generic_visit(node)

    # -- DET004 -------------------------------------------------------------

    def _is_set_expr(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in ("set", "frozenset")
        if isinstance(node, ast.Name):
            return node.id in self._set_vars[-1]
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_set_expr(node.left) or self._is_set_expr(node.right)
        return False

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._is_set_expr(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._set_vars[-1].add(target.id)
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        if self._is_set_expr(node.iter):
            self.report(
                node, "DET004",
                "iterating a set: order depends on the interpreter hash seed",
            )
        self.generic_visit(node)

    # -- DET005 -------------------------------------------------------------

    def _collect_generators(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for inner in ast.walk(node):
                    if isinstance(inner, (ast.Yield, ast.YieldFrom)):
                        # Owned by *this* def, not a nested one.
                        if self._owning_function(node, inner) is node:
                            self.generator_names.add(node.name)
                            break

    @staticmethod
    def _owning_function(
        candidate: ast.AST, target: ast.AST
    ) -> Optional[ast.AST]:
        owner: Optional[ast.AST] = None

        class _Find(ast.NodeVisitor):
            def __init__(self) -> None:
                self.stack: List[ast.AST] = []

            def generic_visit(self, node: ast.AST) -> None:
                is_fn = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                          ast.Lambda))
                if is_fn:
                    self.stack.append(node)
                if node is target:
                    nonlocal owner
                    owner = self.stack[-1] if self.stack else None
                super().generic_visit(node)
                if is_fn:
                    self.stack.pop()

        _Find().visit(candidate)
        return owner

    def visit_Expr(self, node: ast.Expr) -> None:
        call = node.value
        if isinstance(call, ast.Call):
            callee: Optional[str] = None
            if isinstance(call.func, ast.Name):
                callee = call.func.id
            elif isinstance(call.func, ast.Attribute):
                callee = call.func.attr
            if callee == "timeout" and isinstance(call.func, ast.Attribute):
                base = call.func.value
                if (isinstance(base, ast.Name) and base.id == "env") or (
                    isinstance(base, ast.Attribute) and base.attr == "env"
                ):
                    self.report(
                        node, "DET005",
                        "env.timeout(...) result discarded — the delay never "
                        "elapses for anyone",
                    )
            elif callee in self.generator_names:
                self.report(
                    node, "DET005",
                    f"sim coroutine `{callee}(...)` created but never "
                    "registered with the engine",
                )
        self.generic_visit(node)

    # -- DET006 / DET007 ----------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self.config.is_hot_module(self.path):
            has_slots = any(
                (
                    isinstance(stmt, ast.Assign)
                    and any(
                        isinstance(t, ast.Name) and t.id == "__slots__"
                        for t in stmt.targets
                    )
                )
                or (
                    isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and stmt.target.id == "__slots__"
                )
                for stmt in node.body
            )
            slotted_dataclass = any(
                isinstance(dec, ast.Call)
                and isinstance(dec.func, ast.Name)
                and dec.func.id == "dataclass"
                and any(
                    kw.arg == "slots"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is True
                    for kw in dec.keywords
                )
                for dec in node.decorator_list
            )
            if not has_slots and not slotted_dataclass:
                self.report(
                    node, "DET006",
                    f"class `{node.name}` in a hot module lacks __slots__",
                )
        self.generic_visit(node)

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self.report(
                node, "DET007",
                "bare `except:` catches Interrupt/SimulationError and hides "
                "model bugs",
            )
        self.generic_visit(node)

    # Fresh set-variable scope per function.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._set_vars.append(set())
        self.generic_visit(node)
        self._set_vars.pop()

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]


# ---------------------------------------------------------------------------
# entry points


def lint_file(
    path: Path, config: Optional[LintConfig] = None, source: Optional[str] = None
) -> List[Finding]:
    """Lint one python file; returns surviving (unsuppressed) findings."""
    config = config or LintConfig()
    text = source if source is not None else path.read_text()
    try:
        tree = ast.parse(text, filename=str(path))
    except SyntaxError as exc:
        return [
            Finding(
                path=str(path),
                line=exc.lineno or 1,
                col=(exc.offset or 0) + 1,
                code="DET007",
                message=f"file does not parse: {exc.msg}",
            )
        ]
    visitor = _Visitor(str(path), config)
    visitor._collect_generators(tree)
    visitor.visit(tree)
    by_line, whole_file = _suppressions(text)
    surviving: List[Finding] = []
    for finding in visitor.findings:
        if finding.code in whole_file:
            continue
        if finding.code in by_line.get(finding.line, set()):
            continue
        surviving.append(finding)
    return surviving


def iter_python_files(paths: Sequence[str]) -> Iterable[Path]:
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            yield from sorted(
                p for p in path.rglob("*.py") if "__pycache__" not in p.parts
            )
        elif path.suffix == ".py":
            yield path


def lint_paths(
    paths: Sequence[str], config: Optional[LintConfig] = None
) -> List[Finding]:
    config = config or load_config()
    findings: List[Finding] = []
    for path in iter_python_files(paths):
        findings.extend(lint_file(path, config))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI: ``repro lint [paths...]`` / ``python -m repro.analysis``.

    ``--format json|sarif`` renders machine-readable output through the
    shared emitters in :mod:`repro.analysis.flow.report`, so DetLint and
    ``repro flow`` annotate PRs uniformly in CI.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro lint", description="DetLint: determinism contract linter"
    )
    parser.add_argument("paths", nargs="*", default=None, metavar="PATH")
    parser.add_argument("--format", dest="fmt", default="text",
                        choices=("text", "json", "sarif"),
                        help="output format (default: text)")
    parser.add_argument("--output", metavar="FILE", default=None,
                        help="write the formatted report to FILE "
                             "(default: stdout)")
    args = parser.parse_args(list(sys.argv[1:] if argv is None else argv))
    paths = args.paths or ["src"]
    findings = lint_paths(paths)

    if args.fmt in ("json", "sarif"):
        from repro.analysis.flow.report import emit, findings_payload, to_sarif

        if args.fmt == "sarif":
            payload = to_sarif(findings, tool_name="detlint", rules=RULES)
        else:
            payload = findings_payload(findings, tool_name="detlint")
        emitted = emit(payload, args.output)
        if args.output:
            print(f"detlint: wrote {emitted} "
                  f"({len(findings)} finding(s), {args.fmt})")
        return 1 if findings else 0

    for finding in findings:
        print(finding.render())
    if findings:
        counts: Dict[str, int] = {}
        for finding in findings:
            counts[finding.code] = counts.get(finding.code, 0) + 1
        summary = ", ".join(f"{c}×{code}" for code, c in sorted(counts.items()))
        print(f"detlint: {len(findings)} finding(s) [{summary}]")
        return 1
    print(f"detlint: clean ({len(list(iter_python_files(paths)))} files)")
    return 0
