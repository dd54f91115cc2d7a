"""Five scans of the source, a row of ``SCANS`` each: every name a module imports
is used in it, the package needs only numpy, it raises only ``ConfigError``,
``NoSignalError``, ``ValueError`` or (a dead worker) ``ChildProcessError``, it leaves the
type, finiteness and range of a number argument and the kind and emptiness of a sample-array
argument to ``errors.py``, and the harness derives a scenario's parts in one place, ``_Assets``.
Each scan finds its fixtures' exact findings, and nothing in the files it reads.

What a record stores and how its constructor binds its arguments are checked by
behaviour, in ``test_error_vocabulary.py``.

``__init__.py`` is skipped by the unused-import scan: its imports are the
package's re-exports, which ``test_exports.py`` checks.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted(ROOT.glob("src/phasepos/*.py"))
MODULES = sorted(p for p in [*ROOT.glob("src/phasepos/*.py"), *ROOT.glob("tests/*.py")]
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # A quoted annotation such as -> "CarrierRange" names its type in a string.
    used |= {node.value for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and node.value.isidentifier()}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def foreign_imports(source: str) -> list[str]:
    """Top-level modules imported from outside the stdlib, numpy and the package."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "phasepos"}
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:   # level > 0: relative
            names.append(node.module)
    return [name for name in names if name.split(".")[0] not in allowed]


def foreign_raises(source: str) -> list[str]:
    """Exceptions raised outside the package's vocabulary; a bare re-raise is not counted."""
    allowed = {"ConfigError", "NoSignalError", "ValueError", "ChildProcessError"}   # a dead worker
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            names.append((ast.unparse(exc), node.lineno))
    return [f"{name} (line {line})" for name, line in names if name not in allowed]


_FINITE = {"math.isfinite", "np.isfinite"}
_ORDERING = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
_RANGED = ("as_real", "as_int")     # a range on their result belongs to as_finite or as_int
_BINDERS = (ast.Assign, ast.NamedExpr)


def _bindings(node: ast.Assign | ast.NamedExpr) -> list[tuple[str, ast.expr]]:
    """(name, value) pairs of ``a = v``, ``a, b = v, w`` and ``(a := v)``."""
    target, value = getattr(node, "target", None) or node.targets[-1], node.value
    if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
        return [(t.id, v) for t, v in zip(target.elts, value.elts) if isinstance(t, ast.Name)]
    return [(target.id, value)] if isinstance(target, ast.Name) else []


def _applies_rule(node: ast.AST, is_arg, is_size) -> bool:
    if isinstance(node, ast.Call):
        func = ast.unparse(node.func)
        return ((func in _FINITE and any(map(is_arg, node.args)))
                or (func == "isinstance" and is_arg(node.args[0])
                    and "numbers." in ast.unparse(node.args[1])))
    if isinstance(node, ast.Compare):
        operands = (node.left, *node.comparators)
        if any(isinstance(op, _ORDERING) for op in node.ops):
            return (("math.inf" in map(ast.unparse, operands)) and any(map(is_arg, operands))
                    or any(isinstance(o, ast.Call) and ast.unparse(o.func) in _RANGED
                           for o in operands))
        return (isinstance(node.ops[0], ast.Eq) and "0" in map(ast.unparse, operands)
                and any(map(is_size, operands)))
    return (isinstance(node, ast.Attribute) and node.attr == "kind"
            and isinstance(node.value, ast.Attribute) and node.value.attr == "dtype"
            and is_arg(node.value.value))


def hand_written_rules(source: str) -> list[str]:
    """Rules of ``errors.py`` applied by hand, at any level or to an argument of the
    enclosing function.

    Flags an ``as_real`` or ``as_int`` call compared with <, <=, > or >= (a range
    by hand), and on an argument ``math.isfinite`` / ``np.isfinite``, an ordering
    comparison with ``math.inf``, a ``.dtype.kind`` read, an ``isinstance(...,
    numbers.*)`` test and an emptiness test (``== 0`` on a ``.size``).  An argument
    is a parameter, or a name bound to a call on one (``x = np.asarray(x)``,
    ``speed = as_real("speed_m_s", speed_m_s)``); a value computed from one
    (a power, a distance, a cast matrix) is not.
    """
    found = set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = getattr(func, "args", None)     # a module has no arguments
        args = {p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs)} if a else set()
        sizes = set()                       # names bound to an argument's .size

        def is_arg(node):
            return isinstance(node, ast.Name) and node.id in args

        def is_size(node):
            return ((isinstance(node, ast.Name) and node.id in sizes)
                    or (isinstance(node, ast.Attribute) and node.attr == "size"
                        and is_arg(getattr(node.value, "target", node.value))))   # (a := v).size

        for node in ast.walk(func):         # breadth first: a binding before its use
            for name, value in _bindings(node) if isinstance(node, _BINDERS) else ():
                if isinstance(value, ast.Call) and any(map(is_arg, value.args)):
                    args.add(name)
                elif is_size(value):
                    sizes.add(name)
        found |= {(node.lineno, ast.unparse(node)) for node in ast.walk(func)
                  if _applies_rule(node, is_arg, is_size)}
    return [f"{text} (line {line})" for line, text in sorted(found)]


# The hand-written checks the rules replaced, as they stood, and two checks
# on computed values that stay.
_REPLACED_CHECKS = """\
def phase_to_fraction(phase_rad, frequency_hz):
    if not (math.isfinite(phase_rad) and 0 < frequency_hz < math.inf):
        raise ValueError
def ia_search(fraction, center_m, half_width_m):
    if not (math.isfinite(center_m) and 0 < half_width_m < math.inf):
        raise ValueError
def virtual_wavelength(lambda1_m, lambda2_m):
    if not (0 < lambda1_m < math.inf and 0 < lambda2_m < math.inf):
        raise ValueError
def aoa_from_phase_diff(phase_diff_rad, config):
    if not math.isfinite(phase_diff_rad):
        raise ValueError
def doppler_ppm(speed_m_s):
    speed = as_real("speed_m_s", speed_m_s)
    if not 0 <= speed < math.inf:
        raise ValueError
def add_awgn(x, snr_db, seed):
    x = np.asarray(x)
    if x.dtype.kind not in "iufc" or x.size == 0:
        raise ValueError
    buf = np.empty(x.shape)
    power = float(np.mean(buf))
    if not math.isfinite(power):
        raise ValueError
def apply_channel(spectrum, rows, num, channel):
    rows, p = as_int("rows", rows, 1), spectrum.size
    if p == 0:
        raise ValueError
def wrap_phase(phase):
    phase = np.asarray(phase)
    if phase.dtype.kind not in "iuf":
        raise ValueError
def estimate_toa(rx, num, reference_spectrum):
    n, p = rx.size, reference_spectrum.size
    if p == 0 or n % p:
        raise ValueError
def ccp_measure(rx, num, subcarrier, n_sweeps, shift_samples, ref_symbol=1.0, window_start=0):
    if isinstance(ref_symbol, bool) or not isinstance(ref_symbol, numbers.Complex):
        raise ConfigError
class Geometry:
    def __post_init__(self):
        if not 0.0 < self.true_distance_m < math.inf:
            raise ConfigError
"""


# What builds a part of a scenario: its numerology, pilot, profile and
# streams, each stream as its period view.
_DERIVERS = {"make_numerology", "PrsConfig", "profile_preset", "generate_prs_column",
             "middle_subcarrier", "ofdm_modulate"}


def derivations_outside(source: str, owner: str = "_Assets") -> list[str]:
    """Calls to a part's builder, and reads of ``symbol_samples`` (the window
    plans), made outside class ``owner``."""
    tree = ast.parse(source)
    inside = {id(node) for cls in ast.walk(tree)
              if isinstance(cls, ast.ClassDef) and cls.name == owner for node in ast.walk(cls)}
    found = []
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Call) and ast.unparse(node.func) in _DERIVERS:
            found.append((node.lineno, ast.unparse(node.func)))
        elif isinstance(node, ast.Attribute) and node.attr == "symbol_samples":
            found.append((node.lineno, ".symbol_samples"))
    return [f"{name} (line {line})" for line, name in sorted(found)]


# Each scan: the files it reads, each of which it must pass, and its fixtures, each with
# its exact findings.
SCANS = {
    "unused_imports": (unused_imports, MODULES, {
        "import os\nfrom math import pi, tau\nprint(pi)\n": ["os (line 1)", "tau (line 2)"]}),
    # numpy is the one runtime dependency pyproject.toml declares, and all the work counter needs.
    "foreign_imports": (foreign_imports, [*PACKAGE, ROOT / "tests/work_counter.py"], {
        "import os, numpy.fft\nfrom . import waveform\nfrom scipy import signal\nimport yaml\n":
        ["scipy", "yaml"]}),
    # A search that finds nothing returns None or [], not an exception.
    "foreign_raises": (foreign_raises, PACKAGE, {
        "raise ValueError('x')\nraise ConfigError from None\n"
        "raise TypeError('y')\nraise errors.NoSignalError\nraise\n":
        ["TypeError (line 3)", "errors.NoSignalError (line 4)"]}),
    # errors.py owns the rules: as_finite, as_positive, as_int's range, as_samples and the rest.
    "hand_written_rules": (hand_written_rules, [p for p in PACKAGE if p.name != "errors.py"], {
        _REPLACED_CHECKS: [
            "0 < frequency_hz < math.inf (line 2)", "math.isfinite(phase_rad) (line 2)",
            "0 < half_width_m < math.inf (line 5)", "math.isfinite(center_m) (line 5)",
            "0 < lambda1_m < math.inf (line 8)", "0 < lambda2_m < math.inf (line 8)",
            "math.isfinite(phase_diff_rad) (line 11)",
            "0 <= speed < math.inf (line 15)",
            "x.dtype.kind (line 19)", "x.size == 0 (line 19)",
            "p == 0 (line 27)",
            "phase.dtype.kind (line 31)",
            "p == 0 (line 35)",
            "isinstance(ref_symbol, numbers.Complex) (line 38)"],
        "if not 0 < as_real('x', x) < inf: pass\n"
        "ok = as_int('n', n, 1) in (2, 4) or as_real('y', y) == 1\n"
        "if as_int('n', n) >= 2: pass\n":
        ["0 < as_real('x', x) < inf (line 1)", "as_int('n', n) >= 2 (line 3)"],
        "def f(x):\n    if (y := np.asarray(x)).size == 0: pass\n    if y.size == 0: pass\n":
        ["(y := np.asarray(x)).size == 0 (line 2)", "y.size == 0 (line 3)"]}),
    # harness.py builds a scenario's numerology, pilot, profile and streams in _Assets alone.
    "derivations_outside": (derivations_outside, [ROOT / "src/phasepos/harness.py"], {
        "class Config:\n"
        "    def check(self):\n"
        "        num = make_numerology(self.band)\n"
        "class _Assets:\n"
        "    def __init__(self, cfg):\n"
        "        self.num = make_numerology(cfg.band)\n"
        "        self.start = self.num.symbol_samples\n"
        "def stride(num):\n"
        "    return num.symbol_samples // 2\n":
        ["make_numerology (line 3)", ".symbol_samples (line 9)"]}),
}


@pytest.mark.parametrize("scan", SCANS)
def test_scan_finds_its_fixture(scan):
    find, _, fixtures = SCANS[scan]
    for source, findings in fixtures.items():
        assert find(source) == findings


SCANNED = [(scan, path) for scan, (_, paths, _) in SCANS.items() for path in paths]


@pytest.mark.parametrize("scan,path", SCANNED,
                         ids=[f"{scan}-{p.parent.name}/{p.name}" for scan, p in SCANNED])
def test_source_passes_scan(scan, path):
    assert SCANS[scan][0](path.read_text(encoding="utf-8")) == []
