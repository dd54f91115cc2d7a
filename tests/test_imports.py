"""Every name a module imports is used in it, the package needs only numpy, it
raises only ``ConfigError``, ``NoSignalError`` or ``ValueError``, it leaves
the type, finiteness and range of a number argument and the kind and
emptiness of a sample-array argument to ``errors.py``, and the harness
derives a scenario's parts in one place, ``_Assets``.

``__init__.py`` is skipped by the unused-import scan: its imports are the
package's re-exports, which ``test_exports.py`` checks.
"""

import ast
import sys
from pathlib import Path

import pytest

from phasepos import harness

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


def test_scan_finds_an_unused_import():
    assert unused_imports("import os\nfrom math import pi, tau\nprint(pi)\n") == [
        "os (line 1)", "tau (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


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


def test_scan_finds_a_foreign_import():
    assert foreign_imports("import os, numpy.fft\nfrom . import waveform\n"
                           "from scipy import signal\nimport yaml\n") == ["scipy", "yaml"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_package_imports_only_stdlib_and_numpy(path):
    # numpy is the one runtime dependency pyproject.toml declares.
    assert foreign_imports(path.read_text(encoding="utf-8")) == []


def foreign_raises(source: str) -> list[str]:
    """Exceptions raised outside the package's vocabulary; a bare re-raise is not counted."""
    allowed = {"ConfigError", "NoSignalError", "ValueError"}
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            names.append((ast.unparse(exc), node.lineno))
    return [f"{name} (line {line})" for name, line in names if name not in allowed]


def test_scan_finds_a_foreign_raise():
    assert foreign_raises("raise ValueError('x')\nraise ConfigError from None\n"
                          "raise TypeError('y')\nraise errors.NoSignalError\nraise\n") == [
        "TypeError (line 3)", "errors.NoSignalError (line 4)"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_package_raises_only_its_vocabulary(path):
    # A search that finds nothing returns None or [], not an exception.
    assert foreign_raises(path.read_text(encoding="utf-8")) == []


def hand_written_ranges(source: str) -> list[str]:
    """``as_real``/``as_int`` calls compared with <, <=, > or >=: a range check by hand."""
    ordering = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare) and any(isinstance(op, ordering) for op in node.ops):
            found += [(operand.lineno, ast.unparse(operand.func))
                      for operand in (node.left, *node.comparators)
                      if isinstance(operand, ast.Call)
                      and ast.unparse(operand.func) in ("as_real", "as_int")]
    return [f"{name} (line {line})" for line, name in sorted(found)]


def test_scan_finds_a_hand_written_range():
    assert hand_written_ranges("if not 0 < as_real('x', x) < inf: pass\n"
                               "ok = as_int('n', n, 1) in (2, 4) or as_real('y', y) == 1\n"
                               "if as_int('n', n) >= 2: pass\n") == [
        "as_real (line 1)", "as_int (line 3)"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_package_leaves_number_ranges_to_errors(path):
    # as_int takes the range and as_positive the finite-positive rule.
    assert hand_written_ranges(path.read_text(encoding="utf-8")) == []


_FINITE = {"math.isfinite", "np.isfinite"}
_ORDERING = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def _bindings(node: ast.Assign) -> list[tuple[str, ast.expr]]:
    """(name, value) pairs of ``a = v`` and ``a, b = v, w``."""
    target, value = node.targets[-1], node.value
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
            return ("math.inf" in map(ast.unparse, operands)) and any(map(is_arg, operands))
        return (isinstance(node.ops[0], ast.Eq) and "0" in map(ast.unparse, operands)
                and any(map(is_size, operands)))
    return (isinstance(node, ast.Attribute) and node.attr == "kind"
            and isinstance(node.value, ast.Attribute) and node.value.attr == "dtype"
            and is_arg(node.value.value))


def hand_written_rules(source: str) -> list[str]:
    """Rules of ``errors.py`` applied by hand to an argument of the enclosing function.

    Flags ``math.isfinite`` / ``np.isfinite``, an ordering comparison with
    ``math.inf``, a ``.dtype.kind`` read, an ``isinstance(..., numbers.*)``
    test and an emptiness test (``== 0`` on a ``.size``).  An argument is a
    parameter, or a name bound to a call on one (``x = np.asarray(x)``,
    ``speed = as_real("speed_m_s", speed_m_s)``); a value computed from one
    (a power, a distance, a cast matrix) is not.
    """
    found = set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = func.args
        args = {p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs)}
        sizes = set()                       # names bound to an argument's .size

        def is_arg(node):
            return isinstance(node, ast.Name) and node.id in args

        def is_size(node):
            return ((isinstance(node, ast.Name) and node.id in sizes)
                    or (isinstance(node, ast.Attribute) and node.attr == "size"
                        and is_arg(node.value)))

        for node in ast.walk(func):         # breadth first: a binding before its use
            for name, value in _bindings(node) if isinstance(node, ast.Assign) else ():
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


def test_scan_finds_a_hand_written_rule():
    assert hand_written_rules(_REPLACED_CHECKS) == [
        "0 < frequency_hz < math.inf (line 2)", "math.isfinite(phase_rad) (line 2)",
        "0 < half_width_m < math.inf (line 5)", "math.isfinite(center_m) (line 5)",
        "0 < lambda1_m < math.inf (line 8)", "0 < lambda2_m < math.inf (line 8)",
        "math.isfinite(phase_diff_rad) (line 11)",
        "0 <= speed < math.inf (line 15)",
        "x.dtype.kind (line 19)", "x.size == 0 (line 19)",
        "p == 0 (line 27)",
        "phase.dtype.kind (line 31)",
        "p == 0 (line 35)",
        "isinstance(ref_symbol, numbers.Complex) (line 38)"]


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "errors.py"],
                         ids=lambda p: p.name)
def test_package_leaves_argument_rules_to_errors(path):
    # errors.py owns the rules: as_finite, as_positive, as_samples and the rest.
    assert hand_written_rules(path.read_text(encoding="utf-8")) == []


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


def test_scan_finds_a_derivation_outside_assets():
    assert derivations_outside("class Config:\n"
                               "    def check(self):\n"
                               "        num = make_numerology(self.band)\n"
                               "class _Assets:\n"
                               "    def __init__(self, cfg):\n"
                               "        self.num = make_numerology(cfg.band)\n"
                               "        self.start = self.num.symbol_samples\n"
                               "def stride(num):\n"
                               "    return num.symbol_samples // 2\n") == [
        "make_numerology (line 3)", ".symbol_samples (line 9)"]


def test_harness_derives_a_scenario_once():
    # The config check and the per-scenario cache both build _Assets.
    source = (ROOT / "src/phasepos/harness.py").read_text(encoding="utf-8")
    assert derivations_outside(source) == []
    assert harness._build_assets.__wrapped__ is harness._Assets
    assert harness._build_assets.cache_parameters() == {"maxsize": 1, "typed": False}
