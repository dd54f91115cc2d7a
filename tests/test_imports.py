"""Every name a module imports is used in it, the package needs only numpy, it
raises only ``ConfigError``, ``NoSignalError`` or ``ValueError``, it leaves
the type, finiteness and range of a number argument and the kind and
emptiness of a sample-array argument to ``errors.py``, every config object
stores what its checks return, every record is declared with ``errors.record``,
and the harness derives a scenario's parts in one place, ``_Assets``.

``__init__.py`` is skipped by the unused-import scan: its imports are the
package's re-exports, which ``test_exports.py`` checks.
"""

import ast
import sys
from pathlib import Path

import pytest

from phasepos import errors, harness

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


@pytest.mark.parametrize("path", [*PACKAGE, ROOT / "tests/work_counter.py"], ids=lambda p: p.name)
def test_package_imports_only_stdlib_and_numpy(path):
    # numpy is the one runtime dependency pyproject.toml declares, and all the work counter needs.
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


_FINITE = {"math.isfinite", "np.isfinite"}
_ORDERING = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
_RANGED = ("as_real", "as_int")     # a range on their result belongs to as_finite or as_int


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
    assert hand_written_rules("if not 0 < as_real('x', x) < inf: pass\n"
                              "ok = as_int('n', n, 1) in (2, 4) or as_real('y', y) == 1\n"
                              "if as_int('n', n) >= 2: pass\n") == [
        "0 < as_real('x', x) < inf (line 1)", "as_int('n', n) >= 2 (line 3)"]


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "errors.py"],
                         ids=lambda p: p.name)
def test_package_leaves_argument_rules_to_errors(path):
    # errors.py owns the rules: as_finite, as_positive, as_int's range, as_samples and the rest.
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


_RULES = {name for name in vars(errors) if name.startswith("as_")}


def discarded_checks(source: str) -> list[str]:
    """Rules of ``errors.py`` called on a ``self.<field>`` as a bare statement in a
    ``__post_init__``: the field is checked but keeps its given value, not the
    Python number the rule returns (``errors.set_checked`` stores that)."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not (isinstance(func, ast.FunctionDef) and func.name == "__post_init__"):
            continue
        found += [(node.lineno, ast.unparse(node.value)) for node in ast.walk(func)
                  if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
                  and ast.unparse(node.value.func).split(".")[-1] in _RULES
                  and any(isinstance(arg, ast.Attribute) and ast.unparse(arg.value) == "self"
                          for arg in node.value.args)]
    return [f"{text} (line {line})" for line, text in sorted(found)]


# The two bodies that checked their fields and kept the given values, as they
# stood, and a dotted rule.  A bound value (n_fft = ...), set_checked and a
# check outside a __post_init__ are not flagged.
_DISCARDING_POST_INITS = """\
class NumerologyConfig:
    def __post_init__(self) -> None:
        as_positive("carrier_frequency_hz", self.carrier_frequency_hz)
        as_positive("scs_hz", self.scs_hz)
        n_fft = as_int("n_fft", self.n_fft, 1)
        as_real("n_fft", n_fft)     # the sample rate is a float
        if n_fft & (n_fft - 1):
            raise ConfigError(f"n_fft must be a power of two, got {n_fft}")
        as_int("n_cp", self.n_cp, 0, n_fft - 1)
        as_int("n_active_subcarriers", self.n_active_subcarriers, 1, n_fft - 1)   # DC excluded
class InterferometerConfig:
    def __post_init__(self) -> None:
        as_positive("antenna_spacing_m", self.antenna_spacing_m)
        as_positive("wavelength_m", self.wavelength_m)
class PrsConfig:
    def __post_init__(self) -> None:
        errors.as_int("n_symbols", self.n_symbols, 1)
        set_checked(self, (("comb_size", as_int),))
def ccp_measure(rx, num, subcarrier, n_sweeps, shift_samples):
    as_int("n_sweeps", n_sweeps, 1)
"""


def test_scan_finds_a_discarded_check():
    assert discarded_checks(_DISCARDING_POST_INITS) == [
        "as_positive('carrier_frequency_hz', self.carrier_frequency_hz) (line 3)",
        "as_positive('scs_hz', self.scs_hz) (line 4)",
        "as_int('n_cp', self.n_cp, 0, n_fft - 1) (line 9)",
        "as_int('n_active_subcarriers', self.n_active_subcarriers, 1, n_fft - 1) (line 10)",
        "as_positive('antenna_spacing_m', self.antenna_spacing_m) (line 13)",
        "as_positive('wavelength_m', self.wavelength_m) (line 14)",
        "errors.as_int('n_symbols', self.n_symbols, 1) (line 17)"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_config_objects_store_what_their_checks_return(path):
    assert discarded_checks(path.read_text(encoding="utf-8")) == []


def bare_dataclasses(source: str) -> list[str]:
    """Classes decorated with ``dataclass`` itself, not ``errors.record``: their generated
    ``__init__`` lets a misused argument escape as a raw TypeError."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            found += [f"{node.name} (line {node.lineno})" for d in node.decorator_list
                      if ast.unparse(getattr(d, "func", d)).split(".")[-1] == "dataclass"]
    return found


def test_scan_finds_a_bare_dataclass():
    assert bare_dataclasses("@dataclass\nclass A: pass\n"
                            "@dataclasses.dataclass(frozen=True)\nclass B: pass\n"
                            "@record(frozen=True)\nclass C: pass\n"
                            "cls = dataclass(frozen=True)(cls)\n") == [
        "A (line 2)", "B (line 4)"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_package_records_take_the_construction_rule(path):
    assert bare_dataclasses(path.read_text(encoding="utf-8")) == []
