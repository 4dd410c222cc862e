"""Every public library name is reached from the library, or kept for a reason.

A public function, class or module-level UPPER_CASE constant that no code
in ``src/npdisclab`` names (as a name that is read or an attribute;
docstrings, comments and the constant's own assignment do not count), or a
public method that no src code reads as an attribute, is either a second
owner of a fact computed elsewhere, which should go, or kept on purpose, in
which case ``KEPT`` says why.  A local variable named like a method does
not reach it; numpy's attributes still do, so ``a.size`` on an array
reaches ``PickProblem.size``.

The same holds for parameter defaults.  A default that every call in src
overrides is a second owner of a value its callers fix, and one that no
call overrides is a parameter nobody sets; either goes, or ``KEPT_DEFAULTS``
says why it stays.

Reference code that only the tests run lives in ``tests/oracles.py``, and
no name it defines is defined in src again.

The reach check reads names, not classes, so a method is reached as soon
as any src code reads a method of the same name on any class; a method only
the tests call passes it when another class shares its name.  So every
public method name that two or more src classes define is listed in
``SHARED_METHODS`` with the reason the classes share it, and a new shared
name needs review.

And every ``raise`` belongs to the failure contract: it names
``DomainError`` or ``NotCertifiedError`` (the only exception classes src
defines), or it is a bare re-raise, or ``INTERNAL_RAISES`` says why only a
bug can reach it.

Tolerances and rounding bounds live in ``npdisclab/rounding.py``.  A float
literal below 1e-6 in magnitude anywhere else in src is a guard that
decides no verdict, and ``GUARD_LITERALS`` says why it stays where it is.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "npdisclab"

_ORACLE = "acceptance oracle: tests/test_acceptance.py checks the paper's claims with it"
_DIAG = "first producer planned for the recipes' diagnostic lines; the tests read it until then"
_PAPER = "paper quantity that no other function computes"

#: public names nothing in src reaches, each with the reason it stays
KEPT = {
    "tangential_ratio": _ORACLE,
    "transversality_pairing": _ORACLE,
    "weights_by_reciprocal": "independent Newton route that the renewal recursion is tested against",
    "is_separated": _DIAG,
    "midpoint_sphere_defect": _DIAG,
    "continuity_bound": _PAPER,
    "monomial_multiplier_norm": _PAPER,
    "read_rows": "the CSV round-trip reader that the checks use",
}


#: defaulted parameters that every src call supplies, or none does, each with
#: the reason it stays
KEPT_DEFAULTS = {
    "main.argv": "tests and perfbench call main in process with their own argv",
    "TangentialEmbedding.sphere_defect.rows": "the tests and acceptance 12 read the whole "
                                              "grid's defect, the recipe's table one row "
                                              "block at a time",
}


_CURVE = "the curve protocol: the curve functions read it from EmbeddedDisc and CrossingCurve"

#: public method names that two or more src classes define, each with the
#: reason they share it
SHARED_METHODS = {
    "coords": _CURVE,
    "deriv": _CURVE,
    "inner": _CURVE,
    "n": "the length of coefficients, weights, handles, embeddings and disc sequences",
    "padded": "moduli and weights both hand the series layer a fixed number of terms",
}


def _public_definitions(tree):
    """(name, whether it is a method) of the public module-level functions,
    classes and UPPER_CASE constants and the public methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, False
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        yield sub.name, True
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if (isinstance(target, ast.Name) and target.id.isupper()
                        and not target.id.startswith("_")):
                    yield target.id, False


def _scan():
    """(public names src defines, names src reaches): a method only through an
    attribute read, anything else through a read name or an attribute."""
    defined, methods, read, attributes = set(), set(), set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, is_method in _public_definitions(tree):
            (methods if is_method else defined).add(name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    return defined | methods, attributes | (read - methods)


def test_every_public_name_is_reached_or_kept():
    defined, named = _scan()
    assert sorted(defined - named - set(KEPT)) == []


def _shared_method_names():
    """Public method names defined by two or more src classes."""
    owners = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        owners.setdefault(sub.name, set()).add(f"{path.stem}.{node.name}")
    return {name for name, classes in owners.items() if len(classes) > 1}


def test_shared_method_names_are_reviewed():
    # a new shared name, or a listed one that is no longer shared, changes the map
    assert sorted(_shared_method_names()) == sorted(SHARED_METHODS)


def test_kept_names_exist_and_stay_unreached():
    # a kept name that gains a caller, or is removed, leaves the list
    defined, named = _scan()
    assert sorted(set(KEPT) - defined) == []
    assert sorted(set(KEPT) & named) == []


def test_no_oracle_is_defined_in_src_again():
    # the reference code the tests check src against has one home
    oracles = ast.parse(Path(__file__).with_name("oracles.py").read_text(encoding="utf-8"))
    defined, _ = _scan()
    assert sorted({name for name, _ in _public_definitions(oracles)} & defined) == []


def _defaulted(fn, bound):
    """(name, position in a call or None) of each public parameter of ``fn``
    with a default."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    for i, arg in enumerate(positional):
        if i >= first and not arg.arg.startswith("_"):
            yield arg.arg, i - bound
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None and not arg.arg.startswith("_"):
            yield arg.arg, None


def _callables(tree):
    """(called name, label, def, bound) for each public function, method and
    constructor; ``bound`` says the first parameter is ``self`` or ``cls``."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node.name, node, False
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for sub in node.body:
                if not isinstance(sub, ast.FunctionDef):
                    continue
                bound = not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                for d in sub.decorator_list)
                if sub.name == "__init__":
                    yield node.name, node.name, sub, True
                elif not sub.name.startswith("_"):
                    yield sub.name, f"{node.name}.{sub.name}", sub, bound


def _calls(tree):
    """(called name, call) for every call by name or attribute; ``cls(...)``
    inside a classmethod counts for its class."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and any(
                        isinstance(d, ast.Name) and d.id == "classmethod"
                        for d in sub.decorator_list):
                    for call in ast.walk(sub):
                        if (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                                and call.func.id == "cls"):
                            yield node.name, call
        elif isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name):
                yield node.func.id, node
            elif isinstance(node.func, ast.Attribute):
                yield node.func.attr, node


def _supplies(call, name, position) -> bool:
    """Whether ``call`` passes the parameter; a ``*args`` or ``**kwargs`` call passes all."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(k.arg is None or k.arg == name for k in call.keywords):
        return True
    return position is not None and position < len(call.args)


def _one_sided_defaults():
    """Labels ``def.param`` of reached defaults that every call, or no call, supplies.

    Defs that share a called name are pooled: every call of the name counts
    for each of them.
    """
    defs, calls = [], {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defs.extend(_callables(tree))
        for name, call in _calls(tree):
            calls.setdefault(name, []).append(call)
    flagged = set()
    for name, label, fn, bound in defs:
        reached = calls.get(name, [])
        for param, position in _defaulted(fn, bound):
            supplied = sum(_supplies(c, param, position) for c in reached)
            if reached and supplied in (0, len(reached)):
                flagged.add(f"{label}.{param}")
    return flagged


def test_every_default_is_relied_on_and_overridden():
    # a kept default that comes to be both relied on and overridden, or is removed,
    # leaves the map
    flagged = _one_sided_defaults()
    assert sorted(flagged - set(KEPT_DEFAULTS)) == []
    assert sorted(set(KEPT_DEFAULTS) - flagged) == []


#: the exception classes of the failure contract, defined in npdisclab/__init__.py
CONTRACT = {"DomainError", "NotCertifiedError"}

#: raises of other classes, by (module, class), each with the reason only a
#: bug in npdisclab can reach them
INTERNAL_RAISES = {
    ("csvio", "ValueError"): "write_rows and read_rows check tables the recipes build",
}


def _raises_outside_the_contract():
    """(module, class) of each raise in src that names no contract class; a
    bare re-raise names none, and a raise of anything but a class by name
    gives its source text."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = (exc.attr if isinstance(exc, ast.Attribute)
                        else exc.id if isinstance(exc, ast.Name) else ast.unparse(exc))
                if name not in CONTRACT:
                    found.add((path.stem, name))
    return found


def _exception_classes():
    """(module, class) of each class in src whose base is named like an exception."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(
                    ast.unparse(b).endswith(("Error", "Exception")) for b in node.bases):
                yield path.stem, node.name


def test_every_raise_is_in_the_contract():
    # a stale INTERNAL_RAISES entry, whose raises are gone or joined the
    # contract, leaves the map
    raised = _raises_outside_the_contract()
    assert sorted(raised - set(INTERNAL_RAISES)) == []
    assert sorted(set(INTERNAL_RAISES) - raised) == []
    assert sorted(_exception_classes()) == [("__init__", c) for c in sorted(CONTRACT)]


#: float literals below 1e-6 in magnitude outside rounding.py, by (module,
#: value), each with the reason it is a guard and not a verdict tolerance
GUARD_LITERALS = {
    ("geometry", 1e-15): "_INTERIOR_EPS: a point without a gap keeps this distance from the sphere",
    ("pick", 1e-13): "psd_check refuses a matrix this far from Hermitian before judging it",
    ("pick", 1e-300): "keeps the asymmetry test relative when the largest entry is 0",
    ("kernels", 1e-17): "_hs_generating's stop rule: a chunk's last terms against the running sum",
    ("kernels", 1e-300): "keeps the stop rule relative when the running sum is 0",
    ("tangential", 1e-8): "_POLE_TOL: the chain refuses points this close to its pole at +i",
}


def _small_literals():
    """(module, value) of each float literal 0 < |x| < 1e-6 in src outside rounding.py."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "rounding":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Constant) and isinstance(node.value, float)
                    and 0.0 < abs(node.value) < 1e-6):
                found.add((path.stem, node.value))
    return found


def test_small_literals_are_listed_guards():
    # a tolerance written inline outside the owner, or a stale entry, changes the map
    found = _small_literals()
    assert sorted(found - set(GUARD_LITERALS)) == []
    assert sorted(set(GUARD_LITERALS) - found) == []
