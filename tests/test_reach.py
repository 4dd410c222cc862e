"""Every public library name is reached from the library, or kept for a reason.

A public function, class or method that no code in ``src/npdisclab`` names
(as a name or an attribute; docstrings and comments do not count) is either
a second owner of a fact computed elsewhere, which should go, or kept on
purpose, in which case ``KEPT`` says why.

The same holds for parameter defaults.  A default that every call in src
overrides is a second owner of a value its callers fix, and one that no
call overrides is a parameter nobody sets; either goes, or ``KEPT_DEFAULTS``
says why it stays.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "npdisclab"

_ORACLE = "acceptance oracle: tests/test_acceptance.py checks the paper's claims with it"
_DIAG = "first producer planned for the recipes' diagnostic lines; the tests read it until then"
_PAPER = "paper quantity that no other function computes"
_SMALL = "moving it into the tests would not reduce anything"

#: public names nothing in src reaches, each with the reason it stays
KEPT = {
    "pseudo_dist": _ORACLE,
    "mobius_auto": _ORACLE,
    "tangential_ratio": _ORACLE,
    "transversality_pairing": _ORACLE,
    "separation_delta": "independent per-point reference that garnett_targets is tested against",
    "weights_by_reciprocal": "independent Newton route that the renewal recursion is tested against",
    "is_separated": _DIAG,
    "midpoint_sphere_defect": _DIAG,
    "continuity_bound": _PAPER,
    "monomial_multiplier_norm": _PAPER,
    "hardy_embedding": _SMALL,
    "harmonic_conjugate": _SMALL,
    "read_rows": "the CSV round-trip reader that the checks use",
}


#: defaulted parameters that every src call supplies, or none does, each with
#: the reason it stays
KEPT_DEFAULTS = {
    "main.argv": "tests and perfbench call main in process with their own argv",
}


def _public_definitions(tree):
    """(module-level functions and classes, methods of those classes), public ones."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        yield sub.name


def _scan():
    defined, named = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined.update(_public_definitions(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    return defined, named


def test_every_public_name_is_reached_or_kept():
    defined, named = _scan()
    assert sorted(defined - named - set(KEPT)) == []


def test_kept_names_exist_and_stay_unreached():
    # a kept name that gains a caller, or is removed, leaves the list
    defined, named = _scan()
    assert sorted(set(KEPT) - defined) == []
    assert sorted(set(KEPT) & named) == []


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
