"""Every public library name is reached from the library, or kept for a reason.

A public function, class or method that no code in ``src/npdisclab`` names
(as a name or an attribute; docstrings and comments do not count) is either
a second owner of a fact computed elsewhere, which should go, or kept on
purpose, in which case ``KEPT`` says why.
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
