"""Every relative `approx` tolerance in the tests states its absolute one.

pytest's default abs=1e-12 accepts any value near zero, so a rel-only
check of a quantity below about 1e-12 checks nothing: `0.0 ==
pytest.approx(1.35546e-26, rel=1e-4)` holds. Each `approx(..., rel=...)`
passes `abs=` explicitly, 0 unless the quantity may really be 0.
"""
import ast
from pathlib import Path

TESTS = Path(__file__).parent


def rel_without_abs(source: str) -> list[int]:
    """Line numbers of the `approx` calls with rel= and no abs= in source."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        keywords = {k.arg for k in node.keywords}
        if name == "approx" and "rel" in keywords and "abs" not in keywords:
            lines.append(node.lineno)
    return lines


def test_the_guard_finds_a_rel_only_approx():
    assert rel_without_abs("x == pytest.approx(1e-26,\n rel=1e-4)") == [1]
    assert rel_without_abs("x == approx(1e-26, rel=1e-4)") == [1]
    assert rel_without_abs("x == pytest.approx(1e-26, rel=1e-4, abs=0)") == []


def test_every_rel_approx_states_its_abs():
    offenders = [f"{path.name}:{line}" for path in sorted(TESTS.glob("*.py"))
                 for line in rel_without_abs(path.read_text(encoding="utf-8"))]
    assert offenders == []
