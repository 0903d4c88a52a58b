"""Each bound a config field and a model record share is stated once, in
constants.LIMITS, and both layers hold it at the same edge.

For every LIMITS key and bound, at the limit and at the nearest float on each
side of it: `validate` of a config holding the field names the field with that
bound only outside it, and every record holding the field's stem raises
DomainError only outside the bound's SI view. Every limited record field
refuses NaN, and `solve_mode`'s GaussianMode is left unchecked.
"""
import json
import math
import operator
import re
from pathlib import Path

import pytest

import qndsim
from qndsim import atoms, cavity, harness, heterodyne, trap
from qndsim.cli import FIELDS, validate_config
from qndsim.constants import LIMITS, SI_LIMITS, Record
from qndsim.errors import DomainError

CONFIG_DIR = Path(qndsim.__file__).parent / "configs"
INSIDE = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}
# the fields without a default of the records that have some
REQUIRED = {atoms.EnsembleState: {"atom_number": 1e6},
            harness.MicrowavePulse: {"rabi_frequency": 1e3, "duration": 1e-3},
            harness.FreeEvolution: {"duration": 1e-3}}
LIMITED = (heterodyne.DetectorModel, heterodyne.ModulatedProbe, harness.ProbeGate,
           atoms.EnsembleState, cavity.CavityGeometry, trap.DipoleTrapConfig,
           atoms.RabiModel, harness.MicrowavePulse, harness.FreeEvolution)


def around(limit: float) -> tuple:
    return math.nextafter(limit, -math.inf), limit, math.nextafter(limit, math.inf)


def package_records() -> list:
    found, todo = [], [Record]
    while todo:
        subclasses = todo.pop().__subclasses__()
        found += [cls for cls in subclasses if cls.__module__.startswith("qndsim.")]
        todo += subclasses
    return found


def test_the_limited_records_are_the_models_a_config_sets():
    limited = [cls for cls in package_records() if cls._limits]
    assert sorted(limited, key=repr) == sorted(LIMITED, key=repr)
    # every table stem is a field of some limited record
    assert {name for cls in LIMITED for name, *_ in cls._limits} == set(SI_LIMITS)


def test_every_row_of_a_limited_field_has_the_table_bounds():
    rows = [row for fields in FIELDS.values() for row in fields if row.key in LIMITS]
    assert {row.key for row in rows} == set(LIMITS)
    for row in rows:
        assert row.bounds == LIMITS[row.key], (row.section, row.key)


CONFIG_CASES = [(scenario, row.section, row.key, bound, value)
                for scenario, fields in FIELDS.items() for row in fields if row.key in LIMITS
                for bound in row.bounds for value in around(float(bound.split()[1]))]


@pytest.mark.parametrize("scenario, section, key, bound, value", CONFIG_CASES)
def test_validate_names_the_field_only_outside_its_bound(scenario, section, key, bound,
                                                         value):
    cfg = json.loads((CONFIG_DIR / f"{scenario.replace('-', '_')}.json").read_text())
    cfg.setdefault(section, {})[key] = value
    op, limit = bound.split()
    named = f"{section}.{key}: must be {bound}" in validate_config(cfg)
    assert named == (not INSIDE[op](value, float(limit)))


RECORD_CASES = [(cls, name, op, limit, value) for cls in LIMITED
                for name, op, limit in cls._limits for value in around(limit)]


@pytest.mark.parametrize("cls, name, op, limit, value", RECORD_CASES,
                         ids=[f"{c.__name__}-{n}{o}{x!r}-{v!r}" for c, n, o, x, v in RECORD_CASES])
def test_a_record_refuses_a_field_only_outside_its_bound(cls, name, op, limit, value):
    args = {**REQUIRED.get(cls, {}), name: value}
    if INSIDE[op](value, limit):
        assert getattr(cls(**args), name) == value
    else:
        with pytest.raises(DomainError, match="^" + re.escape(f"{name} must be {op} {limit!r}, got ")):
            cls(**args)


@pytest.mark.parametrize("cls, name", [(cls, name) for cls in LIMITED
                                       for name in dict.fromkeys(n for n, *_ in cls._limits)])
def test_a_limited_record_field_refuses_nan(cls, name):
    with pytest.raises(DomainError, match=f"^{name} must be .*, got nan$"):
        cls(**{**REQUIRED.get(cls, {}), name: math.nan})


def test_the_solved_mode_is_unchecked():
    # solve_mode's figures reach the writer, which names a non-finite one
    mode = cavity.GaussianMode(-1.0, math.nan, 1.0, 1.0, 0.0, 0.0, 0.0, math.nan, 0.0)
    assert mode.waist_par == -1.0 and not cavity.GaussianMode._limits
