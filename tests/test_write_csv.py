"""The blocked CSV writer against the per-row formatter it replaced, and its
finiteness check on the written text against the numpy masks it replaced."""
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qndsim
from qndsim.cavity import CavityGeometry, transverse_spectrum
from qndsim.cli import CSV_BLOCK_ROWS, _distinct, _mirror_cells, main, write_csv, write_mirrored_csv
from qndsim.errors import RegimeError
from qndsim.harness import Trace


def per_row(header, columns):
    # the formatter the runners used before: a string cell as it is, any
    # other cell as repr(float(cell)); integer columns were handed over as
    # strings
    lines = [header]
    for row in zip(*columns):
        lines.append(",".join(str(cell) if isinstance(cell, int)
                              else repr(float(cell)) for cell in row))
    return ("\n".join(lines) + "\n").encode()


SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 3.0, -7.0, 0.1,
           1.7976931348623157e308, 2.0**53, 1e16, 1e-7, 123456789.0]


def test_special_floats_and_ints_match_per_row_formatting(tmp_path):
    floats = np.array(SPECIAL)
    ints = list(range(len(SPECIAL)))
    path = tmp_path / "t.csv"
    write_csv(path, "i,x,y", [(ints, floats, floats[::-1])])
    assert path.read_bytes() == per_row("i,x,y", (ints, floats, floats[::-1]))
    assert path.read_text().splitlines()[1].startswith("0,-0.0,")


@pytest.mark.parametrize("rows", [1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS,
                                  CSV_BLOCK_ROWS + 1, 2 * CSV_BLOCK_ROWS + 3])
def test_table_sizes_around_the_block_match_per_row_formatting(tmp_path,
                                                               rows):
    rng = np.random.default_rng(rows)
    x = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
    n = np.arange(rows)
    path = tmp_path / "t.csv"
    write_csv(path, "n,x", [(n, x)])
    assert path.read_bytes() == per_row("n,x", (n.tolist(), x))


def test_blocks_continue_one_table(tmp_path):
    x = np.linspace(-1.0, 1.0, 3 * CSV_BLOCK_ROWS + 5)
    parts = np.split(x, [7, CSV_BLOCK_ROWS + 7, CSV_BLOCK_ROWS + 8])
    whole, split = tmp_path / "whole.csv", tmp_path / "split.csv"
    write_csv(whole, "x,y", [(x, -x)])
    write_csv(split, "x,y", ((p, -p) for p in parts))
    assert split.read_bytes() == whole.read_bytes() == per_row("x,y", (x, -x))


def test_empty_table_is_its_header(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, "x", [(np.array([]),)])
    assert path.read_text() == "x\n"


@pytest.mark.parametrize("bad, value", [
    (1, np.nan), (CSV_BLOCK_ROWS, np.inf),
    (CSV_BLOCK_ROWS + 1, -np.inf), (2 * CSV_BLOCK_ROWS, np.nan)])
def test_non_finite_cell_names_its_row(tmp_path, bad, value):
    x = np.arange(2 * CSV_BLOCK_ROWS, dtype=float)
    x[bad - 1] = value
    path = tmp_path / "t.csv"
    with pytest.raises(RegimeError,
                       match=rf"t\.csv: non-finite value in row {bad}: "
                             rf"{bad - 1},{value!r}$"):
        write_csv(path, "n,x", [(np.arange(x.size), x)])
    # the blocks before the offending one are on disk, nothing after it
    written = path.read_text().splitlines()
    assert len(written) == 1 + (bad - 1) // CSV_BLOCK_ROWS * CSV_BLOCK_ROWS


def test_non_finite_row_is_counted_across_blocks(tmp_path):
    blocks = [(np.zeros(5),), (np.array([0.0, np.nan]),)]
    with pytest.raises(RegimeError, match="in row 7: nan$"):
        write_csv(tmp_path / "t.csv", "x", blocks)


def test_trace_csv_refuses_non_finite_signal(tmp_path):
    trace = Trace(np.array([0.0, 1.0]), np.array([0.5, np.inf]))
    with pytest.raises(RegimeError, match="trace.csv: non-finite value in "
                                          "row 2: 1.0,inf"):
        write_csv(tmp_path / "trace.csv", "time_s,signal_v", [(trace.times, trace.signal)])


def written(directory: Path, header, blocks, writer=write_csv):
    """(RegimeError text or None, bytes on disk) of one write to t.csv."""
    directory.mkdir()
    path = directory / "t.csv"
    try:
        writer(path, header, blocks)
    except RegimeError as exc:
        return str(exc), path.read_bytes()
    return None, path.read_bytes()


FINITE = st.one_of(st.sampled_from(SPECIAL),
                   st.floats(allow_nan=False, allow_infinity=False))
SIZES = st.one_of(st.sampled_from([0, 1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS,
                                   CSV_BLOCK_ROWS + 1, 2 * CSV_BLOCK_ROWS + 1]),
                  st.integers(0, 40))


@st.composite
def columns(draw, rows: int, rng):
    """(values, index, declared) of one column of one block: values[index]
    are its cells, and rows reference only the first ``used`` values, so a
    non-finite value at the end may be referenced by no row."""
    if draw(st.booleans()):
        values = draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=1,
                               max_size=8))
    else:
        values = draw(st.lists(FINITE, min_size=1, max_size=8)) + draw(
            st.lists(st.sampled_from([np.nan, np.inf, -np.inf]), max_size=2))
    used = draw(st.integers(1, len(values)))
    index = rng.integers(0, used, rows)
    if draw(st.booleans()):
        index.sort()    # runs of one value, as the echo's detuning column
    return np.array(values), index, draw(st.booleans())


@st.composite
def tables(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    width = draw(st.integers(1, 4))
    return [[draw(columns(rows, rng)) for _ in range(width)]
            for rows in draw(st.lists(SIZES, min_size=1, max_size=3))]


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(tables())
# signed zeros stay apart, and the NaN no row references raises nothing
@example([[(np.array([0, 7]), np.array([0, 1, 1, 1, 0]), True),
           (np.array([-0.0, 0.0, np.nan, 2.5]), np.array([1, 0, 3, 3, 0]), True)]])
def test_declared_columns_write_the_expanded_table(table):
    header = ",".join(f"c{j}" for j in range(len(table[0])))
    plain = [tuple(v[i] for v, i, _ in block) for block in table]
    declared = [tuple((v, i) if pair else v[i] for v, i, pair in block)
                for block in table]
    with tempfile.TemporaryDirectory() as tmp:
        got = written(Path(tmp) / "declared", header, declared)
        expected = written(Path(tmp) / "plain", header, plain)
    # the same bytes, and the same error naming the same row and line
    assert got == expected
    # each block keeps its own dtype: an integer column stays integral
    whole = [sum((c.tolist() for c in column), []) for column in zip(*plain)]
    finite = np.concatenate([np.all([np.isfinite(c) for c in block], axis=0)
                             for block in plain])
    if finite.all():
        assert got == (None, per_row(header, whole))
    else:
        assert got[0].startswith(f"t.csv: non-finite value in row "
                                 f"{np.argmin(finite) + 1}: ")


def test_signed_zero_detunings_stay_distinct(tmp_path):
    cfg = Path(qndsim.__file__).parent / "configs" / "spin_echo.json"
    out = tmp_path / "art"
    assert main(["run", str(cfg), "--out", str(out), "--set",
                 "echo.detunings_hz=[0.0,-0.0,0.0,1000.0]"]) == 0
    lines = (out / "spin_echo_traces.csv").read_text().splitlines()
    assert sum(line.startswith("-0.0,") for line in lines) == 51
    assert sum(line.startswith("0.0,") for line in lines) == 102


def test_non_finite_rabi_trace_exits_three(tmp_path, capsys):
    # the detector gain overflows, so every demodulated sample is infinite
    cfg = Path(qndsim.__file__).parent / "configs" / "rabi.json"
    out = tmp_path / "art"
    assert main(["run", str(cfg), "--out", str(out),
                 "--set", "detector.transimpedance_v_per_a=1e308",
                 "--set", "detector.buffer_gain=1e308"]) == 3
    assert "rabi_trace.csv: non-finite value in row 1" in \
        capsys.readouterr().err
    assert not (out / "manifest.json").exists()


# every float, subnormals, the largest magnitudes and the non-finite ones
# included, and every int64, as a column's tolist() hands it to repr
CELLS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                     1.7976931348623157e308, np.nan, np.inf, -np.inf]),
    st.integers(-2**63, 2**63 - 1).map(lambda i: np.array([i]).tolist()[0]),
)


@settings(derandomize=True, max_examples=1000, deadline=None, database=None)
@given(CELLS)
@example(float("nan"))
@example(float("-inf"))
@example(-0.0)
@example(5e-324)
def test_a_cell_holds_an_n_exactly_when_its_value_is_not_finite(value):
    assert ("n" in repr(value)) == (not math.isfinite(value)) == (not np.isfinite(value))


def test_spectrum_lists_write_the_bytes_of_their_arrays(tmp_path):
    columns = list(zip(*transverse_spectrum(CavityGeometry(), 5)))
    lists, arrays = tmp_path / "lists.csv", tmp_path / "arrays.csv"
    write_csv(lists, "m,n,offset_hz", [map(list, columns)])
    write_csv(arrays, "m,n,offset_hz", [map(np.array, columns)])
    assert lists.read_bytes() == arrays.read_bytes()
    # the integral orders stay integral, the fundamental's offset a float
    assert lists.read_text().splitlines()[1] == "0,0,0.0"


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(st.integers(1, 3).flatmap(lambda width: st.lists(
    st.one_of(st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=9),
              st.lists(CELLS.filter(lambda x: isinstance(x, float)), min_size=1, max_size=9)),
    min_size=width, max_size=width)))
def test_list_columns_write_what_their_arrays_write(columns):
    rows = min(map(len, columns))
    columns = [column[:rows] for column in columns]
    header = ",".join(f"c{j}" for j in range(len(columns)))
    with tempfile.TemporaryDirectory() as tmp:
        lists = written(Path(tmp) / "lists", header, [columns])
        arrays = written(Path(tmp) / "arrays", header, [tuple(map(np.array, columns))])
    # the same bytes, and the same error naming the same row and line
    assert lists == arrays


def bits(*values) -> list:
    return np.array(values, dtype=np.float64).view(np.uint64).tolist()


# bit patterns: signed zeros, subnormals, the extremes, infinities and quiet,
# signalling and negative NaNs of distinct payloads
SPECIAL_BITS = bits(0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e-310,
                    1.7976931348623157e308, -1.7976931348623157e308, np.inf, -np.inf) + [
    0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000001,
    0x7FFFFFFFFFFFFFFF]
BITS = st.one_of(st.sampled_from(SPECIAL_BITS), st.floats().map(lambda x: bits(x)[0]))


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(st.lists(BITS, min_size=1, max_size=12), SIZES, st.integers(0, 2**32))
# a -0.0 beside 0.0 and two NaN payloads, over two blocks
@example([bits(0.0)[0], bits(-0.0)[0], 0x7FF8000000000001, 0xFFF8000000000000],
         CSV_BLOCK_ROWS + 1, 3)
def test_distinct_column_writes_the_plain_column(pool, rows, seed):
    # few values, many repeats: the column as the echo signal or a trap plane
    index = np.random.default_rng(seed).integers(0, len(pool), rows)
    x = np.array(pool, dtype=np.uint64)[index].view(np.float64)
    values, inverse = _distinct(x)
    assert values.dtype == np.float64
    assert np.array_equal(values[inverse].view(np.uint64), x.view(np.uint64))
    assert np.unique(values.view(np.uint64)).size == values.size
    n = np.arange(rows)
    with tempfile.TemporaryDirectory() as tmp:
        got = written(Path(tmp) / "distinct", "n,x", [(n, (values, inverse))])
        expected = written(Path(tmp) / "plain", "n,x", [(n, x)])
    # the same bytes, and the same error naming the same row and line
    assert got == expected


def test_distinct_keeps_signed_zeros_and_nan_payloads_apart():
    values, index = _distinct(np.array([0.0, -0.0, 0.0, -0.0]))
    assert sorted(map(repr, values.tolist())) == ["-0.0", "0.0"]
    assert list(map(repr, values[index].tolist())) == ["0.0", "-0.0", "0.0", "-0.0"]
    nans = np.array([0x7FF8000000000000, 0x7FF8000000000001], dtype=np.uint64)
    assert _distinct(nans.view(np.float64))[0].size == 2


SIGN = np.uint64(1 << 63)
FINITE_BITS = st.one_of(st.sampled_from(SPECIAL_BITS[:8]),
                        st.floats(allow_nan=False, allow_infinity=False).map(lambda x: bits(x)[0]))
MIRROR_SIZES = st.one_of(
    st.sampled_from([0, 1, 2, 3, CSV_BLOCK_ROWS // 4 - 1, CSV_BLOCK_ROWS // 4,
                     CSV_BLOCK_ROWS // 4 + 1,
                     CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1,
                     2 * CSV_BLOCK_ROWS + 3]),
    st.integers(0, 40))


@st.composite
def mirrored_column(draw, rows: int, rng):
    """Bit patterns of a column whose later half negates its first half's
    bits in mirror order, with some cells then set to values that need not
    negate their mirror's: pool values (infinities and NaNs of either sign
    and payload among them), or their mirror's own value."""
    pool = np.array(draw(st.lists(FINITE_BITS, min_size=1, max_size=8))
                    + draw(st.lists(st.sampled_from(SPECIAL_BITS[8:]), max_size=2)),
                    dtype=np.uint64)
    x = pool[rng.integers(0, pool.size, rows)]
    x[rows - rows // 2:] = x[:rows // 2][::-1] ^ SIGN
    for at in rng.integers(0, max(rows, 1), draw(st.integers(0, 3)) if rows else 0):
        x[at] = pool[rng.integers(pool.size)] if draw(st.booleans()) else x[rows - 1 - at]
    return x


@st.composite
def mirrored_tables(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    rows = draw(MIRROR_SIZES)
    return [draw(mirrored_column(rows, rng)) for _ in range(draw(st.integers(1, 4)))]


def mirror(*front):
    """Bit patterns of a column: ``front``'s values, then their negations
    in mirror order."""
    return bits(*front, *(-np.array(front[::-1])))


@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@given(mirrored_tables())
# signed zeros, subnormals and the extremes pair up; a negated NaN does not
@example([mirror(0.0, -0.0, 5e-324, -1.7976931348623157e308, 3.0),
          mirror(-5e-324, 2.0, 1e-310, 0.1, -0.0)])
@example([bits(0.0, 1.0, -1.0, 0.0), bits(np.nan, 2.0, -2.0, -np.nan)])
@example([mirror(1.0, 2.0) + [0x7FF8000000000001, 0xFFF8000000000001]
          + mirror(3.0, 4.0)[2:]])
@example([mirror(*range(2 * CSV_BLOCK_ROWS)) + bits(np.inf)])
@example([bits(np.inf, 0.0, -np.inf)])
def test_mirrored_columns_write_the_plain_table(table):
    columns = tuple(np.array(column, dtype=np.uint64).view(np.float64) for column in table)
    header = ",".join(f"c{j}" for j in range(len(columns)))
    with tempfile.TemporaryDirectory() as tmp:
        got = written(Path(tmp) / "mirrored", header, columns, write_mirrored_csv)
        expected = written(Path(tmp) / "plain", header, [columns])
    # the same bytes, or the same error naming the same row and line
    assert got[0] == expected[0]
    if expected[0] is None:
        assert got[1] == expected[1]


def test_a_negated_nan_is_not_a_mirror_pair():
    # a NaN's own row raises first in the writer; its cells still say nan
    nans = np.array([0x7FF8000000000001, 0xFFF8000000000001], dtype=np.uint64).view(np.float64)
    assert _mirror_cells(nans[:1], nans[1:]) == (["nan"], ["nan"])
    assert _mirror_cells(nans[1:], nans[:1]) == (["nan"], ["nan"])
    assert _mirror_cells(np.array([0.0, 2.5]), np.array([-0.0])) == (["0.0", "2.5"], ["-0.0"])


def test_memory_stays_at_one_block_however_long_the_table(tmp_path):
    # the writer holds one block's cells and text at a time, none of the
    # block before: three blocks and a few rows peak within a quarter of one
    # block's peak, where formatting whole columns at once peaks at three times
    x = np.linspace(-1.0, 1.0, 3 * CSV_BLOCK_ROWS + 5) / 3.0
    y = -x
    peaks = []
    tracemalloc.start()
    try:
        for rows in (CSV_BLOCK_ROWS, x.size):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            write_csv(tmp_path / f"{rows}.csv", "x,y", [(x[:rows], y[:rows])])
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    assert peaks[1] < 1.25 * peaks[0], peaks
