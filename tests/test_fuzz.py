"""Whole runs on mutated inputs: `run` and `validate` exit 0 or 2, with one
`error:` line on 2 and no traceback, and a mutated flight table gives the same
outputs and messages in one process as in three."""

import contextlib
import io
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aeroemit import cli, pipeline
from conftest import build_corpus, in_shards, write_config

# The files a mutation may change: the six tables, two matching tables, the config.
FILES = ("ontime.csv", "b43.csv", "tail_registry.csv", "engine_codes.csv", "icao_engines.csv",
         "bada_ccd.csv", "normalization_rules.csv", "family_fallback.csv", "run.cfg")
# Bytes an insertion adds: a quote, a CR, a NUL, a byte that is not UTF-8, a BOM.
BYTES = [b'"', b"\r", b"\x00", b"\xff", b"\xef\xbb\xbf"]
# Cells a cell mutation writes: an overflow, a NaN, an impossible date, an
# integer beyond a double.
CELLS = [b"1e400", b"NaN", b"2021-02-30", b"12345678901234567890123"]
AT = st.integers(0, 1 << 20)  # a byte or line, modulo the file's length
MUTATIONS = st.lists(st.one_of(
    st.tuples(st.just("delete"), AT, st.integers(1, 8)),
    st.tuples(st.just("insert"), AT, st.sampled_from(BYTES)),
    st.tuples(st.just("duplicate"), AT),
    st.tuples(st.just("truncate"), AT),
    st.tuples(st.just("cell"), AT, st.integers(0, 9), st.sampled_from(CELLS))),
    min_size=1, max_size=4)


def mutate(data: bytes, mutation: tuple) -> bytes:
    kind, at, *args = mutation
    if kind in ("delete", "insert", "truncate"):
        at %= len(data) + 1
        if kind == "delete":
            return data[:at] + data[at + args[0]:]
        return data[:at] + args[0] + data[at:] if kind == "insert" else data[:at]
    lines = data.splitlines(keepends=True)
    if not lines:
        return data
    at %= len(lines)
    if kind == "duplicate":
        lines.insert(at, lines[at])
    else:
        row = lines[at].rstrip(b"\r\n")
        cells = row.split(b",")
        cells[args[0] % len(cells)] = args[1]
        lines[at] = b",".join(cells) + lines[at][len(row):]
    return b"".join(lines)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> Path:
    """A small corpus and its config, every path in it relative to the config,
    so that no mutation of it names a file outside the directory."""
    root = tmp_path_factory.mktemp("fuzz")
    paths = build_corpus(root, n_flights=300)
    write_config(root, {key: path.name for key, path in paths.items()}, Path("out"))
    return root


def invoke(argv: list[str]) -> tuple[int, str, str]:
    """`cli.main(argv)`'s exit code, standard output and standard error; on
    exit 2, one `error:` line and no traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert sum(line.startswith("error:") for line in err.getvalue().splitlines()) == 1
    return code, out.getvalue(), err.getvalue()


def run_and_validate(root: Path, shards: int) -> tuple:
    """What `run` and `validate` give in `shards` processes: their exit codes
    and messages, and the bytes of each output file `run` left."""
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(root)  # a config without output_dir writes below it
        in_shards(patch, shards)
        shutil.rmtree(root / "out", ignore_errors=True)
        ran = invoke(["run", "--config", str(root / "run.cfg")])
        outputs = {name: (root / "out" / name).read_bytes() for name in pipeline.OUTPUT_FILES
                   if (root / "out" / name).is_file()}
        return ran, outputs, invoke(["validate", "--config", str(root / "run.cfg")])


@contextlib.contextmanager
def mutated(corpus: Path, name: str, mutations: list[tuple]):
    """A copy of `corpus` whose file `name` has had each of `mutations`."""
    with tempfile.TemporaryDirectory(dir=corpus.parent) as tmp:
        root = Path(shutil.copytree(corpus, Path(tmp) / "corpus"))
        data = (root / name).read_bytes()
        for mutation in mutations:
            data = mutate(data, mutation)
        (root / name).write_bytes(data)
        yield root


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(FILES), mutations=MUTATIONS)
def test_mutated_input_exits_0_or_2(corpus, name, mutations):
    with mutated(corpus, name, mutations) as root:
        run_and_validate(root, 1)


@settings(max_examples=60, deadline=None)
@given(mutations=MUTATIONS)
def test_mutated_flight_table_same_in_one_and_three_processes(corpus, mutations):
    with mutated(corpus, "ontime.csv", mutations) as root:
        assert run_and_validate(root, 3) == run_and_validate(root, 1)
