"""A seeded sweep of the `run` and `compare` keys at edge values.

Each call picks an algorithm and a random subset of `_RUN_KEYS`, given by
flag, in a `--run` spec or in a config file, at an edge value or an
ordinary one. Every call must exit 0 or 2 and raise nothing; one that exits
2 writes no file and names a flag, a key or `path:line`. Whether the costs
of a run that exits 0 are finite is not asserted here.

A second sweep feeds `ingest` byte-level mutations of a clean triplet file
and requires the outcome the per-line scan alone gives.
"""

import re

import numpy as np
import pytest

import wlra.cli
import wlra.data_io
from wlra.cli import main
from wlra.data_io import synth_lowrank, write_triplets

EDGES = ["0", "-0.0", "5e-324", "1e-300", "1e300", "nan", "inf"]
# An ordinary value of each key, so that some calls run.
ORDINARY = {
    "k": "2", "lambda": "1e-3", "bigK": "2", "iota": "1e-3", "alpha-bar": "2", "beta": "0.5",
    "seed": "3", "iters": "4", "seconds": "0.002", "trace-every": "2", "adaptive": "yes",
}
SWEPT = sorted(ORDINARY)
CASES = 300
# A refusal names a flag (--k, or argparse's "argument --k"), a key
# ("bad value ... for iters", "lambda=0.01 gives ...") or a config line (path:line).
KEYS = "|".join(re.escape(key) for key in wlra.cli._RUN_KEYS)
NAMED = re.compile(rf"--[a-zA-Z]|\bfor ({KEYS})\b|\b({KEYS})=|:\d+:")
# A refusal of k's value ("got k=0", "k <= min(m, n)") names the flag --k as well.
K_VALUE = re.compile(r"\bk\s*(=|<=|>=)")


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A fully observed and a partially observed instance."""
    root = tmp_path_factory.mktemp("sweep")
    paths = {}
    for name, prob in (("full", 1.0), ("partial", 0.5)):
        paths[name] = root / f"{name}.csv"
        write_triplets(synth_lowrank(12, 8, 2, prob, 0.1, seed=1), paths[name])
    return paths


def call(argv, capsys):
    """`main(argv)`'s exit status and stderr; an argparse refusal is status 2."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


def random_case(rng, tmp_path, files):
    """The argv of one random call, and the file it would write."""
    algorithm = str(rng.choice(wlra.cli.ALGORITHMS))
    values = {"iters": ORDINARY["iters"]}
    if not algorithm.endswith("pw"):
        values["lambda"] = ORDINARY["lambda"]
    for key in SWEPT:
        if rng.random() < 0.2:
            edges = [v for v in EDGES if not (key == "seconds" and v == "1e300")]
            values[key] = str(rng.choice(edges)) if rng.random() < 0.5 else ORDINARY[key]
    if "seconds" in values and rng.random() < 0.8:
        del values["iters"]  # else both budgets are set, which is refused
    # The positive-weights algorithms need every cell observed, which is a
    # property of the data and not of a key; the others take either file.
    data = files["full" if algorithm.endswith("pw") or rng.random() < 0.5 else "partial"]
    out = tmp_path / "out.csv"
    base = ["--in", str(data), "--out", str(out)]
    if rng.random() < 0.5:
        spec = ",".join(f"{k}={v}" for k, v in {"algorithm": algorithm, **values}.items())
        return ["compare", *base, "--k", ORDINARY["k"], "--run", spec], out
    flags, config = {"algorithm": algorithm, "k": ORDINARY["k"]}, {}
    for key, value in values.items():
        (flags if rng.random() < 0.5 else config)[key] = value
    argv = ["run", *base]
    for key, value in flags.items():
        if key == "adaptive":
            argv.append("--adaptive")
        else:
            argv.append(f"--{key}={value}")
    if config:
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("".join(f"{k}={v}\n" for k, v in config.items()))
        argv += ["--config", str(cfg)]
    return argv, out


def test_seeded_sweep_exits_0_or_2(tmp_path, files, capsys):
    rng = np.random.default_rng(20)
    failures, codes = [], []
    for _ in range(CASES):
        argv, out = random_case(rng, tmp_path, files)
        out.unlink(missing_ok=True)
        try:
            code, err = call(argv, capsys)
        except Exception as exc:  # the sweep reports every case that raises
            failures.append((argv, f"raised {exc!r}"))
            continue
        codes.append(code)
        named = NAMED.search(err) and ("--k" in err or not K_VALUE.search(err))
        if code == 2 and (out.exists() or not named):
            failures.append((argv, f"exit 2, wrote {out.exists()}, said {err!r}"))
        elif code not in (0, 2) or (code == 0 and not out.exists()):
            failures.append((argv, f"exit {code}, wrote {out.exists()}, said {err!r}"))
    assert failures == []
    # both outcomes are reached, so the sweep is not all refusals
    assert codes.count(0) >= CASES // 10 and codes.count(2) >= CASES // 10


# Byte-level mutations of a clean triplet file. Some never change which
# observations the file holds (line ends, blank lines, order); the others may
# make it invalid.
SEPARATORS = [b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e", b"\x1f", "\u0085".encode(),
              "\u2028".encode(), b" "]
MUTATIONS = ["crlf", "lone_cr", "blank", "spaces", "shuffle",
             "bom", "separator", "separator_line", "latin1", "repeat"]
INGEST_CASES = 200
LINE = re.compile(r"\bline \d+\b")


def mutate(rng, text):
    """`text` as bytes after one to three random MUTATIONS."""
    header, *lines = text.encode().splitlines()
    end, prefix = b"\n", b""
    for kind in rng.choice(MUTATIONS, size=int(rng.integers(1, 4)), replace=False).tolist():
        at = int(rng.integers(0, len(lines)))
        cut = int(rng.integers(0, len(lines[at]) + 1))
        if kind == "crlf":
            end = b"\r\n"
        elif kind == "lone_cr":
            at = min(at, len(lines) - 2)
            lines[at : at + 2] = [lines[at] + b"\r" + lines[at + 1]]
        elif kind == "blank":
            lines.insert(at, b"")
        elif kind == "spaces":
            lines.insert(at, b" \t ")
        elif kind == "separator_line":
            lines.insert(at, SEPARATORS[int(rng.integers(0, len(SEPARATORS)))])
        elif kind == "shuffle":
            lines = [lines[i] for i in rng.permutation(len(lines)).tolist()]
        elif kind == "bom":
            prefix = "\ufeff".encode()
        elif kind in ("separator", "latin1"):
            byte = b"\xe9" if kind == "latin1" else SEPARATORS[int(rng.integers(0, len(SEPARATORS)))]
            lines[at] = lines[at][:cut] + byte + lines[at][cut:]
        elif kind == "repeat":
            lines.insert(int(rng.integers(at, len(lines))) + 1, lines[at])
    return prefix + end.join([header, *lines]) + end


def ingest(path, out, capsys):
    """`wlra ingest`'s exit status, stderr and output bytes (None when it wrote none)."""
    out.unlink(missing_ok=True)
    code, err = call(["ingest", "--in", str(path), "--out", str(out)], capsys)
    return code, err, out.read_bytes() if out.exists() else None


def test_seeded_ingest_sweep_matches_the_scan(tmp_path, files, capsys, monkeypatch):
    # Every mutated file loads as the per-line scan alone loads it: exit 0
    # with the same output bytes, or exit 2 with the same error, naming the
    # line, and no output.
    rng = np.random.default_rng(29)
    text = files["partial"].read_text()
    path, out = tmp_path / "mutated.csv", tmp_path / "ingested.csv"
    parsed = []
    real_parse = wlra.data_io._parse_table
    monkeypatch.setattr(
        wlra.data_io, "_parse_table", lambda *a: parsed.append(real_parse(*a)) or parsed[-1]
    )
    failures, codes = [], []
    for _ in range(INGEST_CASES):
        raw = mutate(rng, text)
        path.write_bytes(raw)
        try:
            got = ingest(path, out, capsys)
            with monkeypatch.context() as scan_only:
                scan_only.setattr(wlra.data_io, "_parse_table", lambda *args: None)
                want = ingest(path, out, capsys)
        except Exception as exc:  # the sweep reports every case that raises
            failures.append((raw, f"raised {exc!r}"))
            continue
        codes.append(got[0])
        if got != want or got[0] not in (0, 2) or (got[0] == 2) != (got[2] is None):
            failures.append((raw, got, want))
        elif got[0] == 2 and not LINE.search(got[1]):
            failures.append((raw, f"exit 2 names no line: {got[1]!r}"))
    assert failures == []
    # Both outcomes are reached, and the one-pass parse decides some cases.
    assert codes.count(0) >= INGEST_CASES // 10 and codes.count(2) >= INGEST_CASES // 10
    assert sum(result is not None for result in parsed) >= INGEST_CASES // 10
