"""Print a sha256 of each output whose bits a refactor must keep, then one of them all.

The outputs: the Monte Carlo table ``table_experiments(reps=150, seed=1)``,
run serially and with ``TAILMOMENTS_THREADS=2``; 40 ``estimate`` commands
(ten method settings that cover every method in each margin convention,
index sets ``1,2,3`` and ``1,3``, JSON and CSV) on a seeded 400-row d=3 CSV
that numpy draws, not the package; the four ``oracle`` modes on scenario
(0.4, 0.6); ``experiment --config`` and ``experiment --table1 --reps 20``
with their ``--csv`` files; the files that ``simulate --scenario 0.4,0.6
--n 500 --seed 3`` and ``grid --pq-grid 0.25`` write, which pin the CSV
writer's bytes; ``run_experiment`` on a written-out d=3 model, whose
rank pipeline solves m=3 quadratic programs; ``estimate --method mu`` on
that CSV squared (tail index 1/2); ``oracle --avars`` on the d=3 model's
measure; and the bits of ``frechet_sample``.  The
package is imported from the given source directory (by default the
``src`` beside this script), in one child process per
``TAILMOMENTS_THREADS`` setting, and everything is written to a temporary
directory.  The first two lines name the numpy and Python versions that
made the rest.  Run it on two checkouts and compare the lines:

    python3 tools/output_hashes.py [src dir]

``tests/golden_outputs.txt`` holds these lines for the committed ``src``; a
change that means to move an output replaces only that output's line there.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
SRC = TOOLS.parent / "src"

#: the ``estimate`` settings: each method in each margin convention, and the --optimal weights
ESTIMATE_SETTINGS = (
    ("--method", "bk", "--known-margins"),
    ("--method", "bk", "--known-margins", "--optimal"),
    ("--method", "mk", "--known-margins"),
    ("--method", "moment", "--known-margins"),
    ("--method", "moment", "--known-margins", "--optimal", "--p", "2"),
    ("--method", "hill"),
    ("--method", "bu"),
    ("--method", "mu"),
    ("--method", "moment"),
    ("--method", "moment", "--optimal", "--p", "2"),
)
ORACLE_MODES = (("--tau",), ("--avars",), ("--optimal-weights",), ("--c", "0.3,0.7;1,2;0.5;2"))
#: a three-component, five-factor model with rows summing to one
D3_COEFFS = [[0.30, 0.05, 0.25, 0.10, 0.30],
             [0.10, 0.40, 0.05, 0.30, 0.15],
             [0.20, 0.20, 0.30, 0.05, 0.25]]


def _sample_csv(path: Path, power: float = 1.0) -> None:
    """A seeded 400 x 3 max-linear sample of unit-Frechet factors, drawn by numpy, raised to
    ``power``."""
    import numpy as np

    coeffs = np.array([[0.5, 0.3, 0.2, 0.0], [0.0, 0.5, 0.3, 0.2], [0.2, 0.0, 0.3, 0.5]])
    factors = 1.0 / np.random.default_rng(20).exponential(size=(400, 1, 4))
    np.savetxt(path, (factors * coeffs).max(axis=-1) ** power, delimiter=",", fmt="%.17g",
               header="X1,X2,X3", comments="")


def _cli(*argv: str, files: tuple[str, ...] = ()) -> bytes:
    """The exit code, standard output and the written ``files`` of one command."""
    from tailmoments.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return b"".join([f"exit {code}\n{out.getvalue()}{err.getvalue()}".encode(),
                     *(Path(name).read_bytes() for name in files)])


def _outputs(src: str, reps: int, table_only: bool) -> dict[str, bytes]:
    """In the child, in the temporary directory: each output's bytes, only the table's when
    ``table_only``."""
    import tailmoments as tm

    if not Path(tm.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"tailmoments was imported from {tm.__file__}, not from {src}")
    table = tm.table_experiments(reps=reps, seed=1)
    label = f"table_experiments reps={reps} threads={os.environ.get('TAILMOMENTS_THREADS', '-')}"
    out = {label: json.dumps({name: report.to_dict() for name, report in table.items()}).encode()}
    if table_only:
        return out
    _sample_csv(Path("sample.csv"))
    for setting in ESTIMATE_SETTINGS:
        for index_set in ("1,2,3", "1,3"):
            for form in ("json", "csv"):
                argv = ("estimate", "--input", "sample.csv", "--index-set", index_set, *setting,
                        "--output", form)
                out[" ".join(argv)] = _cli(*argv)
    _sample_csv(Path("squared.csv"), power=2.0)
    argv = ("estimate", "--input", "squared.csv", "--index-set", "1,2,3", "--method", "mu")
    out[" ".join(argv)] = _cli(*argv)
    for mode in ORACLE_MODES:
        argv = ("oracle", "--scenario", "0.4,0.6", "--index-set", "1,2", *mode)
        out[" ".join(argv)] = _cli(*argv)
    d3 = tm.MaxLinearModel(D3_COEFFS)
    Path("measure.json").write_text(json.dumps(tm.model_spectral_measure(d3).to_dict()))
    argv = ("oracle", "--measure", "measure.json", "--index-set", "1,2,3", "--avars")
    out[" ".join(argv)] = _cli(*argv)
    report = tm.run_experiment(tm.ExperimentConfig(model=d3, n=1000, k=50, reps=20, seed=5))
    out["run_experiment d=3 n=1000 k=50 reps=20 seed=5"] = json.dumps(report.to_dict()).encode()
    Path("config.json").write_text(json.dumps(
        {"scenario": [0.4, 0.6], "n": 500, "k": 25, "reps": reps, "seed": 3}))
    for argv in (("experiment", "--config", "config.json"),
                 ("experiment", "--table1", "--reps", "20")):
        out[" ".join(argv) + " --csv"] = _cli(*argv, "--csv", "table.csv", files=("table.csv",))
    for argv in (("simulate", "--scenario", "0.4,0.6", "--n", "500", "--seed", "3"),
                 ("grid", "--pq-grid", "0.25")):
        out[" ".join(argv) + " --output"] = _cli(*argv, "--output", "out.csv", files=("out.csv",))
    draws = [tm.frechet_sample(n, alpha, seed).tobytes() for n in (1, 5, 1000, 70000)
             for alpha in (0.5, 1.0, 1.5, 3.0) for seed in (0, 11, 2 ** 40, [0, 11, 2 ** 40])]
    out["frechet_sample"] = b"".join(draws)
    return out


def _child(src: Path, reps: int, table_only: bool, threads: str | None) -> dict[str, str]:
    """The sha256 of each output of one child process, run in a temporary directory."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    env.pop("TAILMOMENTS_THREADS", None)
    if threads is not None:
        env["TAILMOMENTS_THREADS"] = threads
    code = (f"import hashlib, json, sys; sys.path.insert(0, {str(TOOLS)!r}); import output_hashes; "
            f"out = output_hashes._outputs({str(src)!r}, {reps}, {table_only}); "
            "print(json.dumps({k: hashlib.sha256(v).hexdigest() for k, v in out.items()}))")
    with tempfile.TemporaryDirectory() as tmp:
        done = subprocess.run([sys.executable, "-c", code], cwd=tmp, env=env,
                              capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"the outputs of {src} failed:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout)


def hashes(src: Path = SRC, reps: int = 150) -> dict[str, str]:
    """The sha256 of each output of the package in ``src``, by name, in a fixed order, with
    the table's Monte Carlo at ``reps`` replications."""
    src = Path(src).resolve()
    return {**_child(src, reps, False, None), **_child(src, reps, True, "2")}


def combined(digests: dict[str, str]) -> str:
    """One sha256 of every ``name sha256`` line."""
    return hashlib.sha256("".join(f"{name} {d}\n" for name, d in digests.items()).encode()
                          ).hexdigest()


def versions() -> list[str]:
    """The lines naming the numpy and Python versions of this interpreter."""
    import numpy as np

    return [f"numpy {np.__version__}", f"python {platform.python_version()}"]


def differences(golden: str, digests: dict[str, str]) -> list[str]:
    """What the lines of a golden file say against ``digests``: that numpy's version differs
    from the one that made them, else one message for each output whose line differs, is
    missing or is new (the combined line among them)."""
    lines = golden.splitlines()
    made, here = lines[0], versions()[0]
    if made != here:
        return [f"the golden outputs were made with {made}, this is {here}"]
    expected = dict(line.rsplit(" ", 1) for line in lines[2:])
    got = {**digests, "combined": combined(digests)}
    return [f"{name}: " + ("new" if name not in expected else "missing" if name not in got
                           else "differs")
            for name in [*expected, *(name for name in got if name not in expected)]
            if expected.get(name) != got.get(name)]


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    digests = hashes(Path(args[0]) if args else SRC)
    for line in versions():
        print(line)
    for name, digest in digests.items():
        print(f"{name} {digest}")
    print(f"combined {combined(digests)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
