"""SHA-256 digests of everything the ``ifgame`` CLI writes for the bundled games.

Runs ``ifgame analyze``, ``solve``, ``sweep`` and ``simulate`` on each
``configs/*.json`` game, and ``simulate`` and ``solve --solver vi`` on
``perfbench/n4_simulate.json`` and on ``NONUNIFORM``, a game with
non-uniform link probabilities and one zero-probability entry.  On
``NONUNIFORM`` it also runs ``solve --solver pareto`` with 2 starts of
at most 20 multiplier rounds, which stops before AL converges and exits
2, so that the augmented-Lagrangian bytes are covered under unequal
state weights.  Then
``simulate``, and ``solve --solver iwf`` with the sequential scheme, on
``BLOCKS``, whose states fill two and a part of the floors
kernel's blocks.  Last, ``solve --solver iwf`` on ``HUGE_OWN_POWER``,
where one player's own received power passes 2^53.  The last three
games are written into the temporary directory the outputs go to.  Prints one line per output file, and one
for the standard output and one for the standard error of each run,
sorted by path:

    <sha256>  <run>/<file>  exit=<code>

The temporary directory is written as ``<out>`` in the standard output
before it is hashed.  Run it at two commits and ``diff`` the results to
check that a change writes the same bytes:

    python3 tools/output_digests.py > after.txt
    python3 tools/output_digests.py --repo ../parent > before.txt
    diff before.txt after.txt

The bytes depend on the numpy and BLAS build, so compare runs made with
the same interpreter on the same machine.  Only the standard library is
used here; the runs themselves need numpy.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = ("analyze", "solve", "sweep", "simulate")

#: 3 players, 256 states: link (1, 2) never takes cross gain 0.5, so the
#: state probabilities are products of unequal factors, and water-filling
#: sorts its breakpoints
NONUNIFORM = {
    "game": {
        "players": 3,
        "direct_gains": [3.0, 1.5],
        "cross_gains": [0.1, 0.5],
        "link_probs": {
            "direct": [[0.7, 0.3], [0.4, 0.6], [0.25, 0.75]],
            "cross": [[[0.5, 0.5], [1.0, 0.0], [0.6, 0.4]],
                      [[0.3, 0.7], [0.5, 0.5], [0.9, 0.1]],
                      [[0.2, 0.8], [0.55, 0.45], [0.5, 0.5]]],
        },
        "pbar": [1.0, 1.5, 0.5],
    },
    "simulate": {"slots": 100000, "seed": 3},
}

#: 3 players, 3^9 = 19 683 states: two full blocks of the floors
#: kernel and a partial one.  The contraction condition holds, so
#: ``simulate`` runs IWF
BLOCKS = {
    "game": {
        "players": 3,
        "direct_gains": [1.0, 2.0, 3.0],
        "cross_gains": [0.05, 0.1, 0.2],
        "pbar": 1.0,
    },
}


#: 2 players, 4 states, budgets 1 and 1e16: player 2's own received
#: power passes 2^53, where a floor formed as (1 + received) - own
#: loses the unit noise
HUGE_OWN_POWER = {
    "game": {
        "players": 2,
        "direct_gains": [2.0, 1.0],
        "cross_gains": [0.3, 0.1],
        "pbar": [1.0, 1e16],
    },
}


def runs(repo, tmp):
    """(run name, CLI arguments before ``--out``) of every CLI run, over
    the checkout's own ``configs/*.json`` in sorted order, then the n4,
    the non-uniform, the blocks and the huge-own-power games; the last
    three, and their configs with solver settings, are written into
    ``tmp``."""
    for config in sorted((repo / "configs").glob("*.json")):
        for command in COMMANDS:
            yield f"{config.stem}-{command}", [command, "--config", str(config)]
    n4 = str(repo / "perfbench" / "n4_simulate.json")
    yield "n4-simulate", ["simulate", "--config", n4]
    yield "n4-solve-vi", ["solve", "--config", n4, "--solver", "vi"]
    nonuniform = Path(tmp) / "nonuniform.json"
    nonuniform.write_text(json.dumps(NONUNIFORM), encoding="utf-8")
    yield "nonuniform-simulate", ["simulate", "--config", str(nonuniform)]
    yield "nonuniform-solve-vi", ["solve", "--config", str(nonuniform), "--solver", "vi"]
    pareto = Path(tmp) / "nonuniform-pareto.json"
    pareto.write_text(json.dumps(dict(
        NONUNIFORM, solver={"pareto": {"starts": 2, "max_outer": 20}})), encoding="utf-8")
    yield "nonuniform-solve-pareto", ["solve", "--config", str(pareto),
                                      "--solver", "pareto"]
    blocks = Path(tmp) / "blocks.json"
    blocks.write_text(json.dumps(BLOCKS), encoding="utf-8")
    yield "blocks-simulate", ["simulate", "--config", str(blocks)]
    sequential = Path(tmp) / "blocks-sequential.json"
    sequential.write_text(json.dumps(
        dict(BLOCKS, solver={"iwf": {"scheme": "sequential"}})), encoding="utf-8")
    yield "blocks-solve-iwf-sequential", ["solve", "--config", str(sequential),
                                          "--solver", "iwf"]
    huge = Path(tmp) / "huge-own-power.json"
    huge.write_text(json.dumps(HUGE_OWN_POWER), encoding="utf-8")
    yield "huge-own-power-solve-iwf", ["solve", "--config", str(huge), "--solver", "iwf"]


def digest(data):
    return hashlib.sha256(data).hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repo", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="checkout to run (default: this one)")
    args = parser.parse_args(argv)
    repo = args.repo.resolve()
    env = dict(os.environ, PYTHONPATH=str(repo / "src"))
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, args in runs(repo, tmp):
            out = Path(tmp) / name
            proc = subprocess.run(
                [sys.executable, "-m", "ifgame", *args, "--out", str(out)],
                cwd=repo, env=env, capture_output=True, check=False)
            code = proc.returncode
            for stream, data in (("stdout", proc.stdout), ("stderr", proc.stderr)):
                data = data.replace(tmp.encode(), b"<out>")
                lines.append((f"{name}/{stream}", digest(data), code))
            files = out.rglob("*") if out.exists() else ()
            lines += [(str(path.relative_to(tmp)), digest(path.read_bytes()), code)
                      for path in files if path.is_file()]
    for rel, sha, code in sorted(lines):
        print(f"{sha}  {rel}  exit={code}")


if __name__ == "__main__":
    main()
