"""SHA-256 digests of everything the ``ifgame`` CLI writes for the bundled games.

Runs ``ifgame analyze``, ``solve``, ``sweep`` and ``simulate`` on each
``configs/*.json`` game, and ``simulate`` and ``solve --solver vi`` on
``perfbench/n4_simulate.json``, with every output sent to a temporary
directory.  Prints one line per output file, and one for the standard
output and one for the standard error of each run, sorted by path:

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
import os
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = ("analyze", "solve", "sweep", "simulate")


def runs(repo):
    """(run name, CLI arguments before ``--out``) of every CLI run, over
    the checkout's own ``configs/*.json`` in sorted order."""
    for config in sorted((repo / "configs").glob("*.json")):
        for command in COMMANDS:
            yield f"{config.stem}-{command}", [command, "--config", str(config)]
    n4 = str(repo / "perfbench" / "n4_simulate.json")
    yield "n4-simulate", ["simulate", "--config", n4]
    yield "n4-solve-vi", ["solve", "--config", n4, "--solver", "vi"]


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
        for name, args in runs(repo):
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
