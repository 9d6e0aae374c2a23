"""Run a fixed list of polspin CLI commands against two source trees and
report every difference in stdout, stderr, exit code or output file.

Usage: python tools/compare_cli.py [--repeat N] OLD_TREE NEW_TREE

Each tree is a checkout holding src/polspin. Every command runs in CSV and
in JSON, as a fresh `python -m polspin.cli` process with PYTHONPATH set to
the tree's src, inside one temporary directory per tree that is emptied
between commands; the --config files some commands read are written once to
a third temporary directory that both trees share. A run that is not byte-identical is reported as
identical apart from the config hash when it matches once each side's hash,
read from its config echo, is swapped for a placeholder in its streams and
files: the echo, the CSV row tails and the JSON. Exits 0 when every run is
byte-identical, 1 otherwise.

With --repeat N (N > 1) each command runs N times per tree, the old tree
first on odd repeats and the new tree first on even ones, and a table of
each command's median wall time per tree, with the old tree's quartiles,
follows the comparison; the first run of each tree is the one compared.
The wall time counts the whole process: interpreter start, imports and work.
The table's last row times a bare set-up probe the same way: a fresh
`python -c "from polspin import config; config.load_config()"`, the set-up
the benchmark's --setup-only times, with no command run. Unlike the
benchmark's worker, which has imported json before it times set-up, the
probe starts without json, so it also counts json's import where config
loads it.
Standard library only.
"""

from __future__ import annotations

import argparse
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

MC_SETTINGS = ['mc.trials="x"', "mc.trials=0", "mc.trials=true", "mc.trials=2.5",
               'mc.seed="x"', "mc.seed=-1", "mc.seed=true", "mc.seed=2.5"]

# (command, --set overrides, other flags)
COMMANDS: list[tuple[str, list[str], list[str]]] = [
    ("fidelity", [], []),
    # a detuned cavity and another H cavity reflection through the scalar kernel
    ("fidelity", ["cavity.delta_c=0.1", "cavity.delta_a=-0.05", "link.r_cav_H=0.81"], []),
    # a nearly balanced reflector, F within 1e-12 of 1, and a device with
    # nothing to reflect, opaque for every input
    ("fidelity", ["pdr.T_V=0.991753", "pdr.R_H=0.155813"], []),
    ("fidelity", ["pdr.T_V=0", "pdr.zeta_V=1", "pdr.R_H=0", "pdr.zeta_H=1"], []),
    ("rate", [], []),
    ("rate", ["link.eta_link=1e-9", "f_target=0.99"], []),
    ("rate", ["link.xi=0.01"], []),
    # link.r_cav_H moves both f0 and p_det
    ("rate", ["link.r_cav_H=0.81"], []),
    ("diagnose", [], []),
    ("montecarlo", [], ["--trials", "2000", "--seed", "7"]),
    ("montecarlo", [], ["--trials", "1", "--seed", "7"]),
    ("montecarlo", ["link.eta_link=1e-6"], ["--trials", "300", "--seed", "7"]),
    ("montecarlo", ["link.eta_link=1e-9"], ["--trials", "300", "--seed", "7"]),
    ("sweep", ["sweep.kind=pdr"], []),
    # the pdr map with grid rows longer than a kernel block, and with losses,
    # a + reflection sign and the NaN reasons they bring
    ("sweep", ["sweep.kind=pdr", "sweep.axis=[0.5,1,3]", "sweep.second_axis=[0,0.6,5001]"], []),
    ("sweep", ["sweep.kind=pdr", "pdr.zeta_V=0.005", "pdr.zeta_H=0.01",
               "pdr.reflection_sign=1"], []),
    ("sweep", ["sweep.kind=cavity_c"], []),
    ("sweep", ["sweep.kind=cavity_coupling"], []),
    ("sweep", ["sweep.kind=rate_vs_loss"], []),
    ("sweep", ["sweep.kind=rate_vs_loss", "sweep.with_mc=true", "sweep.axis=[0,150,31]",
               "constraints=[0.95,0.97,0.99,0.9998]"],
     []),
    # 0.25 dB steps up to the n_max search cap: the deepest digit walks
    ("sweep", ["sweep.kind=rate_vs_loss", "sweep.axis=[0,157,629]",
               "constraints=[0.95,0.97,0.99,0.9998]"], []),
    # off the design point (f0 = 0.98994): the last target sits 4e-5 below f0,
    # so its budget is small, where the closed form that settles most n_max
    # is at its worst conditioning
    ("sweep", ["sweep.kind=rate_vs_loss", "pdr.T_V=0.97", "sweep.axis=[0,140,561]",
               "constraints=[0.9,0.95,0.98,0.9899]"], []),
    # refused: a fractional or bool axis entry, db spacing off the loss axis,
    # constraints that share an output name
    ("sweep", ["sweep.kind=cavity_coupling", "sweep.axis=[0,1,2.7]"], []),
    ("sweep", ["sweep.kind=cavity_coupling", "sweep.axis=[true,2,3]"], []),
    ("sweep", ["sweep.kind=cavity_c", 'sweep.axis=[0.5,20,11,"db"]'], []),
    ("sweep", ["sweep.kind=pdr", 'sweep.second_axis=[0,0.6,5,"db"]'], []),
    ("sweep", ["sweep.kind=rate_vs_loss", "constraints=[0.95,0.99,0.999,0.9998]"], []),
    ("sweep", ["sweep.kind=rate_vs_loss", "constraints=[0.95,0.95]"], []),
    # refused: constraints that are not a non-empty list of numbers
    *(("sweep", ["sweep.kind=rate_vs_loss", f"constraints={constraints}"], [])
      for constraints in ("[]", "{}", "0.95", '"abc"')),
    # 1 dB steps where one attempt moves p_err by a few ulp of the error budget
    ("sweep", ["sweep.kind=rate_vs_loss", "sweep.axis=[121,156,36]",
               "constraints=[0.95,0.97,0.99,0.9998]"], []),
    # the scalar p_error at 150 and 156 dB, near the n_max search cap
    *(("rate", [f"link.eta_link={eta}", f"f_target={f}"], [])
      for eta in ("1e-15", "2.5e-16") for f in ("0.95", "0.9998")),
    # 142.27 dB, F >= 0.95: the walk at the exact n_max reads p_err one ulp above the budget
    ("rate", ["link.eta_link=5.929253245799994e-15", "f_target=0.95"], []),
    # past about 3080 dB 1 / (p_det + p_e) overflows; eta_link = 0 is a dark link
    ("rate", ["link.eta_link=1e-310"], []),
    ("rate", ["link.eta_link=0"], []),
    ("sweep", ["sweep.kind=rate_vs_loss", "sweep.axis=[3000,3300,4]"], []),
    # refused: a cooperativity 4 g^2 / (kappa gamma) past the largest double
    ("fidelity", ["cavity.g=1e200"], []),
    ("fidelity", ["cavity.gamma=1e-310"], []),
    # refused: a cooperativity that fits, with g**2 or dc da past a double
    ("fidelity", ["cavity.kappa=1e10", "cavity.gamma=1e10", "cavity.g=1e155"], []),
    ("fidelity", ["cavity.kappa=1e-300", "cavity.gamma=1e-300", "cavity.g=1e-300",
                  "cavity.kappa_wg=1e-300"], []),
    *(("fidelity", [setting], []) for setting in MC_SETTINGS),
    # refused under every command: a malformed sweep axis, a second axis the
    # sweep kind does not read, the removed r_cav_h and timing.pulse_multiplier keys
    ("fidelity", ['sweep.axis="x"'], []),
    ("rate", ["sweep.kind=cavity_c", "sweep.second_axis=[0,1,3]"], []),
    ("fidelity", ["r_cav_h=[1.05,0]"], []),
    ("rate", ["timing.pulse_multiplier=2"], []),
    # refused: infinite times, the slot time tau_pulse among them
    ("rate", ["timing.tau_reset=1e400"], []),
    ("montecarlo", ["timing.tau_pulse=1e400"], ["--trials", "300", "--seed", "7"]),
    # --config files (CONFIG_FILES): one section, one section under a --set,
    # an empty file, and a refused wrong-typed value
    ("rate", [], ["--config", "link.json"]),
    ("rate", ["f_target=0.97"], ["--config", "link.json"]),
    ("fidelity", [], ["--config", "empty.json"]),
    ("fidelity", [], ["--config", "bad_type.json"]),
]

# The --config files by name. They are written once per comparison to a
# directory both trees read, outside the workdirs that run() empties.
CONFIG_FILES = {
    "link.json": '{"link": {"eta_link": 1e-4, "eta_det": 0.9}}\n',
    "empty.json": "",
    "bad_type.json": '{"link": {"eta_det": true}}\n',
}

# The benchmark's set-up: import polspin and resolve the default config.
SETUP_PROBE = "from polspin import config; config.load_config()"


def run(tree: Path, workdir: Path, argv: list[str]) -> tuple[dict[str, object], float]:
    """One `python *argv` run in an emptied workdir: its streams, exit code
    and files, and the process's wall time in seconds."""
    for path in workdir.iterdir():
        path.unlink()
    env = {**os.environ, "PYTHONPATH": str(tree.resolve() / "src")}
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=workdir,
                          env=env, capture_output=True)
    seconds = time.perf_counter() - start
    files = {path.name: path.read_bytes() for path in sorted(workdir.iterdir())}
    return ({"stdout": proc.stdout, "stderr": proc.stderr, "exit code": proc.returncode,
             "files": files}, seconds)


def timed_pair(trees: list[Path], workdirs: list[Path], argv: list[str], repeat: int
               ) -> tuple[list[dict[str, object]], list[list[float]]]:
    """Each tree's first `python *argv` run, and the wall times of its
    `repeat` runs, the two trees alternating which goes first."""
    first: list[dict[str, object]] = [{}, {}]
    seconds: list[list[float]] = [[], []]
    for k in range(repeat):
        for side in ((0, 1) if k % 2 == 0 else (1, 0)):
            result, t = run(trees[side], workdirs[side], argv)
            first[side] = first[side] or result
            seconds[side].append(t)
    return first, seconds


_ECHOED_HASH = re.compile(rb'"config_hash": "([0-9a-f]{16})"')


def without_hash(result: dict[str, object]) -> dict[str, object]:
    """The run with its config hash, as its config echo shows it, swapped for
    a placeholder in the streams and every file; unchanged without an echo."""
    echoed = _ECHOED_HASH.search(result["stdout"])
    if echoed is None:
        return result

    def blank(data: bytes) -> bytes:
        return data.replace(echoed.group(1), b"<config_hash>")

    return {**result, "stdout": blank(result["stdout"]), "stderr": blank(result["stderr"]),
            "files": {name: blank(data) for name, data in result["files"].items()}}


def differences(old: dict[str, object], new: dict[str, object]) -> list[str]:
    out = [f"{key}: {old[key]!r} != {new[key]!r}" if key == "exit code"
           else f"{key} differs" for key in ("stdout", "stderr", "exit code")
           if old[key] != new[key]]
    old_files, new_files = old["files"], new["files"]
    for name in sorted(set(old_files) | set(new_files)):
        if name not in old_files or name not in new_files:
            out.append(f"file {name} only in {'new' if name in new_files else 'old'}")
        elif old_files[name] != new_files[name]:
            out.append(f"file {name} differs")
    return out


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per tree and command, alternating; times them when > 1")
    parser.add_argument("trees", nargs=2, type=Path, metavar="TREE", help="OLD_TREE NEW_TREE")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    trees = args.trees
    for tree in trees:
        if not (tree / "src" / "polspin").is_dir():
            print(f"{tree}: no src/polspin", file=sys.stderr)
            return 2
    runs = identical = hash_only = 0
    timings: list[tuple[str, list[float], list[float]]] = []
    with tempfile.TemporaryDirectory() as old_dir, tempfile.TemporaryDirectory() as new_dir, \
            tempfile.TemporaryDirectory() as config_dir:
        workdirs = [Path(old_dir), Path(new_dir)]
        for name, text in CONFIG_FILES.items():
            (Path(config_dir) / name).write_text(text)
        for command, sets, flags in COMMANDS:
            flags = [str(Path(config_dir) / f) if f in CONFIG_FILES else f for f in flags]
            for fmt, out in (("csv", "result.csv"), ("json", "result.json")):
                argv = ["--command", command, *flags, "--out", out, "--format", fmt,
                        *(arg for s in sets for arg in ("--set", s))]
                (old, new), seconds = timed_pair(trees, workdirs, ["-m", "polspin.cli", *argv],
                                                 args.repeat)
                timings.append((" ".join(argv), *seconds))
                runs += 1
                if not differences(old, new):
                    identical += 1
                    continue
                print(" ".join(argv))
                found = differences(without_hash(old), without_hash(new))
                if not found:
                    hash_only += 1
                    print("  identical apart from the config hash")
                for line in found:
                    print(f"  {line}")
        if args.repeat > 1:
            _, seconds = timed_pair(trees, workdirs, ["-c", SETUP_PROBE], args.repeat)
            timings.append((f'set-up: python -c "{SETUP_PROBE}"', *seconds))
    print(f"{identical} of {runs} runs identical, {hash_only} identical apart from the "
          f"config hash, {runs - identical - hash_only} different")
    if args.repeat > 1:
        print(f"median wall time of {args.repeat} alternating runs per tree, in s: "
              f"old [old quartiles] new old/new command")
        for text, old_s, new_s in timings:
            q1, _, q3 = statistics.quantiles(old_s, n=4)
            old_m, new_m = statistics.median(old_s), statistics.median(new_s)
            print(f"  {old_m:.4f} [{q1:.4f} {q3:.4f}] {new_m:.4f} {old_m / new_m:.2f}x  {text}")
    return 0 if identical == runs else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
