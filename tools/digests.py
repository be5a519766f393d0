"""Digests of blowlab's artifacts on a fixed list of configs.

Usage: ``python tools/digests.py`` (no options).  It imports blowlab
from the ``src`` directory of its own checkout, runs each config through
``cli.parse_config`` and ``cli.run_experiment`` in a temporary
directory, and prints one ``<sha256>  <case>/<file>`` line per artifact
but ``summary.json`` (whose wall time varies), then a
``result  <case>  ...`` line with the outcome and ``blowup_time``, or
with the name and message of an ``OverflowGuardError``.  Run it in two
checkouts and ``diff`` the outputs: equal outputs mean byte-identical
artifacts and the same outcomes.  Any other exception exits 1.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from blowlab.cli import MODES, parse_config, run_experiment
from blowlab.testfuncs import OverflowGuardError

# (case, mode, config document); a document's "constants_from" names an
# earlier audit case, whose audit.json gives the kato run C3, k2 and k4.
CASES = [
    *((f"default-{mode}", mode, {}) for mode in MODES),
    *((f"ladder-n{n}-g{g}", "simulate",
       {"p": 2.0, "q": 2.0, "n": n, "amplitudes": 20.0, "grid_points": g, "horizon": 10.0})
      for n in (1, 3) for g in (2000, 4000, 8000, 16000)),
    ("audit-n2", "audit",
     {"p": 1.5, "q": 1.5, "n": 2, "amplitudes": 1.0, "grid_points": 1000, "horizon": 5.0}),
    ("audit-n2-kato", "kato", {"p": 1.5, "q": 1.5, "n": 2, "constants_from": "audit-n2"}),
    ("overflow-probe", "simulate",
     {"p": 1.1, "q": 1.1, "amplitudes": 0.01, "coupling": False, "horizon": 80.0,
      "grid_points": 300}),
    ("uncoupled-n8", "simulate",
     {"p": 4 / 3, "q": 4 / 3, "n": 8, "amplitudes": 0.5, "coupling": False,
      "grid_points": 1000, "horizon": 5.0, "cfl_factor": 0.45}),
    ("sign-loss-n8", "simulate",
     {"p": 4 / 3, "q": 4 / 3, "n": 8, "amplitudes": 0.1, "horizon": 192,
      "grid_points": 200, "R": 0.5, "cfl_factor": 0.45}),
    ("map-n3", "regions", {"n": 3, "resolution": 500, "svg": True}),
]


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for case, mode, doc in CASES:
            if "constants_from" in doc:
                doc = dict(doc)
                audit = json.loads((root / doc.pop("constants_from") / "audit.json").read_text())
                doc.update({key: audit["constants"][key] for key in ("C3", "k2", "k4")})
            out = root / case
            try:
                summary = run_experiment(parse_config(json.dumps(doc), mode), out)
                result = f"{summary.outcome}  {summary.blowup_time!r}"
            except OverflowGuardError as e:
                result = f"{type(e).__name__}: {e}"
            for path in sorted(out.iterdir()):
                if path.name != "summary.json":
                    print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {case}/{path.name}")
            print(f"result  {case}  {result}")


if __name__ == "__main__":
    main()
