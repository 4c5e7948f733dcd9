"""Record the SHA-256 of every metrics CSV of the study-fgn workload, per seed.

    python3 perfbench/record_digests.py --seeds 0-31

Writes ``perfbench/digests.json``, which ``run.py`` checks study outputs
against.  Run it only on a commit whose study output is known to be right:
the digests define what a correct study run writes.
"""

from __future__ import annotations

import argparse
import json
import shutil

from run import DIGESTS, OUT_DIR, import_package


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", required=True, help="inclusive range such as 0-31")
    first, last = (int(part) for part in parser.parse_args().seeds.split("-"))
    import_package()
    import workloads

    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    workdir = OUT_DIR / "record-digests"
    try:
        for seed in range(first, last + 1):
            workload = workloads.StudyWorkload(seed, workdir, None)
            failed, problems, digests = workload.check(workload.run(0))
            if failed:
                raise SystemExit(f"seed {seed}: {problems}")
            recorded.setdefault("study-fgn", {})[str(seed)] = digests
            print("study-fgn", seed, flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
