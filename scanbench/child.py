"""One fresh interpreter: time the set-up, then optionally run one scan.

    python3 scanbench/child.py setup <catalog_n|0>
    python3 scanbench/child.py scan <catalog_n|0> <enum|corpus> <n|path> <check,...>

Prints one JSON object: `setup_s` (from just before `import reslab`
until the import, and the catalog build when catalog_n > 0, returned)
and, for a scan, `scan_s` (wall time of the run_suite call), `hwm_kib`
and `reports`.  Nothing but sys and time is imported before the timer
starts, so the set-up time includes every module reslab pulls in.

`hwm_kib` is VmHWM, the peak resident set of this process image.  The
resource module's ru_maxrss is not used because Linux carries the
spawning process's peak over into it across exec, so a child of a
larger benchmark process would report its parent's peak.
"""

import sys
import time


def main(argv: list[str]) -> None:
    t0 = time.perf_counter()
    import reslab

    catalog_n = int(argv[1])
    if catalog_n:
        reslab.f_catalog(catalog_n, mdi_filter=True)
        reslab.f_catalog(catalog_n, mdi_filter=False)
    setup_s = time.perf_counter() - t0

    import json

    out = {"setup_s": setup_s}
    if argv[0] == "scan":
        kind, arg, checks = argv[2], argv[3], argv[4].split(",")
        source = reslab.EnumerationSource(int(arg)) if kind == "enum" else reslab.CorpusSource(arg)
        t1 = time.perf_counter()
        reports = reslab.run_suite(source, checks, shards=1)
        out["scan_s"] = time.perf_counter() - t1
        with open("/proc/self/status", encoding="ascii") as fh:
            out["hwm_kib"] = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
        out["reports"] = [r.to_dict() for r in reports]
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
