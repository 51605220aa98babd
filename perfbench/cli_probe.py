"""Run one ``repro-numa`` command under outside-in probes.

Usage::

    python perfbench/cli_probe.py {report|lint} LEDGER.json -- ARGS...

Times ``import repro.cli`` plus the layer modules the command uses,
wraps that command's public layer entry points (see :mod:`probes`),
runs ``repro.cli.main(ARGS)`` and writes the ledger as JSON to
LEDGER.json.  Exits with the command's own status.
"""

from __future__ import annotations

import json
import sys
import time

from ledger import Ledger, check_ledger
import probes as layer_probes

INSTALLERS = {
    "report": (layer_probes.install_exp, layer_probes.install_analysis),
    "lint": (layer_probes.install_check,),
}


def main(argv) -> int:
    layers, out_path, separator, *command = argv
    if layers not in INSTALLERS or separator != "--":
        raise SystemExit(__doc__)
    started = time.perf_counter()
    import repro.cli

    ledger = Ledger()
    probes = layer_probes.Probes(ledger)
    for install in INSTALLERS[layers]:
        install(probes)
    import_s = time.perf_counter() - started
    root = ledger.enter("root")
    try:
        status = repro.cli.main(command)
    finally:
        root_s = ledger.exit(root)
        probes.restore()
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "import_s": import_s,
                "root_s": root_s,
                "self_s": ledger.self_s,
                "counts": probes.counts,
                "problems": check_ledger(ledger.self_s, root_s),
            },
            handle,
        )
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
