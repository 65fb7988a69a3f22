"""The online workload's gateway, in a process of its own.

Started by ``run.py`` as ``python gateway_proc.py --model NAME=DIR ...``
with ``src`` on ``PYTHONPATH``. It serves every artifact through
``serve_gateway`` (thread replicas, one per model, ``max_batch_size=8``,
``max_wait_ms=2``), prints one JSON line ``{"event": "ready", "url": ...,
"blas_threads": ...}`` and then answers JSON commands, one per stdin
line, with one JSON line each:

- ``{"cmd": "trace", "on": true|false}`` wraps (or unwraps) every module
  of every loaded engine in the self-time ledger;
- ``{"cmd": "ledger"}`` returns the ledger snapshot and clears it;
- ``{"cmd": "stop"}`` (or end of stdin) stops the gateway and exits.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

from benchlib import SelfTimeLedger, blas_threads


def _reply(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--model", action="append", required=True, metavar="NAME=DIR")
    args = parser.parse_args(argv)
    models = dict(spec.split("=", 1) for spec in args.model)

    import zoo
    from repro.deploy import IntegerEngine
    from repro.serve import serve_gateway

    logging.getLogger("repro").setLevel(logging.WARNING)
    # Record each engine the registry loads, so the traced run can wrap
    # its modules; loading itself is unchanged.
    engines: list = []
    load = IntegerEngine.load.__func__

    def recording_load(cls, *a, **kw):
        engine = load(cls, *a, **kw)
        engines.append(engine)
        return engine

    IntegerEngine.load = classmethod(recording_load)
    gateway = serve_gateway(models, replicas=1, max_batch_size=8, max_wait_ms=2.0)
    ledger = SelfTimeLedger()
    traced = False
    try:
        _reply({"event": "ready", "url": gateway.url, "blas_threads": blas_threads()})
        for line in sys.stdin:
            cmd = json.loads(line)
            if cmd["cmd"] == "trace":
                if cmd["on"] != traced:
                    for engine in engines:
                        if cmd["on"]:
                            zoo.instrument(engine.model, ledger)
                        else:
                            zoo.uninstrument(engine.model)
                    traced = cmd["on"]
                _reply({"trace": traced})
            elif cmd["cmd"] == "ledger":
                snap = ledger.snapshot()
                ledger.reset()
                _reply(snap)
            elif cmd["cmd"] == "stop":
                break
            else:
                _reply({"error": f"unknown command {cmd['cmd']!r}"})
    finally:
        gateway.stop()
    _reply({"event": "stopped"})
    return 0


if __name__ == "__main__":
    sys.exit(main())
