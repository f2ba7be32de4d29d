"""One benchmark process: import mmi_lab in a fresh interpreter and time a
single command inside it.

    python bench/child.py RESULT.json TRACE cli ARGS...    # mmi-lab ARGS...
    python bench/child.py RESULT.json TRACE sweep SEED RUNS

``cli`` runs ``mmi_lab.cli.main(ARGS)`` exactly as the ``mmi-lab`` entry point
does; ``sweep`` runs the dead-time sweep of ``sweep.py``.  RESULT.json gets
the monotonic start and end of the command, so the parent can split the
process wall time into the command and everything around it (interpreter
start, imports, exit).  With TRACE=1 the mmi_lab functions listed in
``probes.py`` are traced and their spans written to RESULT.json as well.
"""

import sys
import time

out_path, trace, mode, args = sys.argv[1], sys.argv[2] == "1", sys.argv[3], sys.argv[4:]

if mode == "cli":
    import mmi_lab.cli  # noqa: E402  (imports are part of the process set-up)
else:
    import sweep  # noqa: E402  (imports mmi_lab)

tracer = None
if trace:
    import probes
    from tracer import Tracer

    tracer = Tracer()
    probes.install(tracer)

payload = {}
start = time.monotonic()
if mode == "cli":
    code = mmi_lab.cli.main(args)
else:
    payload = sweep.run(int(args[0]), int(args[1]), tracer)
    code = 0
end = time.monotonic()

import json  # noqa: E402

with open(out_path, "w", encoding="utf-8") as fh:
    json.dump({"start": start, "end": end, "exit_code": code, **payload,
               "spans": tracer.spans if tracer else []}, fh)
sys.exit(code)
