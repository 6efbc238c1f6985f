"""Fork server for the benchmark: import once, time each call fresh.

``run.py`` starts this script, which imports the program (``ops``
pulls in every layer), replies ``{"ok": true}`` and then reads one
JSON request per line on stdin, ``{"op": NAME, "kwargs": {...},
"trace": BOOL}``.  Each request runs in a child forked for it alone,
so every repetition starts from the state a user's fresh process has
after its imports -- no memoized parse results, no warm ``lru_cache``
-- without paying the imports again.  The reply, one JSON line on
stdout, carries the op's result, the child's peak RSS from ``wait4``
(the child and any worker processes it waited for), and, for a traced
request, the span tree of the ``repro.obs`` tracer installed around
the op (under a scoped metrics registry, as every op runs).

Imports happen only under ``__main__``: the streamed analysis spawns
workers that re-import this file as ``__mp_main__`` and must not pay
for the whole program twice.
"""

from __future__ import annotations

import json
import os
import sys
import traceback


def _child(ops, request: dict, write_fd: int) -> None:
    from repro.obs import Tracer, scoped_registry, tracing

    # Stray prints from the program must not corrupt the reply stream.
    os.dup2(2, 1)
    reply: dict = {"ok": True}
    try:
        fn = ops.OPS[request["op"]]
        if request.get("trace"):
            tracer = Tracer()
            with tracing(tracer), scoped_registry():
                reply["result"] = fn(**request["kwargs"])
            reply["spans"] = tracer.tree()
        else:
            with scoped_registry():
                reply["result"] = fn(**request["kwargs"])
    except Exception:  # noqa: BLE001 -- reported to the parent as a failed op
        reply = {"ok": False, "error": traceback.format_exc()}
    with os.fdopen(write_fd, "w") as handle:
        json.dump(reply, handle)


def serve(ops) -> None:
    print(json.dumps({"ok": True}), flush=True)
    for line in sys.stdin:
        request = json.loads(line)
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(read_fd)
            code = 0
            try:
                _child(ops, request, write_fd)
            except BaseException:  # noqa: BLE001 -- never return into the loop
                traceback.print_exc()
                code = 1
            os._exit(code)
        os.close(write_fd)
        with os.fdopen(read_fd) as handle:
            payload = handle.read()
        _, status, usage = os.wait4(pid, 0)
        try:
            reply = json.loads(payload)
        except json.JSONDecodeError:
            reply = {"ok": False,
                     "error": f"child exited with status {status} "
                              f"and no reply"}
        reply["maxrss_kb"] = usage.ru_maxrss
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    import ops as _ops

    serve(_ops)
