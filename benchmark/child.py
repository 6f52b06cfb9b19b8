"""One timed operation: ``sentigraph.cli.main`` called once per argv, in order.

    python3 benchmark/child.py '{"src": "<dir>", "argvs": [[...], ...], "spans": null}'

``src`` is the directory that holds the ``sentigraph`` package. With
``spans`` set to a file path, the layer functions of ``tracing.TARGETS``
are wrapped for the duration of the calls, and the spans are written to
that file at exit. Exits with the first non-zero CLI exit code.
"""

import json
import sys


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    from sentigraph import cli

    entry, tracer = cli.main, None
    if spec.get("spans"):
        from tracing import ROOT, Tracer

        tracer = Tracer()
        tracer.install()
        entry = tracer.wrap(cli.main, ROOT)
    try:
        for argv in spec["argvs"]:
            code = entry(argv)
            if code:
                return code
        return 0
    finally:
        if tracer is not None:
            tracer.restore()
            tracer.write(spec["spans"])


if __name__ == "__main__":
    raise SystemExit(main())
