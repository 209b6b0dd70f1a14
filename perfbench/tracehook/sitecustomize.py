"""Interpreter start-up hook of the traced benchmark run.

The benchmark puts this directory on ``PYTHONPATH`` of the server it
spawns for the traced run, so Python imports this module at start-up in
the server and in every process the server starts (the shard
forkserver and the shards forked from it).  It installs the span
wrappers of ``perfbench/tracing.py``; with ``PERFBENCH_TRACE_DIR`` unset
it does nothing.
"""

import os

if os.environ.get("PERFBENCH_TRACE_DIR"):
    import importlib.util
    import sys

    _path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tracing.py")
    _spec = importlib.util.spec_from_file_location("perfbench_tracing", _path)
    _module = importlib.util.module_from_spec(_spec)
    sys.modules["perfbench_tracing"] = _module
    _spec.loader.exec_module(_module)
    _module.install(os.environ["PERFBENCH_TRACE_DIR"])
