"""Run the Tier-1 suite under the stdlib `trace` module and append to a
Markdown report every line of src/coarseops that `trace` counts as
executable but that no test ran.

Usage, from the root of the tree:

    PYTHONPATH=src python .github/scripts/unreached_lines.py REPORT.md

It gates nothing and exits 0 whatever the suite's outcome; one test fails
by design.  Traced, the suite takes six to seven times as long as
untraced (242 s against 37 s on 2 shared cores, Python 3.11).  `trace`
follows only the thread that starts it, so lines that run only in a
forked worker or a helper thread are reported although the suite runs
them; the report names those.  `trace` also counts no `__init__.py`: its
ignore cache is keyed by a module's base name, so the first ignored
`__init__` (a package under the interpreter's prefix) hides every other.
The report names each module of the package that it could not cover.
"""

from __future__ import annotations

import importlib.util
import os
import sys
import tempfile
import trace

import pytest

PACKAGE = "coarseops"
# Lines that only a forked child, a helper thread or a missing platform
# call runs, and a guard the tests do not take.
EXPECTED = (
    "`verify._fork_worker`'s forked child (verify.py:292–299), "
    "`engine._in_threads`' helper-thread body `run` (engine.py:572–576), "
    "`engine._usable_cpus`' `os.cpu_count()` fallback for platforms "
    "without `sched_getaffinity` (engine.py:520) and `cli`'s "
    "`__main__` guard (cli.py:310)"
)


def unreached(results: trace.CoverageResults):
    """The modules of the package that `trace` counted, by file name, and
    (file name, line number, source) of each unreached line, read from the
    annotated listings that `trace` writes, where it marks an executable
    line that never ran with '>>>>>> '."""
    counted, lines = set(), []
    with tempfile.TemporaryDirectory() as tmp:
        results.write_results(show_missing=True, summary=False, coverdir=tmp)
        for name in sorted(os.listdir(tmp)):
            if not name.startswith(f"{PACKAGE}."):
                continue
            module = name[len(PACKAGE) + 1:-len(".cover")] + ".py"
            counted.add(module)
            with open(os.path.join(tmp, name)) as fh:
                lines += [(module, number, text[7:].rstrip())
                          for number, text in enumerate(fh, 1)
                          if text.startswith(">>>>>> ")]
    return counted, lines


def main(report: str) -> None:
    # Located, not imported, so that every module runs under the tracer.
    folder = importlib.util.find_spec(PACKAGE).submodule_search_locations[0]
    tracer = trace.Trace(count=1, trace=0,
                         ignoredirs=[sys.prefix, sys.exec_prefix])
    status = tracer.runfunc(pytest.main,
                            ["-q", "--continue-on-collection-errors"])
    counted, lines = unreached(tracer.results())
    uncounted = sorted({name for name in os.listdir(folder)
                        if name.endswith(".py")} - counted)
    with open(report, "a") as out:
        out.write(f"### Lines of src/{PACKAGE} that Tier-1 never runs\n\n")
        out.write(f"The traced suite exited with {int(status)}.  "
                  f"{len(lines)} lines were not reached.\n\n")
        if lines:
            out.write("```\n")
            out.writelines(f"{module}:{number}: {text}\n"
                           for module, number, text in lines)
            out.write("```\n\n")
        out.write(f"Expected, since `trace` cannot see forked workers or "
                  f"helper threads: {EXPECTED}.  Any other line is dead "
                  f"code or a branch no test takes.\n")
        if uncounted:
            names = ", ".join(f"`{name}`" for name in uncounted)
            out.write(f"\nNot covered, as `trace` counted none of their "
                      f"lines: {names}.\n")


if __name__ == "__main__":
    main(sys.argv[1])
