"""Verified traffic: which ``src/repro`` functions does a command enter?

    python benchmarks/call_census.py run DIR -- python3 bench/run.py --smoke
    python benchmarks/call_census.py report DIR      # table per package
    python benchmarks/call_census.py report --functions DIR
                    # one line per never-entered function: file:line name lines

``run`` drops a ``sitecustomize.py`` into DIR, puts DIR first on
``PYTHONPATH`` and sets ``REPRO_CALL_CENSUS=DIR``, so the command *and every
Python child it spawns* (servers, shard workers, pool workers) installs a
``sys.settrace`` hook recording call events only.  Runs into one DIR add up;
nothing is asserted.  Blind spots: ``pytest-benchmark`` removes the hook inside
``benchmark(...)`` (pass ``--benchmark-disable``), and a SIGKILLed server never
reaches ``atexit`` — so first entries are appended to ``DIR/<pid>.txt`` live.
"""

import ast
import collections
import glob
import os
import subprocess
import sys
import threading

ENV = "REPRO_CALL_CENSUS"
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "repro")


def install():
    """Record call events in this process (the hook returns None: no line tracing)."""
    out, seen = os.environ[ENV], set()

    def on_call(frame, event, arg):
        code = frame.f_code
        key = (code.co_filename, code.co_firstlineno)
        if key not in seen and code.co_filename.startswith(SRC):
            seen.add(key)
            with open(os.path.join(out, f"{os.getpid()}.txt"), "a") as handle:
                handle.write(f"{key[0]}:{key[1]}\n")

    threading.settrace(on_call)
    sys.settrace(on_call)


def run(out, command):
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "sitecustomize.py"), "w") as handle:
        handle.write(f"import runpy\nrunpy.run_path({os.path.abspath(__file__)!r})['install']()\n")
    env = dict(os.environ, **{ENV: os.path.abspath(out)})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [env[ENV], env.get("PYTHONPATH")]))
    return subprocess.call(command, env=env)


def report(out, list_functions=False):
    entered = set()
    for path in glob.glob(os.path.join(out, "*.txt")):
        with open(path) as handle:
            entered.update(handle.read().splitlines())
    lines, never = collections.Counter(), collections.Counter()
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)):
        with open(path) as handle:
            tree = ast.parse(handle.read())
        owner = {}  # line -> first line of the innermost function holding it
        names = {}  # first line -> qualified name

        def visit(node, prefix):  # depth-first: outer functions before nested
            for child in ast.iter_child_nodes(node):
                inner = prefix
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    inner = f"{prefix}{child.name}."
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    # co_firstlineno is the first decorator's line when decorated.
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    names[first] = inner[:-1]
                    owner.update(dict.fromkeys(range(child.lineno, child.end_lineno + 1), first))
                visit(child, inner)

        visit(tree, "")
        relative = os.path.relpath(path, SRC)
        package = relative.split(os.sep)[0]
        lines[package] += len(owner)
        for first, own in sorted(collections.Counter(owner.values()).items()):
            if f"{path}:{first}" not in entered:
                never[package] += own
                if list_functions:
                    print(f"{relative}:{first} {names[first]} {own}")
    if list_functions:
        return
    print("| package | function lines | entered by no traced caller |\n|---|---|---|")
    for package in sorted(lines):
        print(f"| `{package}` | {lines[package]} | {never[package]} |")
    total, missed = sum(lines.values()), sum(never.values())
    print(f"| **total** | {total} | {missed} ({missed / max(total, 1):.0%}) |")


if __name__ == "__main__":
    if sys.argv[1] == "run":
        sys.exit(run(sys.argv[2], sys.argv[sys.argv.index("--") + 1:]))
    arguments = [a for a in sys.argv[2:] if a != "--functions"]
    report(arguments[0], list_functions="--functions" in sys.argv)
