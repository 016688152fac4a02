"""Child process helpers for the benchmark; run with PYTHONPATH=src.

    python3 bench/child.py cli ARGS...    run the CLI, timing the import and main()
    python3 bench/child.py setup MODULES ACCOUNT ECONOMY

``cli`` behaves as ``python -m circuflow ARGS...`` and appends one line
``@@bench <import start> <import end> <main end> <modules loaded>`` to
stderr, with perf_counter timestamps (the parent's clock too).  ``setup``
times importing the comma-separated MODULES plus parsing the reference
account and economy, and prints the seconds it took.
"""

import sys
import time


def _cli(argv):
    start = time.perf_counter()
    before = len(sys.modules)
    from circuflow import cli

    imported = time.perf_counter()
    loaded = len(sys.modules) - before
    code = cli.main(argv)
    done = time.perf_counter()
    sys.stdout.flush()
    sys.stderr.write(f"\n@@bench {start!r} {imported!r} {done!r} {loaded}\n")
    return code


def _setup(modules, account_path, economy_path):
    import importlib
    import warnings

    start = time.perf_counter()
    for name in modules.split(","):
        importlib.import_module(name)
    documents = importlib.import_module("circuflow.documents")
    with open(account_path, encoding="utf-8") as handle:
        documents.parse_account(handle.read())
    with open(economy_path, encoding="utf-8") as handle, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        documents.parse_economy(handle.read())
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    if sys.argv[1] == "cli":
        sys.exit(_cli(sys.argv[2:]))
    sys.exit(_setup(*sys.argv[2:]))
