"""Run ``repro serve`` with the benchmark's spans installed.

    python3 perfbench/serve_launch.py SPAN_DIR [repro serve arguments]

Installs the wrappers of ``tracing.py`` before the server builds its
pool, calls the CLI's ``serve`` entry point, and writes the server
process's spans when it returns (after a SIGTERM drain).
"""

import sys

import tracing


def main():
    tracing.install(sys.argv[1])
    from repro.cli import main as cli_main

    try:
        return cli_main(["serve", *sys.argv[2:]])
    finally:
        tracing.dump()


if __name__ == "__main__":
    sys.exit(main())
