"""Traced stand-in for ``python -m layeropt.cli``, used by traced cli runs.

Usage: python -X importtime perfbench/cli_child.py SPANS.npz [cli arguments]

Imports layeropt first (so ``-X importtime`` reports the same import tree as
the plain command), wraps its stack levels, runs the CLI and writes the
spans to SPANS.npz.  The exit status is the CLI's.
"""

import sys

import layeropt
import layeropt.cli

import tracing


def main() -> int:
    out, args = sys.argv[1], sys.argv[2:]
    log = tracing.SpanLog()
    tracing.install(log, layeropt)
    log.active = True
    try:
        return layeropt.cli.main(args)
    finally:
        log.active = False
        log.save(out)


if __name__ == "__main__":
    sys.exit(main())
