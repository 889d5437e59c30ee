"""Run ``repro serve`` in this interpreter, optionally with layer tracing.

    python3 perfbench/serve_proc.py [--trace-dir DIR] -- <repro serve arguments>

The untraced form is exactly ``python -m repro serve ...``; with
``--trace-dir`` the wrappers of ``layers.py`` are installed first, so the
service and the pool workers it forks record their spans into ``DIR``.
"""

from __future__ import annotations

import argparse
import sys

from common import use_sources


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args(argv[:split])
    use_sources()
    if args.trace_dir:
        import layers

        layers.install(args.trace_dir)
    from repro.cli import main as repro_main

    return repro_main(["serve", *argv[split + 1:]])


if __name__ == "__main__":
    sys.exit(main())
