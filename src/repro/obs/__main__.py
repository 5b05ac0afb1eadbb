"""``python -m repro.obs`` — observability command line.

Two subcommands::

    python -m repro.obs report <report.json> [--summary]   # validate a run report
    python -m repro.obs compare <a.json> <b.json>          # what changed A -> B
        [--threshold PCT] [--top N] [--fail-on-regression]
"""

import sys


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    command = args[0] if args else None
    if command == "report":
        from repro.obs.report import main as run
    elif command == "compare":
        from repro.obs.analyze import main_compare as run
    else:
        print("usage: python -m repro.obs {report,compare} ...", file=sys.stderr)
        return 2
    return run(args[1:])


if __name__ == "__main__":
    sys.exit(main())
