"""Command-line entry point: ``python -m repro.harness [fig1|...|fig11|all]``."""

from __future__ import annotations

import sys

from .figures import FIGURES, run_all, run_figure


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if args and args[0] == "conform":
        from .conform import main as conform_main

        return conform_main(args[1:])
    if args and args[0] == "service" and len(args) > 1:
        # Bare ``service`` runs via the figure registry; any extra
        # arguments route through the harness's own CLI (gates, tiers).
        from .service import main as service_main

        return service_main(args[1:])
    if not args or args[0] in ("-h", "--help"):
        print("usage: python -m repro.harness <figure> [figure ...] | all")
        print("       python -m repro.harness conform [--smoke|--full] ...")
        print("       python -m repro.harness service [--quick] "
              "[--tenants N] [--min-fairness F] ...")
        print("\navailable figures:")
        for name, (_, description) in FIGURES.items():
            print(f"  {name:7s} {description}")
        print("\nconform: differential conformance matrix vs the serial "
              "oracle (see conform --help)")
        return 0
    if args == ["all"]:
        run_all()
        return 0
    unknown = [name for name in args if name.lower() not in FIGURES]
    if unknown:
        print(f"unknown figure {', '.join(unknown)}; "
              f"available: {', '.join(sorted(FIGURES))}", file=sys.stderr)
        return 2
    for name in args:
        run_figure(name)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
