#!/usr/bin/env python3
"""Macroscopic scan: measure instant ACK deployment in the (synthetic)
wild, the way the paper's §4.3 does — as one ``repro.api`` job.

Runs the three wild-measurement experiments as a single session job:
IACK deployment per CDN (Table 1), ACK->ServerHello delays per CDN
(Figure 8), and the Cloudflare longitudinal study (Figure 9). Typed
run events stream progress, and the results land as a versioned JSON
bundle when ``--out`` is given.

    python examples/wild_scan.py [--domains 50000] [--vantage "Sao Paulo"]
"""

import argparse

from repro.api import LocalConfig, RunRequest, Session


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--domains", type=int, default=50_000,
                        help="toplist size (paper: 1,000,000)")
    parser.add_argument("--vantage", default="Sao Paulo")
    parser.add_argument("--study-days", type=int, default=2,
                        help="Cloudflare longitudinal study length")
    parser.add_argument("--workers", type=int, default=0,
                        help="size of the session's process pool (the scan and "
                             "study passes run on it like any other cell)")
    parser.add_argument("--events", action="store_true",
                        help="stream run events while executing")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="write the versioned result bundle here")
    args = parser.parse_args()

    request = RunRequest(
        experiments=("table1", "fig8", "fig9"),
        overrides={
            "table1": {
                "list_size": args.domains,
                "vantage_names": (args.vantage,),
                "days": 1,
            },
            "fig8": {"list_size": args.domains, "vantage_name": args.vantage},
            "fig9": {"vantage_name": args.vantage, "days": args.study_days},
        },
    )
    on_event = None
    if args.events:
        on_event = lambda event: print(f"event: {event.describe()}", flush=True)  # noqa: E731

    with Session(LocalConfig(workers=args.workers), on_event=on_event) as session:
        report = session.run(request)
        print(report.render())
        if args.out is not None:
            written = session.write_bundle(report, args.out)
            print(f"\nwrote {len(written)} bundle files under {args.out}")

    print(
        "\nThe paper's reading: Cloudflare deploys instant ACK fleet-wide,"
        "\nthe other CDNs barely at all (Table 1), and the ACK->SH gap is"
        "\nthe certificate-store delay delta_t the PTO model is built on."
    )


if __name__ == "__main__":
    main()
