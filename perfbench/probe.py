"""Fresh-process probes for the benchmark.

    python3 perfbench/probe.py setup PLAN
        Import repdyn.cli and validate every input the plan's commands read,
        then print the system-wide monotonic clock reading, so the parent can
        time a fresh interpreter up to validated inputs.
    python3 perfbench/probe.py once PLAN
        The same, then run the plan's commands once and print their exit
        codes, the ConditionWarnings raised and the ones a user would see,
        and the peak resident set size.

PLAN is a JSON file ``{"commands": [[argv...], ...]}``; ``repdyn`` must be
importable (the benchmark puts the checkout's ``src`` on PYTHONPATH).
"""

import json
import sys
import time


def validate_inputs(cli, argv):
    """Parse and validate what the command in ``argv`` reads, nothing more."""
    args = cli.build_parser().parse_args(argv)
    if args.command == "affine":
        cli.load_affine_set(args)
    elif args.command == "flowmetric":
        cli.parse_geodesics(cli.load_json(args.input), args.input)
    else:
        gens, doc = cli.load_generator_set(args)
        if args.command == "split":
            cli.parse_lines(doc, gens, args.window, args.input)


def main():
    mode, plan_path = sys.argv[1], sys.argv[2]
    with open(plan_path, encoding="utf-8") as fh:
        commands = json.load(fh)["commands"]
    import repdyn.cli as cli

    for argv in commands:
        validate_inputs(cli, argv)
    validated_at = time.monotonic()
    if mode == "setup":
        print(json.dumps({"validated_at": validated_at}))
        return 0

    import resource
    import warnings

    from repdyn.errors import ConditionWarning

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ConditionWarning)
        codes = [cli.main(argv) for argv in commands]
    raised = [w for w in caught if issubclass(w.category, ConditionWarning)]
    print(json.dumps({
        "validated_at": validated_at,
        "codes": codes,
        "raised": len(raised),
        # the default filter shows each (text, line) once
        "shown": len({(str(w.message), w.filename, w.lineno) for w in raised}),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
