"""One pass over a workload's items in a fresh interpreter.

Usage: python3 perfbench/worker.py --workload NAME --seed N [--trace] [--smoke]
                                   [--spans PATH] [--record PATH]

Times ``import quivermoduli.cli`` first, with nothing else imported, then
runs every item through ``quivermoduli.cli.main`` one after another with
stdin, stdout and stderr captured, checks each outcome, and prints one
JSON line: set-up and wall time, peak RSS, failures and the combined
output hash. With ``--trace`` the public functions are wrapped by the
outside-in tracer and the line also carries per-function calls, self
times and work counters.

Exits 2 without a result when the package source is missing.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _import_cli():
    if not os.path.isfile(os.path.join(SRC, "quivermoduli", "cli.py")):
        sys.stderr.write(f"perfbench: no package source at {SRC}/quivermoduli\n")
        sys.exit(2)
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import quivermoduli.cli

    setup_s = time.perf_counter() - start
    if not os.path.abspath(quivermoduli.cli.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"perfbench: imported {quivermoduli.cli.__file__}, not the source tree\n")
        sys.exit(2)
    return quivermoduli.cli, setup_s


cli, SETUP_S = _import_cli()

import argparse  # noqa: E402  (after the timed import, which loads these anyway)
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402

import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

#: An item running longer than this is stopped and counted as failed.
ITEM_LIMIT_S = 30.0


class ItemTimeout(BaseException):
    """Raised by the alarm in a running item; a BaseException so no handler in
    the program under test can swallow it."""


def _on_alarm(signum, frame):
    raise ItemTimeout()


def run_item(item):
    """Run one item; returns (seconds, exit code or None, stdout, stderr, error)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(item.stdin), out, err
    signal.setitimer(signal.ITIMER_REAL, ITEM_LIMIT_S)
    rc, error = None, None
    start = time.perf_counter()
    try:
        rc = cli.main(list(item.argv))
    except ItemTimeout:
        error = f"exceeded the item time limit of {ITEM_LIMIT_S:g} s"
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:
        error = f"uncaught {type(exc).__name__}: {str(exc)[:120]}"
    finally:
        elapsed = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        sys.stdin, sys.stdout, sys.stderr = saved
    return elapsed, rc, out.getvalue(), err.getvalue(), error


def check_item(item, rc, stdout, stderr, error, digest, pins):
    """Why this outcome fails its item, or None when it passes."""
    if error is not None:
        return error
    if rc == 3:
        return "exit 3 (internal consistency failure)"
    one_line_error = not stdout and stderr.endswith("\n") and stderr.count("\n") == 1
    if item.kind == "contract":
        if rc not in (1, 2):
            return f"exit {rc}; the contract wants exit 1 or 2"
        if not one_line_error:
            return "the contract wants one stderr line and no stdout"
        return None
    pin = pins.get(item.key)
    if pin is not None and [rc, digest] != pin:
        return (
            f"exit {rc} sha256 {digest[:12]} differs from the pin: "
            f"exit {pin[0]} sha256 {pin[1][:12]}"
        )
    if rc == 0:
        try:
            payload = json.loads(stdout)
        except ValueError:
            return "exit 0 without JSON on stdout"
        if stderr or payload.get("command") != item.argv[0]:
            return "exit 0 with stderr output or the wrong command in the payload"
        if item.argv[0] == "ic" and payload["route_resolution"] is not None:
            if payload["routes_agree"] is not True:
                return "ic routes do not agree"
        return None
    if rc in (1, 2):
        return None if one_line_error else f"exit {rc} without exactly one stderr line"
    return f"undocumented exit code {rc}"


def layer_metrics(tracer):
    table, root_s = tracer.summary()
    metrics = {}
    for name, (calls, self_s) in table.items():
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_s"] = self_s
    for layer in LAYERS:
        own = sum(s for name, (_, s) in table.items() if name.startswith(layer + "."))
        metrics[f"{layer}.self_share"] = own / root_s if root_s else 0.0
    metrics.update(tracer.counters)
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true", help="run only the first item")
    parser.add_argument("--spans", help="CSV file for the spans of a traced pass")
    parser.add_argument(
        "--record", help="JSON file for the exit code and stdout sha256 of each pinned item"
    )
    args = parser.parse_args(argv)

    items = workloads.items(args.workload, args.seed)
    if args.smoke:
        items = items[:1]
    with open(os.path.join(os.path.dirname(__file__), "pins.json"), encoding="utf-8") as fh:
        pins = json.load(fh)

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(sys.modules["quivermoduli"])
    signal.signal(signal.SIGALRM, _on_alarm)

    wall_s = 0.0
    failures = []
    combined = hashlib.sha256()
    outputs = {}
    for run_id, item in enumerate(items):
        if tracer is not None:
            tracer.begin_run(run_id)
        elapsed, rc, stdout, stderr, error = run_item(item)
        wall_s += elapsed
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        reason = check_item(item, rc, stdout, stderr, error, digest, pins)
        if reason is not None:
            failures.append(
                {"id": item.id, "reason": reason, "known": item.id in workloads.KNOWN_FAILURES}
            )
        combined.update(f"{item.id}\t{rc}\t{digest}\n".encode())
        if item.kind == "pinned" and error is None:
            outputs[item.key] = [rc, digest]

    result = {
        "setup_s": SETUP_S,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(items),
        "failures": failures,
        "output_sha256": combined.hexdigest(),
        "layers": None,
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer)
        if args.spans:
            tracer.write(args.spans)
    if args.record:
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump(outputs, fh)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
