#!/usr/bin/env python3
"""End-to-end negotiation benchmark (workloads and metrics: BENCHMARK.json).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Builds perfbench/bench.exe with
dune, then runs each measurement in its own fresh process:

  --trace 0  one untraced process; prints the end-to-end metrics.
  --trace 1  an untraced process, a traced one and the workload's one-switch
             ablations; prints the per-layer metrics.  The traced run must
             reproduce the untraced run's outcomes, messages and SLD steps.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Progress and diagnostics go to
standard error.  Spans of a traced run are written to perfbench/out/.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
DEADLINE_S = 170.0

# The workloads, each with its one-switch ablations: one per layer it runs
# that a switch can take out.
ABLATIONS = {
    "paper_s4": ["no_verify"],
    "market_seq": ["no_verify"],
    "market_burst": ["no_verify", "no_journal", "no_guard"],
    "accredit_tabled": [],
}

STARTED = time.monotonic()


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        raise RuntimeError(f"no dune-project in {ROOT}: not a source checkout")
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ROOT, "./perfbench/bench.exe"]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write(proc.stdout)
        raise RuntimeError("build failed")


def measure(workload, seed, seconds, mode, min_worlds=None, spans_out=None):
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--mode", mode]
    if min_worlds is not None:
        cmd += ["--min-worlds", str(min_worlds)]
    if spans_out is not None:
        cmd += ["--spans-out", spans_out]
    left = DEADLINE_S - (time.monotonic() - STARTED)
    if left <= 0:
        raise RuntimeError("out of time before the " + mode + " run")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=left)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} run exited with {proc.returncode}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    log(f"{mode}: {line['ops']} ops in {line['worlds']} worlds, "
        f"{line['timed_s']:.3f} s timed at reference speed "
        f"(kernel {line['kernel_ms']:.3f} ms), {line['samples']} latencies, "
        f"tail p{line['tail_pct']:g}, "
        f"failed {line['failed']}, defects {line['defects']}, "
        f"drift {line['drift']}")
    return line


def per_op(run, value):
    return value / run["ops"]


def mean_op_s(run):
    return run["timed_s"] / run["ops"]


def sound(run):
    """Checks every single process must pass."""
    problems = []
    if run["failed"]:
        problems.append(f"{run['failed']} ops missed their pinned outcome")
    if run["drift"]:
        problems.append("repeated worlds disagree on messages or allocation")
    if run["counters"]["guard.rejected"]:
        problems.append("the guard rejected honest traffic")
    return problems


def end_to_end(run):
    c = run["counters"]
    ok = run["ops"] - run["failed"] - run["defects"]
    return {
        "ops_per_s": run["ops"] / run["timed_s"],
        "op_p50_us": run["lat_p50_us"],
        "op_tail_us": run["lat_tail_us"],
        "ok_ratio": ok / run["ops"],
        "alloc_kw_per_op": run["alloc_kw_per_op"],
        "msgs_per_op": per_op(run, c["net.messages"]),
        "setup_s": run["setup_s"],
        "top_heap_mb": run["top_heap_mb"],
    }


def per_layer(plain, traced, ablations):
    c = plain["counters"]
    spans = traced["span_self_us"]

    def self_us(pred):
        return sum(v for k, v in spans.items() if pred(k)) / traced["ops"]

    def saved_s(mode):
        # Per-op time the ablated layer costs: plain minus ablated.
        if mode not in ablations:
            return 0.0
        return mean_op_s(plain) - mean_op_s(ablations[mode])

    steps = c["reactor.steps"] + plain["driven_steps"]
    crypto = traced["crypto"]
    return {
        "negotiation.self_us_per_op": self_us(lambda k: k == "negotiation"),
        "engine.answer_self_us_per_op": self_us(lambda k: k == "answer"),
        "engine.query_self_us_per_op": self_us(lambda k: k == "query"),
        "sld.solve_us_per_op": self_us(lambda k: k == "sld.solve"),
        "sld.solves_per_op": per_op(plain, c["sld.queries"]),
        "sld.steps_per_op": per_op(plain, c["sld.steps"]),
        "engine.answer_yield": (c["engine.answers"] / c["sld.queries"]
                                if c["sld.queries"] else 0.0),
        "crypto.verify_us": crypto["verify_us"],
        "crypto.certs_learned_per_op": per_op(plain, c["engine.certs_learned"]),
        "crypto.verify_share": saved_s("no_verify") / mean_op_s(plain),
        "crypto.keygen_ms": crypto["keygen_ms"],
        "crypto.sign_us": crypto["sign_us"],
        "crypto.wire_roundtrip_us": crypto["wire_roundtrip_us"],
        "net.send_self_us_per_op": self_us(lambda k: k == "net.send"),
        "reactor.step_us_p50": plain["step_us_p50"],
        "reactor.step_us_p99": plain["step_us_p99"],
        "reactor.recv_self_us_per_op": self_us(lambda k: k.startswith("recv.")),
        "reactor.steps_per_op": per_op(plain, steps),
        "reactor.parks_per_op": per_op(plain, c["reactor.parks"]),
        "reactor.posts_per_op": per_op(plain, c["reactor.posts"]),
        "journal.us_per_op": saved_s("no_journal") * 1e6,
        "journal.checkpoints_per_op": per_op(plain, c["reactor.checkpoints"]),
        "guard.us_per_op": saved_s("no_guard") * 1e6,
        "guard.admitted_per_op": per_op(plain, c["guard.admitted"]),
        "guard.rejected_per_op": per_op(plain, c["guard.rejected"]),
        "tabling.complete_self_us_per_op":
            self_us(lambda k: k == "tabling.complete"),
        "tabling.sccs_per_op": per_op(plain, c["tabling.sccs"]),
        "tabling.completions_per_op": per_op(plain, c["tabling.completions"]),
        "tabling.loops_detected_per_op":
            per_op(plain, c["tabling.loops_detected"]),
        "gc.minor_collections_per_op": per_op(plain, plain["minor_gcs"]),
        "gc.major_collections_per_op": per_op(plain, plain["major_gcs"]),
        "trace.coverage": (traced["root_span_us"]
                           / (traced["wall_timed_s"] * 1e6)),
        "trace.overhead": 1.0 - mean_op_s(plain) / mean_op_s(traced),
    }


def fidelity(plain, traced):
    """The traced run must reproduce the untraced run exactly."""
    problems = []
    if traced["digest"] != plain["digest"]:
        problems.append("traced outcomes differ from untraced outcomes")
    if traced["world_msgs"] != plain["world_msgs"]:
        problems.append("traced msgs_per_op differs from untraced")
    for key in ("net.messages", "sld.steps"):
        if (per_op(traced, traced["counters"][key])
                != per_op(plain, plain["counters"][key])):
            problems.append(f"traced {key} per op differs from untraced")
    return problems


def spec_metrics(section):
    """(name, unit) pairs of one BENCHMARK.json metric section, in order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [(m["name"], m["unit"]) for m in json.load(f)[section]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(ABLATIONS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    try:
        build()
        plain = measure(args.workload, args.seed, args.seconds, "plain")
        problems = sound(plain)
        if args.trace == 0:
            section, values = "end_to_end", end_to_end(plain)
        else:
            # The diagnostic runs only need whole worlds, not tail samples.
            side = max(1.0, args.seconds / 2)
            out = os.path.join(HERE, "out")
            os.makedirs(out, exist_ok=True)
            spans = os.path.join(out, f"{args.workload}.spans.jsonl")
            traced = measure(args.workload, args.seed, side, "traced",
                             min_worlds=1, spans_out=spans)
            ablations = {m: measure(args.workload, args.seed, side, m,
                                    min_worlds=1)
                         for m in ABLATIONS[args.workload]}
            for run in [traced, *ablations.values()]:
                problems += sound(run)
            problems += fidelity(plain, traced)
            section, values = "per_layer", per_layer(plain, traced, ablations)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in spec_metrics(section)}
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        log(f"error: {e}")
        return 1

    for p in problems:
        log("check failed: " + p)
    print(json.dumps({
        "correct": not problems,
        "attempted": plain["ops"],
        "failed": plain["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
