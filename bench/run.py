"""Benchmark of infoprice: end-to-end metrics per workload, and a traced run
for per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload mc_steps --seed 1 --seconds 10 --trace 0

Workloads: mc_steps, mc_jumps, solve, cli (see bench/NOTES.md). With
--trace 0 the last line of standard output is a JSON object whose metrics
are the end-to-end metrics of BENCHMARK.json; with --trace 1 they are its
per-layer metrics. The lines before it list every metric with its unit and
sample count, and every operation with its check. Full results go to
.bench_out/<workload>-trace<N>.json, and the traced run's spans to
.bench_out/<workload>-spans.json.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

# BENCHMARK.json names the metrics a run reports, with their units.
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")


@dataclass
class OpRecord:
    name: str
    ok: bool
    failure: str          # "", "check", "raised" or "fingerprint"
    detail: str
    seconds: float
    fingerprint: str
    stats: dict


def run_op(name, fn, first_pass) -> OpRecord:
    t0 = time.perf_counter()
    try:
        out = fn()
    except Exception as exc:  # an operation that raises counts as failed
        return OpRecord(name, False, "raised", f"{type(exc).__name__}: {exc}",
                        time.perf_counter() - t0, "", {})
    seconds = time.perf_counter() - t0
    rec = OpRecord(name, out.ok, "" if out.ok else "check", out.detail, seconds,
                   out.fingerprint, out.stats)
    earlier = first_pass.get(name)
    if earlier is not None and earlier.fingerprint and earlier.fingerprint != rec.fingerprint:
        rec.ok, rec.failure = False, "fingerprint"
        rec.detail += f" fingerprint {rec.fingerprint} != first pass {earlier.fingerprint}"
    return rec


def run_pass(wl, passes, tracer=None, label="") -> tuple[float, list]:
    first = {r.name: r for r in passes[0][1]} if passes else {}
    records = []
    t0 = time.perf_counter()
    for name, fn in wl.operations():
        if tracer is None:
            records.append(run_op(name, fn, first))
        else:
            with tracer.operation(f"{label}.{name}"):
                records.append(run_op(name, fn, first))
    return time.perf_counter() - t0, records


def is_known_defect(rec, defect) -> bool:
    """Whether a failed operation fails the way its known defect does (see
    workloads.KNOWN_DEFECTS)."""
    if defect is None or rec.failure != defect[0]:
        return False
    if rec.failure == "raised":
        return rec.detail == defect[1]
    low, high = defect[1]
    return low < rec.stats.get("z", math.nan) < high


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def peak_rss_mb() -> tuple[float, float]:
    """Peak RSS of this process, and of its largest finished child. A forked
    price_mc worker's figure includes the pages it shares with this process,
    so the two are not added."""
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0)


def tail(values) -> str:
    """Median, and the highest of p90/p99 with at least ten samples beyond it."""
    n = len(values)
    text = f"n={n} median={statistics.median(values):.6g}"
    for q in (99, 90):
        if n * (100 - q) / 100 >= 10:
            text += f" p{q}={statistics.quantiles(values, n=100)[q - 1]:.6g}"
            break
    return text + f" max={max(values):.6g}"


def mc_pass_rates(records) -> tuple[float, float]:
    """(path-steps/s over the pass's price_mc time, geometric mean of SE^2 x
    job time), or None when the pass has no Monte Carlo job."""
    jobs = [r for r in records if "mc_s" in r.stats]
    if not jobs:
        return None
    steps = sum(r.stats["path_steps"] for r in jobs)
    mc_s = sum(r.stats["mc_s"] for r in jobs)
    logs = [math.log(r.stats["se"] ** 2 * r.stats["mc_s"]) for r in jobs]
    return steps / mc_s, math.exp(sum(logs) / len(logs))


def pass_metrics(wl, passes) -> dict:
    """Workload-specific end-to-end metrics: name -> (value, unit, sample text)."""
    out = {}
    rates = [mc_pass_rates(recs) for _, recs in passes]
    if rates[0] is not None:
        psps = [r[0] for r in rates]
        se2 = [r[1] for r in rates]
        out["path_steps_per_s"] = (statistics.median(psps), "path-steps/s", tail(psps))
        out["se2_s"] = (statistics.median(se2), "price2.s", tail(se2))
    for name, _ in wl.operations():
        if name.startswith("cli."):
            times = [r.seconds for _, recs in passes for r in recs if r.name == name]
            out[f"{name}_s"] = (statistics.median(times), "s", tail(times))
    return out


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

def traced_metrics(wl, tracer, passes, untraced_cpu, extras) -> dict:
    import tracing
    import workloads

    spans = [s for s in tracer.spans
             if s[2] is not None and not s[2].startswith("extra.")]
    idx = tracing.SpanIndex(spans)
    m = {}

    def named(name):
        return lambda n: n == name

    for s in workloads.PARAM_SETS:
        for fn, func in (("uninformed", "solve_uninformed"), ("timing", "solve_timing_insider"),
                         ("signal", "solve_signal_insider"), ("merton", "solve_merton")):
            durs = [sp[5] - sp[4] for sp in spans
                    if sp[3] == f"agents.{func}" and sp[6] and sp[6].get("set") == s]
            if durs:
                m[f"agents.solve_{fn}_s.{s}"] = statistics.median(durs)
        sig = [sp[6] for sp in spans
               if sp[3] == "agents.solve_signal_insider" and sp[6] and sp[6].get("set") == s
               and "outer_iters" in sp[6]]
        if sig:
            m[f"agents.signal_outer_iters.{s}"] = sig[-1]["outer_iters"]
            m[f"agents.signal_max_residual.{s}"] = sig[-1]["max_residual"]
        fp = [sp[6]["iters"] for sp in spans
              if sp[3] == "optimize.fixed_point_scalar" and sp[6] and "iters" in sp[6]
              and idx.ancestor_attr(sp, "set") == s]
        if fp:
            # one solve's iterations (the last pass), not the sum over passes
            m[f"agents.timing_fp_iters.{s}"] = fp[-1]
    for fn in ("maximize_bounded", "fixed_point_scalar"):
        calls, sec, _, iters = idx.stats(named(f"optimize.{fn}"))
        m[f"optimize.{fn}.calls"], m[f"optimize.{fn}.s"] = calls, sec
        m[f"optimize.{fn}.iters"] = iters
    for layer in ("agents", "optimize", "quadrature", "pricing", "simulate"):
        calls, sec, self_s, _ = idx.stats(lambda n, p=layer + ".": n.startswith(p))
        m[f"{layer}.self_s"] = self_s
        if layer == "quadrature":
            m["quadrature.calls"], m["quadrature.s"] = calls, sec
    calls, sec, _, _ = idx.stats(named("pricing.closed_form_price"))
    m["pricing.closed_form.calls"], m["pricing.closed_form.s"] = calls, sec
    m["pricing.truncation_bound.s"] = idx.stats(named("pricing.truncation_bound"))[1]
    calls, sec, _, _ = idx.stats(named("pricing.price_mc"))
    m["pricing.price_mc.calls"], m["pricing.price_mc.s"] = calls, sec
    prefix = {"mc_steps": "steps", "mc_jumps": "jumps"}.get(wl.name)
    for sp in spans:
        if sp[3] == "pricing.price_mc" and sp[2].startswith("pass1."):
            m[f"pricing.price_mc.s.{prefix}.{sp[2].split('.', 1)[1]}"] = sp[5] - sp[4]

    untraced_pass_s, untraced = passes[0]
    traced_pass_s, _ = passes[1]
    m["trace.overhead_s"] = traced_pass_s - untraced_pass_s
    m["proc.cpu_s"] = untraced_cpu
    m["proc.cpu_util"] = untraced_cpu / (untraced_pass_s * (os.cpu_count() or 1))
    rates = mc_pass_rates(untraced)
    if rates is not None:
        m["pricing.path_steps_per_s"], m["pricing.se2_s"] = rates
    m.update(cli_metrics(untraced))
    m.update(source_lines())
    m.update(extras)
    return m


def source_lines() -> dict:
    """Lines of each src/infoprice module (as `wc -l` counts them) and of all
    its modules together."""
    pkg = os.path.join(SRC, "infoprice")
    lines = {}
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                lines[name[:-3]] = fh.read().count(b"\n")
    return {**{f"src.lines.{mod}": n for mod, n in lines.items()},
            "src.lines.total": sum(lines.values())}


def cli_metrics(records) -> dict:
    """Wall time and report size of each CLI command among the records."""
    m = {}
    for r in records:
        if r.name.startswith("cli."):
            cmd = r.name.split(".", 1)[1]
            m[f"cli.{cmd}_s"] = r.seconds
            m[f"cli.report_bytes.{cmd}"] = r.stats.get("report_bytes", 0)
    return m


def traced_extras(wl, tracer, passes) -> tuple[dict, list]:
    """Work only the traced run does: a workers=1 repeat of one job (bit
    identity and fan-out efficiency), the engine probe and exact scenario
    counts on `mc_*`; the interpreter import time on `cli`."""
    from infoprice import pricing
    import workloads

    m, records = {}, []
    if isinstance(wl, workloads.MonteCarlo):
        job = next(j for j in wl.jobs if j.name == wl.fanout_job)
        first = {r.name: r for r in passes[0][1]}
        op = f"extra.fanout.{job.name}"
        with tracer.operation(op):
            rec = run_op(job.name, lambda: wl.run_job(job, workers=1), first)
        rec.name = f"fanout.{job.name}"
        records.append(rec)
        in_process = sum(s[5] - s[4] for s in tracer.spans
                         if s[2] == op and s[3] == "simulate.path_integrals")
        fanned = first[job.name].stats["mc_s"]
        m["pricing.fanout_efficiency"] = in_process / (pricing.n_workers() * fanned)
        tracer.uninstall()
        for regime, rate in wl.engine_rates().items():
            m[f"simulate.engine_path_steps_per_s.{regime}"] = rate
        path_steps, jumps = wl.scenario_counts()
        m["simulate.path_steps"], m["simulate.jump_events"] = path_steps, jumps
        m["simulate.jumps_per_step"] = jumps / path_steps
    if wl.name == "cli":
        m["cli.import_s"] = wl.import_seconds()
    return m, records


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true",
                    help="toy sizes (few paths, one parameter set) for the smoke test")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "infoprice", "__init__.py")):
        print(f"bench: no program source at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    with open(SPEC_PATH, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, SRC)
    os.environ.pop("INFOPRICE_WORKERS", None)   # the default worker count
    os.makedirs(OUT, exist_ok=True)

    t0 = time.perf_counter()
    import infoprice  # noqa: F401
    import_s = time.perf_counter() - t0
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    scale = workloads.TOY if args.toy else workloads.FULL
    wl = workloads.make(args.workload, args.seed, scale, OUT)
    tracer = tracing.Tracer(workloads.params_labels()) if args.trace else None

    # set-up: input generation and the solves the operations need
    t0 = time.perf_counter()
    if tracer:
        tracer.install()
        with tracer.operation("setup.0"):
            wl.setup()
        tracer.uninstall()
    else:
        wl.setup()
    setup_call_s = time.perf_counter() - t0
    setup_s = time.perf_counter() - T_START      # start of run.py to the first operation

    passes, extras, extra_records = [], {}, []
    cpu0 = cpu_seconds()
    t_measure = time.perf_counter()
    if tracer:
        passes.append(run_pass(wl, passes))
        untraced_cpu = cpu_seconds() - cpu0
        tracer.install()
        passes.append(run_pass(wl, passes, tracer, "pass1"))
        extras, extra_records = traced_extras(wl, tracer, passes)
        tracer.uninstall()
    else:
        while len(passes) < 2 or time.perf_counter() - t_measure < args.seconds:
            passes.append(run_pass(wl, passes))
        untraced_cpu = cpu_seconds() - cpu0

    records = [r for _, recs in passes for r in recs] + extra_records
    known = {name: defect for (w, name), defect in workloads.KNOWN_DEFECTS.items()
             if w == wl.name}
    failed = [r for r in records if not r.ok]
    unexpected = [r for r in failed if not is_known_defect(r, known.get(r.name))]
    correct = not unexpected

    for i, (pass_s, recs) in enumerate(passes):
        for r in recs:
            status = "ok" if r.ok else ("FAIL known-defect"
                                        if is_known_defect(r, known.get(r.name)) else "FAIL")
            print(f"op pass={i} {r.name} {status} {r.seconds:.4f}s {r.detail} "
                  f"fingerprint={r.fingerprint}")
    for r in extra_records:
        print(f"op extra {r.name} {'ok' if r.ok else 'FAIL'} {r.seconds:.4f}s {r.detail}")

    pass_times = [p for p, _ in passes]
    rss = peak_rss_mb()
    report = {
        "setup_s": (setup_s, "s", f"n=1 import_s={import_s:.4f} "
                    f"setup_call_s={setup_call_s:.4f}"),
        "pass_s": (statistics.median(pass_times), "s", tail(pass_times)),
        "peak_rss_mb": (max(rss), "MB", f"n=1 self={rss[0]:.1f} largest_child={rss[1]:.1f}"),
        "fail_frac": (len(failed) / len(records), "ratio",
                      f"failed={len(failed)} attempted={len(records)}"),
        "cpu_util": (untraced_cpu / (sum(pass_times[:1 if tracer else None])
                                     * (os.cpu_count() or 1)), "ratio", f"nproc={os.cpu_count()}"),
        **pass_metrics(wl, passes),
    }
    for name, (value, unit, samples) in report.items():
        print(f"metric {name} = {value!r} {unit} ({samples})")

    if tracer:
        layers = traced_metrics(wl, tracer, passes, untraced_cpu, extras)
        # a layer this workload does not reach reports 0
        metrics = {m["name"]: {"value": layers.get(m["name"], 0.0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
        for k, v in metrics.items():
            print(f"layer {k} = {v['value']!r} {v['unit']}")
        for k in sorted(set(layers) - set(metrics)):
            print(f"layer {k} = {layers[k]!r} (not in BENCHMARK.json)")
        tracer.write(os.path.join(OUT, f"{wl.name}-spans.json"))
    else:
        metrics = {m["name"]: {"value": report[m["name"]][0], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    result = {"correct": correct, "attempted": len(records), "failed": len(failed),
              "metrics": metrics}
    with open(os.path.join(OUT, f"{wl.name}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({**result, "workload": wl.name, "seed": args.seed,
                   "report": {k: list(v) for k, v in report.items()},
                   "unexpected_failures": [r.name for r in unexpected],
                   "ops": [vars(r) for r in records]}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
