#!/usr/bin/env python3
"""Compare a bench JSON against its checked-in baseline.

Invoked per manifest line by tools/check_bench.sh:

    compare_bench.py <bench> <current.json> <baseline.json> \
                     <key-fields> <metrics> <headline|->

Every result row (matched on the comma-separated key fields) must hold
each metric within +-10% of the baseline; rows missing from either side
fail. The headline argument names a check below that pins the result
the bench exists to show.
"""

import json
import sys

TOL = 0.10


def rows_by_key(doc, key_fields):
    return {tuple(r[k] for k in key_fields): r for r in doc["results"]}


def check_tolerance(bench, cur, base, key_fields, metrics):
    fail = False
    bases = rows_by_key(base, key_fields)
    for key, r in rows_by_key(cur, key_fields).items():
        b = bases.pop(key, None)
        if b is None:
            print(f"{bench} {key}: not in baseline — regenerate it")
            fail = True
            continue
        for m in metrics:
            want, got = b[m], r[m]
            lo, hi = want * (1 - TOL), want * (1 + TOL)
            ok = lo <= got <= hi
            print(
                f"{bench} {key} {m}: baseline {want} got {got} "
                f"[{'ok' if ok else 'REGRESSION'}]"
            )
            fail |= not ok
    if bases:
        print(f"{bench}: rows missing from bench output: {sorted(bases)}")
        fail = True
    return fail


def headline_backend_ordering(cur):
    """Isolation-cost curve stays ordered: sfi >= proposed >= current
    capacity at every tenant count, and past the sePCR bank SFI keeps a
    strict edge over the proposed hardware's TPM-seal evictions."""
    fail = False
    cap = {(r["mode"], r["tenants"]): r["capacity_rps"] for r in cur["results"]}
    for t in sorted({r["tenants"] for r in cur["results"]}):
        s, p, c = cap[("sfi", t)], cap[("proposed", t)], cap[("current", t)]
        print(f"ordering at {t} tenants: sfi {s} >= proposed {p} >= current {c}")
        if not s >= p >= c:
            print("headline regression: backend capacity ordering broken")
            fail = True
    hi = max(r["tenants"] for r in cur["results"])
    if cap[("sfi", hi)] <= cap[("proposed", hi)]:
        print("headline regression: sfi lost its past-the-bank edge")
        fail = True
    return fail


def headline_vtpm_nonzero(cur):
    """Today's hardware holds zero tenants at the SLO until the vTPM
    layer lifts it off zero."""
    vtpm = {r["config"]: r for r in cur["results"]}
    if vtpm["current+vtpm"]["capacity_rps"] <= 0:
        print("headline regression: current+vtpm capacity fell back to zero")
        return True
    return False


def headline_cost_protects_cheap(cur):
    """At the top offered rate the per-tenant certificate cost budget
    leaves the cheap tenants more goodput than FIFO admission does."""
    rows = {(r["discipline"], r["rate_rps"]): r for r in cur["results"]}
    top = max(r["rate_rps"] for r in cur["results"])
    cost = rows[("cost", top)]["cheap_goodput_rps"]
    fifo = rows[("fifo", top)]["cheap_goodput_rps"]
    print(f"cheap goodput at {top} req/s: cost {cost} vs fifo {fifo}")
    if cost <= fifo:
        print("headline regression: cost budget no longer protects cheap work")
        return True
    return False


def headline_churn_failover_gain(cur):
    """At the mid MTTF on proposed hardware, sealed-state failover
    recovers at least 2x the goodput of failing in place."""
    rows = {(r["mode"], r["mttf_s"], r["failover"]): r for r in cur["results"]}
    mttfs = sorted({r["mttf_s"] for r in cur["results"]})
    mid = mttfs[len(mttfs) // 2]
    on = rows[("proposed", mid, True)]["goodput_rps"]
    off = rows[("proposed", mid, False)]["goodput_rps"]
    gain = on / max(off, 1e-9)
    print(f"failover gain at mttf {mid}: {gain:.2f}x (on {on}, off {off})")
    if gain < 2.0:
        print("headline regression: failover gain fell below 2x")
        return True
    return False


def headline_autoscale_gain(cur):
    """Under the flash crowd, the better of live migration and
    kill-and-respawn spreading sustains at least 1.5x the static
    fleet's capacity at the 250 ms p95 SLO."""
    cap = {r["policy"]: r["capacity_rps"] for r in cur["results"]}
    static = cap["static"]
    best = max(cap["migrate"], cap["spread"])
    gain = best / max(static, 1e-9)
    print(
        f"autoscale gain at SLO: {gain:.2f}x (static {static}, "
        f"migrate {cap['migrate']}, spread {cap['spread']})"
    )
    if gain < 1.5:
        print("headline regression: autoscaling gain fell below 1.5x")
        return True
    return False


HEADLINES = {
    "backend_ordering": headline_backend_ordering,
    "vtpm_nonzero": headline_vtpm_nonzero,
    "cost_protects_cheap": headline_cost_protects_cheap,
    "churn_failover_gain": headline_churn_failover_gain,
    "autoscale_gain": headline_autoscale_gain,
}


def main():
    bench, cur_path, base_path, keys, metrics, headline = sys.argv[1:7]
    with open(cur_path) as fh:
        cur = json.load(fh)
    with open(base_path) as fh:
        base = json.load(fh)
    fail = check_tolerance(
        bench, cur, base, keys.split(","), metrics.split(",")
    )
    if headline != "-":
        fail |= HEADLINES[headline](cur)
    sys.exit(1 if fail else 0)


if __name__ == "__main__":
    main()
