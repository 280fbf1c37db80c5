"""Child process of the ``sampling`` workload: assemble once, evaluate many.

    python3 perfbench/sampling.py MANIFEST SECONDS OUT [--chunk N] [--spans FILE]

Set-up is timed from before the library import through JSON load, fan
construction and the forms each fan caches on first use.  The loop then runs
rounds of a fixed mix of sampled pairs until SECONDS have passed, timing each
kind of pair separately; every result is checked by the oracle outside the
timed blocks.  Each round is recorded as its three block times and its
number of failed checks, next to the reference probes taken between rounds.
The report (and with ``--spans`` the trace) is written to OUT as JSON.
"""

import argparse
import json
import time

import calibrate
import oracle

# Pairs per round, chosen so each kind takes roughly a third of a round on
# the seed code (about 0.2 ms, 10 ms and 1.8 ms per pair).
MINKOWSKI_PAIRS = 50
AF_PAIRS = 1
FUCHSIAN_PAIRS = 5
# A reference probe (see calibrate.py) runs before the first round and after
# every PROBE_EVERY rounds.
PROBE_EVERY = 8


def _load(manifest, name):
    with open(manifest["fixtures"][name]["path"], "rb") as fh:
        return json.loads(fh.read())


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("manifest")
    parser.add_argument("seconds", type=float)
    parser.add_argument("out")
    parser.add_argument("--chunk", type=int, default=0,
                        help="index of this child among the loop's children (seeds its draws)")
    parser.add_argument("--spans")
    args = parser.parse_args()
    with open(args.manifest) as fh:
        manifest = json.load(fh)

    start = time.perf_counter()
    import numpy as np
    from mixedform import MixedFormError, fuchsian, polygon, polytope

    tracer = None
    if args.spans:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    pfan = polygon.PolygonSupport.from_json_dict(_load(manifest, "polygon12")).fan
    fan, h = polytope.fan_from_json_dict(_load(manifest, "fib48"))
    qfan, _ = fuchsian.fan_from_json_dict(_load(manifest, "genus2_m14"))
    pool = np.asarray(_load(manifest, "genus2_m14_pool")["vectors"], dtype=float)
    polytope.volume_form(fan)
    fuchsian.fuchsian_area_form(qfan)
    fuchsian.covolume_form(qfan)
    setup_s = time.perf_counter() - start

    rng = np.random.default_rng([manifest["seed"], args.chunk])
    clock = time.perf_counter
    rounds = []
    attempted = failed = 0
    failures = []

    def attempt(fn, *call_args):
        try:
            return fn(*call_args)
        except MixedFormError as exc:
            return exc

    probes = [calibrate.probe()]
    deadline = clock() + args.seconds
    q = 0
    while True:
        t0 = clock()
        mink = []
        for _ in range(MINKOWSKI_PAIRS):
            a = polygon.sample_interior(pfan, rng)
            b = polygon.sample_interior(pfan, rng)
            mink.append(attempt(polygon.minkowski_check, pfan, a, b))
        t1 = clock()
        af = []
        for _ in range(AF_PAIRS):
            a = polytope.sample_interior(fan, h, rng)
            b = polytope.sample_interior(fan, h, rng)
            af.append(attempt(polytope.alexandrov_fenchel_check, fan, a, b, h))
        t2 = clock()
        fu = []
        for _ in range(FUCHSIAN_PAIRS):
            # offset in 1..63: the two vectors of a pair are always distinct
            a = pool[q % len(pool)]
            b = pool[(q + 1 + (q // len(pool)) % (len(pool) - 1)) % len(pool)]
            fu.append((attempt(fuchsian.spherical_distance, qfan, a, b),
                       attempt(fuchsian.covolume_hessian, qfan, a)))
            q += 1
        t3 = clock()

        verdicts = [oracle.check_inequality(r, "Minkowski") if not isinstance(r, Exception)
                    else repr(r) for r in mink]
        verdicts += [oracle.check_inequality(r, "Alexandrov-Fenchel")
                     if not isinstance(r, Exception) else repr(r) for r in af]
        for d, hess in fu:
            error = next((repr(x) for x in (d, hess) if isinstance(x, Exception)), None)
            verdicts.append(error or oracle.check_fuchsian_pair(d, hess))
        bad = [v for v in verdicts if v is not None]
        rounds.append([t1 - t0, t2 - t1, t3 - t2, len(bad)])
        attempted += len(verdicts)
        failed += len(bad)
        failures += bad[:5 - len(failures)]
        if len(rounds) % PROBE_EVERY == 0:
            probes.append(calibrate.probe())
        if t3 >= deadline:
            break
    if len(rounds) % PROBE_EVERY:
        probes.append(calibrate.probe())

    report = {"setup_s": setup_s, "rounds": rounds, "probes": probes,
              "probe_every": PROBE_EVERY, "attempted": attempted, "failed": failed,
              "failures": failures,
              "pairs_per_round": [MINKOWSKI_PAIRS, AF_PAIRS, FUCHSIAN_PAIRS]}
    with open(args.out, "w") as fh:
        json.dump(report, fh)
    if tracer is not None:
        tracer.dump(args.spans)


if __name__ == "__main__":
    main()
