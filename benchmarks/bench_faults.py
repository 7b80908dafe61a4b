"""Fault-injection benchmark: graceful degradation vs a fault-free twin.

Drives the same synthetic open-loop workload through the serving stack
twice on the 8-device DGX-1 testbed:

- ``fault_free`` — no injector attached: the seed behaviour every other
  benchmark measures;
- ``chaos``      — a seeded chaos scenario (2% per-attempt transient
  message failures plus one random straggler window) with comm-layer
  retries and service-level re-enqueue/shed under deadline targets.

The headline assertions, recorded to ``benchmarks/out/BENCH_faults.json``:

- the chaos run is **replay-deterministic** — two identically seeded
  runs produce bit-identical ledgers (:meth:`Ledger.fingerprint`);
- a **zero-fault injector is invisible** — attaching an injector with
  no scheduled faults and zero transient rate leaves the ledger
  bit-identical to the no-injector seed run;
- every admitted request either completes or is accounted shed
  (``completed + shed + retry_shed == requests``);
- chaos **numerics match** the fault-free twin — with payloads and
  host-side outputs enabled, every request served under chaos produces
  exactly the fault-free output vector (retries re-run schedules, they
  never corrupt data);
- the retried chaos schedule passes the hazard sanitizer; and
- exposed retry time and per-class deadline-miss rates are reported
  against the fault-free baseline.

Run standalone with ``--smoke`` for the CI quick pass.
"""

import json
import sys

import numpy as np

from artifacts import emit, out_dir
from repro.faults import FaultInjector, seeded_chaos
from repro.machine.cluster import VirtualCluster
from repro.machine.spec import preset
from repro.serve import (
    AdmissionQueue,
    Batcher,
    PlanCache,
    ServeScheduler,
    summarize,
    synthetic_workload,
)
from repro.util.table import Table

SYSTEM = "8xP100"
DTYPE = "complex128"
RATE = 2000.0
FAULT_SEED = 7
TRANSIENT_RATE = 0.02
STRAGGLERS = 1
#: numerics-twin transform size (small: payloads are materialized)
NUMERICS_N = 1 << 12


def _injector(spec):
    """The benchmark's chaos scenario — a pure function of its seed."""
    return seeded_chaos(spec, seed=FAULT_SEED, transient_rate=TRANSIENT_RATE,
                        stragglers=STRAGGLERS)


def _run(spec, requests, faults=None, compute_outputs=False):
    """One serve run -> (cluster, scheduler); sanitizes the schedule."""
    cache = PlanCache(spec, autotune=not compute_outputs,
                      build_operators=compute_outputs)
    cl = VirtualCluster(spec, execute=False, faults=faults)
    sched = ServeScheduler(
        cl, Batcher(cache, max_batch=8),
        queue=AdmissionQueue(capacity=4096),
        max_inflight=2, retry_budget=2,
        compute_outputs=compute_outputs,
    )
    sched.run(requests)
    cl.sanitize()  # retried schedules must stay provably hazard-free
    return cl, sched


def _miss_rate(rep):
    total = sum(rep.deadline_misses.values())
    return total / rep.completed if rep.completed else 0.0


def _collect(num_requests):
    spec = preset(SYSTEM)
    requests = synthetic_workload(num_requests, rate=RATE, seed=11)

    cl_base, sched_base = _run(spec, requests)
    rep_base = summarize(sched_base)

    cl_chaos, sched_chaos = _run(spec, requests, faults=_injector(spec))
    rep_chaos = summarize(sched_chaos)

    # replay determinism: an identically seeded chaos run, from scratch
    cl_replay, _ = _run(spec, requests, faults=_injector(spec))
    replay_ok = cl_chaos.ledger.fingerprint() == cl_replay.ledger.fingerprint()

    # a do-nothing injector must not perturb a single ledger record
    cl_zero, _ = _run(spec, requests, faults=FaultInjector(spec))
    zero_fault_ok = cl_zero.ledger.fingerprint() == cl_base.ledger.fingerprint()

    # numerics twin: payload workload served under chaos produces the
    # exact fault-free outputs (retries re-run, they never corrupt)
    nreqs = synthetic_workload(min(num_requests, 8), rate=RATE,
                               sizes={NUMERICS_N: 1.0}, seed=13,
                               with_payloads=True)
    _, s_nbase = _run(spec, nreqs, compute_outputs=True)
    _, s_nchaos = _run(spec, nreqs, faults=_injector(spec),
                       compute_outputs=True)
    numerics_ok = (
        set(s_nchaos.outputs) == set(s_nbase.outputs)
        and all(np.array_equal(s_nchaos.outputs[rid], s_nbase.outputs[rid])
                for rid in s_nchaos.outputs)
    )

    return {
        "system": SYSTEM, "dtype": DTYPE, "num_requests": num_requests,
        "offered_rate": RATE,
        "chaos_scenario": {
            "fault_seed": FAULT_SEED, "transient_rate": TRANSIENT_RATE,
            "stragglers": STRAGGLERS,
            "fault_events": rep_chaos.fault_events,
        },
        "arms": {
            "fault_free": json.loads(rep_base.to_json()),
            "chaos": json.loads(rep_chaos.to_json()),
        },
        "replay_deterministic": replay_ok,
        "zero_fault_bit_identical": zero_fault_ok,
        "numerics_identical": numerics_ok,
        "numerics_requests": len(s_nchaos.outputs),
        "exposed_retry_time": rep_chaos.retry_time,
        "deadline_miss_rate": {
            "fault_free": _miss_rate(rep_base),
            "chaos": _miss_rate(rep_chaos),
        },
    }


def _render(payload):
    t = Table(
        ["arm", "completed", "shed", "p99 [ms]", "deadline misses",
         "retries", "retry shed", "exposed retry [ms]"],
        title=f"Serving under faults, {payload['system']} "
              f"({payload['num_requests']} requests at "
              f"{payload['offered_rate']:.0f} req/s)",
    )
    for name, rep in payload["arms"].items():
        t.add_row([
            name, rep["completed"],
            sum(rep["shed"].values()) + sum(rep["retry_shed"].values()),
            f"{rep['latency']['p99'] * 1e3:.3f}",
            sum(rep["deadline_misses"].values()),
            sum(rep["retried"].values()),
            sum(rep["retry_shed"].values()),
            f"{rep['retry_time'] * 1e3:.3f}",
        ])
    sc = payload["chaos_scenario"]
    lines = [
        t.render(),
        f"chaos scenario: seed {sc['fault_seed']}, transient rate "
        f"{sc['transient_rate']:g}, {sc['stragglers']} straggler(s), "
        f"{sc['fault_events']} fault events",
        f"replay deterministic: {payload['replay_deterministic']}",
        f"zero-fault bit-identical: {payload['zero_fault_bit_identical']}",
        f"numerics identical under chaos: {payload['numerics_identical']} "
        f"({payload['numerics_requests']} payload requests)",
    ]
    return "\n\n".join(lines)


def _check(payload):
    # seeded chaos must replay bit-identically, and a do-nothing
    # injector must be invisible to the ledger
    assert payload["replay_deterministic"], payload
    assert payload["zero_fault_bit_identical"], payload
    # retries re-run schedules; they never corrupt outputs
    assert payload["numerics_identical"], payload
    assert payload["numerics_requests"] > 0, payload
    base, chaos = payload["arms"]["fault_free"], payload["arms"]["chaos"]
    # the fault-free arm must look exactly like a fault-free arm
    assert base["fault_events"] == 0 and base["failed_batches"] == 0, base
    assert base["retry_time"] == 0.0, base
    assert sum(base["retried"].values()) == 0, base
    # the chaos scenario actually injected something
    assert chaos["fault_events"] > 0, chaos
    # every request is accounted for: completed, shed at admission, or
    # shed on retry
    for rep in (base, chaos):
        assert (rep["completed"] + sum(rep["shed"].values())
                + sum(rep["retry_shed"].values())
                == payload["num_requests"]), rep


def _emit(payload):
    emit("faults_degradation", _render(payload))
    path = out_dir() / "BENCH_faults.json"
    path.write_text(json.dumps(payload, indent=1))
    return path


def test_fault_degradation(benchmark):
    """Benchmark the chaos vs fault-free arms and validate the claims."""
    payload = benchmark.pedantic(lambda: _collect(32), rounds=1, iterations=1)
    _emit(payload)
    _check(payload)


def main(argv):
    """Standalone entry: ``--smoke`` runs a reduced trace for CI."""
    payload = _collect(12 if "--smoke" in argv else 32)
    path = _emit(payload)
    _check(payload)
    print(_render(payload))
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
