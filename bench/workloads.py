"""The three workloads: their verdict calls and the independent check of each.

A workload is a list of `Call`s, one pass of the closed loop.  `run` is the
timed public call; `check` runs untimed afterwards and returns whether the
answer is right and a fingerprint of it.  Fingerprints must repeat exactly
across passes (and across the traced pass), which is how the benchmark
enforces determinism of verdicts and of the counts inside them.

Checks use numpy functions captured at import, before the traced run wraps
numpy, so the benchmark's own eigenvalue work is never counted as the
program's.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable

import numpy as np

import inputs

_eigvalsh = np.linalg.eigvalsh
_norm = np.linalg.norm

DECOMPOSE_TOL = 1e-8        # the CLI default
DECOMPOSABLE = 60           # criterion-6 family; a pass takes ~5 s
NON_DECOMPOSABLE = 12       # Choi-map conjugates, one per five decomposable maps
SK_CALLS = 60
SK_TRIALS = 3               # several trials per call leave room for batching
SK_SAMPLER_SEED = 5000      # sampler seeds as in acceptance criterion 7
SK_TOL = 1e-8               # sk_sampler's violation threshold
CONE_SLACK = 1e-9           # eigenvalue slack, relative to ||C||
EXIT_CODES = {"satisfied": 0, "violated": 1, "error": 2}


@dataclass
class Call:
    key: str                            # identity of the request; repeats share it
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple[bool, str]]


def check_split(choi, n, feasible, res):
    """Re-check a decomposition from its parts, not from `converged`.

    Both parts must lie in their cones (C1 >= 0, C2^t2 >= 0).  A decomposable
    map must converge with ||C - C1 - C2|| <= tol; a non-decomposable one
    must not converge, and its best split must leave a gap far above tol.
    """
    c1, c2 = res.cp_part.choi, res.ccp_part.choi
    scale = max(1.0, float(_norm(choi)))
    c2_pt = inputs.partial_transpose(c2, (n, n), 2)
    in_cones = (_eigvalsh(c1)[0] >= -CONE_SLACK * scale
                and _eigvalsh(c2_pt)[0] >= -CONE_SLACK * scale)
    gap = float(_norm(choi - c1 - c2))
    if feasible:
        right = bool(res.converged) and in_cones and gap <= DECOMPOSE_TOL + 1e-12
    else:
        right = not res.converged and in_cones and gap > 100 * DECOMPOSE_TOL
    return right, f"{res.converged}|{res.iterations}|{res.residual!r}"


def check_sk(phi_choi, m, k, trials, res):
    """A decomposable map satisfies S_k: no violation may be reported.

    A returned witness is re-verified (block matrix and its block transpose
    PSD, output not PSD) and its outcome recorded in the fingerprint; on a
    decomposable map it is wrong either way.
    """
    right = (not res.violation_found and res.witness is None
             and res.trials == trials and res.worst_output_eig >= -SK_TOL)
    note = ""
    if res.witness is not None:
        c = res.witness
        out = np.einsum("ipjq,prqs->irjs", c.reshape(k, m, k, m),
                        phi_choi.reshape(m, m, m, m)).reshape(k * m, k * m)
        note = "|witness:" + ",".join(f"{v:.3e}" for v in (
            _eigvalsh(c)[0],
            _eigvalsh(inputs.partial_transpose(c, (k, m), 1))[0],
            _eigvalsh((out + out.conj().T) / 2)[0]))
    return right, f"{res.violation_found}|{res.trials}|{res.worst_output_eig!r}{note}"


def _strip_wall_time(text):
    return "\n".join(line for line in text.splitlines() if '"wall_time"' not in line)


def check_cli(expected, out):
    """Exit code must match the report's verdict and the known verdict.

    The fingerprint is the rendered report without its wall-time line, so
    identical requests must give byte-identical reports.
    """
    code, verdict, text = out
    right = verdict == expected and code == EXIT_CODES.get(verdict)
    return right, _strip_wall_time(text)


# The verdict calls look the public function up on its module at call time,
# so the traced pass sees the wrapped attribute.

def decompose(phi):
    from decomap import maps
    return maps.decompose(phi, tol=DECOMPOSE_TOL)


def sk_sample(phi, k, seed):
    from decomap import maps
    return maps.sk_sampler(phi, k, SK_TRIALS, seed=seed)


def run_cli(argv):
    from decomap import cli
    report, code = cli.run(list(argv))
    return code, report["verdict"], cli.render_report(report)


def decompose_input(seed, i):
    """Input i of the decompose workload: (side n, Choi matrix, decomposable).

    The maps are drawn once from a fixed stream, criterion-6 family first,
    then copies of Choi's map; the workload seed conjugates each by fresh
    local unitaries.  Every matrix entry changes with the seed, the solver's
    work does not (see inputs.local_conjugate), so iteration counts are
    exact across seeds and any change in them is the program's.
    """
    if i < DECOMPOSABLE:
        n, base = inputs.decomposable_choi(inputs.input_rng(inputs.BASE_SEED, 1, i), i,
                                           DECOMPOSABLE)
    else:
        n, base = 3, inputs.choi_map_matrix()
    return n, inputs.local_conjugate(base, n, inputs.input_rng(seed, 1, i)), i < DECOMPOSABLE


def decompose_call(seed, i):
    from decomap import maps
    n, choi, feasible = decompose_input(seed, i)
    phi = maps.make_map(choi, n, n, label=f"map-{i}")
    kind = f"decomposable-m{n}" if feasible else "non-decomposable"
    return Call(f"d{i}", kind, partial(decompose, phi),
                partial(check_split, phi.choi, n, feasible))


def decompose_calls(seed):
    return [decompose_call(seed, i) for i in range(DECOMPOSABLE + NON_DECOMPOSABLE)]


def sk_call(seed, i):
    from decomap import maps
    rng = inputs.input_rng(seed, 3, i)
    m, choi = inputs.decomposable_choi(rng, i, SK_CALLS)
    phi = maps.make_map(choi, m, m, label=f"decomposable-{i}")
    k = 1 + i % 3
    # The sampled block matrices depend on the sampler seed and k * m only,
    # and their Dykstra cost is heavy-tailed (a few trials hit max_iter), so
    # a seed-drawn sampler seed would swing the work per pass by 15-20%.
    # The sampler seeds are fixed instead; the workload seed draws the maps.
    return Call(f"s{i}", f"k{k}-m{m}",
                partial(sk_sample, phi, k, SK_SAMPLER_SEED + SK_TRIALS * i),
                partial(check_sk, phi.choi, m, k, SK_TRIALS))


def sk_calls(seed):
    return [sk_call(seed, i) for i in range(SK_CALLS)]


def cli_calls(seed, tmp: Path):
    """Write the request files; return (pass calls, cold requests)."""
    mix, cold = inputs.write_cli_inputs(inputs.input_rng(seed, 4, 0), tmp)
    calls = [Call(" ".join(req.argv), req.command, partial(run_cli, req.argv),
                  partial(check_cli, req.expected)) for req in mix]
    return calls, cold


def build(workload, seed, tmp: Path):
    """Inputs of one workload: (pass calls, cold CLI requests or None)."""
    if workload == "decompose":
        return decompose_calls(seed), None
    if workload == "sk-sample":
        return sk_calls(seed), None
    if workload == "cli-requests":
        return cli_calls(seed, tmp)
    raise ValueError(f"unknown workload {workload!r}")


def cold_call(workload, seed, index):
    """One verdict call of a library workload, built alone (for cold runs)."""
    if workload == "decompose":
        return decompose_call(seed, index)
    return sk_call(seed, index)
