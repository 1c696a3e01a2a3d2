"""Seeded input generators for the three workloads.

Every generator is a pure function of its seed: the same seed gives the same
items, in the same order, with the same ids.  An item is one call whose time
to verdict the benchmark measures: a CLI command run in-process, or one
ODE equilibration.  Why each workload exists is written in README.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from networks import INITS, JUMP_RATE, NETWORKS, ONE_SPECIES, SPECIES, network_arrays, state_text

WORKLOADS = ("stoch_scale", "corpus_cli", "ode_equilibrate")

# stoch_scale: fixed anchors that every seed runs, then seeded draws.
# The anchors pin the cases the stationary-solver work has to show: both
# sides of the 800-state GTH/LU crossover, and a 20,001-state chain whose LU
# tails come out as support noise.
STOCH_ANCHORS = (
    ("stationary", "birth_death", 20000),
    ("stationary", "birth_death", 799),
    ("stationary", "birth_death", 800),
    ("analyze", "six_complex", 27, 1),
    ("analyze", "six_complex", 30, 2),
)
# Seeded boxes: a log-spaced grid, each point jittered by a log-uniform
# factor within 1 +- BOX_JITTER.  The grid stays on the GTH side, where cost
# is a smooth function of the box, so every seed runs about the same amount
# of work; past 800 states the LU support noise makes the cost of a box jump
# by 2-3x between neighbouring boxes, and those sizes are pinned by the
# anchors instead.  The ROADMAP range runs to 10^5 states; the top is capped
# at the 20,001-state anchor so a pass fits a run.
CHAIN_BOXES = (120, 250, 500)
SIX_BOXES = (20,)
BOX_JITTER = 0.05

# corpus_cli: every network meets every command this many times per pass.
CORPUS_REPEATS = 2
COMMANDS = ("parse", "classify-state", "analyze", "stationary", "simulate")
# simulate items are sized by expected jump count, not by t_end.
SIM_JUMPS = 4000

# ode_equilibrate: one item is one random system and start, integrated in
# chunks of ODE_CHUNK_T (at most ODE_CHUNK_CAP) until the drift is below
# 1e-9, as the attraction property test does.  Items per pass for each
# predicted chunk count: 41 chunks, with the tail of slow starts represented
# by one 8-chunk item.
ODE_CHUNK_T = 10.0
ODE_DT = 5e-3
ODE_CHUNK_CAP = 60
ODE_CHUNK_QUOTA = ((1, 3), (2, 4), (3, 3), (4, 2), (5, 1), (8, 1))


@dataclass(frozen=True)
class Item:
    """One timed call.  ``argv`` is for CLI items, ``text``/``c0`` for ODE."""

    id: str
    kind: str
    network: str
    argv: tuple[str, ...] = ()
    text: str = ""
    c0: tuple[float, ...] = ()
    params: dict = field(default_factory=dict, compare=False, hash=False)


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    items: tuple[Item, ...]
    warmup: Item
    files: dict  # file name -> .crn text the CLI items read


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Generate a workload and write the `.crn` files its CLI items read."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    rng = np.random.default_rng([WORKLOADS.index(name), seed])
    maker = {"stoch_scale": _stoch_scale, "corpus_cli": _corpus_cli,
             "ode_equilibrate": _ode_equilibrate}[name]
    items, warmup, files = maker(rng, workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    for fname, text in files.items():
        (workdir / fname).write_text(text, encoding="utf-8")
    return Workload(name, seed, tuple(items), warmup, files)


def _cli_item(workdir: Path, command: str, network: str, extra: list[str],
              ident: str, **params) -> Item:
    argv = (command, str(workdir / f"{network}.crn"), *extra)
    return Item(ident, "cli", network, argv=argv,
                params={"command": command, **params})


def _stationary(workdir, network, box, seed_state, compare_poisson=False, tag=""):
    names = SPECIES[network]
    extra = ["--seed-state", state_text(names, seed_state), "--allow-truncated"]
    if box is not None:
        extra += ["--box", str(box)]
    if compare_poisson:
        extra.append("--compare-poisson")
    ident = f"stationary:{network}:{state_text(names, seed_state)}:box={box}{tag}"
    return _cli_item(workdir, "stationary", network, extra, ident,
                     box=box, seed_state=tuple(seed_state))


def _analyze(workdir, network, box, seed_state, tag=""):
    names = SPECIES[network]
    extra = ["--seed-state", state_text(names, seed_state)]
    if box is not None:
        extra += ["--box", str(box)]
    ident = f"analyze:{network}:{state_text(names, seed_state)}:box={box}{tag}"
    return _cli_item(workdir, "analyze", network, extra, ident,
                     box=box, seed_state=tuple(seed_state))


def _stoch_scale(rng, workdir):
    items = []
    for anchor in STOCH_ANCHORS:
        if anchor[0] == "stationary":
            items.append(_stationary(workdir, anchor[1], anchor[2], (0,)))
        else:
            items.append(_analyze(workdir, anchor[1], anchor[2], (0, 0, anchor[3])))
    for network in ONE_SPECIES:
        for box in CHAIN_BOXES:
            items.append(_stationary(workdir, network, _jitter(rng, box), (0,)))
    for level in (1, 2):
        for box in SIX_BOXES:
            items.append(_analyze(workdir, "six_complex", _jitter(rng, box), (0, 0, level)))
    order = rng.permutation(len(items))
    warmup = _stationary(workdir, "birth_death", 100, (0,))
    files = {f"{n}.crn": NETWORKS[n] for n in (*ONE_SPECIES, "six_complex")}
    return [items[i] for i in order], warmup, files


def _jitter(rng, box: int) -> int:
    return int(round(box * math.exp(rng.uniform(-1.0, 1.0) * math.log1p(BOX_JITTER))))


def _corpus_cli(rng, workdir):
    items = []
    for rep in range(CORPUS_REPEATS):
        for network in NETWORKS:
            names = SPECIES[network]
            inits = INITS[network]
            for command in COMMANDS:
                tag = f"#{rep}"
                if command == "parse":
                    items.append(_cli_item(workdir, "parse", network, [],
                                           f"parse:{network}{tag}"))
                elif command == "classify-state":
                    c = np.exp(rng.uniform(math.log(0.2), math.log(5.0), size=len(names)))
                    state = ",".join(f"{n}={v:.6g}" for n, v in zip(names, c))
                    items.append(_cli_item(
                        workdir, "classify-state", network, ["--state", state],
                        f"classify-state:{network}:{state}{tag}",
                        state=tuple(float(f"{v:.6g}") for v in c)))
                elif command == "analyze":
                    x = inits[int(rng.integers(len(inits)))]
                    items.append(_analyze(workdir, network, None, x, tag))
                elif command == "stationary":
                    x = inits[int(rng.integers(len(inits)))]
                    items.append(_stationary(workdir, network, None, x, True, tag))
                else:
                    i = int(rng.integers(len(inits)))
                    x, rate = inits[i], JUMP_RATE[network][i]
                    t_end = f"{SIM_JUMPS / rate:.6g}" if rate > 0 else "1"
                    ssa_seed = int(rng.integers(1, 2**31))
                    init = state_text(names, x)
                    extra = ["--init", init, "--t-end", t_end,
                             "--seed", str(ssa_seed), "--compare"]
                    items.append(_cli_item(
                        workdir, "simulate", network, extra,
                        f"simulate:{network}:{init}:t={t_end}:seed={ssa_seed}{tag}",
                        init=x, t_end=float(t_end), ssa_seed=ssa_seed))
    order = rng.permutation(len(items))
    warmup = _analyze(workdir, "square", None, (3, 0))
    files = {f"{n}.crn": text for n, text in NETWORKS.items()}
    return [items[i] for i in order], warmup, files


# ---------------------------------------------------------------------------
# random weakly reversible deficiency-zero systems
# ---------------------------------------------------------------------------

def _compositions(total: int, parts: int):
    if parts == 1:
        return [(total,)]
    return [(first,) + rest for first in range(total + 1)
            for rest in _compositions(total - first, parts - 1)]


def _complex_text(vec, names) -> str:
    terms = [(f"{v}" if v > 1 else "") + s for v, s in zip(vec, names) if v]
    return " + ".join(terms) if terms else "0"


def random_deficiency_zero(rng) -> str:
    """One directed cycle over 3-5 complexes of equal degree, 2-4 species.

    A single cycle is weakly reversible with one linkage class; requiring the
    reaction vectors to have rank m - 1 makes the deficiency m - 1 - rank
    zero, so each compatibility class holds exactly one positive complex
    balanced equilibrium and it attracts every positive start.
    """
    letters = "ABCD"
    while True:
        n = int(rng.integers(2, 5))
        degree = int(rng.integers(1, 4))
        pool = _compositions(degree, n)
        if len(pool) < 3:
            continue
        m = int(rng.integers(3, min(5, len(pool)) + 1))
        idx = rng.choice(len(pool), size=m, replace=False)
        vecs = [pool[i] for i in sorted(idx)]
        if any(all(v[j] == 0 for v in vecs) for j in range(n)):
            continue
        order = [int(v) for v in rng.permutation(m)]
        edges = list(zip(order, order[1:] + order[:1]))
        diffs = np.array([np.subtract(vecs[b], vecs[a]) for a, b in edges])
        if np.linalg.matrix_rank(diffs) != m - 1:
            continue
        names = letters[:n]
        lines = []
        for a, b in edges:
            kappa = float(np.exp(rng.uniform(-1.0, 1.0)))
            lines.append(f"{_complex_text(vecs[a], names)} -> "
                         f"{_complex_text(vecs[b], names)} : {kappa!r}")
        return "\n".join(lines) + "\n"


def _ode_equilibrate(rng, workdir):
    # Quotas per predicted chunk count fix how much integration a pass
    # holds, so passes cost about the same whatever the seed, while the
    # systems and starts are random.
    quota = dict(ODE_CHUNK_QUOTA)
    items = []
    s = 0
    while any(quota.values()):
        text = random_deficiency_zero(rng)
        n = len({ch for ch in text if ch in "ABCD"})
        c0 = tuple(float(v) for v in np.exp(rng.uniform(math.log(0.3), math.log(2.0), size=n)))
        chunks = predicted_chunks(text, c0)
        if not quota.get(chunks):
            continue
        quota[chunks] -= 1
        items.append(Item(f"ode:sys{s}", "ode", f"sys{s}", text=text, c0=c0,
                          params={"predicted_chunks": chunks}))
        s += 1
    warm_text = "A -> B : 1.0\nB -> C : 1.0\nC -> A : 1.0\n"
    warmup = Item("ode:warmup", "ode", "warmup", text=warm_text, c0=(1.0, 0.5, 0.25))
    order = rng.permutation(len(items))
    return [items[i] for i in order], warmup, {}


def predicted_chunks(text: str, c0, chunk: float = ODE_CHUNK_T, tol: float = 1e-9,
                     cap: int = ODE_CHUNK_CAP) -> int:
    """Chunks of length ``chunk`` until the drift is below ``tol``, by an
    accurate adaptive solve of the same rate equations (cap + 1 if never)."""
    from scipy.integrate import solve_ivp

    _, _, Y, RV, kappa = network_arrays(text)

    def field(_t, c):
        return RV.T @ (kappa * np.prod(np.abs(c)[None, :] ** Y, axis=1))

    times = chunk * np.arange(1, cap + 1)
    sol = solve_ivp(field, (0.0, times[-1]), np.asarray(c0, dtype=float),
                    method="LSODA", t_eval=times, rtol=1e-12, atol=1e-14)
    for k in range(sol.y.shape[1]):
        if float(np.max(np.abs(field(0.0, sol.y[:, k])))) < tol:
            return k + 1
    return cap + 1
