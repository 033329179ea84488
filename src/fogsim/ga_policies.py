"""Placement policies: history-seeded elitist GA plus two baselines.

An assignment maps each task of a request to one candidate actor.  Policies
search assignment space for the lowest estimated response time.  Individuals
are real-coded: gene i lives in [0, candidate_count_i) and decodes by floor.
The flagship policy seeds its initial population from past winners for the
same app and deduplicates on decoded assignments, which is what makes warm
starts converge in a handful of iterations.

A row of genes is keyed by its index bytes: floored and clamped, cast to the
narrowest unsigned dtype that holds every candidate index, and sliced out of
the block's bytes.  The fitness memo and the dedup both use that key; the
assignment tuple is built only when fitness must run on it.  A row whose key
the generation has already taken is skipped before it is boxed as an
individual, and its key is cached already, so skipping it costs no fitness
call.

A generation refills its population in rounds: binary tournaments pick
parents from the current population, SBX and polynomial mutation breed
offspring from them, and rounds repeat until the pool is full or
REFILL_STALL_LIMIT rounds in a row add nothing new.  All rounds of one
generation select from the same population and differ only in their draws,
so the loop breeds a block of rounds at once: it draws each round's
tournament entrants and uniforms in the order a round-by-round loop would,
notes the generator's state after each round, and runs the operators over
the whole block as one set of array operations; mutation computes its step
only for the genes its mask hits.  It then scores the rounds in order; when
the refill ends before the block does, it restores the state noted after the
last round used, so the rounds not used take no draws and no fitness calls.
A generation's first block is as long as the previous generation's refill; a
top-up block is only as long as the refill must still run.  A space with no
more assignments than the search budget is scored whole, in itertools.product
order, before the first population.  Once every assignment is scored, the
search stops when its best is the space's least fitness, since the best can
no longer change; a search that never reaches it runs every generation.  A
seed yields the same placements and series as a loop over individuals, and
above the budget the same fitness calls and evaluation counts too.

This is the one module that names numpy, and it loads it lazily: ``np`` is
bound at import (so a missing numpy still fails ``import fogsim``), but
numpy's own code runs only at the first attribute read, which is a search
(``search_rng`` or a policy) or a ``HistoryStore.record``.  Only a
master's placement search and convergence's offline re-solves do those;
actors, users, loggers and discovery never do, so a process that runs no
search (the discovery preset, say) never loads numpy, and one that does
pays for the load at its first search instead of at import.  After that
first read ``np`` is a plain module, so no call pays for the deferral.
"""

from __future__ import annotations

import functools
import importlib.util
import itertools
import math
import sys
from dataclasses import dataclass, field


def _lazy_import(name: str):
    """The module ``name``, run at its first attribute read (the importlib docs' lazy-import recipe)."""
    if name in sys.modules:
        return importlib.import_module(name)  # what is loaded, or the error a None entry stands for
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _lazy_import("numpy")

GENE_EPS = 1e-6
REFILL_STALL_LIMIT = 10


@dataclass(frozen=True)
class GaParams:
    pop_size: int = 100
    hist_ratio: float = 4.0
    max_iteration_num: int = 100
    n_parents: int = 20
    n_offsprings: int = 40
    crossover_eta: float = 15.0
    mutation_eta: float = 20.0
    mutation_prob: float | None = None  # defaults to 1 / task count

    def validate(self):
        if self.pop_size < 1:
            raise ValueError("pop_size must be at least 1")
        if not 1 <= self.hist_ratio < math.inf:
            raise ValueError("hist_ratio must be finite and at least 1")
        if self.max_iteration_num < 1:
            raise ValueError("max_iteration_num must be at least 1")
        if self.n_parents < 1 or self.n_offsprings < 1:
            raise ValueError("n_parents and n_offsprings must be at least 1")
        for name in ("crossover_eta", "mutation_eta"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")
        if self.mutation_prob is not None and not 0.0 <= self.mutation_prob <= 1.0:
            raise ValueError("mutation_prob must lie in [0, 1]")

    def max_hist_individuals(self) -> int:
        return math.ceil(self.pop_size / self.hist_ratio)

    def search_budget(self) -> int:
        """Evaluations a GA search is charged: its first population and every generation's offspring."""

        return self.pop_size + self.max_iteration_num * self.n_offsprings


@dataclass(slots=True)
class Individual:
    genes: np.ndarray
    key: bytes  # index bytes of the decoded assignment
    fitness: float


@dataclass
class PolicyResult:
    assignment: tuple
    genes: np.ndarray
    fitness: float
    series: list = field(default_factory=list)  # best fitness after each iteration
    evals: int = 0


def search_rng(entropy) -> np.random.Generator:
    """The generator a placement search draws from, seeded by a sequence of ints."""
    return np.random.default_rng(list(entropy))


class HistoryStore:
    """Winning individuals of past placements, best-first per app."""

    def __init__(self, keep: int = 64):
        self.keep = keep
        self._by_app: dict[str, list[tuple[np.ndarray, float]]] = {}

    def record(self, app: str, genes: np.ndarray, fitness: float):
        genes = np.array(genes, dtype=float)
        genes.flags.writeable = False  # entries() hands entries out to other stores
        entries = self._by_app.setdefault(app, [])
        entries.append((genes, fitness))
        entries.sort(key=lambda entry: entry[1])
        del entries[self.keep:]

    def best_first(self, app: str) -> list[np.ndarray]:
        return [genes for genes, _ in self._by_app.get(app, [])]

    def entries(self, app: str) -> list[tuple[np.ndarray, float]]:
        """The app's (genes, fitness) entries, best first; restore() takes them."""
        return list(self._by_app.get(app, ()))

    def restore(self, app: str, entries: list[tuple[np.ndarray, float]]) -> None:
        """Sets the app's entries to what entries() returned, from this store or another."""
        self._by_app[app] = list(entries)

    def __len__(self):
        return sum(len(entries) for entries in self._by_app.values())


def _clamp(x, lower, upper):
    # np.clip's value on every finite input, without its Python wrapper
    return np.minimum(np.maximum(x, lower), upper)


def _index_dtype(counts: np.ndarray) -> np.dtype:
    """The narrowest unsigned dtype that holds every candidate index."""

    return np.min_scalar_type(int(counts.max(initial=1)) - 1)


def _keys(genes: np.ndarray, counts: np.ndarray, dtype) -> list[bytes]:
    """Each row's index bytes: each gene floored and clamped into its candidate range."""

    idx = _clamp(np.floor(genes).astype(int), 0, counts - 1).astype(dtype)
    data, step = idx.tobytes(), idx.shape[1] * idx.itemsize
    return [data[i * step:(i + 1) * step] for i in range(len(idx))]


def _assignment(key: bytes, dtype) -> tuple:
    # a one-byte key is its own indices, so only wider keys go through numpy
    return tuple(key) if dtype.itemsize == 1 else tuple(np.frombuffer(key, dtype).tolist())


def decode(genes: np.ndarray, counts: np.ndarray) -> list[tuple]:
    """Each row's assignment: a tuple of candidate indices."""

    dtype = _index_dtype(counts)
    return [_assignment(key, dtype) for key in _keys(genes, counts, dtype)]


def _checked_counts(counts_list, params: GaParams) -> np.ndarray:
    params.validate()
    counts = np.array(counts_list, dtype=float)
    if (counts < 1).any():
        raise ValueError("every task needs at least one candidate actor")
    return counts


def _score(rows: np.ndarray, keys: list[bytes], dtype, fitness, cache: dict, pool: list, seen: set | None = None):
    """Append one individual per row to pool; fitness runs once per key ever seen.

    cache maps a key to its (fitness, assignment), and the assignment tuple
    is built only on a miss.  Given seen, a row whose key is in it is skipped
    before it is boxed.  Every key in seen is cached already, so the skip
    costs no fitness call.
    """

    for i, key in enumerate(keys):
        if seen is not None:
            if key in seen:
                continue
            seen.add(key)
        scored = cache.get(key)
        if scored is None:
            assignment = _assignment(key, dtype)
            scored = cache[key] = (fitness(assignment), assignment)
        pool.append(Individual(rows[i], key, scored[0]))


def tournament_select(fitness: list, bounds: np.ndarray, rng) -> list[int]:
    """Binary tournaments: two distinct entrants, the fitter one survives.

    fitness is the population's; bounds repeats [n, n-1] once per parent.
    One draw over those bounds yields the same stream as the scalar draws
    i ~ [0, n), j ~ [0, n-1) pair by pair.  Returns indices of the winners.
    """

    if len(fitness) == 1:
        return [0] * (len(bounds) // 2)
    draws = rng.integers(0, bounds).tolist()
    chosen = []
    for i, j in zip(draws[::2], draws[1::2]):
        if j >= i:
            j += 1
        chosen.append(j if fitness[j] < fitness[i] else i)
    return chosen


def _breed(p1, p2, uniforms, params: GaParams, mutation_prob: float, upper) -> np.ndarray:
    """SBX crossover, then polynomial mutation, of rounds of parent pairs at once.

    p1 and p2 hold (rounds, pairs, genes) parent rows; each round's uniforms
    are its SBX u block, then a (mask, u) block per child.  Per gene, SBX
    takes beta = (2u)^(1/(eta+1)) for u <= 0.5, else (1/(2(1-u)))^(1/(eta+1)),
    and children 0.5*((1 +- beta)p1 + (1 -+ beta)p2): c1, c2 of pair 0, then
    of pair 1, ..., cut to n_offsprings.  Identical parents reproduce
    themselves exactly.  Deb's polynomial mutation then moves each gene with
    probability mutation_prob; its step is computed only for the genes it
    moves.  Every child is clamped into its gene bounds after each step.
    Returns (rounds, n_offsprings, genes) rows.
    """

    rounds, pairs, width = p1.shape
    n_offsprings = params.n_offsprings
    u = _clamp(uniforms[:, :pairs * width].reshape(p1.shape), 1e-12, 1.0 - 1e-12)
    beta = np.where(u <= 0.5, 2.0 * u, 1.0 / (2.0 * (1.0 - u))) ** (1.0 / (params.crossover_eta + 1.0))
    plus, minus = 1.0 + beta, 1.0 - beta
    children = np.empty((rounds, 2 * pairs, width))
    children[:, 0::2] = 0.5 * (plus * p1 + minus * p2)
    children[:, 1::2] = 0.5 * (minus * p1 + plus * p2)
    children = _clamp(children[:, :n_offsprings], 0.0, upper)

    draws = uniforms[:, pairs * width:].reshape(rounds, n_offsprings, 2, width)
    hit = (draws[:, :, 0] < mutation_prob).nonzero()
    u = _clamp(draws[:, :, 1][hit], 1e-12, 1.0 - 1e-12)
    low = u < 0.5
    power = np.where(low, 2.0 * u, 2.0 * (1.0 - u)) ** (1.0 / (params.mutation_eta + 1.0))
    delta = np.where(low, power - 1.0, 1.0 - power)
    top = upper[hit[2]]
    children[hit] = _clamp(children[hit] + delta * top, 0.0, top)
    return children


def _evolve(counts_list, fitness, params: GaParams, rng, seed_genes, dedup: bool) -> PolicyResult:
    """Shared GA skeleton; dedup and seeding are the two policy knobs."""

    counts = _checked_counts(counts_list, params)
    index_counts = counts.astype(int)
    dtype = _index_dtype(index_counts)
    space = math.prod(index_counts.tolist())
    upper = counts - GENE_EPS
    width = len(counts)
    cache: dict[bytes, tuple[float, tuple]] = {}
    mutation_prob = params.mutation_prob
    if mutation_prob is None:
        mutation_prob = 1.0 / len(counts_list)
    n_parents, n_offsprings, pop_size = params.n_parents, params.n_offsprings, params.pop_size
    pairs = -(-n_offsprings // 2)
    mates1 = (2 * np.arange(pairs)) % n_parents
    mates2 = (2 * np.arange(pairs) + 1) % n_parents
    n_uniforms = pairs * width + n_offsprings * 2 * width
    per_round = n_parents + n_offsprings
    # tournament bounds per population size: [n, n-1] once per parent
    tournament_bounds = functools.cache(lambda n: np.tile([n, n - 1], n_parents))

    def score(rows: np.ndarray, pool: list, seen: set | None):
        _score(rows, _keys(rows, index_counts, dtype), dtype, fitness, cache, pool, seen)

    if space <= params.search_budget():
        grid = list(itertools.product(*map(range, index_counts.tolist())))
        for key, assignment in zip(_keys(np.array(grid, dtype=float), index_counts, dtype), grid):
            cache[key] = (fitness(assignment), assignment)

    pop: list[Individual] = []
    seen = set() if dedup else None
    seeds = np.array(seed_genes, dtype=float).reshape(len(seed_genes), width)
    score(seeds, pop, seen)
    score(rng.random((pop_size - len(seeds), width)) * counts, pop, seen)
    pop.sort(key=lambda ind: ind.fitness)
    best = pop[0]

    series = []
    block = -(-pop_size // per_round)
    optimum = None
    while len(series) < params.max_iteration_num:
        if optimum is None and len(cache) == space:
            optimum = min(scored[0] for scored in cache.values())
        if best.fitness == optimum:
            # best is the optimum, so it can no longer change: the stable
            # sort keeps the incumbent first among equal fitness.
            series += [best.fitness] * (params.max_iteration_num - len(series))
            break
        pop_genes = np.array([ind.genes for ind in pop])
        pop_fitness = [ind.fitness for ind in pop]
        bounds = tournament_bounds(len(pop))
        pool: list[Individual] = []
        seen = set() if dedup else None
        stall = used = 0
        while len(pool) < pop_size and stall < REFILL_STALL_LIMIT:
            # Draw `block` rounds in stream order, noting the generator's
            # state after each, and breed them all in one pass.
            winners, uniforms, states = [], [], []
            for r in range(block):
                winners.append(tournament_select(pop_fitness, bounds, rng))
                uniforms.append(rng.random(n_uniforms))
                if r < block - 1:
                    states.append(rng.bit_generator.state)
            parents = pop_genes[np.array(winners)]
            children = _breed(
                parents[:, mates1], parents[:, mates2], np.array(uniforms), params, mutation_prob, upper,
            )
            keys = _keys(children.reshape(-1, width), index_counts, dtype)
            for r, entrants in enumerate(winners):
                used += 1
                size = len(pool)
                _admit([pop[k] for k in entrants], pool, seen)
                _score(
                    children[r], keys[r * n_offsprings:(r + 1) * n_offsprings], dtype, fitness, cache, pool, seen,
                )
                stall = stall + 1 if len(pool) == size else 0
                if len(pool) >= pop_size or stall >= REFILL_STALL_LIMIT:
                    if r < block - 1:
                        rng.bit_generator.state = states[r]  # un-draw the rounds not used
                    break
            else:
                # Each round adds at most per_round individuals and a stall
                # needs REFILL_STALL_LIMIT - stall more rounds, so none of
                # these is wasted.
                block = min(-(-(pop_size - len(pool)) // per_round), REFILL_STALL_LIMIT - stall)
        block = used
        if len(pool) < pop_size:
            # stalled refill: random padding
            score(rng.random((pop_size - len(pool), width)) * counts, pool, seen)
        merged = [best] + pool
        if dedup:
            merged = _admit(merged, [], set())
        merged.sort(key=lambda ind: ind.fitness)
        pop = merged[:pop_size]
        best = pop[0]
        series.append(best.fitness)

    return PolicyResult(
        assignment=cache[best.key][1],
        genes=best.genes,
        fitness=best.fitness,
        series=series,
        evals=len(cache),
    )


def _admit(individuals: list, pool: list, seen: set | None) -> list:
    """Append each individual to pool and return it; given seen, skip a key it holds."""

    for ind in individuals:
        if seen is not None:
            if ind.key in seen:
                continue
            seen.add(ind.key)
        pool.append(ind)
    return pool


def _history_seeds(history, app, params, counts_list) -> list[np.ndarray]:
    if history is None or app is None:
        return []
    counts = np.array(counts_list, dtype=float)
    seeds = []
    for genes in history.best_first(app)[: params.max_hist_individuals()]:
        if len(genes) != len(counts_list):
            continue  # app shape changed; entry is unusable
        seeds.append(np.clip(genes, 0.0, counts - GENE_EPS))
    return seeds


def ohnsga(counts, fitness, params: GaParams, rng, history: HistoryStore | None = None, app: str | None = None) -> PolicyResult:
    """History-seeded elitist GA with assignment-level deduplication.

    The initial population starts from up to ceil(pop_size / hist_ratio) past
    winners (re-clamped and re-evaluated against current profiles) and fills
    up with random individuals.  Every generation accumulates deduplicated
    tournament parents and SBX+mutation offspring until the population is
    full, folds the incumbent best back in, and keeps the fittest pop_size.
    The returned best-fitness series never increases.
    """

    seeds = _history_seeds(history, app, params, counts)
    result = _evolve(counts, fitness, params, rng, seeds, dedup=True)
    if history is not None and app is not None:
        history.record(app, result.genes, result.fitness)
    return result


def nsga2_baseline(counts, fitness, params: GaParams, rng, history: HistoryStore | None = None, app: str | None = None) -> PolicyResult:
    """Same evolutionary loop without history seeding or deduplication."""

    return _evolve(counts, fitness, params, rng, [], dedup=False)


def random_policy(counts, fitness, params: GaParams, rng, history: HistoryStore | None = None, app: str | None = None) -> PolicyResult:
    """Uniform random search: one fresh assignment per iteration, best kept."""

    counts_arr = _checked_counts(counts, params)
    index_counts = counts_arr.astype(int)
    dtype = _index_dtype(index_counts)
    cache: dict[bytes, tuple[float, tuple]] = {}
    rows = rng.random((params.max_iteration_num, len(counts_arr))) * counts_arr
    candidates: list[Individual] = []
    _score(rows, _keys(rows, index_counts, dtype), dtype, fitness, cache, candidates)
    best = None
    series = []
    for candidate in candidates:
        if best is None or candidate.fitness < best.fitness:
            best = candidate
        series.append(best.fitness)
    return PolicyResult(
        assignment=cache[best.key][1],
        genes=best.genes,
        fitness=best.fitness,
        series=series,
        evals=len(cache),
    )


POLICIES = {
    "ohnsga": ohnsga,
    "nsga2": nsga2_baseline,
    "random": random_policy,
}
