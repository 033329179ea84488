"""Placement policies: history-seeded elitist GA plus two baselines.

An assignment maps each task of a request to one candidate actor.  Policies
search assignment space for the lowest estimated response time.  Individuals
are real-coded: gene i lives in [0, candidate_count_i) and decodes by floor.
The flagship policy seeds its initial population from past winners for the
same app and deduplicates on decoded assignments, which is what makes warm
starts converge in a handful of iterations.

The generation loop works on 2-D batches, one row per individual: a refill
round crosses over, mutates and decodes all of its offspring at once, and
random individuals are drawn as one block of rows.  Each batch takes its
numbers from the generator in the order a loop over individuals would, so a
seed yields the same placements, series and evaluation counts as one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

GENE_EPS = 1e-6
REFILL_STALL_LIMIT = 10


@dataclass
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
        if self.hist_ratio < 1:
            raise ValueError("hist_ratio must be at least 1")
        if self.max_iteration_num < 1:
            raise ValueError("max_iteration_num must be at least 1")
        if self.n_parents < 1 or self.n_offsprings < 1:
            raise ValueError("n_parents and n_offsprings must be at least 1")
        if self.crossover_eta <= 0 or self.mutation_eta <= 0:
            raise ValueError("distribution indices must be positive")
        if self.mutation_prob is not None and not 0.0 <= self.mutation_prob <= 1.0:
            raise ValueError("mutation_prob must lie in [0, 1]")

    def max_hist_individuals(self) -> int:
        return math.ceil(self.pop_size / self.hist_ratio)


@dataclass(slots=True)
class Individual:
    genes: np.ndarray
    assignment: tuple
    fitness: float


@dataclass
class PolicyResult:
    assignment: tuple
    genes: np.ndarray
    fitness: float
    series: list = field(default_factory=list)  # best fitness after each iteration
    evals: int = 0


class HistoryStore:
    """Winning individuals of past placements, best-first per app."""

    def __init__(self, keep: int = 64):
        self.keep = keep
        self._by_app: dict[str, list[tuple[np.ndarray, float]]] = {}

    def record(self, app: str, genes: np.ndarray, fitness: float):
        entries = self._by_app.setdefault(app, [])
        entries.append((np.array(genes, dtype=float), fitness))
        entries.sort(key=lambda entry: entry[1])
        del entries[self.keep:]

    def best_first(self, app: str) -> list[np.ndarray]:
        return [genes for genes, _ in self._by_app.get(app, [])]

    def __len__(self):
        return sum(len(entries) for entries in self._by_app.values())


def decode(genes: np.ndarray, counts: np.ndarray) -> list[tuple]:
    """Floor each gene of each row and clamp it into its candidate range."""

    idx = np.clip(np.floor(genes).astype(int), 0, counts - 1)
    return list(map(tuple, idx.tolist()))


def _checked_counts(counts_list, params: GaParams) -> np.ndarray:
    params.validate()
    counts = np.array(counts_list, dtype=float)
    if (counts < 1).any():
        raise ValueError("every task needs at least one candidate actor")
    return counts


def _score(rows: np.ndarray, counts: np.ndarray, fitness, cache: dict) -> list[Individual]:
    """One individual per row; fitness runs once per decoded assignment ever seen."""

    out = []
    for genes, assignment in zip(rows, decode(rows, counts)):
        value = cache.get(assignment)
        if value is None:
            value = cache[assignment] = fitness(assignment)
        out.append(Individual(genes, assignment, value))
    return out


def tournament_select(pop: list, n_parents: int, rng) -> list:
    """Binary tournaments: two distinct entrants, the fitter one survives."""

    if len(pop) == 1:
        return [pop[0]] * n_parents
    # One draw over alternating bounds [n, n-1, n, n-1, ...] yields the
    # same stream as the scalar draws i ~ [0, n), j ~ [0, n-1) pair by pair.
    n = len(pop)
    draws = rng.integers(0, np.tile([n, n - 1], n_parents)).tolist()
    chosen = []
    for i, j in zip(draws[::2], draws[1::2]):
        if j >= i:
            j += 1
        a, b = pop[i], pop[j]
        chosen.append(b if b.fitness < a.fitness else a)
    return chosen


def sbx_crossover(parents: np.ndarray, n_offsprings: int, eta: float, counts, rng) -> np.ndarray:
    """Simulated binary crossover over sequential pairs of parent rows.

    Pair j crosses rows 2j and 2j+1 (modulo the parent count).  Per gene: draw
    u in (0,1); beta = (2u)^(1/(eta+1)) for u <= 0.5, else
    (1/(2(1-u)))^(1/(eta+1)); the two children are 0.5*((1 +- beta)p1 +
    (1 -+ beta)p2), clamped into gene bounds.  Identical parents reproduce
    themselves exactly.  Children come out as c1, c2 of pair 0, then of pair
    1, ..., cut to n_offsprings; one (pairs, genes) draw gives every pair the
    u row it would draw on its own.
    """

    pairs = -(-n_offsprings // 2)
    j = np.arange(pairs)
    p1 = parents[(2 * j) % len(parents)]
    p2 = parents[(2 * j + 1) % len(parents)]
    u = np.clip(rng.random((pairs, len(counts))), 1e-12, 1.0 - 1e-12)
    exponent = 1.0 / (eta + 1.0)
    beta = np.where(u <= 0.5, (2.0 * u) ** exponent, (1.0 / (2.0 * (1.0 - u))) ** exponent)
    children = np.empty((2 * pairs, len(counts)))
    children[0::2] = 0.5 * ((1.0 + beta) * p1 + (1.0 - beta) * p2)
    children[1::2] = 0.5 * ((1.0 - beta) * p1 + (1.0 + beta) * p2)
    return np.clip(children[:n_offsprings], 0.0, counts - GENE_EPS)


def polynomial_mutation(genes: np.ndarray, prob: float, eta: float, counts, rng) -> np.ndarray:
    """Deb's polynomial mutation of each row, per gene with the given probability.

    Each row draws its mask, then its u, as it would on its own.
    """

    upper = counts - GENE_EPS
    draws = rng.random((len(genes), 2, len(counts)))
    mask = draws[:, 0] < prob
    u = np.clip(draws[:, 1], 1e-12, 1.0 - 1e-12)
    exponent = 1.0 / (eta + 1.0)
    delta = np.where(u < 0.5, (2.0 * u) ** exponent - 1.0, 1.0 - (2.0 * (1.0 - u)) ** exponent)
    mutated = genes + mask * delta * upper
    return np.clip(mutated, 0.0, upper)


def _evolve(counts_list, fitness, params: GaParams, rng, seed_genes, dedup: bool) -> PolicyResult:
    """Shared GA skeleton; dedup and seeding are the two policy knobs."""

    counts = _checked_counts(counts_list, params)
    index_counts = counts.astype(int)
    cache: dict[tuple, float] = {}
    mutation_prob = params.mutation_prob
    if mutation_prob is None:
        mutation_prob = 1.0 / len(counts_list)

    def random_individuals(m: int) -> list[Individual]:
        return _score(rng.random((m, len(counts))) * counts, index_counts, fitness, cache)

    seeds = np.array(seed_genes, dtype=float).reshape(len(seed_genes), len(counts))
    initial = _score(seeds, index_counts, fitness, cache)
    initial += random_individuals(params.pop_size - len(initial))
    pop = _dedup(initial) if dedup else initial
    pop.sort(key=lambda ind: ind.fitness)
    best = pop[0]

    series = []
    for _ in range(params.max_iteration_num):
        pool: list[Individual] = []
        seen: set[tuple] = set()
        stall = 0
        while len(pool) < params.pop_size and stall < REFILL_STALL_LIMIT:
            parents = tournament_select(pop, params.n_parents, rng)
            children = sbx_crossover(
                np.array([ind.genes for ind in parents]), params.n_offsprings,
                params.crossover_eta, counts, rng,
            )
            children = polynomial_mutation(children, mutation_prob, params.mutation_eta, counts, rng)
            offspring = _score(children, index_counts, fitness, cache)
            added = 0
            for ind in parents + offspring:
                if dedup:
                    if ind.assignment in seen:
                        continue
                    seen.add(ind.assignment)
                pool.append(ind)
                added += 1
            stall = stall + 1 if added == 0 else 0
        if len(pool) < params.pop_size:
            # stalled refill: random padding, duplicates allowed
            pool += random_individuals(params.pop_size - len(pool))
        merged = [best] + pool
        if dedup:
            merged = _dedup(merged)
        merged.sort(key=lambda ind: ind.fitness)
        pop = merged[: params.pop_size]
        best = pop[0]
        series.append(best.fitness)

    return PolicyResult(
        assignment=best.assignment,
        genes=best.genes,
        fitness=best.fitness,
        series=series,
        evals=len(cache),
    )


def _dedup(individuals: list) -> list:
    """Keep the first individual per decoded assignment, preserving order."""

    seen: set[tuple] = set()
    out = []
    for ind in individuals:
        if ind.assignment in seen:
            continue
        seen.add(ind.assignment)
        out.append(ind)
    return out


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
    cache: dict[tuple, float] = {}
    rows = rng.random((params.max_iteration_num, len(counts_arr))) * counts_arr
    best = None
    series = []
    for candidate in _score(rows, counts_arr.astype(int), fitness, cache):
        if best is None or candidate.fitness < best.fitness:
            best = candidate
        series.append(best.fitness)
    return PolicyResult(
        assignment=best.assignment,
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
