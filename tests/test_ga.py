"""Placement search policies: exhaustive oracles, determinism, invariants."""
import copy
import itertools
import math
import zlib
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from fogsim.ga_policies import (
    GENE_EPS,
    POLICIES,
    REFILL_STALL_LIMIT,
    GaParams,
    HistoryStore,
    PolicyResult,
    decode,
    nsga2_baseline,
    ohnsga,
    random_policy,
    tournament_select,
)

SMALL = GaParams(pop_size=16, max_iteration_num=50, n_parents=6, n_offsprings=8)


def _table_fitness(counts, seed):
    """Random lookup-table objective over the full assignment space."""
    rng = np.random.default_rng(seed)
    table = {a: float(rng.uniform(10, 1000)) for a in itertools.product(*(range(c) for c in counts))}
    calls = []

    def fitness(assignment):
        calls.append(assignment)
        return table[assignment]

    return table, fitness, calls


def test_decode_floors_and_clamps():
    counts = np.array([3, 2, 4])
    rows = np.array([[0.2, 1.9, 3.999], [-1.0, 5.0, 2.0]])
    assert decode(rows, counts) == [(0, 1, 3), (0, 1, 2)]
    assert decode(rows[:0], counts) == []
    assert all(type(i) is int for i in decode(rows, counts)[0])


@pytest.mark.parametrize("name", sorted(POLICIES))
def test_policies_find_exhaustive_minimum_on_tiny_spaces(name):
    counts = [3, 2, 3]
    hits = 0
    for seed in range(20):
        table, fitness, _ = _table_fitness(counts, seed)
        oracle = min(table.values())
        result = POLICIES[name](counts, fitness, SMALL, np.random.default_rng(seed))
        assert result.fitness >= oracle
        assert table[result.assignment] == result.fitness
        hits += result.fitness == oracle
    # 18 cells against hundreds of evaluations: duplicate-free search must
    # always land on the optimum; the baselines may converge early or miss.
    if name == "ohnsga":
        assert hits == 20
    else:
        assert hits >= 10


@pytest.mark.parametrize("name", sorted(POLICIES))
def test_same_rng_seed_reproduces_the_result(name):
    counts = [3, 3, 3, 3]
    _, fitness, _ = _table_fitness(counts, 7)
    a = POLICIES[name](counts, fitness, SMALL, np.random.default_rng(42))
    _, fitness2, _ = _table_fitness(counts, 7)
    b = POLICIES[name](counts, fitness2, SMALL, np.random.default_rng(42))
    assert a.assignment == b.assignment
    assert a.series == b.series
    assert a.evals == b.evals


@pytest.mark.parametrize("name", sorted(POLICIES))
def test_series_is_monotone_and_sized_by_iterations(name):
    counts = [4, 4, 4]
    _, fitness, _ = _table_fitness(counts, 3)
    result = POLICIES[name](counts, fitness, SMALL, np.random.default_rng(0))
    assert len(result.series) == SMALL.max_iteration_num
    assert all(later <= earlier for earlier, later in zip(result.series, result.series[1:]))
    assert result.series[-1] == result.fitness


def test_memoization_counts_only_unique_assignments():
    counts = [2, 2]
    _, fitness, calls = _table_fitness(counts, 1)
    result = ohnsga(counts, fitness, SMALL, np.random.default_rng(5))
    assert result.evals == len(calls) <= 4


def test_zero_candidate_counts_rejected():
    for solve in POLICIES.values():
        with pytest.raises(ValueError):
            solve([2, 0, 2], lambda a: 1.0, SMALL, np.random.default_rng(0))


def test_params_validation():
    with pytest.raises(ValueError):
        GaParams(pop_size=0).validate()
    with pytest.raises(ValueError):
        GaParams(max_iteration_num=0).validate()
    with pytest.raises(ValueError):
        GaParams(hist_ratio=0.5).validate()
    with pytest.raises(ValueError):
        GaParams(mutation_prob=1.5).validate()
    assert GaParams(pop_size=4, hist_ratio=4.0).max_hist_individuals() == 1
    assert GaParams(pop_size=100, hist_ratio=4.0).max_hist_individuals() == 25


# -- history ---------------------------------------------------------------------


def test_history_store_keeps_best_first_and_truncates():
    store = HistoryStore(keep=3)
    for fit in (50.0, 10.0, 30.0, 20.0, 40.0):
        store.record("app", np.array([fit]), fit)
    ordered = [genes[0] for genes in store.best_first("app")]
    assert ordered == [10.0, 20.0, 30.0]
    assert len(store) == 3
    assert store.best_first("other") == []


def test_history_seed_bounds_the_first_iteration():
    counts = [5, 5, 5, 5, 5]
    _, fitness, _ = _table_fitness(counts, 11)
    params = GaParams(pop_size=12, max_iteration_num=8, n_parents=4, n_offsprings=6)

    cold = ohnsga(counts, fitness, params, np.random.default_rng(1))
    history = HistoryStore()
    history.record("app", cold.genes, cold.fitness)
    _, fitness2, _ = _table_fitness(counts, 11)
    warm = ohnsga(counts, fitness2, params, np.random.default_rng(2), history=history, app="app")
    assert warm.series[0] <= cold.fitness
    assert warm.fitness <= cold.fitness


def test_ohnsga_records_its_winner():
    counts = [3, 3]
    _, fitness, _ = _table_fitness(counts, 2)
    history = HistoryStore()
    result = ohnsga(counts, fitness, SMALL, np.random.default_rng(0), history=history, app="app")
    assert len(history.best_first("app")) == 1
    assert decode(history.best_first("app")[:1], np.array(counts)) == [result.assignment]


def test_history_entry_of_wrong_shape_is_skipped():
    history = HistoryStore()
    history.record("app", np.array([0.5, 0.5]), 1.0)  # two genes for a three-task app
    counts = [2, 2, 2]
    _, fitness, _ = _table_fitness(counts, 4)
    result = ohnsga(counts, fitness, SMALL, np.random.default_rng(0), history=history, app="app")
    assert len(result.genes) == 3


def test_baselines_ignore_history():
    counts = [4, 4]
    history = HistoryStore()
    history.record("app", np.array([0.0, 0.0]), 1.0)
    for solve in (nsga2_baseline, random_policy):
        _, fitness, _ = _table_fitness(counts, 9)
        with_hist = solve(counts, fitness, SMALL, np.random.default_rng(3), history=history, app="app")
        _, fitness2, _ = _table_fitness(counts, 9)
        without = solve(counts, fitness2, SMALL, np.random.default_rng(3))
        assert with_hist.assignment == without.assignment
        assert with_hist.series == without.series


def test_tournament_handles_singleton_population():
    rng = np.random.default_rng(0)
    assert tournament_select([1.0], np.tile([1, 0], 4), rng) == [0] * 4
    assert rng.random() == np.random.default_rng(0).random()  # and draws nothing


# -- properties --------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    counts=st.lists(st.integers(1, 4), min_size=1, max_size=5),
    name=st.sampled_from(sorted(POLICIES)),
)
def test_results_always_decode_within_range(data, counts, name):
    seed = data.draw(st.integers(0, 2**16))
    table, fitness, _ = _table_fitness(counts, seed)
    params = GaParams(pop_size=6, max_iteration_num=5, n_parents=2, n_offsprings=3)
    result = POLICIES[name](counts, fitness, params, np.random.default_rng(seed))
    assert all(0 <= g < c for g, c in zip(result.assignment, counts))
    assert result.fitness == table[result.assignment]
    assert all(later <= earlier for earlier, later in zip(result.series, result.series[1:]))


# -- bit-identity with the per-individual loop ----------------------------------------
#
# The loop below is the GA as it ran one individual at a time, kept verbatim as
# the oracle for the batched loop: same operators, the same generator draws in
# the same order, the same memo.  Only its names differ: each has a `_ref` prefix.


@dataclass
class _RefIndividual:
    genes: np.ndarray
    assignment: tuple
    fitness: float


def _ref_decode(genes: np.ndarray, counts: np.ndarray) -> tuple:
    idx = np.floor(genes).astype(int)
    idx = np.clip(idx, 0, counts - 1)
    return tuple(int(i) for i in idx)


class _RefEvaluator:
    def __init__(self, fitness, counts):
        self._fitness = fitness
        self._counts = counts
        self._cache: dict[tuple, float] = {}
        self.evals = 0

    def individual(self, genes: np.ndarray) -> _RefIndividual:
        assignment = _ref_decode(genes, self._counts)
        fitness = self._cache.get(assignment)
        if fitness is None:
            fitness = self._fitness(assignment)
            self._cache[assignment] = fitness
            self.evals += 1
        return _RefIndividual(genes=genes, assignment=assignment, fitness=fitness)


def _ref_random_genes(rng, counts) -> np.ndarray:
    return rng.random(len(counts)) * counts


def _ref_tournament_select(pop: list, n_parents: int, rng) -> list:
    if len(pop) == 1:
        return [pop[0]] * n_parents
    chosen = []
    for _ in range(n_parents):
        i = int(rng.integers(0, len(pop)))
        j = int(rng.integers(0, len(pop) - 1))
        if j >= i:
            j += 1
        a, b = pop[i], pop[j]
        chosen.append(b if b.fitness < a.fitness else a)
    return chosen


def _ref_sbx_crossover(parents: list, n_offsprings: int, eta: float, counts, rng) -> list:
    upper = counts - GENE_EPS
    out: list[np.ndarray] = []
    pair = 0
    n = len(parents)
    exponent = 1.0 / (eta + 1.0)
    while len(out) < n_offsprings:
        p1 = parents[(2 * pair) % n].genes
        p2 = parents[(2 * pair + 1) % n].genes
        pair += 1
        u = rng.random(len(counts))
        u = np.clip(u, 1e-12, 1.0 - 1e-12)
        beta = np.where(u <= 0.5, (2.0 * u) ** exponent, (1.0 / (2.0 * (1.0 - u))) ** exponent)
        c1 = 0.5 * ((1.0 + beta) * p1 + (1.0 - beta) * p2)
        c2 = 0.5 * ((1.0 - beta) * p1 + (1.0 + beta) * p2)
        out.append(np.clip(c1, 0.0, upper))
        if len(out) < n_offsprings:
            out.append(np.clip(c2, 0.0, upper))
    return out


def _ref_polynomial_mutation(genes: np.ndarray, prob: float, eta: float, counts, rng) -> np.ndarray:
    upper = counts - GENE_EPS
    mask = rng.random(len(counts)) < prob
    u = np.clip(rng.random(len(counts)), 1e-12, 1.0 - 1e-12)
    exponent = 1.0 / (eta + 1.0)
    delta = np.where(u < 0.5, (2.0 * u) ** exponent - 1.0, 1.0 - (2.0 * (1.0 - u)) ** exponent)
    mutated = genes + mask * delta * upper
    return np.clip(mutated, 0.0, upper)


def _ref_dedup(individuals: list) -> list:
    seen: set[tuple] = set()
    out = []
    for ind in individuals:
        if ind.assignment in seen:
            continue
        seen.add(ind.assignment)
        out.append(ind)
    return out


def _ref_evolve(counts_list, fitness, params: GaParams, rng, seed_genes, dedup: bool) -> PolicyResult:
    params.validate()
    counts = np.array(counts_list, dtype=float)
    if (counts < 1).any():
        raise ValueError("every task needs at least one candidate actor")
    evaluator = _RefEvaluator(fitness, np.array(counts_list, dtype=int))
    mutation_prob = params.mutation_prob
    if mutation_prob is None:
        mutation_prob = 1.0 / len(counts_list)

    def fresh() -> _RefIndividual:
        return evaluator.individual(_ref_random_genes(rng, counts))

    initial = [evaluator.individual(g) for g in seed_genes]
    while len(initial) < params.pop_size:
        initial.append(fresh())
    pop = _ref_dedup(initial) if dedup else list(initial)
    pop.sort(key=lambda ind: ind.fitness)
    best = pop[0]

    series = []
    for _ in range(params.max_iteration_num):
        pool: list[_RefIndividual] = []
        seen: set[tuple] = set()
        stall = 0
        while len(pool) < params.pop_size and stall < REFILL_STALL_LIMIT:
            parents = _ref_tournament_select(pop, params.n_parents, rng)
            children = _ref_sbx_crossover(parents, params.n_offsprings, params.crossover_eta, counts, rng)
            children = [
                _ref_polynomial_mutation(child, mutation_prob, params.mutation_eta, counts, rng)
                for child in children
            ]
            offspring = [evaluator.individual(genes) for genes in children]
            added = 0
            for ind in parents + offspring:
                if dedup:
                    if ind.assignment in seen:
                        continue
                    seen.add(ind.assignment)
                pool.append(ind)
                added += 1
            stall = stall + 1 if added == 0 else 0
        while len(pool) < params.pop_size:
            pool.append(fresh())
        merged = [best] + pool
        if dedup:
            merged = _ref_dedup(merged)
        merged.sort(key=lambda ind: ind.fitness)
        pop = merged[: params.pop_size]
        best = pop[0]
        series.append(best.fitness)

    return PolicyResult(
        assignment=best.assignment,
        genes=best.genes,
        fitness=best.fitness,
        series=series,
        evals=evaluator.evals,
    )


def _ref_history_seeds(history, app, params, counts_list) -> list:
    if history is None or app is None:
        return []
    counts = np.array(counts_list, dtype=float)
    seeds = []
    for genes in history.best_first(app)[: params.max_hist_individuals()]:
        if len(genes) != len(counts_list):
            continue
        seeds.append(np.clip(genes, 0.0, counts - GENE_EPS))
    return seeds


def _ref_ohnsga(counts, fitness, params, rng, history=None, app=None) -> PolicyResult:
    seeds = _ref_history_seeds(history, app, params, counts)
    result = _ref_evolve(counts, fitness, params, rng, seeds, dedup=True)
    if history is not None and app is not None:
        history.record(app, result.genes, result.fitness)
    return result


def _ref_nsga2_baseline(counts, fitness, params, rng, history=None, app=None) -> PolicyResult:
    return _ref_evolve(counts, fitness, params, rng, [], dedup=False)


def _ref_random_policy(counts, fitness, params, rng, history=None, app=None) -> PolicyResult:
    params.validate()
    counts_arr = np.array(counts, dtype=float)
    if (counts_arr < 1).any():
        raise ValueError("every task needs at least one candidate actor")
    evaluator = _RefEvaluator(fitness, np.array(counts, dtype=int))
    best = None
    series = []
    for _ in range(params.max_iteration_num):
        candidate = evaluator.individual(_ref_random_genes(rng, counts_arr))
        if best is None or candidate.fitness < best.fitness:
            best = candidate
        series.append(best.fitness)
    return PolicyResult(
        assignment=best.assignment,
        genes=best.genes,
        fitness=best.fitness,
        series=series,
        evals=evaluator.evals,
    )


_REFERENCE = {"ohnsga": _ref_ohnsga, "nsga2": _ref_nsga2_baseline, "random": _ref_random_policy}


def _hashed_fitness(seed, levels):
    """A fitness over any assignment space with few distinct values, so ties occur."""
    calls = []

    def fitness(assignment):
        calls.append(assignment)
        return float(zlib.crc32(repr((seed, assignment)).encode()) % levels)

    return fitness, calls


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    name=st.sampled_from(sorted(POLICIES)),
    counts=st.lists(st.integers(1, 5), min_size=1, max_size=8),
    pop_size=st.integers(1, 12),
    n_parents=st.integers(1, 6),
    n_offsprings=st.integers(1, 9),
    iterations=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_loop_matches_sequential_reference(
    data, name, counts, pop_size, n_parents, n_offsprings, iterations, seed
):
    params = GaParams(
        pop_size=pop_size,
        hist_ratio=data.draw(st.sampled_from([1.0, 2.0, 4.0])),
        max_iteration_num=iterations,
        n_parents=n_parents,
        n_offsprings=n_offsprings,
        crossover_eta=data.draw(st.floats(0.5, 30.0)),
        mutation_eta=data.draw(st.floats(0.5, 30.0)),
        mutation_prob=data.draw(st.none() | st.floats(0.0, 1.0)),
    )
    history = None
    if data.draw(st.booleans()):
        history = HistoryStore()
        for _ in range(data.draw(st.integers(1, 5))):
            # right-shaped entries, out-of-range genes included, and wrong-shaped ones
            width = data.draw(st.sampled_from([len(counts), len(counts), len(counts) + 1]))
            genes = [data.draw(st.floats(-2.0, 10.0)) for _ in range(width)]
            history.record("app", np.array(genes), data.draw(st.floats(0.0, 100.0)))
    levels = data.draw(st.sampled_from([3, 1000]))

    whole = _assert_matches_reference(name, counts, params, seed, history, levels)
    event("scored whole" if whole else "searched")


def _assert_matches_reference(name, counts, params, seed, history, levels, rng=None):
    """Run the policy and its reference from one seed; return whether the GA scored the space whole.

    rng, given, is the generator handed to the policy in place of a fresh
    one from seed; the reference always gets a fresh one.
    """
    outcomes = []
    runs = ((POLICIES[name], rng or np.random.default_rng(seed)), (_REFERENCE[name], np.random.default_rng(seed)))
    for solve, gen in runs:
        fitness, calls = _hashed_fitness(seed, levels)
        hist = copy.deepcopy(history)
        result = solve(counts, fitness, params, gen, history=hist, app="app")
        after = gen.random()
        kept = None if hist is None else [g.tobytes() for g in hist.best_first("app")]
        outcomes.append((result, calls, after, kept))
    (got, got_calls, got_after, got_kept), (want, want_calls, want_after, want_kept) = outcomes
    assert got.series == want.series
    assert got.fitness == want.fitness
    assert got.assignment == want.assignment
    assert got.genes.tobytes() == want.genes.tobytes()
    assert got_kept == want_kept
    space = math.prod(counts)
    whole = name != "random" and space <= params.search_budget()
    if whole:
        # A space within the budget is scored up front, once per assignment
        # in product order; the search then runs only until its best is the
        # optimum, so its draws after that do not count.
        assert got.evals == space
        assert got_calls == list(itertools.product(*map(range, counts)))
        return True
    assert got.evals == want.evals
    assert got_calls == want_calls
    if got.evals < space:
        # The generator advanced by exactly as many draws.  Once every
        # assignment is scored the batched loop stops drawing; every caller
        # discards its generator after the search, so those draws never count.
        assert got_after == want_after
    return False


class _CountingBitGenerator:
    """A bit generator's state, counting each time it is restored."""

    def __init__(self, bit_generator):
        self._bit_generator = bit_generator
        self.restores = 0

    @property
    def state(self):
        return self._bit_generator.state

    @state.setter
    def state(self, value):
        self.restores += 1
        self._bit_generator.state = value


class _CountingRng:
    """np.random.default_rng(seed), whose bit_generator counts state restores."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.bit_generator = _CountingBitGenerator(self._rng.bit_generator)

    def integers(self, *args, **kwargs):
        return self._rng.integers(*args, **kwargs)

    def random(self, *args, **kwargs):
        return self._rng.random(*args, **kwargs)


# Spaces larger than the search budget (at most 210 evaluations here) but
# whose history seeds all decode to one cell, with a low mutation rate,
# breed mostly duplicates: ohnsga's refills stall, so generations use a
# varying number of rounds, and the batched loop draws rounds it must
# un-draw and tops blocks up.
_STALL_HEAVY = [
    ([2] * 9, dict(pop_size=12, n_parents=4, n_offsprings=6, mutation_prob=0.05), [0.5] * 9),
    ([2] * 10, dict(pop_size=12, n_parents=4, n_offsprings=6, mutation_prob=0.02), [0.5] * 10),
    ([2] * 9, dict(pop_size=20, n_parents=3, n_offsprings=4, mutation_prob=0.02), [1.5] * 9),
    ([3] * 6, dict(pop_size=16, n_parents=2, n_offsprings=3, mutation_prob=0.05), [0.5] * 6),
    ([3] * 6, dict(pop_size=30, n_parents=4, n_offsprings=6, mutation_prob=0.02), [2.5] * 6),
]


@pytest.mark.parametrize("name", ["ohnsga", "nsga2"])
@pytest.mark.parametrize("counts, knobs, seed_genes", _STALL_HEAVY)
def test_stalled_refills_match_sequential_reference(name, counts, knobs, seed_genes):
    params = GaParams(max_iteration_num=30, hist_ratio=1.0, **knobs)
    assert math.prod(counts) > params.search_budget()
    history = HistoryStore()
    for _ in range(params.pop_size):
        history.record("app", np.array(seed_genes), 1.0)
    restores = 0
    for seed in range(4):
        rng = _CountingRng(seed)
        assert not _assert_matches_reference(name, counts, params, seed, history, 1000, rng)
        restores += rng.bit_generator.restores
    if name == "ohnsga":
        assert restores >= 1


@pytest.mark.parametrize("name", ["ohnsga", "nsga2"])
def test_a_space_within_the_budget_is_scored_once_per_assignment_and_an_optimal_first_population_ends_the_draws(name):
    counts, seed = [3, 3, 3], 4
    first = np.random.default_rng(seed).random((SMALL.pop_size, len(counts))) * counts
    optimum = decode(first[5:6], np.array(counts))[0]
    calls = []

    def fitness(assignment):
        calls.append(assignment)
        return 0.0 if assignment == optimum else 1.0 + sum(assignment)

    rng = np.random.default_rng(seed)
    result = POLICIES[name](counts, fitness, SMALL, rng)
    assert calls == list(itertools.product(*map(range, counts))) and result.evals == 27
    assert result.assignment == optimum and result.series == [0.0] * SMALL.max_iteration_num
    drawn_first = np.random.default_rng(seed)
    drawn_first.random((SMALL.pop_size, len(counts)))
    assert rng.random() == drawn_first.random()  # nothing drawn after the first population


@pytest.mark.parametrize("name", ["ohnsga", "nsga2"])
def test_a_search_that_never_reaches_the_optimum_returns_its_own_best(name):
    # One individual breeds only itself: identical parents reproduce
    # themselves and nothing mutates, so the search keeps its first pick.
    counts, seed = [3, 3], 0
    params = GaParams(pop_size=1, max_iteration_num=10, n_parents=1, n_offsprings=1, mutation_prob=0.0)
    assert math.prod(counts) <= params.search_budget()
    start = decode(np.random.default_rng(seed).random((1, 2)) * counts, np.array(counts))[0]
    outcomes = []
    for solve in (POLICIES[name], _REFERENCE[name]):
        result = solve(counts, lambda a: 1.0 if a == start else 0.0, params, np.random.default_rng(seed))
        outcomes.append(result)
    got, want = outcomes
    assert got.assignment == start and got.fitness == 1.0 and got.evals == 9
    assert got.series == want.series == [1.0] * 10
    assert got.genes.tobytes() == want.genes.tobytes()


@pytest.mark.parametrize("name", ["ohnsga", "nsga2"])
def test_game_of_life_shape_matches_sequential_reference(name):
    params = GaParams(pop_size=20, max_iteration_num=30, n_parents=6, n_offsprings=10)
    for seed in range(3):
        _assert_matches_reference(name, [5] * 62, params, seed, None, 1000)


@pytest.mark.parametrize("name", ["ohnsga", "nsga2"])
@pytest.mark.parametrize("mutation_prob", [0.0, 1.0])
def test_game_of_life_shape_matches_reference_at_mutation_extremes(name, mutation_prob):
    # 0.0 mutates no gene and 1.0 every gene: the empty and the full hit set.
    params = GaParams(pop_size=20, max_iteration_num=30, n_parents=6, n_offsprings=10, mutation_prob=mutation_prob)
    for seed in range(2):
        _assert_matches_reference(name, [5] * 62, params, seed, None, 1000)


# Assignments are keyed by index bytes in the narrowest unsigned dtype that
# holds the largest index, so each width meets its edge here: 256 candidates
# still fit uint8 and 257 do not; 65,536 still fit uint16 and 65,537 do not.
_WIDE_COUNTS = [
    [1, 255, 256],
    [256, 257, 1, 255],
    [65536, 1, 257, 256],
    [65537, 256, 1, 65536, 257],
]


@pytest.mark.parametrize("name", sorted(POLICIES))
@pytest.mark.parametrize("counts", _WIDE_COUNTS)
def test_wide_candidate_ranges_match_sequential_reference(name, counts):
    params = GaParams(pop_size=12, hist_ratio=4.0, max_iteration_num=20, n_parents=4, n_offsprings=6)
    # The largest index is the one a too-narrow key would wrap.  decode casts
    # through the same dtype as the keys; a history seed at the top of every
    # range puts each largest index into ohnsga's first population.
    top = [c - 0.5 for c in counts]
    assert decode(np.array([top]), np.array(counts)) == [tuple(c - 1 for c in counts)]
    history = HistoryStore()
    history.record("app", np.array(top), 0.0)
    for seed in range(3):
        _assert_matches_reference(name, counts, params, seed, history, 1000)


def test_one_uniform_draw_continues_the_stream_like_two():
    # The batched loop draws a refill round's SBX and mutation uniforms in one
    # call where a round used to make two; that is the same stream
    # only if the generator hands out doubles one 64-bit word each, with no
    # buffering across calls.  A preceding bounded-integer draw, as the
    # tournament makes, leaves a buffered half word behind.
    for seed in range(50):
        a, b = 3 + seed, 2 * seed + 1
        one, two = np.random.default_rng(seed), np.random.default_rng(seed)
        for rng in (one, two):
            rng.integers(0, np.tile([5, 4], 3))
        joined = one.random(a + b)
        split = np.concatenate([two.random(a), two.random(b)])
        assert joined.tobytes() == split.tobytes()
        assert one.integers(0, 7) == two.integers(0, 7)
        assert one.random() == two.random()
