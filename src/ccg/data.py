"""Datasets, label statistics, and the planted-world synthetic generator.

A dataset is a dense pair (X, Y): real feature vectors of length d and
binary label vectors of length L. The synthetic generator plants a label
DAG with noisy-OR dynamics, per-label causal feature blocks, per-pair
spurious feature blocks, and shiftable environments so that structure
recovery and OOD robustness can be scored against known ground truth.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, DatasetError


@dataclass
class Dataset:
    X: np.ndarray  # (n, d) float64
    Y: np.ndarray  # (n, L) int8

    def __post_init__(self):
        # the one test of a dataset; labels are tested before the int8 cast
        Y = np.asarray(self.Y)
        try:
            X = np.asarray(self.X, dtype=np.float64)
        except OverflowError:  # an int above the largest float reads as inf
            X = np.asarray(self.X, dtype=object)
            X = np.where(abs(X) > sys.float_info.max, np.inf, X).astype(float)
        if X.size == 0 or Y.size == 0:
            raise DatasetError("empty dataset: no sample, feature or label")
        if X.ndim != 2 or Y.ndim != 2 or len(X) != len(Y):
            raise DatasetError("features/labels shape mismatch")
        for ok, what in ((np.isin(Y, (0, 1)), "label not binary"),
                         (np.isfinite(X), "non-finite feature value")):
            if not ok.all():
                exc = DatasetError(what)
                exc.row = int(ok.all(axis=1).argmin())
                raise exc
        self.X, self.Y = X, Y.astype(np.int8, copy=False)

    @property
    def n(self) -> int:
        return len(self.X)

    @property
    def d(self) -> int:
        return self.X.shape[1]

    @property
    def L(self) -> int:
        return self.Y.shape[1]

    def subset(self, idx) -> "Dataset":
        return Dataset(self.X[idx], self.Y[idx])


@dataclass
class LabelStats:
    freq: np.ndarray        # (L,) nonnegative counts
    rare_set: frozenset     # label indices in the bottom rare_pct%
    rare_pct: float


def rare_set_for(freq: np.ndarray, pct: float) -> frozenset:
    """Bottom-pct% labels by frequency; ties broken by smaller index."""
    L = len(freq)
    if pct <= 0 or L == 0:
        return frozenset()
    k = math.ceil(L * pct / 100.0)
    order = np.lexsort((np.arange(L), np.asarray(freq)))
    return frozenset(int(i) for i in order[:k])


def compute_label_stats(ds: Dataset, rare_pct: float) -> LabelStats:
    if not 0 <= rare_pct <= 100:
        raise ValueError("rare_pct must be in [0, 100]")
    freq = ds.Y.astype(np.int64).sum(axis=0)
    return LabelStats(freq=freq, rare_set=rare_set_for(freq, rare_pct), rare_pct=rare_pct)


def load_dataset(path) -> Dataset:
    """Read a JSONL dataset: one {"features": [...], "labels": [...]} per
    line, JSON numbers and JSON ints (a bool is neither), every line as wide
    as the first. Dataset tests the values; an error at a line names it."""
    feats, labs, linenos = [], [], []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                f, y = obj["features"], obj["labels"]
            except (KeyError, TypeError, ValueError) as exc:
                # ValueError covers json.JSONDecodeError
                raise DatasetError(f"line {lineno}: parse error ({exc})") from exc
            if not (type(f) is type(y) is list and set(map(type, y)) <= {int}
                    and set(map(type, f)) <= {int, float}):
                raise DatasetError(f"line {lineno}: features must be a list "
                                   f"of JSON numbers, labels of JSON ints")
            if feats and (len(f), len(y)) != (len(feats[0]), len(labs[0])):
                raise DatasetError(f"line {lineno}: inconsistent width, "
                                   f"not that of line {linenos[0]}")
            feats.append(f)
            labs.append(y)
            linenos.append(lineno)
    try:
        return Dataset(feats, labs)
    except DatasetError as exc:
        if exc.row is None:
            raise
        raise DatasetError(f"line {linenos[exc.row]}: {exc}") from None


def read_json(path, build=lambda obj: obj, where=None):
    """build applied to the object the JSON file at path holds. A file that
    is not JSON, or an object build cannot read (a missing key, a value of
    the wrong type), raises DatasetError naming where, by default path."""
    with open(path) as fh:
        try:
            return build(json.load(fh))
        except json.JSONDecodeError as exc:
            why = f"not valid JSON ({exc})"
        except KeyError as exc:
            why = f"missing key {exc}"
        except (TypeError, ValueError) as exc:
            why = str(exc)
    raise DatasetError(f"{where or path}: {why}")


@functools.cache
def _inside(interval: str):
    """The test of a value against an interval such as "[0, 1)", built once
    per interval (the program's few literals); NaN lies in none."""
    lo, hi = (float(x) for x in interval[1:-1].split(","))
    return lambda v: ((lo <= v if interval[0] == "[" else lo < v)
                      and (v <= hi if interval[-1] == "]" else v < hi))


def checked(value, rule, what: str):
    """value if it has the type of rule = (type, allowed) and lies in allowed,
    an interval such as "[0, 1)" or choices such as range(L); else ValueError
    naming what. An int will do for a float, a bool never does for a number."""
    kind, allowed = rule
    if (isinstance(value, bool) != (kind is bool) or not isinstance(
            value, (int, float) if kind is float else kind)):
        raise ValueError(f"{what} must be of type {kind.__name__}, "
                         f"got {value!r}")
    if not (_inside(allowed)(value) if isinstance(allowed, str)
            else value in allowed):
        raise ValueError(f"{what} must be in {allowed}, got {value!r}")
    return value


def read_edges(obj) -> tuple[int, list[tuple[int, int, float]]]:
    """L and the (src, dst, strength) edges that a JSON object holds, as
    graph.json does; ValueError unless L is an int >= 1, src and dst are
    ints of range(L) and strength is a finite real (a bool is neither)."""
    L = checked(obj["L"], (int, "[1, inf)"), "L")
    edges = [(e["src"], e["dst"], e["strength"]) for e in obj["edges"]]
    for j, i, s in edges:
        # one test per edge, not checked per value; type(...) leaves out bool
        if not (type(j) is int and type(i) is int and 0 <= j < L
                and 0 <= i < L and type(s) in (int, float)
                and math.isfinite(s)):
            raise ValueError(f"edge {j!r} -> {i!r} ({s!r}) needs ints in "
                             f"range({L}) and a finite real strength")
    return L, [(j, i, float(s)) for j, i, s in edges]


def save_dataset(ds: Dataset, path) -> None:
    with open(path, "w") as fh:
        for x, y in zip(ds.X.tolist(), ds.Y.tolist()):
            fh.write(json.dumps({"features": x, "labels": y}) + "\n")


@dataclass
class PlantedWorld:
    """Ground truth behind a synthetic dataset."""
    L: int
    d: int
    edges: list[tuple[int, int, float]]          # (src j, dst i, strength)
    causal_blocks: dict[int, list[int]]          # label -> feature indices
    spurious_blocks: dict[tuple[int, int], list[int]]  # (a, b) -> feature indices
    env_params: list[dict] = field(default_factory=list)  # per-env mean/var multipliers

    def edge_set(self) -> set[tuple[int, int]]:
        return {(j, i) for (j, i, _) in self.edges}

    def spurious_indices(self) -> np.ndarray:
        idx = sorted({f for blk in self.spurious_blocks.values() for f in blk})
        return np.array(idx, dtype=np.int64)

    def to_json(self) -> dict:
        return {
            "L": self.L,
            "d": self.d,
            "edges": [{"src": j, "dst": i, "strength": s} for (j, i, s) in self.edges],
            "causal_blocks": {str(k): v for k, v in self.causal_blocks.items()},
            "spurious_blocks": {f"{a}-{b}": v for (a, b), v in self.spurious_blocks.items()},
            "env_params": self.env_params,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PlantedWorld":
        """The world a world.json object gives; ValueError unless read_edges
        takes its L and edges, d is an int >= 1, and each block's labels lie
        in range(L) and its features are ints of range(d)."""
        L, edges = read_edges(obj)
        d = checked(obj["d"], (int, "[1, inf)"), "d")

        def label(key):
            return checked(int(key), (int, range(L)), "a block label")

        def block(feats):
            return [checked(f, (int, range(d)), "a block feature")
                    for f in feats]
        return cls(
            L=L, d=d, edges=edges,
            causal_blocks={label(k): block(v)
                           for k, v in obj["causal_blocks"].items()},
            spurious_blocks={tuple(map(label, k.split("-"))): block(v)
                             for k, v in obj["spurious_blocks"].items()},
            env_params=list(obj["env_params"]),
        )


ROOT_PROB = 0.3
FEATURE_NOISE_STD = 0.1


def sample_labels(world: PlantedWorld, n: int, rng: np.random.Generator) -> np.ndarray:
    """Ancestral noisy-OR sampling in label order: roots Bernoulli(0.3), a
    child fires with probability 1 - prod(1 - s_e) over its currently-active
    parent edges. Every edge must run from a lower to a higher label, as
    build_world draws them, so label order is topological."""
    parents = {i: [] for i in range(world.L)}
    for j, i, s in world.edges:
        if not j < i:
            raise ValueError(f"edge {j} -> {i} does not run from a lower to "
                             f"a higher label")
        parents[i].append((j, s))
    Y = np.zeros((n, world.L), dtype=np.int8)
    for i in range(world.L):
        if not parents[i]:
            p = np.full(n, ROOT_PROB)
        else:
            keep = np.ones(n)
            for j, s in sorted(parents[i]):
                keep *= 1.0 - s * Y[:, j]
            p = 1.0 - keep
        Y[:, i] = (rng.random(n) < p).astype(np.int8)
    return Y


def sample_features(world: PlantedWorld, Y: np.ndarray, env: int,
                    rng: np.random.Generator) -> np.ndarray:
    n = len(Y)
    X = rng.normal(0.0, FEATURE_NOISE_STD, size=(n, world.d))
    for lab in sorted(world.causal_blocks):
        blk = world.causal_blocks[lab]
        X[:, blk] += Y[:, lab, None].astype(np.float64)
    params = world.env_params[env]
    mm, vm = float(params["mean_mult"]), float(params["var_mult"])
    for (a, b) in sorted(world.spurious_blocks):
        blk = world.spurious_blocks[(a, b)]
        active = (Y[:, a] & Y[:, b]).astype(np.float64)
        noise = rng.normal(0.0, FEATURE_NOISE_STD * math.sqrt(vm), size=(n, len(blk)))
        X[:, blk] = noise + mm * active[:, None]
    return X


def build_world(L: int, d: int, seed: int, edge_density: float) -> PlantedWorld:
    if L < 2:
        raise ValueError("L must be >= 2")
    if d < 4 * L:
        raise CapacityError(f"d={d} too small; need d >= 4*L = {4 * L}")
    rng = np.random.default_rng([seed, 0])
    pairs = [(j, i) for j in range(L) for i in range(j + 1, L)]
    n_edges = int(round(edge_density * len(pairs)))
    n_edges = min(n_edges, len(pairs))
    edges = []
    if n_edges > 0:
        chosen = rng.choice(len(pairs), size=n_edges, replace=False)
        for k in sorted(int(c) for c in chosen):
            j, i = pairs[k]
            edges.append((j, i, float(rng.uniform(0.5, 0.95))))
    c_sz = 2 if d < 6 * L else 3
    causal_blocks = {lab: list(range(lab * c_sz, (lab + 1) * c_sz)) for lab in range(L)}
    cursor = L * c_sz
    spurious_blocks = {}
    if edges:
        s_sz = min(4, (d - cursor) // len(edges))
        if s_sz < 1:
            raise CapacityError("d too small for spurious blocks")
        for (j, i, _) in edges:
            spurious_blocks[(j, i)] = list(range(cursor, cursor + s_sz))
            cursor += s_sz
    return PlantedWorld(L=L, d=d, edges=edges, causal_blocks=causal_blocks,
                        spurious_blocks=spurious_blocks, env_params=[])


def default_env_params(n_envs: int) -> list[dict]:
    """Env 0 is the reference; later envs shift spurious-block statistics."""
    params = [{"mean_mult": 1.0, "var_mult": 1.0}]
    for e in range(1, n_envs):
        params.append({"mean_mult": max(-1.0, 1.0 - float(e)), "var_mult": 1.0 + 0.5 * e})
    return params


def generate_from_world(world: PlantedWorld, n: int, seed: int) -> list[Dataset]:
    """Sample one dataset per environment described by world.env_params."""
    out = []
    for env in range(len(world.env_params)):
        rng = np.random.default_rng([seed, 1, env])
        Y = sample_labels(world, n, rng)
        X = sample_features(world, Y, env, rng)
        out.append(Dataset(X, Y))
    return out


def generate_synthetic(L: int, d: int, n: int, n_envs: int, seed: int,
                       edge_density: float = 0.15) -> tuple[list[Dataset], PlantedWorld]:
    if n < 1 or n_envs < 1:
        raise ValueError("n and n_envs must be >= 1")
    world = build_world(L, d, seed, edge_density)
    world.env_params = default_env_params(n_envs)
    return generate_from_world(world, n, seed), world


def co_occurrence(ds: Dataset) -> np.ndarray:
    """Directed conditional frequency: entry (i, j) = P(label i | label j)."""
    Y = ds.Y.astype(np.float64)
    joint = Y.T @ Y
    col = Y.sum(axis=0)
    M = joint / np.maximum(col, 1.0)[None, :]
    np.fill_diagonal(M, 0.0)
    return M


def semantic_similarity(ds: Dataset) -> np.ndarray:
    """Cosine similarity of per-label feature centroids, clamped to [0, 1]."""
    L = ds.L
    cents = np.zeros((L, ds.d))
    has = np.zeros(L, dtype=bool)
    for lab in range(L):
        mask = ds.Y[:, lab] == 1
        if mask.any():
            cents[lab] = ds.X[mask].mean(axis=0)
            has[lab] = True
    norms = np.linalg.norm(cents, axis=1)
    ok = has & (norms > 0.0)
    M = np.zeros((L, L))
    for i in range(L):
        for j in range(L):
            if i != j and ok[i] and ok[j]:
                M[i, j] = float(cents[i] @ cents[j] / (norms[i] * norms[j]))
    return np.clip(M, 0.0, 1.0)
