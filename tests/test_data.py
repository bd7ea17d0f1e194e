import json
import random
import re

import numpy as np
import orjson
import pytest

from ccg.data import (Dataset, PlantedWorld, co_occurrence, compute_label_stats,
                      generate_from_world, generate_synthetic, load_dataset,
                      read_json, save_dataset, semantic_similarity)
from ccg.errors import CapacityError, DatasetError


def write_lines(tmp_path, lines):
    path = tmp_path / "ds.jsonl"
    path.write_text("\n".join(json.dumps(x) for x in lines) + "\n")
    return path


def bits(a) -> np.ndarray:
    """The float64 values of a as their bit patterns."""
    return np.asarray(a, dtype=np.float64).view(np.uint64)


# lines that each break a dataset whose line 1 is one feature and one label
MALFORMED = ['not json',
             '{"features": null, "labels": [0]}',
             '{"features": [1.0], "labels": null}',
             '{"features": ["abc"], "labels": [0]}',
             '{"features": "abc", "labels": [0]}',
             '{"features": 1.0, "labels": [0]}',
             '{"features": [1.0], "labels": 0}',
             '{"features": [NaN], "labels": [0]}',
             '{"features": [-Infinity], "labels": [0]}',
             # a string or bool is no number, a bool or 1.0 no label
             '{"features": ["1.5", true], "labels": [true, 1.0]}',
             '{"features": ["1.5"], "labels": [0]}',
             '{"features": [true], "labels": [0]}',
             '{"features": [null], "labels": [0]}',
             '{"features": [[1.0]], "labels": [0]}',
             '{"features": [1.0], "labels": [true]}',
             '{"features": [1.0], "labels": [1.0]}',
             # an int too large for a float
             '{"features": [%s], "labels": [0]}' % ("9" * 400),
             # as wide as line 1 or not at all
             '{"features": [], "labels": [0]}',
             '{"features": [1.0], "labels": []}']


class TestLoadDataset:
    def test_two_lines(self, tmp_path):
        path = write_lines(tmp_path, [
            {"features": [1.0, 2.0, 3.0], "labels": [0, 1]},
            {"features": [0.5, 0.0, -1.0], "labels": [1, 1]},
        ])
        ds = load_dataset(path)
        assert (ds.n, ds.d, ds.L) == (2, 3, 2)
        assert ds.X[1, 2] == -1.0

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(DatasetError, match="empty dataset"):
            load_dataset(path)

    def test_nonbinary_label(self, tmp_path):
        path = write_lines(tmp_path, [{"features": [1.0], "labels": [0, 2]}])
        with pytest.raises(DatasetError, match="label not binary"):
            load_dataset(path)

    def test_malformed_line_reports_lineno(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        for bad in MALFORMED:
            path.write_text('{"features": [1.0], "labels": [0]}\n' + bad
                            + "\n")
            with pytest.raises(DatasetError, match="line 2"):
                load_dataset(path)

    def test_non_finite_feature_names_its_line_past_blank_lines(self,
                                                                tmp_path):
        path = tmp_path / "nan.jsonl"
        good = '{"features": [1.0, 2.0], "labels": [0]}'
        path.write_text(f"{good}\n\n{good}\n"
                        '{"features": [1.0, NaN], "labels": [1]}\n')
        # NaN is no JSON number, so the parser refuses it at its line
        with pytest.raises(DatasetError, match="^line 4: parse error"):
            load_dataset(path)

    def test_inconsistent_dims(self, tmp_path):
        path = write_lines(tmp_path, [
            {"features": [1.0, 2.0], "labels": [0]},
            {"features": [1.0], "labels": [0]},
        ])
        with pytest.raises(DatasetError, match="inconsistent"):
            load_dataset(path)

    def test_saved_line_format(self, tmp_path):
        ds = Dataset(np.array([[1.5, -0.1, 3.0, 1e-05]]), np.array([[1, 0]]))
        save_dataset(ds, tmp_path / "one.jsonl")
        assert (tmp_path / "one.jsonl").read_text() == (
            '{"features": [1.5, -0.1, 3.0, 1e-05], "labels": [1, 0]}\n')

    def test_roundtrip(self, tmp_path):
        # bit for bit, on a hand-made dataset and on generated ones
        dss, _ = generate_synthetic(L=6, d=24, n=300, n_envs=2, seed=13)
        dss.append(Dataset(np.array([[1.5, -0.5], [0.0, 2.0]]),
                           np.array([[1, 0, 1], [0, 0, 1]])))
        path = tmp_path / "rt.jsonl"
        for ds in dss:
            save_dataset(ds, path)
            back = load_dataset(path)
            assert (back.X.dtype, back.Y.dtype) == (np.float64, np.int8)
            assert bits(back.X).tobytes() == bits(ds.X).tobytes()
            assert back.Y.tobytes() == ds.Y.tobytes()

    def test_byte_not_utf8_names_its_line(self, tmp_path):
        path = tmp_path / "latin1.jsonl"
        path.write_bytes(b'{"features": [1.0], "labels": [0]}\n'
                         b'{"features": [1.0], "labels": [0], "id": "\xff"}\n')
        with pytest.raises(DatasetError, match="^line 2: parse error"):
            load_dataset(path)

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity",
                                       "1e400", "-1e999", "9" * 400,
                                       str(2 ** 1024 - 2 ** 970)])
    def test_no_json_number_is_refused_at_its_line(self, tmp_path, token):
        # RFC 8259 has no NaN or Infinity, and a number beyond a float64
        # would read as one
        good = '{"features": [1.0], "labels": [0]}'
        path = tmp_path / "ds.jsonl"
        path.write_text(f"{good}\n\n"
                        f'{{"features": [{token}], "labels": [0]}}\n{good}\n')
        with pytest.raises(DatasetError, match="^line 3: parse error"):
            load_dataset(path)
        path.write_text(f'{{"L": 2, "x": [{token}]}}')
        with pytest.raises(DatasetError, match="not valid JSON"):
            read_json(path)

    def test_read_json_refuses_a_file_not_utf8(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_bytes(b'{"name": "\xff"}')
        with pytest.raises(DatasetError, match=f"^{re.escape(str(path))}: "
                                               "not valid JSON"):
            read_json(path)
        path.write_text('{"name": "naïve 日本"}', encoding="utf-8")
        assert read_json(path) == {"name": "naïve 日本"}


# decimal strings whose nearest double is hard to find: halfway cases,
# the subnormal and overflow edges, and digits past the 17th
HARD_TOKENS = ["9007199254740993.0", "9007199254740993.0000000001",
               "1.00000000000000011102230246251565404236316680908203125",
               "1.00000000000000011102230246251565404236316680908203126",
               "2.2250738585072011e-308", "2.2250738585072012e-308",
               "4.9406564584124654e-324", "2.4703282292062327e-324",
               "2.4703282292062328e-324", "1e-400", "-1e-400",
               "1.7976931348623157e308", "1.7976931348623158e308",
               "123456789012345678901234567890e-10", "8.589973e9", "1e23",
               "0.1", "1E5", "1e+5", "-0", "-0.0", "0e0", "7.0E-10"]


class TestJsonNumbers:
    """orjson, the parser behind every JSON input, reads each number as
    Python's float() or int() reads its token, bit for bit."""

    @staticmethod
    def parse(values):
        """orjson's reading of json.dumps(values), and that text's tokens."""
        text = json.dumps(values)
        return orjson.loads(text), text[1:-1].split(", ")

    def test_doubles_read_as_float_reads_them(self):
        rng = np.random.default_rng(0)
        big = np.finfo(np.float64).max
        tiny = np.finfo(np.float64).smallest_normal
        # random bit patterns span every exponent; their finite ones stay
        patterns = np.frombuffer(rng.bytes(8 * 40_000), dtype=np.float64)
        subnormals = rng.integers(1, 2 ** 52, 10_000,
                                  dtype=np.uint64).view(np.float64)
        near_max = (bits(big) - rng.integers(0, 2 ** 20, 5_000,
                                             dtype=np.uint64)).view(np.float64)
        scaled = [rng.standard_normal(8_000) * 10.0 ** k
                  for k in (-300, -20, -5, 0, 5, 20, 300)]
        short = np.round(rng.standard_normal(5_000), 3)
        edges = [0.0, -0.0, 5e-324, -5e-324, tiny, -tiny,
                 np.nextafter(tiny, 0), big, -big, np.nextafter(big, 0)]
        values = np.concatenate([patterns[np.isfinite(patterns)], subnormals,
                                 -subnormals, near_max, -near_max, *scaled,
                                 short, edges])
        assert len(values) > 10 ** 5
        got, tokens = self.parse(values.tolist())
        assert {type(v) for v in got} == {float}
        want = bits([float(t) for t in tokens])
        assert (bits(got) == want).all()
        assert (want == bits(values)).all()

    def test_hard_decimal_strings_read_as_float_reads_them(self):
        got = orjson.loads("[" + ", ".join(HARD_TOKENS) + "]")
        for token, value in zip(HARD_TOKENS, got):
            want = int(token) if token == "-0" else float(token)
            assert type(value) is type(want), token
            assert bits(value) == bits(want), token

    def test_ints_of_64_bits_read_as_int_and_as_features(self, tmp_path):
        r = random.Random(1)
        ints = [-2 ** 63, -2 ** 63 + 1, -1, 0, 1, 2 ** 53 + 1, 2 ** 63 - 1,
                2 ** 63, 2 ** 63 + 1, 2 ** 64 - 1]
        ints += [r.randrange(-2 ** 63, 2 ** 64) for _ in range(20_000)]
        ints += [r.randrange(-2 ** b, 2 ** b) for b in range(1, 64)
                 for _ in range(100)]
        got, tokens = self.parse(ints)
        assert {type(v) for v in got} == {int}
        assert got == [int(t) for t in tokens] == ints
        path = tmp_path / "ints.jsonl"
        path.write_text(json.dumps({"features": ints, "labels": [1]}) + "\n")
        X = load_dataset(path).X[0]
        assert (bits(X) == bits([float(i) for i in ints])).all()

    def test_ints_beyond_64_bits_read_as_the_nearest_float(self):
        r = random.Random(2)
        ints = [2 ** 64, 2 ** 64 + 2 ** 11, 2 ** 64 + 2 ** 11 + 1,
                2 ** 64 + 3 * 2 ** 11, -2 ** 63 - 1, -2 ** 63 - 2 ** 10,
                -2 ** 63 - 2 ** 10 - 1, 10 ** 308, 2 ** 1024 - 2 ** 971,
                2 ** 1024 - 2 ** 970 - 1]
        for b in range(65, 1024):
            n = r.randrange(2 ** (b - 1), 2 ** b)
            # n, and n moved to halfway between two doubles
            half = n >> (b - 53) << (b - 53) | 1 << (b - 54)
            ints += [n, -n, half, half + 1, half - 1]
        got, tokens = self.parse(ints)
        assert {type(v) for v in got} == {float}
        assert (bits(got) == bits([float(int(t)) for t in tokens])).all()


def stdlib_load_dataset(path) -> Dataset:
    """load_dataset as it was when the stdlib parsed each line, before
    orjson did, read as UTF-8 as a UTF-8 locale read it: the reference
    TestStdlibReference compares load_dataset with."""
    feats, labs, linenos = [], [], []
    with open(path, encoding="utf-8") as fh:
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


# what the stdlib reads and orjson refuses: NaN, Infinity, numbers beyond a
# float64, an int label beyond 64 bits (orjson reads it as a float) and an
# escaped lone surrogate in a string
REFUSED = ["NaN", "Infinity", "1e400", "-1e999", "9" * 400,
           str(2 ** 64 + 7), "\\ud800"]
NAMES = ["naïve", "日本語", "☃ snow", "émigré", "\U0001d11e clef", "plain"]


def feature_token(r: random.Random) -> str:
    kind = r.randrange(6)
    if kind == 0:
        return repr(r.gauss(0, 1) * 10.0 ** r.randrange(-300, 300))
    if kind == 1:
        return str(r.randrange(-10, 10))
    if kind == 2:  # 64-bit ints, and those past, which read as floats
        return str(r.randrange(-2 ** 63, 2 ** 64) * r.choice([1, 2 ** 40]))
    if kind == 3:
        return r.choice(HARD_TOKENS)
    return repr(r.gauss(0, 1))


def dataset_line(r: random.Random, d: int, L: int) -> str:
    """One line of d features and L labels, its keys shuffled and joined
    with extra ones, or one of MALFORMED, or now and then one holding a
    REFUSED token."""
    if r.random() < 0.05:
        return r.choice(MALFORMED)
    feats = [feature_token(r) for _ in range(d)]
    labs = [r.choice("01") if r.random() > 0.02 else "2" for _ in range(L)]
    extra = [("id", json.dumps(r.choice(NAMES),
                               ensure_ascii=r.random() < 0.5)),
             ("w", feature_token(r)), ("meta", '{"a": [1, "x"], "b": null}')]
    if r.random() < 0.015:
        token = r.choice(REFUSED)
        if token == "\\ud800":
            extra.append(("tag", '"\\ud800"'))
        elif token.startswith("18446744"):
            labs[r.randrange(L)] = token
        else:
            feats[r.randrange(d)] = token
    sep = r.choice([", ", ",", " , "])
    pairs = [("features", "[" + sep.join(feats) + "]"),
             ("labels", "[" + sep.join(labs) + "]")]
    pairs += r.sample(extra, r.randrange(len(extra) + 1))
    r.shuffle(pairs)
    colon = r.choice([": ", ":"])
    pad = r.choice(["", " ", "\t"])
    return pad + "{" + sep.join(f'"{k}"{colon}{v}' for k, v in pairs) + "}" + pad


def outcome(load, path):
    """("ok", arrays as bytes) or ("error", line named or message, what)."""
    try:
        ds = load(path)
    except DatasetError as exc:
        m = re.match(r"line (\d+): ([^(]*)", str(exc))
        return (("error", int(m[1]), m[2].strip()) if m
                else ("error", str(exc), ""))
    return ("ok", ds.X.shape, bits(ds.X).tobytes(), ds.Y.dtype,
            ds.Y.tobytes())


class TestStdlibReference:
    def test_random_files_load_as_the_stdlib_loader_loads_them(self,
                                                              tmp_path):
        r = random.Random(3)
        path = tmp_path / "mixed.jsonl"
        differed = 0
        for _ in range(1500):
            d, L = r.randint(1, 3), r.randint(1, 2)
            lines = [r.choice(["", " ", "\t", "  \t "]) if r.random() < 0.1
                     else dataset_line(r, d, L)
                     for _ in range(r.randint(1, 12))]
            ends = r.choice([["\n"], ["\r\n"], ["\r"], ["\n", "\r\n", "\r"]])
            text = "".join(line + r.choice(ends) for line in lines)
            if r.random() < 0.5:
                text = text.rstrip("\r\n")
            path.write_bytes(text.encode("utf-8"))
            new, ref = outcome(load_dataset, path), outcome(stdlib_load_dataset,
                                                            path)
            with open(path, encoding="utf-8") as fh:
                refused = [n for n, line in enumerate(fh, start=1)
                           if any(t in line for t in REFUSED)]
            if not refused:
                assert new == ref, text
                continue
            # refused at its own line, unless a line before it fails a
            # test of its own; Dataset's tests come after every line's
            if (ref[0] == "error" and ref[1] < refused[0]
                    and ref[2] not in ("label not binary",
                                       "non-finite feature value")):
                assert new == ref, text
            else:
                assert new[:2] == ("error", refused[0]), text
                assert new[2] == "parse error" or (
                    new[2].startswith("features must") and
                    str(2 ** 64 + 7) in text), text
                differed += new != ref
        assert differed > 0


class TestDataset:
    @pytest.mark.parametrize("Y", [[[0.5, 1.7]], [[300, 1]]])
    def test_label_not_binary_before_the_int8_cast(self, Y):
        with pytest.raises(DatasetError, match="label not binary"):
            Dataset(np.zeros((1, 2)), Y)

    @pytest.mark.parametrize("X,Y", [
        (np.zeros((0, 2)), np.zeros((0, 1))),
        (np.zeros((2, 0)), np.zeros((2, 1))),
        (np.zeros((2, 2)), np.zeros((2, 0))),
        ([], []),
    ])
    def test_empty_rejected(self, X, Y):
        with pytest.raises(DatasetError, match="empty dataset"):
            Dataset(X, Y)

    def test_bad_value_carries_its_row(self):
        X = np.zeros((4, 2))
        X[2, 1] = np.inf
        with pytest.raises(DatasetError) as exc:
            Dataset(X, np.zeros((4, 1)))
        assert exc.value.row == 2
        with pytest.raises(DatasetError) as exc:
            Dataset(np.zeros((4, 2)), [[0], [1], [1], [2]])
        assert exc.value.row == 3
        with pytest.raises(DatasetError) as exc:
            Dataset(np.zeros((2, 2)), np.zeros((3, 1)))
        assert exc.value.row is None

    @pytest.mark.parametrize("big", [10 ** 400, -10 ** 400,
                                     2 ** 1024 - 2 ** 970])
    def test_int_too_large_for_a_float_carries_its_row(self, big):
        # 2**1024 - 2**970 is the least int float() refuses, and
        # 2**1024 - 2**971 the largest float; numpy scalars may sit beside
        with pytest.raises(DatasetError, match="non-finite") as exc:
            Dataset([[1.0, np.float64(2)], [3, 4.5], [5, big]],
                    [[0], [1], [0]])
        assert exc.value.row == 2
        ds = Dataset([[1.0, 2], [2 ** 1024 - 2 ** 971, 4]], [[0], [1]])
        assert ds.X[1, 0] == np.finfo(np.float64).max

    def test_int_too_large_for_a_float_beside_nan_carries_its_row(self):
        # NaN has no order, and comparing it with the largest float must
        # raise no floating-point warning
        with pytest.raises(DatasetError, match="non-finite") as exc:
            Dataset([[1.0, 2.0], [np.nan, 10 ** 400]], [[0], [1]])
        assert exc.value.row == 1


class TestLabelStats:
    def test_counting(self):
        Y = np.array([[1, 0], [1, 0], [1, 1], [0, 0]])
        ds = Dataset(np.zeros((4, 2)), Y)
        stats = compute_label_stats(ds, 50)
        np.testing.assert_array_equal(stats.freq, [3, 1])
        assert stats.rare_set == {1}

    def test_p_zero(self):
        ds = Dataset(np.zeros((2, 3)), np.ones((2, 3), dtype=int))
        assert compute_label_stats(ds, 0).rare_set == frozenset()

    def test_bottom_30_pct_matches_sort_oracle(self):
        # freqs 10, 9, ..., 1 across ten labels
        rows = []
        for lab in range(10):
            for _ in range(10 - lab):
                row = np.zeros(10, dtype=int)
                row[lab] = 1
                rows.append(row)
        Y = np.array(rows)
        ds = Dataset(np.zeros((len(Y), 2)), Y)
        stats = compute_label_stats(ds, 30)
        oracle = set(sorted(range(10), key=lambda i: (stats.freq[i], i))[:3])
        assert stats.rare_set == oracle == {7, 8, 9}

    def test_rare_labels_never_beat_common_ones(self):
        dss, _ = generate_synthetic(L=6, d=24, n=200, n_envs=1, seed=3)
        stats = compute_label_stats(dss[0], 40)
        rare_max = max(stats.freq[i] for i in stats.rare_set)
        common_min = min(stats.freq[i] for i in range(6)
                         if i not in stats.rare_set)
        assert rare_max <= common_min


class TestGenerateSynthetic:
    def test_independence_without_edges(self):
        dss, world = generate_synthetic(L=2, d=8, n=20000, n_envs=1, seed=5,
                                        edge_density=0.0)
        assert world.edges == []
        Y = dss[0].Y.astype(float)
        p1, p2 = Y[:, 0].mean(), Y[:, 1].mean()
        pboth = (Y[:, 0] * Y[:, 1]).mean()
        sigma = np.sqrt(p1 * p2 * (1 - p1 * p2) / len(Y))
        assert abs(pboth - p1 * p2) < 3 * sigma

    def test_deterministic(self):
        a, wa = generate_synthetic(L=4, d=16, n=50, n_envs=2, seed=9)
        b, wb = generate_synthetic(L=4, d=16, n=50, n_envs=2, seed=9)
        for da, db in zip(a, b):
            np.testing.assert_array_equal(da.X, db.X)
            np.testing.assert_array_equal(da.Y, db.Y)
        assert wa.edges == wb.edges

    def test_full_strength_edge_implies_child(self):
        world = PlantedWorld(L=2, d=8, edges=[(0, 1, 1.0)],
                             causal_blocks={0: [0, 1], 1: [2, 3]},
                             spurious_blocks={},
                             env_params=[{"mean_mult": 1.0, "var_mult": 1.0}])
        ds = generate_from_world(world, 500, seed=2)[0]
        parent_on = ds.Y[:, 0] == 1
        assert parent_on.any()
        assert (ds.Y[parent_on, 1] == 1).all()

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            generate_synthetic(L=10, d=8, n=10, n_envs=1, seed=0)

    def test_planted_graph_acyclic(self):
        # every edge runs from a lower to a higher label, so label order is
        # topological
        _, world = generate_synthetic(L=8, d=32, n=5, n_envs=1, seed=11,
                                      edge_density=0.3)
        assert world.edges and all(j < i for j, i, _ in world.edges)

    def test_edge_against_label_order_rejected(self):
        world = PlantedWorld(L=2, d=8, edges=[(1, 0, 0.9)],
                             causal_blocks={0: [0, 1], 1: [2, 3]},
                             spurious_blocks={},
                             env_params=[{"mean_mult": 1.0, "var_mult": 1.0}])
        with pytest.raises(ValueError, match="1 -> 0"):
            generate_from_world(world, 10, seed=0)

    def test_blocks_disjoint_and_in_range(self):
        _, world = generate_synthetic(L=6, d=36, n=5, n_envs=1, seed=4,
                                      edge_density=0.3)
        seen = set()
        for blk in list(world.causal_blocks.values()) + list(world.spurious_blocks.values()):
            for f in blk:
                assert 0 <= f < world.d
                assert f not in seen
                seen.add(f)

    def test_world_json_roundtrip(self):
        _, world = generate_synthetic(L=5, d=24, n=5, n_envs=3, seed=1,
                                      edge_density=0.2)
        w2 = PlantedWorld.from_json(world.to_json())
        assert w2.edges == world.edges
        assert w2.spurious_blocks == world.spurious_blocks
        assert w2.env_params == world.env_params

    # L and d ints >= 1, edges as graph.json's, block labels in range(L) and
    # block features ints of range(d), so no value is truncated and no
    # feature indexes past d
    @pytest.mark.parametrize("change", [
        {"L": 4.7}, {"L": 0}, {"d": 16.9}, {"d": True},
        {"edges": [{"src": 0.4, "dst": 1, "strength": 0.5}]},
        {"edges": [{"src": 0, "dst": 5, "strength": 0.5}]},
        {"edges": [{"src": 0, "dst": 1, "strength": "0.5"}]},
        {"causal_blocks": {"5": [0]}}, {"causal_blocks": {"0": [-1]}},
        {"causal_blocks": {"0": [24]}}, {"spurious_blocks": {"0-1": [99]}},
        {"spurious_blocks": {"0-5": [20]}},
        {"spurious_blocks": {"0-1": [20.0]}}], ids=repr)
    def test_world_json_rejects_bad_values(self, change):
        _, world = generate_synthetic(L=5, d=24, n=5, n_envs=1, seed=1,
                                      edge_density=0.2)
        with pytest.raises(ValueError, match="must|needs"):
            PlantedWorld.from_json({**world.to_json(), **change})


class TestCoOccurrence:
    def test_always_coactive(self):
        ds = Dataset(np.zeros((3, 2)), np.ones((3, 2), dtype=int))
        M = co_occurrence(ds)
        assert M[0, 1] == M[1, 0] == 1.0
        assert M[0, 0] == M[1, 1] == 0.0

    def test_inactive_column_is_zero(self):
        Y = np.array([[1, 0], [1, 0]])
        ds = Dataset(np.zeros((2, 2)), Y)
        M = co_occurrence(ds)
        assert M[0, 1] == 0.0 and M[1, 0] == 0.0

    def test_hand_computed_conditionals(self):
        # 3 samples: {0,1}, {0}, {1,2}
        Y = np.array([[1, 1, 0], [1, 0, 0], [0, 1, 1]])
        ds = Dataset(np.zeros((3, 3)), Y)
        M = co_occurrence(ds)
        assert M[0, 1] == pytest.approx(1 / 2)   # P(l0 | l1)
        assert M[1, 0] == pytest.approx(1 / 2)   # P(l1 | l0)
        assert M[2, 1] == pytest.approx(1 / 2)
        assert M[1, 2] == pytest.approx(1.0)
        assert M[2, 0] == pytest.approx(0.0)

    def test_range_and_diagonal(self):
        dss, _ = generate_synthetic(L=5, d=20, n=100, n_envs=1, seed=8)
        M = co_occurrence(dss[0])
        assert (M >= 0).all() and (M <= 1).all()
        assert np.diag(M).sum() == 0.0


class TestSemanticSimilarity:
    def test_identical_sample_sets(self):
        X = np.array([[1.0, 2.0], [3.0, 1.0]])
        Y = np.array([[1, 1], [1, 1]])
        ds = Dataset(X, Y)
        M = semantic_similarity(ds)
        assert M[0, 1] == pytest.approx(1.0)

    def test_orthogonal_centroids(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        Y = np.array([[1, 0], [0, 1]])
        ds = Dataset(X, Y)
        assert semantic_similarity(ds)[0, 1] == 0.0

    def test_matches_cosine_oracle(self, rng):
        X = rng.normal(size=(20, 6))
        Y = (rng.random((20, 3)) < 0.6).astype(np.int8)
        Y[0] = 1
        ds = Dataset(X, Y)
        M = semantic_similarity(ds)
        for i in range(3):
            for j in range(3):
                if i == j:
                    assert M[i, j] == 0.0
                    continue
                ci = X[Y[:, i] == 1].mean(axis=0)
                cj = X[Y[:, j] == 1].mean(axis=0)
                cos = float(ci @ cj / (np.linalg.norm(ci) * np.linalg.norm(cj)))
                assert M[i, j] == pytest.approx(max(0.0, min(1.0, cos)), abs=1e-12)
