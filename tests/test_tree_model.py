"""Tree construction, shells, radii, and augmentation."""

import random
import re

import numpy as np
import pytest

from treetomo.errors import FormatError, InvalidParameter, NotATree, TreetomoError
from treetomo import tree_model
from treetomo.formats import dump_tree, parse_tree
from treetomo.tree_model import (
    AugmentedTree,
    RootedTree,
    build_tree,
    random_tree,
    segment,
    spherical_augmentation,
    star,
)

from helpers import (
    INVALID_TREES,
    NotTerminal,
    augment_by_dicts,
    broom,
    build_tree_by_dicts,
    comb,
    degree,
    dicts_of,
    edge_list_augmentation,
    is_original,
    l_augment_at,
    parse_tree_by_records,
    radii,
    same_tree,
    shells,
    terminals,
    tree_edges,
)


class TestBuildTree:
    def test_single_edge(self):
        t = build_tree([(0, 1)], 0)
        assert t.vertex_count == 2
        assert t.norm[1] == 1
        assert t.parent[1] == 0 and t.parent[0] == -1

    def test_norms_forced_by_distance(self):
        t = build_tree([(0, 1), (1, 2), (0, 3)], 0)
        assert [t.norm[v] for v in range(4)] == [0, 1, 2, 1]

    def test_cycle_rejected(self):
        with pytest.raises(NotATree):
            build_tree([(0, 1), (1, 2), (2, 0)], 0)

    def test_duplicate_edge_rejected(self):
        with pytest.raises(NotATree):
            build_tree([(0, 1), (1, 0)], 0)

    def test_disconnected_rejected(self):
        with pytest.raises(NotATree):
            build_tree([(0, 1), (2, 3), (1, 2), (3, 0)], 0)

    def test_id_gap_rejected(self):
        with pytest.raises(NotATree):
            build_tree([(0, 2)], 0)

    def test_root_not_on_any_edge(self):
        from treetomo.errors import UnknownVertex

        with pytest.raises(UnknownVertex):
            build_tree([(0, 1)], 5)

    def test_children_sorted(self):
        t = build_tree([(0, 3), (0, 1), (1, 2)], 0)
        assert t.children[0] == (1, 3)

    def test_self_loop_and_empty_rejected(self):
        with pytest.raises(NotATree):
            build_tree([(0, 1), (1, 1)], 0)
        with pytest.raises(NotATree):
            build_tree([], 0)

    def test_cycle_beside_a_component_rejected(self):
        # n - 1 edges, so only the breadth-first pass can see it is no tree
        with pytest.raises(NotATree):
            build_tree([(0, 1), (1, 2), (2, 0), (3, 4)], 0)

    def test_edge_order_does_not_matter(self):
        for seed in range(20):
            t = random_tree(1 + seed % 6, seed)
            edges = list(tree_edges(t))
            shuffled = edges[:]
            random.Random(seed).shuffle(shuffled)
            for variant in (shuffled, edges[::-1], [(v, u) for u, v in shuffled]):
                assert same_tree(build_tree(variant, t.root), t)


class TestSegment:
    def test_two_vertices(self):
        t = segment(0, 1)
        assert t.vertex_count == 2
        assert radii(t) == (1, 1, True)

    def test_root_in_middle(self):
        t = segment(1, 1)
        assert t.vertex_count == 3
        assert t.children[0] == (1, 2)
        assert set(terminals(t)) == {1, 2}

    def test_asymmetric(self):
        t = segment(2, 3)
        assert t.vertex_count == 6
        assert radii(t) == (2, 3, False)

    def test_bad_parameters(self):
        with pytest.raises(InvalidParameter):
            segment(-1, 1)
        with pytest.raises(InvalidParameter):
            segment(0, 0)


class TestStar:
    def test_two_branches(self):
        t = star(1, 2)
        assert t.children[0] == (1, 2)
        assert radii(t) == (1, 1, True)

    def test_shellwise_enumeration(self):
        # root 0, then branch j occupies (s-1)*n + j at shell s
        t = star(2, 3)
        assert shells(t)[1] == (1, 2, 3)
        assert shells(t)[2] == (4, 5, 6)
        assert t.parent[4] == 1 and t.parent[6] == 3

    def test_single_branch_is_segment(self):
        assert tree_edges(star(3, 1)) == tree_edges(segment(0, 3))

    def test_bad_parameters(self):
        with pytest.raises(InvalidParameter):
            star(0, 2)


class TestRadii:
    def test_branching(self):
        assert radii(build_tree([(0, 1), (1, 2), (0, 3)], 0)) == (1, 2, False)

    def test_root_excluded_from_terminals(self):
        # degree-1 root must not drag the inner radius to zero
        t = segment(0, 3)
        assert terminals(t) == (3,)
        assert radii(t) == (3, 3, True)


class TestAugmentAt:
    def test_chain_glued(self):
        t = l_augment_at(segment(0, 1), 1, 2)
        assert t.vertex_count == 4
        assert t.norm[3] == 3
        assert t.parent[2] == 1 and t.parent[3] == 2

    def test_root_not_terminal(self):
        with pytest.raises(NotTerminal):
            l_augment_at(segment(0, 1), 0, 1)

    def test_internal_rejected(self):
        with pytest.raises(NotTerminal):
            l_augment_at(segment(0, 2), 1, 1)


class TestSphericalAugmentation:
    def test_segment_becomes_path(self):
        aug = spherical_augmentation(segment(0, 1), 2)
        assert tree_edges(aug.full) == ((0, 1), (1, 2), (2, 3))
        assert aug.inner_layer.tolist() == [2]
        assert aug.outer_layer.tolist() == [3]
        assert aug.hull_radius == 1

    def test_star_layers(self):
        aug = spherical_augmentation(star(1, 2), 2)
        assert aug.full.vertex_count == 7
        assert sorted(aug.inner_layer) == [3, 4]
        assert sorted(aug.outer_layer) == [5, 6]
        assert all(aug.full.norm[v] == 2 for v in aug.inner_layer)
        assert all(aug.full.norm[v] == 3 for v in aug.outer_layer)

    def test_short_branch_gets_longer_chain(self):
        # terminal at norm 1 in a radius-2 tree: chain length 2 - 1 + 2 = 3
        base = build_tree([(0, 1), (1, 2), (0, 3)], 0)
        aug = spherical_augmentation(base, 2)
        chain = [v for v in range(4, aug.full.vertex_count)
                 if aug.full.subtree(3).count(v)]
        assert len(chain) == 3

    def test_invariants_random(self):
        for seed in range(25):
            base = random_tree(1 + seed % 5, seed)
            for l in (1, 2, 3):
                aug = spherical_augmentation(base, l)
                full = aug.full
                r_in, r_out, spherical = radii(full)
                assert spherical
                assert r_out == aug.hull_radius + l
                # shells partition
                assert sum(len(s) for s in shells(full).values()) == full.vertex_count
                # embedding preserves ids, parents, norms
                for v in range(base.vertex_count):
                    assert is_original(aug, v)
                    assert full.norm[v] == base.norm[v]
                    assert full.parent[v] == base.parent[v]
                # unique parent within the previous shell
                for v in range(full.vertex_count):
                    if v != full.root:
                        p = full.parent[v]
                        assert full.norm[p] == full.norm[v] - 1
                # added non-outer vertices have exactly two neighbors
                for v in range(base.vertex_count, full.vertex_count):
                    if v not in aug.outer_layer:
                        assert degree(full, v) == 2
                assert aug.outer_layer.tolist() == list(terminals(full))
                assert aug.inner_layer.tolist() == sorted(
                    full.parent[v] for v in aug.outer_layer
                )

    def test_matches_edge_list_construction(self):
        bases = [random_tree(1 + seed % 5, seed) for seed in range(25)]
        for base in bases + [broom(3, 4), segment(2, 5)]:
            for l in (1, 2, 3):
                aug, ref = spherical_augmentation(base, l), edge_list_augmentation(base, l)
                assert same_tree(aug, ref)
                assert aug.inner_layer.tolist() == ref.inner_layer.tolist()
                assert aug.outer_layer.tolist() == ref.outer_layer.tolist()
                assert same_tree(aug, AugmentedTree(
                    base, build_tree(list(tree_edges(aug.full)), base.root)))

    def test_needs_an_edge(self):
        with pytest.raises(InvalidParameter):
            spherical_augmentation(segment(0, 1), 0)

    def test_base_below_an_added_vertex_rejected(self):
        # path 0-2-1-3-4 with base ids {0, 1}: base and full agree on every
        # parent, but original vertex 1 hangs below added vertex 2
        full = build_tree([(0, 2), (2, 1), (1, 3), (3, 4)], 0)
        base = RootedTree(0, np.array([-1, 2]), np.array([0, 2]))
        with pytest.raises(InvalidParameter):
            AugmentedTree(base, full)


class TestRandomTree:
    def test_deterministic(self):
        a = random_tree(3, 11)
        b = random_tree(3, 11)
        assert tree_edges(a) == tree_edges(b)

    def test_radius_exact(self):
        for seed in range(20):
            rout = 1 + seed % 6
            t = random_tree(rout, seed)
            assert t.norm.max() == rout
            assert t.vertex_count <= 40

    @pytest.mark.parametrize("rout", [0, 40, 41])
    def test_rout_out_of_range(self, rout):
        # a spine of rout + 1 vertices must fit the 40-vertex cap
        with pytest.raises(InvalidParameter):
            random_tree(rout, 0)

    @pytest.mark.parametrize("size", [3, 41])
    def test_size_out_of_range(self, size):
        # rout 3 needs a spine of 4 vertices, and no tree passes 40
        with pytest.raises(InvalidParameter, match=r"^size must lie in \[rout\+1, 40\], got "):
            random_tree(3, 0, size=size)

    def test_negative_seed(self):
        with pytest.raises(InvalidParameter):
            random_tree(3, -4)

    def test_longest_spine(self):
        t = random_tree(39, 0)
        assert t.norm.max() == 39
        assert t.vertex_count == 40


def oracle_trees():
    """random_tree seeds 0-39, stars, segments, comb(2..16), broom(5,5) and broom(60,60)."""
    return ([random_tree(1 + seed % 39, seed) for seed in range(40)]
            + [star(1, 2), star(3, 4), segment(0, 3), segment(2, 5)]
            + [comb(r) for r in range(2, 17)] + [broom(5, 5), broom(60, 60)])


def edge_variants(tree, seed):
    """The tree's edges as built, shuffled, flipped, both, and every other one flipped."""
    edges = list(tree_edges(tree))
    shuffled = edges[:]
    random.Random(seed).shuffle(shuffled)
    mixed = [(u, v) if j % 2 else (v, u) for j, (u, v) in enumerate(edges)]
    return [edges, shuffled, [(v, u) for u, v in edges], [(v, u) for u, v in shuffled], mixed]


# edge lists that are no tree, each with a root; the last two read parent
# first, with a cycle off the root where each id but the root is a child
# once, and with a vertex that has two parents
BAD_EDGE_LISTS = [
    ([], 0), ([(0, 1), (1, 1)], 0), ([(0, 1), (1, 0)], 0), ([(0, 1), (1, 2), (2, 0)], 0),
    ([(0, 1), (2, 3), (1, 2), (3, 0)], 0), ([(0, 2)], 0), ([(0, 1)], 5), ([(0, 1)], -1),
    ([(0, 1), (1, 2), (2, 0), (3, 4)], 0), ([(0, 1), (1, -1)], 0), ([(0, 2), (1, -1)], 0),
    ([(0, 1), (1, 2), (2, 3), (1, 3)], 0), ([(0, 1), (2, 3), (2, 3)], 0), ([(1, 2)], 1),
    ([(0, 1), (2, 3), (3, 4), (4, 2)], 0), ([(0, 1), (1, 2), (0, 2), (4, 3)], 0),
]


class TestTreeOracles:
    """The array trees against the dict-based references in ``helpers``."""

    def test_build_matches_dict_oracle(self, monkeypatch):
        # each list, and the same edges as the array parse_tree passes, as
        # built and with pointer doubling tried on every array
        for few in (tree_model.FEW_EDGES, 0):
            monkeypatch.setattr(tree_model, "FEW_EDGES", few)
            for i, tree in enumerate(oracle_trees()):
                roots = (tree.root, random.Random(i).randrange(tree.vertex_count))
                for edges in edge_variants(tree, i):
                    for root in roots:
                        want = build_tree_by_dicts(edges, root)
                        assert dicts_of(build_tree(edges, root)) == want
                        assert dicts_of(build_tree(np.array(edges, np.intp), root)) == want
            # a tree with its last edge child first: read parent first, 3 has
            # two parents and 2 none, and 2's missing parent must not read as a root
            edges = [(0, 1), (1, 4), (0, 3), (2, 3)]
            assert dicts_of(build_tree(edges, 0)) == build_tree_by_dicts(edges, 0)

    def test_build_refuses_as_dict_oracle(self, monkeypatch):
        for few in (tree_model.FEW_EDGES, 0):
            monkeypatch.setattr(tree_model, "FEW_EDGES", few)
            for edges, root in BAD_EDGE_LISTS:
                with pytest.raises(TreetomoError) as want:
                    build_tree_by_dicts(edges, root)
                for given in (edges, np.array(edges, np.intp).reshape(-1, 2)):
                    with pytest.raises(type(want.value), match=f"^{re.escape(str(want.value))}$"):
                        build_tree(given, root)

    def test_doubling_rounds_and_fallback(self):
        # a path of 5,002 edges needs 13 rounds of doubling; written child
        # first, the same file takes the breadth-first pass
        text = dump_tree(spherical_augmentation(segment(0, 5000), 2))
        head, *lines = text.splitlines()
        m = text.count("\nedge ")
        flipped = [f"edge {v} {u}" for _, u, v in map(str.split, reversed(lines[:m]))]
        for variant in (text, "\n".join([head, *flipped, *lines[m:]]) + "\n"):
            parsed = parse_tree(variant)
            full, (hull, horizon, aug_len, inner, outer) = parse_tree_by_records(variant)
            assert dicts_of(parsed.full) == full
            assert (parsed.hull_radius, parsed.horizon, parsed.aug_len) == (hull, horizon, aug_len)
            assert parsed.inner_layer.tolist() == sorted(inner)
            assert parsed.outer_layer.tolist() == sorted(outer)
        edges = np.array(tree_edges(parsed.full), np.intp)
        doubled = tree_model._parent_first(edges, 0)
        assert doubled is not None and dicts_of(doubled) == full
        assert tree_model._parent_first(edges[::-1, ::-1], 0) is None

    def test_augmentation_matches_dict_oracle(self):
        for tree in oracle_trees():
            for l in (1, 2, 3):
                aug = spherical_augmentation(tree, l)
                full, (hull, horizon, aug_len, inner, outer) = augment_by_dicts(dicts_of(tree), l)
                assert dicts_of(aug.full) == full
                assert (aug.hull_radius, aug.horizon, aug.aug_len) == (hull, horizon, aug_len)
                assert aug.inner_layer.tolist() == sorted(inner)
                assert aug.outer_layer.tolist() == sorted(outer)

    def test_parse_matches_dict_oracle(self):
        # dump_tree's layout, its edges reversed and child first, and a spaced
        # layout that is read record by record
        for i, tree in enumerate(oracle_trees()):
            aug = spherical_augmentation(tree, 2)
            text = dump_tree(aug)
            head, *lines = text.splitlines()
            edges = [ln for ln in lines if ln.startswith("edge")]
            flipped = [f"edge {v} {u}" for _, u, v in map(str.split, reversed(edges))]
            for variant in (text, "\n".join([head, *flipped, *lines[len(edges):]]) + "\n",
                            text.replace("\n", "\n\n").replace(" ", "  ")):
                parsed = parse_tree(variant)
                full, (hull, horizon, aug_len, inner, outer) = parse_tree_by_records(variant)
                assert dicts_of(parsed.full) == full
                assert dicts_of(parsed.base) == dicts_of(tree)
                assert (parsed.hull_radius, parsed.horizon, parsed.aug_len) == (hull, horizon, aug_len)
                assert parsed.inner_layer.tolist() == sorted(inner)
                assert parsed.outer_layer.tolist() == sorted(outer)
            if i % 10 == 0:
                assert dicts_of(parse_tree(dump_tree(tree))) == parse_tree_by_records(dump_tree(tree))

    @pytest.mark.parametrize("text", [text for text, _ in INVALID_TREES.values()],
                             ids=list(INVALID_TREES))
    def test_invalid_tree_gives_the_oracle_message(self, text):
        with pytest.raises(FormatError) as want:
            parse_tree_by_records(text)
        with pytest.raises(FormatError, match=f"^{re.escape(str(want.value))}$"):
            parse_tree(text)

    def test_arrays_are_read_only(self):
        aug = spherical_augmentation(broom(3, 4), 2)
        for array in (aug.full.parent, aug.full.norm, aug.full.child_starts, aug.full.child_ids,
                      aug.base.parent, aug.inner_layer, aug.outer_layer):
            assert array.dtype == np.intp
            with pytest.raises(ValueError):
                array[0] = 1
        assert aug.full.children is aug.full.children  # the tuple view is built once
