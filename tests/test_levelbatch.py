"""Level-synchronous batched numerics: bitwise parity and payload seams.

The invariant under test (docs/PERFORMANCE.md, level batching): the
factorization has one set of numerics, and how a tree level is grouped
is purely an *execution strategy*.  A level run as the policy's shape
groups must produce bit-for-bit the same factors, solutions,
log-determinants, and flop accounting as the same level run as groups
of one (``BatchPolicy.worth`` monkeypatched to decline every group), and
every serialization seam — level/node payload export, checkpoint
round-trips, pickling — must keep working when the per-node factors are
views into contiguous level stacks.
"""

from __future__ import annotations

import contextlib
import pickle

import numpy as np
import pytest
import scipy.linalg

from repro.config import (
    RecoveryConfig,
    ResilienceConfig,
    SkeletonConfig,
    SolverConfig,
    TreeConfig,
)
from repro.core import FastKernelSolver
from repro.hmatrix import build_hmatrix
from repro.kernels import GaussianKernel
from repro.parallel import distributed_factorize, distributed_solve
from repro.perf.levelbatch import (
    BatchPolicy,
    group_by_key,
    one_norms_stacked,
    split_groups,
    stacked_kernel_blocks,
)
from repro.skeleton.skeletonize import skeletonize
from repro.solvers import factorize
from repro.solvers.factorization import level_payload_nodes
from repro.tree import BallTree
from repro.util import lapack
from repro.util.flops import FlopCounter

RNG = np.random.default_rng(31)
X = RNG.standard_normal((512, 3))
U = RNG.standard_normal(512)
KERNEL = GaussianKernel(bandwidth=1.5)

# many small same-shaped nodes: the regime level batching targets.
TREE_CFG = TreeConfig(leaf_size=16, seed=0)
SKEL_CFG = SkeletonConfig(rank=12, num_samples=96, num_neighbors=8, seed=1)


def build_problem():
    return build_hmatrix(
        X, KERNEL, tree_config=TREE_CFG, skeleton_config=SKEL_CFG
    )


@pytest.fixture(scope="module")
def hmat():
    return build_problem()


@contextlib.contextmanager
def grouping(worth):
    """Run the block with ``BatchPolicy.worth`` replaced by ``worth``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(BatchPolicy, "worth", worth)
        yield


def stack_every_group(self, count, item_words, calls_saved=6):
    return count >= 2


def every_node_alone(self, count, item_words, calls_saved=6):
    return False


@pytest.fixture(scope="module")
def parity(hmat):
    """(policy-grouped, groups-of-one) factorizations of one H-matrix."""
    batched = factorize(hmat, 0.7, SolverConfig())
    with grouping(every_node_alone):
        pernode = factorize(hmat, 0.7, SolverConfig())
    return batched, pernode


# ----------------------------------------------------------------------
# grouping and policy units
# ----------------------------------------------------------------------

class TestGroupingAndPolicy:
    def test_group_by_key_preserves_order(self):
        items = ["aa", "b", "cc", "d", "ee"]
        groups = group_by_key(items, len)
        assert groups == {2: [0, 2, 4], 1: [1, 3]}
        # insertion order of the buckets follows first occurrence
        assert list(groups) == [2, 1]

    def test_worth_needs_at_least_two(self):
        policy = BatchPolicy(dispatch_us=10.0, stream_bw_gbs=20.0)
        assert not policy.worth(1, 256)
        assert policy.worth(64, 256)

    def test_huge_items_not_worth_stacking(self):
        # copying gigawords to save microseconds of dispatch loses.
        policy = BatchPolicy(dispatch_us=1.0, stream_bw_gbs=10.0)
        assert not policy.worth(2, 10**9)

    def test_split_groups_splits_declined_buckets(self):
        items = ["aa", "b", "cc", "d", "ee", "fff"]
        groups = split_groups(items, len, lambda key, count: key == 2)
        assert groups == [
            (2, ["aa", "cc", "ee"]),
            (1, ["b"]),
            (1, ["d"]),
            (3, ["fff"]),
        ]
        # a bucket of one is never offered to the policy
        offered = []
        split_groups(items, len, lambda key, count: offered.append(count))
        assert offered == [3, 2]


# ----------------------------------------------------------------------
# batched LAPACK: bitwise identity with the per-slice wrappers
# ----------------------------------------------------------------------

def _stack(b=7, n=9, k=4):
    rng = np.random.default_rng(5)
    A = rng.standard_normal((b, n, n)) + n * np.eye(n)
    B = rng.standard_normal((b, n, k))
    return A, B


class TestBatchedLapack:
    def test_lu_factor_batched_bitwise(self):
        A, _ = _stack()
        lu, piv = lapack.lu_factor_batched(A)
        for i in range(A.shape[0]):
            lu_i, piv_i = scipy.linalg.lu_factor(A[i], check_finite=False)
            assert np.array_equal(lu[i], lu_i)
            assert np.array_equal(piv[i], piv_i)
            assert lu[i].flags.f_contiguous

    def test_lu_solve_batched_bitwise_and_f_sliced(self):
        A, B = _stack()
        lu, piv = lapack.lu_factor_batched(A)
        out = lapack.lu_solve_batched((lu, piv), B)
        for i in range(A.shape[0]):
            ref = scipy.linalg.lu_solve(
                (lu[i], piv[i]), B[i], check_finite=False
            )
            assert np.array_equal(out[i], ref)
            # F-strided slices on purpose: np.matmul picks layout-
            # dependent GEMM paths, and per-node lu_solve returns
            # F-ordered solutions.
            assert out[i].flags.f_contiguous

    def test_fused_matches_factor_then_solve(self):
        A, B = _stack()
        lu1, piv1 = lapack.lu_factor_batched(A)
        x1 = lapack.lu_solve_batched((lu1, piv1), B)
        lu2, piv2, x2 = lapack.lu_factor_solve_batched(A, B)
        assert np.array_equal(lu1, lu2)
        assert np.array_equal(piv1, piv2)
        assert np.array_equal(x1, x2)

    def test_overwrite_runs_in_place_when_f_sliced(self):
        A, B = _stack()
        b, n, k = B.shape
        Af = np.empty((b, n, n)).transpose(0, 2, 1)
        Af[...] = A
        Bf = np.empty((b, k, n)).transpose(0, 2, 1)
        Bf[...] = B
        lu, piv, x = lapack.lu_factor_solve_batched(
            Af, Bf, overwrite_a=True, overwrite_b=True
        )
        assert lu is Af and x is Bf  # no copies were made
        ref_lu, ref_piv = lapack.lu_factor_batched(A)
        assert np.array_equal(lu, ref_lu)
        assert np.array_equal(x, lapack.lu_solve_batched((ref_lu, ref_piv), B))

    def test_overwrite_declined_for_c_ordered_input(self):
        A, _ = _stack()
        Ac = np.ascontiguousarray(A)
        lu, _ = lapack.lu_factor_batched(Ac, overwrite_a=True)
        assert lu is not Ac  # C slices: must copy to the F-sliced stack
        assert np.array_equal(Ac, A)  # input untouched

    def test_gecon_batched_matches_per_slice(self):
        A, _ = _stack()
        anorms = np.array([np.linalg.norm(A[i], 1) for i in range(len(A))])
        lu, piv = lapack.lu_factor_batched(A)
        rconds = lapack.gecon_batched(lu, anorms)
        for i in range(len(A)):
            ref, info = lapack.gecon(lu[i], anorms[i])
            assert info == 0
            assert rconds[i] == ref

    def test_empty_stacks(self):
        lu, piv = lapack.lu_factor_batched(np.empty((0, 4, 4)))
        assert lu.shape == (0, 4, 4) and piv.shape == (0, 4)
        lu, piv = lapack.lu_factor_batched(np.empty((3, 0, 0)))
        assert lu.shape == (3, 0, 0)
        out = lapack.lu_solve_batched((lu, piv), np.empty((3, 0, 2)))
        assert out.shape == (3, 0, 2)
        assert np.array_equal(
            lapack.gecon_batched(np.empty((2, 0, 0)), np.zeros(2)), np.ones(2)
        )


# ----------------------------------------------------------------------
# stacked kernel evaluation and norms
# ----------------------------------------------------------------------

class TestStackedKernelOps:
    def test_stacked_kernel_blocks_bitwise(self):
        rng = np.random.default_rng(8)
        XA = rng.standard_normal((5, 12, 3))
        XB = rng.standard_normal((5, 10, 3))
        na = np.einsum("bij,bij->bi", XA, XA)
        nb = np.einsum("bij,bij->bi", XB, XB)
        stacked = stacked_kernel_blocks(KERNEL, XA, XB, na, nb)
        for i in range(5):
            ref = KERNEL(XA[i], XB[i], norms_a=na[i], norms_b=nb[i])
            assert np.array_equal(stacked[i], ref)

    def test_distance_kernels_require_norms(self):
        XA = np.zeros((2, 3, 2))
        with pytest.raises(ValueError, match="norms"):
            stacked_kernel_blocks(KERNEL, XA, XA)

    def test_one_norms_stacked_bitwise(self):
        A = np.random.default_rng(9).standard_normal((6, 17, 17))
        norms = one_norms_stacked(A)
        for i in range(6):
            assert norms[i] == np.linalg.norm(A[i], 1)

    def test_one_norms_empty(self):
        assert one_norms_stacked(np.empty((0, 3, 3))).shape == (0,)
        assert np.array_equal(one_norms_stacked(np.empty((2, 0, 0))), np.zeros(2))


# ----------------------------------------------------------------------
# factorization parity: policy groups vs groups of one, bit for bit
# ----------------------------------------------------------------------

class TestFactorizationParity:
    def test_leaf_factors_bitwise(self, parity):
        batched, pernode = parity
        assert list(batched.leaf_factors) == list(pernode.leaf_factors)
        for nid, bf in batched.leaf_factors.items():
            pf = pernode.leaf_factors[nid]
            assert np.array_equal(bf.lu[0], pf.lu[0])
            assert np.array_equal(bf.lu[1], pf.lu[1])
            if pf.phat is None:
                assert bf.phat is None
            else:
                assert np.array_equal(bf.phat, pf.phat)
            assert bf.rcond == pf.rcond

    def test_internal_factors_bitwise(self, parity):
        batched, pernode = parity
        assert list(batched.node_factors) == list(pernode.node_factors)
        for nid, bf in batched.node_factors.items():
            pf = pernode.node_factors[nid]
            assert np.array_equal(bf.z_lu[0], pf.z_lu[0])
            assert np.array_equal(bf.z_lu[1], pf.z_lu[1])
            assert (bf.s_l, bf.s_r) == (pf.s_l, pf.s_r)
            if pf.phat is None:
                assert bf.phat is None
            else:
                assert np.array_equal(bf.phat, pf.phat)
            assert bf.rcond == pf.rcond

    def test_solve_bitwise(self, parity):
        batched, pernode = parity
        assert np.array_equal(batched.solve(U), pernode.solve(U))

    def test_multi_rhs_solve_bitwise(self, parity):
        batched, pernode = parity
        rhs = np.random.default_rng(3).standard_normal((512, 3))
        assert np.array_equal(batched.solve(rhs), pernode.solve(rhs))

    def test_slogdet_identical(self, parity):
        batched, pernode = parity
        assert batched.slogdet() == pernode.slogdet()

    def test_solution_is_correct_not_just_consistent(self, parity):
        batched, _ = parity
        w = batched.solve(U)
        assert batched.residual(U, w) < 1e-10

    def test_parity_without_stability_checks(self, hmat):
        # check_stability=False takes the in-place (overwrite) Z path;
        # it must still match the groups-of-one run bit for bit.
        cfg = SolverConfig(check_stability=False)
        b = factorize(hmat, 0.7, cfg)
        with grouping(every_node_alone):
            p = factorize(hmat, 0.7, cfg)
        assert np.array_equal(b.solve(U), p.solve(U))
        assert b.slogdet() == p.slogdet()

    def test_parity_with_recovery_enabled(self, hmat):
        cfg = SolverConfig(recovery=RecoveryConfig(enabled=True))
        b = factorize(hmat, 0.7, cfg)
        with grouping(every_node_alone):
            p = factorize(hmat, 0.7, cfg)
        assert np.array_equal(b.solve(U), p.solve(U))
        assert b.recovery_events == p.recovery_events

    def test_parity_with_irregular_level_shapes(self):
        # regression: a tree whose levels mix block shapes makes the
        # phat gather fall back to copying (non-uniform slot steps);
        # the copy must preserve each block's layout (F for leaf P^,
        # C for internal P^) — an F-sliced copy of C-ordered internal
        # blocks flips np.matmul's GEMM path and broke bitwise parity.
        rng = np.random.default_rng(0)
        Y = rng.standard_normal((1500, 4))
        h = build_hmatrix(
            Y,
            GaussianKernel(bandwidth=1.8),
            tree_config=TREE_CFG,
            skeleton_config=SKEL_CFG,
        )
        u = rng.standard_normal(1500)
        b = factorize(h, 0.8, SolverConfig())
        with grouping(every_node_alone):
            p = factorize(h, 0.8, SolverConfig())
        assert np.array_equal(b.solve(u), p.solve(u))
        assert b.slogdet() == p.slogdet()

    def test_flop_accounting_parity(self):
        # fresh H-matrices (fresh block caches) so both runs see the
        # same cache misses; the same floats then imply the same charges.
        with FlopCounter() as fc_b:
            factorize(build_problem(), 0.7, SolverConfig())
        with grouping(every_node_alone), FlopCounter() as fc_p:
            factorize(build_problem(), 0.7, SolverConfig())
        assert fc_b.by_label == fc_p.by_label
        assert fc_b.flops == fc_p.flops
        assert fc_b.mops == fc_p.mops
        assert fc_b.kernel_evals == fc_p.kernel_evals


# ----------------------------------------------------------------------
# one set of numerics: a node's factors do not depend on its grouping
# ----------------------------------------------------------------------

LAM_INV = 0.5


@pytest.fixture(scope="module")
def hmat_inv():
    """Adaptive ranks, so shape groups of every size occur."""
    Y = np.random.default_rng(2017).standard_normal((1024, 3))
    return build_hmatrix(
        Y,
        GaussianKernel(bandwidth=1.0),
        tree_config=TreeConfig(leaf_size=16, seed=0),
        skeleton_config=SkeletonConfig(
            tau=1e-5, max_rank=64, num_samples=192, num_neighbors=8, seed=1
        ),
    )


def assert_same_factors(a, b, node_ids=None):
    """Leaf and internal factors of ``a`` equal ``b``'s bit for bit."""
    leaf_ids = a.leaf_factors if node_ids is None else node_ids & a.leaf_factors.keys()
    for nid in leaf_ids:
        fa, fb = a.leaf_factors[nid], b.leaf_factors[nid]
        assert np.array_equal(fa.lu[0], fb.lu[0]), nid
        assert np.array_equal(fa.lu[1], fb.lu[1]), nid
        assert (fa.phat is None) == (fb.phat is None), nid
        if fa.phat is not None:
            assert np.array_equal(fa.phat, fb.phat), nid
        assert fa.rcond == fb.rcond, nid
    internal_ids = (
        a.node_factors if node_ids is None else node_ids & a.node_factors.keys()
    )
    for nid in internal_ids:
        fa, fb = a.node_factors[nid], b.node_factors[nid]
        assert np.array_equal(fa.z_lu[0], fb.z_lu[0]), nid
        assert np.array_equal(fa.z_lu[1], fb.z_lu[1]), nid
        assert (fa.phat is None) == (fb.phat is None), nid
        if fa.phat is not None:
            assert np.array_equal(fa.phat, fb.phat), nid
        assert fa.rcond == fb.rcond, nid


class TestGroupingInvariance:
    def test_factors_independent_of_grouping(self, hmat_inv):
        u = np.random.default_rng(5).standard_normal(1024)
        with grouping(stack_every_group):
            stacked = factorize(hmat_inv, LAM_INV, SolverConfig())
        with grouping(every_node_alone):
            alone = factorize(hmat_inv, LAM_INV, SolverConfig())
        assert list(stacked.leaf_factors) == list(alone.leaf_factors)
        assert list(stacked.node_factors) == list(alone.node_factors)
        assert_same_factors(stacked, alone)
        assert np.array_equal(stacked.solve(u), alone.solve(u))
        assert stacked.slogdet() == alone.slogdet()

    def test_distributed_local_phase_matches_serial(self, hmat_inv):
        serial = factorize(hmat_inv, LAM_INV, SolverConfig())
        dist = distributed_factorize(hmat_inv, LAM_INV, 2, backend="thread")
        for state in dist.states:
            local = state.local
            ids = local.leaf_factors.keys() | local.node_factors.keys()
            assert ids, "rank factored no nodes"
            assert_same_factors(local, serial, ids)

    def test_low_storage_solve_matches_full(self, hmat_inv):
        u = np.random.default_rng(6).standard_normal(1024)
        full = factorize(hmat_inv, LAM_INV, SolverConfig(storage="full"))
        low = factorize(hmat_inv, LAM_INV, SolverConfig(storage="low"))
        assert np.array_equal(low.solve(u), full.solve(u))


# ----------------------------------------------------------------------
# contiguous level stacks, strided phat gathers
# ----------------------------------------------------------------------

class TestLevelStacksAndViews:
    def test_batched_run_built_stacks_and_slots(self, parity):
        batched, _ = parity
        assert batched.level_stacks
        assert batched._phat_slots
        for nid, (stack, i, view) in batched._phat_slots.items():
            node = batched.hmatrix.tree.node(nid)
            assert batched._phat(node) is view
            assert np.shares_memory(view, stack)

    def test_gather_phats_returns_strided_view(self, parity):
        batched, _ = parity
        tree = batched.hmatrix.tree
        for nid in batched.node_factors:
            left, right = tree.children(tree.node(nid))
            if (
                left.id in batched._phat_slots
                and right.id in batched._phat_slots
                and batched._phat_slots[left.id][0]
                is batched._phat_slots[right.id][0]
            ):
                stack = batched._phat_slots[left.id][0]
                gathered = batched._gather_phats([left, right])
                assert np.shares_memory(gathered, stack)
                assert np.array_equal(gathered[0], batched._phat(left))
                assert np.array_equal(gathered[1], batched._phat(right))
                return
        pytest.fail("no internal node with both children in phat slots")

    def test_gather_phats_falls_back_after_rewrite(self, hmat):
        # simulate a recovery rung rewriting one child's factor: the
        # slot's view-identity check must detect it and copy instead of
        # returning a stale strided view.
        fact = factorize(hmat, 0.7, SolverConfig())
        tree = fact.hmatrix.tree
        for nid in fact.node_factors:
            left, right = tree.children(tree.node(nid))
            if left.id in fact._phat_slots and right.id in fact._phat_slots:
                break
        else:  # pragma: no cover - problem always has slotted siblings
            pytest.fail("no slotted sibling pair")
        stale = fact._phat(left).copy()
        if tree.is_leaf(left):
            fact.leaf_factors[left.id].phat = stale
        else:
            fact.node_factors[left.id].phat = stale
        stack = fact._phat_slots[left.id][0]
        gathered = fact._gather_phats([left, right])
        assert not np.shares_memory(gathered, stack)
        assert np.array_equal(gathered[0], stale)
        assert np.array_equal(gathered[1], fact._phat(right))
        # the fallback preserves the blocks' layout (the rewritten copy
        # is C-ordered, so the stack must be too): np.matmul bits follow
        # operand strides, and a layout flip would break parity.
        assert gathered[0].flags.c_contiguous == stale.flags.c_contiguous
        assert gathered[0].flags.f_contiguous == stale.flags.f_contiguous


# ----------------------------------------------------------------------
# serialization seams: pickling, level payloads, node payloads
# ----------------------------------------------------------------------

class TestSerializationSeams:
    def test_pickle_drops_stacks_keeps_answers(self, parity):
        batched, _ = parity
        loaded = pickle.loads(pickle.dumps(batched))
        assert loaded.level_stacks == {}
        assert loaded._phat_slots == {}
        assert np.array_equal(loaded.solve(U), batched.solve(U))
        assert loaded.slogdet() == batched.slogdet()

    def test_level_payload_resume_bitwise(self, hmat, parity):
        batched, _ = parity
        payloads = {}
        for lvl in batched.completed_levels:
            payloads.update(level_payload_nodes(batched.export_level_payload(lvl)))
        resumed = factorize(hmat, 0.7, SolverConfig(), resume_nodes=payloads)
        assert np.array_equal(resumed.solve(U), batched.solve(U))
        assert resumed.slogdet() == batched.slogdet()

    def test_node_payloads_match_per_node_run(self, parity):
        # the distributed local phase ships these between ranks; views
        # into level stacks must export the same bytes a groups-of-one
        # run does, and survive a pickle round-trip.
        batched, pernode = parity
        for nid, pf in pernode.leaf_factors.items():
            payload = pickle.loads(pickle.dumps(batched.export_node_payload(nid)))
            assert payload["kind"] == "leaf"
            assert np.array_equal(payload["lu"], pf.lu[0])
            assert np.array_equal(payload["piv"], pf.lu[1])
            assert payload["rcond"] == pf.rcond
        for nid, pf in pernode.node_factors.items():
            payload = pickle.loads(pickle.dumps(batched.export_node_payload(nid)))
            assert payload["kind"] == "internal"
            assert np.array_equal(payload["z_lu"], pf.z_lu[0])
            assert np.array_equal(payload["piv"], pf.z_lu[1])


# ----------------------------------------------------------------------
# checkpoint round-trip (and across groupings)
# ----------------------------------------------------------------------

def make_solver(checkpoint_dir=None):
    return FastKernelSolver(
        GaussianKernel(bandwidth=1.5),
        tree_config=TREE_CFG,
        skeleton_config=SKEL_CFG,
        solver_config=SolverConfig(
            resilience=ResilienceConfig(
                checkpoint_dir=str(checkpoint_dir) if checkpoint_dir else None
            ),
        ),
    )


class TestCheckpointRoundTrip:
    def test_resume_matches_uninterrupted(self, tmp_path):
        baseline = make_solver().fit(X)
        baseline.factorize(0.5)
        w_base = baseline.solve(U)

        first = make_solver(tmp_path / "cp").fit(X)
        first.factorize(0.5)
        second = make_solver(tmp_path / "cp").fit(X)
        second.factorize(0.5)  # restores every level from disk
        np.testing.assert_allclose(second.solve(U), w_base, rtol=0, atol=1e-12)

    def test_checkpoint_portable_across_batching_modes(self, tmp_path):
        # grouping is an execution strategy, not part of the problem: a
        # snapshot written by the policy-grouped run must resume when
        # every node runs alone (and agree bitwise, since the factors
        # are the same floats).
        first = make_solver(tmp_path / "cp").fit(X)
        first.factorize(0.5)
        w = first.solve(U)
        with grouping(every_node_alone):
            second = make_solver(tmp_path / "cp").fit(X)
            second.factorize(0.5)
        assert np.array_equal(second.solve(U), w)


# ----------------------------------------------------------------------
# skeletonization parity
# ----------------------------------------------------------------------

class TestSkeletonizeParity:
    def test_batched_skeletons_bitwise(self):
        tree = BallTree(X, TREE_CFG)
        with grouping(stack_every_group):
            on = skeletonize(tree, KERNEL, SKEL_CFG)
        with grouping(every_node_alone):
            off = skeletonize(tree, KERNEL, SKEL_CFG)
        assert list(on.skeletons) == list(off.skeletons)
        for nid, a in on.skeletons.items():
            b = off.skeletons[nid]
            assert np.array_equal(a.skeleton, b.skeleton)
            assert np.array_equal(a.candidates, b.candidates)
            assert np.array_equal(a.proj, b.proj)
            assert a.achieved_tol == b.achieved_tol


# ----------------------------------------------------------------------
# distributed / backend seam (runs under REPRO_VMPI_BACKEND=socket in CI)
# ----------------------------------------------------------------------

class TestDistributedSeam:
    def test_distributed_agrees_with_batched_serial(self, hmat, parity):
        batched, _ = parity
        w_serial = batched.solve(U)
        dist = distributed_factorize(hmat, 0.7, 4)
        w, _ = distributed_solve(dist, U)
        assert np.abs(w - w_serial).max() < 1e-10 * max(1.0, np.abs(w_serial).max())


# ----------------------------------------------------------------------
# dtype regression through the batched path
# ----------------------------------------------------------------------

class TestFloat32Regression:
    def test_float32_input_through_batched_path(self):
        X32 = X.astype(np.float32)
        solver = make_solver()
        solver.fit(X32).factorize(0.5)
        w = solver.solve(U)
        assert w.dtype == np.float64 and np.all(np.isfinite(w))
        # coercion happens at the validation boundary, so the float32
        # input must give bitwise the same answer as its float64 image.
        solver64 = make_solver()
        solver64.fit(X32.astype(np.float64)).factorize(0.5)
        assert np.array_equal(solver64.solve(U), w)
