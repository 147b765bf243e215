"""Columnar workloads: pinned programs, the object view, the line index.

``build_workload`` writes each app's per-block columns directly.  The
digests below were taken from the object-graph builder it replaced
(``BasicBlock``/``Branch`` objects first, columns flattened from them),
so every generated program must stay bit-identical: the same columns,
and an object view equal to the old objects field for field.
"""

import hashlib

import pytest

from repro.errors import WorkloadError
from repro.workloads.apps import app_names, get_app
from repro.workloads.cfg import (
    KIND_COND,
    KIND_RETURN,
    KIND_UNCOND,
    BlockColumns,
    Workload,
    build_workload,
)
from tests.conftest import make_tiny_spec, workload_from_blocks


def _digest(rows) -> str:
    h = hashlib.sha256()
    for row in rows:
        h.update(repr(row).encode())
        h.update(b"\n")
    return h.hexdigest()[:24]


def _tail(wl):
    """Function records, handlers and their popularity weights."""
    return (
        tuple(
            (f.index, f.level, f.first_block, f.n_blocks, f.entry_addr)
            for f in wl.functions
        ),
        wl.handler_indices,
        wl.handler_weights,
        wl.root_function,
        wl.build_seed,
    )


def object_digest(wl) -> str:
    """Every BasicBlock and Branch field of ``wl.binary``, plus the tail."""

    def rows():
        for b in wl.binary.blocks:
            br = b.branch
            yield (
                b.index,
                b.start,
                b.size_bytes,
                b.instructions,
                None
                if br is None
                else (
                    br.pc,
                    br.kind.value,
                    br.target,
                    br.fallthrough,
                    br.alt_targets,
                    br.taken_bias,
                ),
            )
        yield _tail(wl)

    return _digest(rows())


def column_digest(wl) -> str:
    """The per-block columns the walker, simulator and planner read."""

    def rows():
        yield from zip(
            wl.block_start,
            wl.block_size,
            wl.block_instructions,
            wl.block_lines,
            wl.branch_pc,
            wl.kind_code,
            wl.branch_target,
            wl.target_block,
            wl.taken_bias,
            wl.alt_target_blocks,
        )
        yield _tail(wl)

    return _digest(rows())


# (app, scale) -> (object digest, column digest), taken from the
# object-graph builder.
PINNED = {
    ("cassandra", 0.1): ("14b64a21117a9b7a61b9c82b", "6b869372139b29c9a1953511"),
    ("drupal", 0.1): ("5435338f577a720a203c67c4", "1dfdfedde781c95a3a8ce51d"),
    ("drupal", 1.0): ("ad961ffae20a90251d624b76", "52045affceb15c37364645a6"),
    ("finagle-chirper", 0.1): ("867dafc6d15715cd2dd90542", "94b27dc295e986454b9f95b7"),
    ("finagle-http", 0.1): ("28b64e1985d18fb9e58a55f9", "fca85b05444f3905f7bfbcd0"),
    ("kafka", 0.1): ("270ef979c51484bee1cd803a", "6abf75fefe487cb8eae8101b"),
    ("mediawiki", 0.1): ("0dbf9443bc8e1ec817b629f0", "07d36f7458a4db07ad4ed2b2"),
    ("tomcat", 0.1): ("a32825239b9a638788d9eaac", "71dabb9dcb25fcc27f2336d4"),
    ("verilator", 0.1): ("8bbdcd4a8d83332ee03423ef", "78d5d0d45ac948936fd3025e"),
    ("wordpress", 0.1): ("3ce525c8370f216f0a85c6a5", "5e6a60a5bd87b7295b634473"),
    ("wordpress", 1.0): ("370f24a3e5dd4be3bed566a7", "0d4b4b2e1ab56d93745eef7a"),
}


@pytest.mark.parametrize("app,scale", sorted(PINNED))
def test_generated_program_is_pinned(app, scale):
    wl = build_workload(get_app(app, scale=scale), seed=0)
    assert (object_digest(wl), column_digest(wl)) == PINNED[(app, scale)]


def test_every_app_is_pinned():
    assert {app for app, scale in PINNED if scale == 0.1} == set(app_names())


class TestObjectView:
    def test_view_matches_the_columns(self, tiny_workload):
        wl = tiny_workload
        assert [b.index for b in wl.binary] == list(range(wl.n_blocks))
        for b in wl.binary:
            i = b.index
            assert (b.start, b.size_bytes, b.instructions) == (
                wl.block_start[i],
                wl.block_size[i],
                wl.block_instructions[i],
            )
            assert b.lines(wl.line_bytes) == wl.block_lines[i]
            br = b.branch
            if br is None:
                assert wl.branch_kind[i] is None
                continue
            assert br.kind is wl.branch_kind[i]
            assert (br.pc, br.target, br.taken_bias) == (
                wl.branch_pc[i],
                wl.branch_target[i],
                wl.taken_bias[i],
            )
            assert br.alt_targets == tuple(
                wl.block_start[t] for t in wl.alt_target_blocks[i]
            )

    def test_adapter_inverts_the_view(self, tiny_workload):
        again = workload_from_blocks(tiny_workload.binary.blocks, tiny_workload.spec)
        for name in COLUMNS:
            assert getattr(again, name) == getattr(tiny_workload, name), name

    def test_view_is_built_once(self, tiny_workload):
        assert tiny_workload.binary is tiny_workload.binary


def test_line_index_predecodes_like_the_binary():
    wl = build_workload(get_app("wordpress", scale=0.1), seed=0)
    binary = wl.binary
    assert set(wl.line_branches) <= set(wl.text_lines)
    for line in wl.text_lines:
        assert [wl.branch_pc[b] for b in wl.line_branches.get(line, ())] == [
            br.pc for br in binary.branches_in_line(line)
        ], line


def test_block_index_at_bisects_the_start_column():
    wl = build_workload(get_app("drupal", scale=0.1), seed=0)
    for i, start in enumerate(wl.block_start):
        assert wl.block_index_at(start) == i
    mid = next(i for i, size in enumerate(wl.block_size) if size > 1)
    for addr in (wl.block_start[mid] + 1, wl.block_start[-1] + wl.block_size[-1]):
        with pytest.raises(KeyError):
            wl.block_index_at(addr)


COLUMNS = (
    "block_start",
    "block_size",
    "block_instructions",
    "block_lines",
    "branch_pc",
    "kind_code",
    "branch_kind",
    "branch_target",
    "target_block",
    "taken_bias",
    "alt_target_blocks",
)


def _columns(**changes):
    """Two valid blocks (a conditional falling into a return), then
    *changes* applied column by column."""
    cols = BlockColumns(
        start=[0x1000, 0x1020],
        size=[32, 16],
        instructions=[8, 4],
        branch_pc=[0x101C, 0x102C],
        kind_code=[KIND_COND, KIND_RETURN],
        target=[0x1000, 0],
        taken_bias=[0.5, 1.0],
        alt_target_blocks=[(), ()],
    )
    return cols._replace(**changes)


def _workload(cols):
    return Workload(
        spec=make_tiny_spec(name="columns"),
        columns=cols,
        functions=(),
        handler_indices=(0,),
        handler_weights=(1.0,),
        root_function=0,
        build_seed=0,
    )


class TestBulkChecks:
    def test_valid_columns_pass(self):
        wl = _workload(_columns())
        assert wl.target_block == [0, -1]
        assert wl.line_branches == {0x1000 // 64: [0, 1]}

    @pytest.mark.parametrize(
        "changes,message",
        [
            (dict(start=[], size=[], instructions=[], branch_pc=[], kind_code=[],
                  target=[], taken_bias=[], alt_target_blocks=[]), "at least one"),
            (dict(size=[32]), "differ in length"),
            (dict(size=[32, 0]), "at least one byte"),
            (dict(instructions=[8, -1]), "at least one instruction"),
            (dict(branch_pc=[0x1020, 0x102C]), "outside block"),
            (dict(branch_pc=[0x101C, 0x101C]), "outside block"),
            (dict(target=[-4, 0]), "non-negative"),
            (dict(start=[-0x40, -0x20], branch_pc=[-0x24, -0x14]), "non-negative"),
            (dict(taken_bias=[1.5, 1.0]), "probability"),
            (dict(taken_bias=[float("nan"), 1.0]), "probability"),
            (dict(start=[0x1000, 0x1040], branch_pc=[0x101C, 0x104C]), "fallthrough"),
            (dict(kind_code=[KIND_COND, KIND_COND]), "fallthrough"),
            (dict(start=[0x1000, 0x1010], branch_pc=[0x100C, 0x101C]), "overlapping"),
            (dict(start=[0x1000, 0x1010], size=[32, 32], branch_pc=[0x101C, 0x101C],
                  kind_code=[KIND_UNCOND, KIND_RETURN]), "duplicate"),
            (dict(kind_code=[KIND_COND, 9]), "kind codes"),
            (dict(alt_target_blocks=[(), (2,)]), "block indices"),
        ],
    )
    def test_malformed_columns_raise(self, changes, message):
        with pytest.raises(WorkloadError, match=message):
            _workload(_columns(**changes))


class TestFigureSweepsNeverBuildTheView:
    """The figure, simulation and plan paths read columns and the line
    index only; the object view is for tests, examples and analysis."""

    @pytest.fixture(autouse=True)
    def small_env(self, monkeypatch):
        import repro.experiments.runner as runner_mod

        monkeypatch.setenv("REPRO_APPS", "wordpress")
        monkeypatch.setenv("REPRO_TRACE_INSTRUCTIONS", "20000")
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        monkeypatch.setattr(runner_mod, "_GLOBAL_RUNNER", None)

        def refuse(self):
            raise AssertionError("Workload.binary built on a figure path")

        monkeypatch.setattr(Workload, "binary", property(refuse))

    def test_fig02_fig09_fig16_read_only_columns(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["--no-cache", "fig02", "fig09", "fig16"]) == 0
        capsys.readouterr()
