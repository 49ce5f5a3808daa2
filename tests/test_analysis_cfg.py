"""CFG construction and dataflow tests on synthetic functions.

Exercises the edge model the leak analysis depends on: normal vs
exception edges, the ``exc-base`` classification (``except Exception``
cannot catch ``SimulatedCrash``), ``finally`` duplication, and the
forward gen/kill solver.
"""

import ast
import textwrap

from repro.analysis.cfg import EXC, EXC_BASE, NORMAL, build_cfg
from repro.analysis.dataflow import GenKill, drop_exc_base


def cfg_of(source):
    tree = ast.parse(textwrap.dedent(source))
    func = next(
        n for n in tree.body if isinstance(n, ast.FunctionDef)
    )
    return build_cfg(func)


def edge_kinds(cfg):
    return {kind for block in cfg.blocks for _, kind in block.succs}


def blocks_matching(cfg, predicate):
    return [b for b in cfg.blocks if b.stmt is not None and predicate(b.stmt)]


def test_straight_line_has_only_normal_and_exc_edges():
    cfg = cfg_of(
        """
        def f():
            a = g()
            return a
        """
    )
    kinds = edge_kinds(cfg)
    assert NORMAL in kinds
    assert EXC_BASE not in kinds


def test_except_exception_leaves_exc_base_escape():
    cfg = cfg_of(
        """
        def f():
            try:
                work()
            except Exception:
                handle()
        """
    )
    # SimulatedCrash subclasses BaseException: the unmatched edge out of
    # a try whose handlers stop at Exception is crash-only.
    assert EXC_BASE in edge_kinds(cfg)


def test_bare_except_catches_everything():
    cfg = cfg_of(
        """
        def f():
            try:
                work()
            except:
                handle()
        """
    )
    assert EXC_BASE not in edge_kinds(cfg)


def test_while_true_without_break_has_no_normal_exit():
    cfg = cfg_of(
        """
        def f():
            while True:
                work()
        """
    )
    preds = cfg.preds()
    normal_exit_preds = [
        b for b, kind in preds.get(cfg.exit_block.bid, []) if kind == NORMAL
    ]
    assert not normal_exit_preds


def test_finally_release_clears_both_paths():
    cfg = cfg_of(
        """
        def f():
            x = acquire()
            try:
                work()
            finally:
                release(x)
        """
    )
    gen = {}
    kill = {}
    for block in cfg.blocks:
        if isinstance(block.stmt, ast.Assign):
            gen.setdefault(block.bid, set()).add("x")
        src = ast.dump(block.stmt) if block.stmt is not None else ""
        if "release" in src:
            kill.setdefault(block.bid, set()).add("x")
    in_states = GenKill(gen=gen, kill=kill).solve(cfg)
    assert "x" not in in_states[cfg.exit_block.bid]
    assert "x" not in in_states[cfg.raise_block.bid]


def test_missing_release_reaches_exit_held():
    cfg = cfg_of(
        """
        def f():
            x = acquire()
            work(x)
            return None
        """
    )
    gen = {}
    for block in cfg.blocks:
        if isinstance(block.stmt, ast.Assign):
            gen.setdefault(block.bid, set()).add("x")
    in_states = GenKill(gen=gen, kill={}).solve(cfg)
    assert "x" in in_states[cfg.exit_block.bid]
    assert "x" in in_states[cfg.raise_block.bid]


def test_drop_exc_base_filter_hides_crash_only_paths():
    cfg = cfg_of(
        """
        def f():
            x = acquire()
            try:
                work(x)
            except Exception as error:
                release(x)
                raise
            release(x)
        """
    )
    gen, kill = {}, {}
    for block in cfg.blocks:
        if isinstance(block.stmt, ast.Assign) and isinstance(
            block.stmt.value, ast.Call
        ):
            gen.setdefault(block.bid, set()).add("x")
        src = ast.dump(block.stmt) if block.stmt is not None else ""
        if "'release'" in src:
            kill.setdefault(block.bid, set()).add("x")
    # With crash edges included, the exc-base escape holds x at raise.
    full = GenKill(gen=gen, kill=kill).solve(cfg)
    assert "x" in full[cfg.raise_block.bid]
    # The leak analysis drops exc-base: recovery scavenges crash leftovers.
    filtered = GenKill(gen=gen, kill=kill).solve(cfg, edge_filter=drop_exc_base)
    assert "x" not in filtered[cfg.raise_block.bid]
    assert "x" not in filtered[cfg.exit_block.bid]


def test_safe_statements_have_no_exc_edges():
    cfg = cfg_of(
        """
        def f(tel):
            data = {}
            items = []
            flag = tel is not None
            return data, items, flag
        """
    )
    for block in blocks_matching(
        cfg, lambda s: isinstance(s, (ast.Assign, ast.AnnAssign))
    ):
        kinds = {kind for _, kind in block.succs}
        assert EXC not in kinds and EXC_BASE not in kinds
